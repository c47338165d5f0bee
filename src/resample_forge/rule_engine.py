"""Local rules over digraph scopes, violation tests, and feasibility margins.

A rule at vertex x constrains the restriction of a colouring to Var(x) and is
stored by its complement: the list of forbidden tuples, indexed by Var(x) in
ascending vertex order.  A colouring is bad at x when that restriction is
forbidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from resample_forge.graph_core import Digraph, build_rel

# Colourings are plain lists of ints, one colour per vertex.
Colouring = list


class MalformedProblemError(ValueError):
    """The rule table and the graph disagree."""


@dataclass
class LocalRule:
    """Per-vertex forbidden-tuple table; tuple i constrains sorted(Var(x))."""

    forbidden: list[tuple[tuple[int, ...], ...]]

    @staticmethod
    def from_lists(rows) -> "LocalRule":
        return LocalRule([tuple(sorted(set(map(tuple, row)))) for row in rows])


@dataclass
class ColouringProblem:
    graph: Digraph
    b: int
    rule: LocalRule
    metadata: dict = field(default_factory=dict)
    _forbidden_sets: list[frozenset] | None = field(default=None, repr=False, compare=False)
    _active: list[int] | None = field(default=None, repr=False, compare=False)
    _rel: Digraph | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.graph.n

    def forbidden_sets(self) -> list[frozenset]:
        if self._forbidden_sets is None:
            self._forbidden_sets = [frozenset(row) for row in self.rule.forbidden]
        return self._forbidden_sets

    def active_clauses(self) -> list[int]:
        """Vertices with at least one forbidden tuple; only these can be violated."""
        if self._active is None:
            self._active = [x for x in range(self.n) if self.rule.forbidden[x]]
        return self._active

    def rel(self) -> Digraph:
        if self._rel is None:
            self._rel = build_rel(self.graph)
        return self._rel

    def validate(self) -> None:
        """Enforce structural invariants; raises MalformedProblemError."""
        self.graph.validate()
        if self.b < 2:
            raise MalformedProblemError("colour count must be >= 2")
        if len(self.rule.forbidden) != self.n:
            raise MalformedProblemError("rule table size does not match vertex count")
        for x in range(self.n):
            scope = self.graph.out_adj[x]
            rows = self.rule.forbidden[x]
            if not scope and rows:
                raise MalformedProblemError(f"vertex {x} has empty scope but forbidden tuples")
            if len(set(rows)) != len(rows):
                raise MalformedProblemError(f"vertex {x} has duplicate forbidden tuples")
            if list(rows) != sorted(rows):
                raise MalformedProblemError(f"vertex {x} has unsorted forbidden tuples")
            if len(rows) > self.b ** len(scope):
                raise MalformedProblemError(f"vertex {x} forbids more tuples than exist")
            for t in rows:
                if len(t) != len(scope):
                    raise MalformedProblemError(
                        f"vertex {x}: forbidden tuple of length {len(t)}, scope has {len(scope)}"
                    )
                for c in t:
                    if type(c) is not int or not (0 <= c < self.b):  # bool is not int here
                        raise MalformedProblemError(f"vertex {x}: colour {c!r} out of range 0..{self.b - 1}")


def res(p: ColouringProblem, f: Colouring, x: int) -> tuple[int, ...]:
    """Restriction of f to the scope of x, in ascending vertex order."""
    return tuple(f[v] for v in p.graph.out_adj[x])


def is_violated(p: ColouringProblem, f: Colouring, x: int) -> bool:
    return res(p, f, x) in p.forbidden_sets()[x]


def bad_set(p: ColouringProblem, f: Colouring) -> list[int]:
    """All violated vertices, sorted."""
    sets = p.forbidden_sets()
    out = p.graph.out_adj
    return [x for x in p.active_clauses() if tuple(f[v] for v in out[x]) in sets[x]]


def satisfies(p: ColouringProblem, f: Colouring) -> bool:
    return not bad_set(p, f)


def lll_margin(p: ColouringProblem) -> float:
    """Worst-case forbidden fraction: max over x of |forbidden(x)| / b^|Var(x)|."""
    worst = 0.0
    for x in range(p.n):
        rows = p.rule.forbidden[x]
        if rows:
            worst = max(worst, len(rows) / p.b ** len(p.graph.out_adj[x]))
    return worst


def condition_report(p: ColouringProblem, delta: float, eps: float, d: int) -> dict:
    """Numbers behind check_condition: margin, dependency degree, threshold."""
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be positive")
    if d < 1:
        raise ValueError("d must be >= 1")
    margin = lll_margin(p)
    big_delta = p.rel().maxdeg()
    if big_delta == 0:
        if margin > 0:
            raise MalformedProblemError("nonempty forbidden sets on a scope-free instance")
        return {"margin": 0.0, "max_dep_degree": 0, "threshold": 1.0, "ok": True}
    threshold = 1.0 / ((math.e * big_delta) ** (1.0 + delta) * p.b ** (eps * d))
    # real comparison with relative tolerance 1e-12
    ok = margin <= threshold * (1.0 + 1e-12)
    return {"margin": margin, "max_dep_degree": big_delta, "threshold": threshold, "ok": ok}


def check_condition(p: ColouringProblem, delta: float, eps: float, d: int) -> bool:
    """Advisory feasibility check: margin <= 1 / ((e*Delta)^(1+delta) * b^(eps*d)).

    Delta is the maximum degree of the dependency graph (a self-loop counts
    once).  Solvers run regardless of the outcome.
    """
    return condition_report(p, delta, eps, d)["ok"]
