"""Local rules over digraph scopes, violation tests, and feasibility margins.

A rule at vertex x constrains the restriction of a colouring to Var(x) and is
stored by its complement: the list of forbidden tuples, indexed by Var(x) in
ascending vertex order.  A colouring is bad at x when that restriction is
forbidden.
"""

from __future__ import annotations

import math
import operator
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
        """Check the rule table against the graph; raises MalformedProblemError.

        Each vertex's rows must be tuples of its scope's arity over exact-int
        colours in 0..b-1 (a bool is not a colour), a vertex with an empty scope
        has no rows, and the rows are strictly increasing, which rules out
        duplicates and disorder in one test.  That bounds the row count too:
        distinct tuples of arity k over b colours number at most b^k.  This is
        the one rule check: `load_problem` hands it a file's rows as written,
        unsorted and undeduplicated.  The graph is not checked here: the
        checked constructors `Digraph.from_scopes` and `Digraph.from_edges`
        check outside graphs.
        """
        b = self.b
        if b < 2:
            raise MalformedProblemError("colour count must be >= 2")
        if len(self.rule.forbidden) != self.n:
            raise MalformedProblemError("rule table size does not match vertex count")
        for x, (scope, rows) in enumerate(zip(self.graph.out_adj, self.rule.forbidden)):
            for t in rows:
                if len(t) != len(scope):
                    raise MalformedProblemError(
                        f"vertex {x}: forbidden tuple {t} has length {len(t)}, scope needs {len(scope)}"
                    )
                for c in t:
                    if type(c) is not int or not 0 <= c < b:
                        raise MalformedProblemError(f"vertex {x}: colour {c!r} out of range 0..{b - 1}")
            if rows and not scope:  # only the empty tuple fits an empty scope
                raise MalformedProblemError(f"vertex {x} has empty scope but forbidden tuples")
            if not all(map(operator.lt, rows, rows[1:])):
                raise MalformedProblemError(f"vertex {x}: forbidden tuples are not strictly increasing")


def res(p: ColouringProblem, f: Colouring, x: int) -> tuple[int, ...]:
    """Restriction of f to the scope of x, in ascending vertex order."""
    return tuple(f[v] for v in p.graph.out_adj[x])


def is_violated(p: ColouringProblem, f: Colouring, x: int) -> bool:
    return res(p, f, x) in p.forbidden_sets()[x]


def bad_set(p: ColouringProblem, f: Colouring) -> list[int]:
    """All violated vertices, sorted."""
    sets = p.forbidden_sets()
    read = p.graph.readers()
    return [x for x in p.active_clauses() if read[x](f) in sets[x]]


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


def condition_report(p: ColouringProblem, delta: float, eps: float) -> dict:
    """Numbers behind check_condition: margin, dependency degree, threshold."""
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be positive")
    margin = lll_margin(p)
    d = p.graph.maxdeg()
    big_delta = p.rel().maxdeg()
    if big_delta == 0:
        if margin > 0:
            raise MalformedProblemError("nonempty forbidden sets on a scope-free instance")
        return {"margin": 0.0, "max_dep_degree": 0, "threshold": 1.0, "ok": True}
    threshold = 1.0 / ((math.e * big_delta) ** (1.0 + delta) * p.b ** (eps * d))
    # real comparison with relative tolerance 1e-12
    ok = margin <= threshold * (1.0 + 1e-12)
    return {"margin": margin, "max_dep_degree": big_delta, "threshold": threshold, "ok": ok}


def check_condition(p: ColouringProblem, delta: float, eps: float) -> bool:
    """Advisory feasibility check: margin <= 1 / ((e*Delta)^(1+delta) * b^(eps*d)).

    d is the maximum degree of the graph and Delta that of its dependency
    graph, a self-loop counted once.  Solvers run regardless of the outcome.
    """
    return condition_report(p, delta, eps)["ok"]
