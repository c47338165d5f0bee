"""Local rules over digraph scopes, violation tests, and feasibility margins.

A rule at vertex x constrains the restriction of a colouring to Var(x) and is
stored by its complement: the list of forbidden tuples, indexed by Var(x) in
ascending vertex order.  A colouring is bad at x when that restriction is
forbidden.
"""

from __future__ import annotations

import marshal
import math
import operator
from dataclasses import dataclass, field

from resample_forge.graph_core import Digraph, rel_maxdeg, rel_row
# unused here, but perfbench/tracing.py wraps the name rule_engine.build_rel
from resample_forge.graph_core import build_rel  # noqa: F401

# Colourings are plain lists of ints, one colour per vertex.
Colouring = list


class MalformedProblemError(ValueError):
    """The rule table and the graph disagree."""


@dataclass
class LocalRule:
    """Per-vertex forbidden-tuple table; tuple i constrains sorted(Var(x)).

    `from_lists` and `interned`, which `load_problem` uses, make equal tables
    one shared tuple: a torus holds one table for all its vertices, so
    `ColouringProblem.validate` and `forbidden_sets` handle it once.
    """

    forbidden: list[tuple[tuple[int, ...], ...]]

    @staticmethod
    def from_lists(rows) -> "LocalRule":
        """Sorted, deduplicated tables, equal ones shared."""
        tables = [sorted(set(map(tuple, row))) for row in rows]
        return LocalRule.interned(tables, LocalRule.share_equal(tables))

    @staticmethod
    def share_equal(tables: list) -> list:
        """Replace each table in `tables`, in place, with the first equal one; returns the distinct tables.

        Tables are compared by their marshal bytes, which are exact about
        types where == is not (1 == 1.0 == True) and need nothing hashable,
        so a malformed table is never merged into a well-formed one.  A
        duplicate is dropped as soon as it is met, and on JSON values this
        raises nothing, so a loader may share first and check later.
        """
        first: dict[bytes, list] = {}
        for x, rows in enumerate(tables):
            tables[x] = first.setdefault(marshal.dumps(rows, 2), rows)
        return list(first.values())

    @staticmethod
    def interned(tables: list, distinct: list) -> "LocalRule":
        """Each vertex's rows as a tuple of tuples, in the order given; equal tables share one tuple.

        `tables` must already be shared in place by `share_equal`, and
        `distinct` be its result.  Each distinct table is converted once.
        """
        shared = {id(rows): tuple(map(tuple, rows)) for rows in distinct}  # every table stays alive in `tables`
        return LocalRule([shared[id(rows)] for rows in tables])


@dataclass
class ColouringProblem:
    graph: Digraph
    b: int
    rule: LocalRule
    metadata: dict = field(default_factory=dict)
    _forbidden_sets: list[frozenset] | None = field(default=None, repr=False, compare=False)
    _active: list[int] | None = field(default=None, repr=False, compare=False)
    _rel: Digraph | None = field(default=None, repr=False, compare=False)
    _rel_rows: list | None = field(default=None, repr=False, compare=False)
    _big_delta: int | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.graph.n

    def forbidden_sets(self) -> list[frozenset]:
        """Per vertex, its forbidden tuples as a frozenset, cached; one set per distinct table object."""
        if self._forbidden_sets is None:
            by_table: dict[int, frozenset] = {}  # id(table) -> its set; every table stays alive in self.rule
            sets = []
            for rows in self.rule.forbidden:
                s = by_table.get(id(rows))
                if s is None:
                    s = by_table[id(rows)] = frozenset(rows)
                sets.append(s)
            self._forbidden_sets = sets
        return self._forbidden_sets

    def active_clauses(self) -> list[int]:
        """Vertices with at least one forbidden tuple; only these can be violated."""
        if self._active is None:
            self._active = [x for x in range(self.n) if self.rule.forbidden[x]]
        return self._active

    def rel_rows(self, xs) -> list:
        """The dependency graph's row table with at least the rows of `xs` built.

        Row x equals `build_rel`'s row x.  A row is built the first time it is
        asked for and kept; one nobody has asked for yet is None.  A run asks
        only for the rules it visits: on a loaded 120x120 torus, 537 to 2,247
        of the 14,400 rows over ten seeds.  No table exists until the first
        call, and neither loading nor generating a problem makes one.  Once
        `rel` has been built, every row is.
        """
        rows = self._rel_rows
        if rows is None:
            rows = self._rel_rows = [None] * self.n
        for x in xs:
            if rows[x] is None:
                rows[x] = rel_row(self.graph, x)
        return rows

    def rel(self) -> Digraph:
        """The whole dependency graph, cached; it completes the rows `rel_rows` has built so far.

        Only the witness forests read every row; Delta alone is `big_delta`.
        """
        if self._rel is None:
            rows = self.rel_rows(range(self.n))
            self._rel = Digraph(self.n, rows, rows)
        return self._rel

    def big_delta(self) -> int:
        """Delta, the dependency graph's maximum degree (a self-loop counted once), cached.

        Streamed through `rel_maxdeg`, so no row is kept.
        """
        if self._big_delta is None:
            self._big_delta = rel_maxdeg(self.graph)
        return self._big_delta

    def validate(self) -> None:
        """Check the rule table against the graph; raises MalformedProblemError.

        Each vertex's rows must be tuples of its scope's arity over exact-int
        colours in 0..b-1 (a bool is not a colour), a vertex with an empty scope
        has no rows, and the rows are strictly increasing, which rules out
        duplicates and disorder in one test.  That bounds the row count too:
        distinct tuples of arity k over b colours number at most b^k.  The
        colour count b must be an exact int.  This is the one rule check:
        `load_problem` hands it a file's rows as written, unsorted and
        undeduplicated.  The graph is not checked here: the checked
        constructors `Digraph.from_scopes` and `Digraph.from_edges` check
        outside graphs.

        A table object shared by several vertices (see `LocalRule`) is checked
        once per scope length, so the first faulty vertex is still the one
        named.
        """
        b = self.b
        if type(b) is not int:
            raise MalformedProblemError(f"colour count must be an integer, not {b!r}")
        if b < 2:
            raise MalformedProblemError("colour count must be >= 2")
        if len(self.rule.forbidden) != self.n:
            raise MalformedProblemError("rule table size does not match vertex count")
        # (id(table), scope length) pairs seen: keyed by identity, since a malformed
        # row may be unhashable; every table stays alive in self.rule meanwhile
        checked: set[tuple[int, int]] = set()
        for x, (scope, rows) in enumerate(zip(self.graph.out_adj, self.rule.forbidden)):
            key = (id(rows), len(scope))
            if key in checked:
                continue
            checked.add(key)
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
    big_delta = p.big_delta()
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
