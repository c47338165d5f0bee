"""Local rules over digraph scopes, violation tests, and feasibility margins.

A rule at vertex x constrains the restriction of a colouring to Var(x) and is
stored by its complement: the list of forbidden tuples, indexed by Var(x) in
ascending vertex order.  A colouring is bad at x when that restriction is
forbidden.
"""

from __future__ import annotations

import itertools
import marshal
import math
import operator
from dataclasses import dataclass, field

from resample_forge.graph_core import Digraph
# unused here, but perfbench/tracing.py wraps the name rule_engine.build_rel
from resample_forge.graph_core import build_rel  # noqa: F401

# Colourings are plain lists of ints, one colour per vertex.
Colouring = list

# The most rows a table may have and still answer `in` itself, as a tuple: a
# full `bad_set` scan of distinct random tables takes 1.4-1.7x the time of
# their frozensets' scan at 8 rows and 1.7-2.0x at 12 (0.85x at one row),
# while a frozenset of 5-15 rows takes 472-728 B.
SMALL_TABLE_ROWS = 8


class MalformedProblemError(ValueError):
    """The rule table and the graph disagree."""


@dataclass
class LocalRule:
    """Per-vertex forbidden-tuple table; tuple i constrains sorted(Var(x)).

    `from_lists` and `interned`, which `load_problem` uses, make equal tables
    one shared tuple: a torus holds one table for all its vertices, so
    `ColouringProblem.validate` checks it once.  Each table's membership
    test is described at `ColouringProblem.forbidden_lookup`.
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
    _forbidden_lookup: list | None = field(default=None, init=False, repr=False, compare=False)
    _active: range | list[int] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.graph.n

    def forbidden_lookup(self) -> list:
        """Per vertex, a container for which `t in lookup[x]` holds exactly when t is a row of x's table, cached.

        `validate` builds it, from the distinct table objects it has just
        checked, so only a well-formed table is ever tested; a problem not
        yet validated is validated here, once.  A set is kept only where it
        pays for itself:
        - one table object shared by every vertex, as on a torus, gets one
          frozenset, which every vertex shares;
        - otherwise, when no table has more than `SMALL_TABLE_ROWS` rows,
          the lookup is `rule.forbidden` itself, and nothing is built;
        - otherwise each table object gets one frozenset of its rows, handed
          to its vertices by a C-level `map` over their tables' ids.
        Each frozenset is built from a `set`, whose size CPython knows, so
        its table is sized once.  That is not always the smaller copy: next
        to a frozenset built from the tuple, it is smaller at 5-7, 19-31 and
        77-127 rows (472 against 728 B at six), larger at 16-18 and 64-76
        (1,240 against 728 B at 16), and the same size elsewhere below 256.
        """
        if self._forbidden_lookup is None:
            self.validate()
        return self._forbidden_lookup

    def active_clauses(self) -> range | list[int]:
        """Vertices with at least one forbidden tuple, ascending; only these can be violated, cached.

        `range(n)` when every vertex has one, as on a torus, so no list of n
        ints is kept; otherwise the list of those vertices.
        """
        if self._active is None:
            forbidden = self.rule.forbidden
            self._active = range(self.n) if all(forbidden) else [x for x in range(self.n) if forbidden[x]]
        return self._active

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
        once per scope length, with no loop over the vertices in Python: the
        pairs come from `_table_pairs` in first-seen order, so the first
        faulty pair holds the first faulty vertex, which is looked up only
        then and named.  Once every check passes, the same distinct tables
        give the lookup that `forbidden_lookup` returns.
        """
        b = self.b
        if type(b) is not int:
            raise MalformedProblemError(f"colour count must be an integer, not {b!r}")
        if b < 2:
            raise MalformedProblemError("colour count must be >= 2")
        forbidden, scopes = self.rule.forbidden, self.graph.out_adj
        if len(forbidden) != self.n:
            raise MalformedProblemError("rule table size does not match vertex count")
        tables, pairs = _table_pairs(forbidden, scopes)
        for rows, k in pairs:
            fault = _table_fault(rows, k, b)
            if fault:
                x = next(x for x, (scope, t) in enumerate(zip(scopes, forbidden)) if t is rows and len(scope) == k)
                raise MalformedProblemError(f"vertex {x}{fault}")
        if len(tables) == 1:
            self._forbidden_lookup = [frozenset(set(forbidden[0]))] * self.n
        elif max(map(len, tables.values()), default=0) <= SMALL_TABLE_ROWS:
            self._forbidden_lookup = forbidden
        else:
            sets = {key: frozenset(set(rows)) for key, rows in tables.items()}
            self._forbidden_lookup = list(map(sets.__getitem__, map(id, forbidden)))


def _table_pairs(forbidden: list, scopes: list):
    """The distinct table objects keyed by id, and the distinct (table, scope length) pairs, in first-seen order.

    Tables are keyed by identity, since a malformed row may be unhashable.
    A C-level `is` scan finds one table object held by every vertex, as on a
    torus, without an id per vertex; else C-level `dict` builds key them.
    Neither loops over the vertices in Python.
    """
    one = forbidden and all(map(operator.is_, forbidden, itertools.repeat(forbidden[0])))
    tables = {id(forbidden[0]): forbidden[0]} if one else dict(zip(map(id, forbidden), forbidden))
    lengths = dict.fromkeys(map(len, scopes))
    if len(tables) > 1 and len(lengths) > 1:
        pairs = dict.fromkeys(zip(map(id, forbidden), map(len, scopes)))
    else:  # one half of every pair is the same, so the other half's first-seen order is the pairs'
        pairs = itertools.product(tables, lengths)
    return tables, ((tables[key], k) for key, k in pairs)


def _table_fault(rows, k: int, b: int) -> str:
    """What is wrong with `rows` as the table of a vertex with a k-cell scope, after "vertex x"; "" if nothing."""
    for t in rows:
        if type(t) is not tuple:
            return f": forbidden row {t!r} is not a tuple"
        if len(t) != k:
            return f": forbidden tuple {t} has length {len(t)}, scope needs {k}"
        for c in t:
            if type(c) is not int or not 0 <= c < b:
                return f": colour {c!r} out of range 0..{b - 1}"
    if rows and not k:  # only the empty tuple fits an empty scope
        return " has empty scope but forbidden tuples"
    if not all(map(operator.lt, rows, rows[1:])):
        return ": forbidden tuples are not strictly increasing"
    return ""


def res(p: ColouringProblem, f: Colouring, x: int) -> tuple[int, ...]:
    """Restriction of f to the scope of x, in ascending vertex order."""
    return tuple(f[v] for v in p.graph.out_adj[x])


def is_violated(p: ColouringProblem, f: Colouring, x: int) -> bool:
    return res(p, f, x) in p.forbidden_lookup()[x]


def bad_set(p: ColouringProblem, f: Colouring) -> list[int]:
    """All violated vertices, sorted."""
    lookup = p.forbidden_lookup()
    read = p.graph.readers()
    return [x for x in p.active_clauses() if read[x](f) in lookup[x]]


def satisfies(p: ColouringProblem, f: Colouring) -> bool:
    return not bad_set(p, f)


def lll_margin(p: ColouringProblem) -> float:
    """Worst-case forbidden fraction: max over x of |forbidden(x)| / b^|Var(x)|.

    0.0 when nothing is forbidden.  The fraction is computed once per
    `_table_pairs` pair, the pairs `ColouringProblem.validate` checks: a
    torus has one.
    """
    _, pairs = _table_pairs(p.rule.forbidden, p.graph.out_adj)
    return max((len(rows) / p.b**k for rows, k in pairs if rows), default=0.0)


def condition_report(p: ColouringProblem, delta: float, eps: float) -> dict:
    """Numbers behind check_condition: margin, dependency degree, threshold.

    delta and eps must be positive; NaN is not, and is refused too.
    """
    if not (delta > 0 and eps > 0):
        raise ValueError("delta and eps must be positive")
    margin = lll_margin(p)
    d = p.graph.maxdeg()
    big_delta = p.graph.big_delta()
    if big_delta == 0:
        if margin > 0:
            raise MalformedProblemError("nonempty forbidden sets on a scope-free instance")
        return {"margin": 0.0, "max_dep_degree": 0, "threshold": 1.0, "ok": True}
    try:
        threshold = 1.0 / ((math.e * big_delta) ** (1.0 + delta) * p.b ** (eps * d))
    except OverflowError:  # a denominator past the float range: only margin 0 passes
        threshold = 0.0
    # real comparison with relative tolerance 1e-12
    ok = margin <= threshold * (1.0 + 1e-12)
    return {"margin": margin, "max_dep_degree": big_delta, "threshold": threshold, "ok": ok}


def check_condition(p: ColouringProblem, delta: float, eps: float) -> bool:
    """Advisory feasibility check: margin <= 1 / ((e*Delta)^(1+delta) * b^(eps*d)).

    d is the maximum degree of the graph and Delta that of its dependency
    graph, a self-loop counted once.  Solvers run regardless of the outcome.
    """
    return condition_report(p, delta, eps)["ok"]
