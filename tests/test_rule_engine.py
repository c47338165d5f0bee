"""Tests for local rules, violation tests, and the feasibility margin."""

import inspect
import itertools
import math
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from resample_forge.graph_core import Digraph
from resample_forge.instance_io import gen_grid_ksat, gen_torus_nae
from resample_forge.rule_engine import (
    ColouringProblem,
    LocalRule,
    MalformedProblemError,
    bad_set,
    check_condition,
    condition_report,
    is_violated,
    lll_margin,
    res,
    satisfies,
)
from tests.helpers import random_looped_problem, witness_rules_problem
from tests.reference_rule_engine import reference_bad_set, reference_lll_margin, reference_validate_problem
from tests.test_graph_core import random_digraph


def interned(tables):
    """`tables` shared in place, then interned, as `load_problem` does."""
    return LocalRule.interned(tables, LocalRule.share_equal(tables))


def single_clause_problem():
    """One clause vertex c=0 reading itself, forbidding colour 0, b=2."""
    g = Digraph.from_edges(1, [(0, 0)])
    return ColouringProblem(g, 2, LocalRule([((0,),)]))


def random_problem(n, num_edges, b, density, seed):
    """Random digraph + random forbidden tuples at roughly `density` per scope."""
    g = random_digraph(n, num_edges, seed)
    rng = random.Random(seed ^ 0x5EED)
    rows = []
    for x in range(n):
        scope = g.out_adj[x]
        if not scope:
            rows.append(())
            continue
        universe = list(itertools.product(range(b), repeat=len(scope)))
        picked = sorted(t for t in universe if rng.random() < density)
        if len(picked) == len(universe):  # keep at least one allowed tuple
            picked = picked[:-1]
        rows.append(tuple(picked))
    p = ColouringProblem(g, b, LocalRule(rows))
    p.validate()
    return p


class TestValidation:
    def test_single_clause_validates(self):
        single_clause_problem().validate()

    def test_b_one_rejected(self):
        g = Digraph.from_edges(1, [(0, 0)])
        with pytest.raises(MalformedProblemError):
            ColouringProblem(g, 1, LocalRule([()])).validate()

    @pytest.mark.parametrize("b", [2.5, 3.0, True, "3", None])
    def test_non_int_colour_count_rejected(self, b):
        # with b = 2.5, a rule forbidding colour 2 once validated
        g = Digraph.from_edges(1, [(0, 0)])
        with pytest.raises(MalformedProblemError, match="colour count must be an integer"):
            ColouringProblem(g, b, LocalRule([((2,),)])).validate()

    def test_empty_scope_with_rule_rejected(self):
        g = Digraph.from_edges(1, [])
        with pytest.raises(MalformedProblemError):
            ColouringProblem(g, 2, LocalRule([((0,),)])).validate()

    def test_wrong_tuple_length_rejected(self):
        g = Digraph.from_edges(2, [(0, 0), (0, 1)])
        with pytest.raises(MalformedProblemError):
            ColouringProblem(g, 2, LocalRule([((0,),), ()])).validate()

    def test_colour_out_of_range_rejected(self):
        for colour in (2, -1, 0.5, True):
            with pytest.raises(MalformedProblemError):
                ColouringProblem(
                    Digraph.from_edges(1, [(0, 0)]), 2, LocalRule([((colour,),)])
                ).validate()

    def test_duplicate_tuples_rejected(self):
        g = Digraph.from_edges(1, [(0, 0)])
        rule = LocalRule([((0,), (0,))])
        with pytest.raises(MalformedProblemError):
            ColouringProblem(g, 2, rule).validate()

    def test_unsorted_tuples_rejected(self):
        g = Digraph.from_edges(1, [(0, 0)])
        with pytest.raises(MalformedProblemError, match="strictly increasing"):
            ColouringProblem(g, 2, LocalRule([((1,), (0,))])).validate()

    def test_empty_tuple_on_empty_scope_rejected(self):
        # the empty tuple has the empty scope's arity, yet forbids every colouring
        g = Digraph.from_edges(1, [])
        with pytest.raises(MalformedProblemError, match="empty scope"):
            ColouringProblem(g, 2, LocalRule([((),)])).validate()

    def test_full_table_accepted(self):
        # all b^|scope| tuples: the most rows a table can hold without a repeat
        g = Digraph.from_edges(2, [(0, 0), (0, 1)])
        rows = tuple(itertools.product(range(3), repeat=2))
        ColouringProblem(g, 3, LocalRule([rows, ()])).validate()

    @staticmethod
    def draw_problem(data) -> ColouringProblem:
        """A small problem whose per-vertex tables are each drawn independently, some of them malformed."""
        n = data.draw(st.integers(1, 4))
        edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
        g = Digraph.from_edges(n, edges)
        b = data.draw(st.integers(2, 3))
        # mostly valid colours, some of each kind the check must reject
        colour = st.one_of(st.integers(0, b - 1), st.sampled_from([True, False, 0.5, -1, b]))
        valid = st.integers(0, b - 1)
        table = []
        for scope in g.out_adj:
            width = len(scope)
            cell = colour if data.draw(st.booleans()) else valid
            arity = st.sampled_from([width, width, width, width + 1, max(width - 1, 0)])
            row = arity.flatmap(lambda k: st.tuples(*[cell] * k))
            # up to two rows past b^|scope|, which only duplicates or bad rows allow
            rows = data.draw(st.lists(row, max_size=b**width + 2))
            if data.draw(st.booleans()):  # the shape from_lists builds
                rows = sorted(set(rows))
            table.append(tuple(rows))
        return ColouringProblem(g, b, LocalRule(table))

    @staticmethod
    def outcome(check, p):
        try:
            check(p)
        except MalformedProblemError as exc:
            return "rejected", str(exc)
        return "accepted", None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_validate_rejects_exactly_what_the_reference_rejects(self, data):
        p = self.draw_problem(data)
        assert self.outcome(ColouringProblem.validate, p)[0] == self.outcome(reference_validate_problem, p)[0]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_shared_tables_get_the_verdict_of_separate_copies(self, data):
        # vertices take copies of earlier vertices' tables, perhaps at another arity; interned, as
        # loaded files hold them, the copies share one object, which validate checks once per scope length
        p = self.draw_problem(data)
        drawn = p.rule.forbidden
        table = [[*drawn[data.draw(st.integers(0, x))]] for x in range(p.n)]
        separate = ColouringProblem(p.graph, p.b, LocalRule([tuple(rows) for rows in table]))
        shared = ColouringProblem(p.graph, p.b, interned(table))
        want = self.outcome(ColouringProblem.validate, separate)
        assert self.outcome(ColouringProblem.validate, shared) == want
        assert want[0] == self.outcome(reference_validate_problem, separate)[0]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_validate_names_the_vertex_the_reference_names(self, data):
        # validate looks only at distinct (table, scope length) pairs, not at each vertex; the
        # vertex it names must still be the first one the per-vertex reference rejects
        p = self.draw_problem(data)
        drawn = p.rule.forbidden
        table = [[*drawn[data.draw(st.integers(0, x))]] for x in range(p.n)]
        separate = ColouringProblem(p.graph, p.b, LocalRule([tuple(rows) for rows in table]))
        shared = ColouringProblem(p.graph, p.b, interned(table))
        got, want = self.outcome(ColouringProblem.validate, shared), self.outcome(reference_validate_problem, separate)
        assert got[0] == want[0]
        if got[1] is not None:
            assert re.match(r"vertex (\d+)", got[1])[1] == re.match(r"vertex (\d+)", want[1])[1]

    def test_from_lists_normalises(self):
        rule = LocalRule.from_lists([[[0], [0], [1]]])
        assert rule.forbidden[0] == ((0,), (1,))

    def test_from_lists_shares_equal_tables(self):
        rule = LocalRule.from_lists([[[1], [0]], [[0], [1]], [[0]], [], []])
        t = rule.forbidden
        assert t == [((0,), (1,)), ((0,), (1,)), ((0,),), (), ()]
        assert t[0] is t[1] and t[3] is t[4] and t[0] is not t[2]

    def test_interned_tells_types_apart(self):
        # 1 == 1.0 == True, but only the int is a colour: merging them would hide the bad tables
        rule = interned([[[1]], [[1.0]], [[True]], [[1]]])
        t = rule.forbidden
        assert t[0] is t[3]
        assert len({id(rows) for rows in t}) == 3
        assert [type(rows[0][0]) for rows in t] == [int, float, bool, int]
        g = Digraph.from_edges(4, [(x, x) for x in range(4)])
        with pytest.raises(MalformedProblemError, match="vertex 1: colour 1.0"):
            ColouringProblem(g, 2, rule).validate()

    def test_share_equal_works_in_place(self):
        # a loader shares a file's tables before checking them, so any JSON value must pass through
        tables = [[[0]], [[1]], [[0]], [[1.0]], 5, [[0]], [[1]], None]
        distinct = LocalRule.share_equal(tables)
        assert [id(t) for t in distinct] == [id(tables[x]) for x in (0, 1, 3, 4, 7)]
        assert tables[2] is tables[0] and tables[5] is tables[0] and tables[6] is tables[1]
        assert tables[3] is not tables[1]

    def test_shared_table_checked_at_each_scope_length(self):
        # vertices 0 and 1 share the table and pass; vertex 2 has it at arity 1 under a 2-cell scope
        g = Digraph.from_scopes([[0], [1], [0, 1]])
        p = ColouringProblem(g, 2, interned([[[0]], [[0]], [[0]]]))
        assert p.rule.forbidden[0] is p.rule.forbidden[2]
        with pytest.raises(MalformedProblemError, match="vertex 2: forbidden tuple"):
            p.validate()

    @pytest.mark.parametrize("seed", range(4))
    def test_forbidden_sets_match_each_table(self, seed):
        shared = LocalRule.from_lists([[[0, 0]], [[1, 1]], [[0, 0]], [], [[1, 1]], [[0, 0]]] * 3)
        g = random_digraph(18, 40, seed)
        for p in (random_problem(12, 20, 2, 0.3, seed), ColouringProblem(g, 2, shared)):
            sets = p.forbidden_sets()
            assert all(sets[x] == frozenset(p.rule.forbidden[x]) for x in range(p.n))
            # one set per distinct table object
            by_table = {id(rows): s for rows, s in zip(p.rule.forbidden, sets)}
            assert len({id(s) for s in sets}) == len(by_table)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_forbidden_sets_are_sized_once(self, data):
        # each set equals its table's rows, and its hash table is sized as a copy of a
        # set of those rows: grown row by row from the tuple, six rows take 32 slots, not 16
        b, k = data.draw(st.sampled_from([(2, 1), (2, 3), (2, 5), (3, 2), (3, 3)]))
        every = list(itertools.product(range(b), repeat=k))
        tables = data.draw(st.lists(st.sets(st.sampled_from(every)).map(sorted).map(tuple), min_size=1, max_size=4))
        tables += tables[:2]  # repeated table objects share one set
        n = max(len(tables), k)  # every vertex reads cells 0..k-1, so any table of 0..b^k rows fits
        p = ColouringProblem(Digraph.from_scopes([list(range(k))] * n), b, LocalRule(tables + [()] * (n - len(tables))))
        p.validate()
        for rows, s in zip(p.rule.forbidden, p.forbidden_sets()):
            assert type(s) is frozenset and s == frozenset(rows)
            assert sys.getsizeof(s) == sys.getsizeof(frozenset(set(rows)))

    @pytest.mark.parametrize("seed", range(3))
    def test_forbidden_sets_take_less_memory_than_tuple_built_sets(self, seed):
        # 256 six-row tables: 472 B a set built from a set, 728 B one grown from the tuple
        p = witness_rules_problem(16, seed)

        def traced(build):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                held = build()
                return tracemalloc.get_traced_memory()[0] - before, held
            finally:
                tracemalloc.stop()

        size, sets = traced(p.forbidden_sets)
        tuple_size, tuple_built = traced(lambda: [frozenset(rows) for rows in p.rule.forbidden])
        assert sets == tuple_built
        assert size <= 0.7 * tuple_size


class TestViolation:
    def test_res_uses_ascending_scope_order(self):
        g = Digraph.from_edges(3, [(0, 2), (0, 1)])
        p = ColouringProblem(g, 3, LocalRule([(), (), ()]))
        assert res(p, [9, 5, 7], 0) == (5, 7)

    def test_single_clause(self):
        p = single_clause_problem()
        assert is_violated(p, [0], 0)
        assert not is_violated(p, [1], 0)
        assert bad_set(p, [0]) == [0]
        assert bad_set(p, [1]) == []
        assert satisfies(p, [1])

    def test_bad_set_sorted_and_complete(self):
        # two disjoint clauses, both violated
        g = Digraph.from_edges(4, [(1, 0), (3, 2)])
        rule = LocalRule([(), ((1,),), (), ((1,),)])
        p = ColouringProblem(g, 2, rule)
        assert bad_set(p, [1, 0, 1, 0]) == [1, 3]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_bad_set_matches_pointwise_oracle(self, seed):
        p = random_problem(8, 14, 3, 0.3, seed)
        rng = random.Random(seed + 17)
        f = [rng.randrange(p.b) for _ in range(p.n)]
        expected = [x for x in range(p.n) if res(p, f, x) in set(p.rule.forbidden[x])]
        assert bad_set(p, f) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bad_set_matches_tuple_building_reference(self, data):
        # vertex 0 reads nothing and vertex 1 one cell; the rest read 0..3 cells
        n = data.draw(st.integers(2, 8))
        b = data.draw(st.integers(2, 3))
        sizes = [0, 1] + [data.draw(st.integers(0, 3)) for _ in range(n - 2)]
        cells = st.integers(0, n - 1)
        scopes = [data.draw(st.lists(cells, min_size=k, max_size=k, unique=True)) for k in sizes]
        g = Digraph.from_edges(n, [(x, v) for x, scope in enumerate(scopes) for v in scope])
        colour = st.integers(0, b - 1)
        rows = [
            data.draw(st.lists(st.tuples(*[colour] * len(scope)), max_size=4)) if scope else []
            for scope in g.out_adj
        ]
        p = ColouringProblem(g, b, LocalRule.from_lists(rows))
        p.validate()
        f = data.draw(st.lists(st.integers(0, b - 1), min_size=n, max_size=n))
        read = g.readers()
        for x in range(n):
            assert read[x](f) == tuple(f[v] for v in g.out_adj[x])
        assert bad_set(p, f) == reference_bad_set(p, f)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_violation_depends_only_on_scope(self, seed):
        p = random_problem(8, 12, 2, 0.3, seed)
        rng = random.Random(seed + 5)
        f = [rng.randrange(p.b) for _ in range(p.n)]
        for x in range(p.n):
            g = list(f)
            for v in range(p.n):
                if v not in p.graph.out_adj[x]:
                    g[v] = rng.randrange(p.b)
            assert is_violated(p, f, x) == is_violated(p, g, x)


class TestMargin:
    def test_all_empty_margin_zero(self):
        g = Digraph.from_edges(2, [(0, 1)])
        p = ColouringProblem(g, 2, LocalRule([(), ()]))
        assert lll_margin(p) == 0.0

    def test_single_forbidden_of_five_at_b2(self):
        g = Digraph.from_edges(5, [(0, v) for v in range(5)])
        rule = LocalRule([((0, 0, 0, 0, 0),), (), (), (), ()])
        p = ColouringProblem(g, 2, rule)
        assert lll_margin(p) == 1.0 / 32.0

    def test_margin_is_max_over_vertices(self):
        g = Digraph.from_edges(2, [(0, 0), (1, 1)])
        rule = LocalRule([((0,),), ((0,), (1,))])
        p = ColouringProblem(g, 3, rule)
        assert lll_margin(p) == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("kind", ["shared at two lengths", "empty rows", "distinct tables"])
    def test_margin_equals_the_per_vertex_reference(self, kind):
        for p in margin_problems(kind):
            margin = lll_margin(p)
            assert type(margin) is float and margin == reference_lll_margin(p)


def margin_problems(kind):
    if kind == "shared at two lengths":
        # one table object at scope lengths 3, 1 and 2, longest first: keyed by the table
        # alone, the first vertex's 2/8 would stand for the 2/2 of the second; validate
        # would refuse the arities, but the margin reads the table as it is
        t = ((0,), (1,))
        return [ColouringProblem(Digraph.from_scopes([[0, 1, 2], [0], [1, 2]]), 2, LocalRule([t, t, t]))]
    if kind == "empty rows":
        # the shared () at scope lengths 0, 1 and 2, beside one nonempty table or none
        g = Digraph.from_scopes([[], [1], [1, 2], [2]])
        return [ColouringProblem(g, 3, LocalRule([(), (), ((0, 1),), ()])), ColouringProblem(g, 3, LocalRule([()] * 4))]
    return [random_looped_problem(12, 20, b, 6, seed) for b in (2, 3) for seed in range(5)]


class TestCondition:
    def test_frozen_example(self):
        # margin 1/16 against dependency degree 6, delta=0.1, eps=0.05, b=2, d=6
        # threshold = (6e)^(-1.1) * 2^(-0.3) ~ 0.0377, computed independently here
        # six rule vertices all reading cells {1,2,3,4}: the dependency graph is
        # complete on them, so every vertex has dependency degree 6; cells 1..4
        # are read by all six, so the degree d is 6 too
        g = Digraph.from_edges(6, [(x, v) for x in range(6) for v in (1, 2, 3, 4)])
        rule = LocalRule([((0, 0, 0, 0),), (), (), (), (), ()])
        p = ColouringProblem(g, 2, rule)
        p.validate()
        rep = condition_report(p, 0.1, 0.05)
        assert rep["max_dep_degree"] == 6
        assert rep["margin"] == pytest.approx(1.0 / 16.0)
        expected_threshold = (6 * math.e) ** (-1.1) * 2 ** (-0.05 * 6)
        assert rep["threshold"] == pytest.approx(expected_threshold, rel=1e-12)
        assert check_condition(p, 0.1, 0.05) is False

    def test_margin_zero_always_passes(self):
        g = Digraph.from_edges(2, [(0, 1)])
        p = ColouringProblem(g, 2, LocalRule([(), ()]))
        assert check_condition(p, 0.5, 0.5) is True

    def test_tolerance_accepts_exact_boundary(self):
        # engineered so margin equals the threshold up to float rounding:
        # threshold with Delta=1, delta=1, eps chosen so b^(eps*d) = 2
        g = Digraph.from_edges(1, [(0, 0)])
        eps = 1.0
        d = 1
        b = 2
        threshold = 1.0 / ((math.e * 1) ** 2 * b ** (eps * d))
        k = threshold * b  # forbidden count giving margin == threshold at scope size 1
        # not an integer, so instead check strict inequality both ways
        rule_lo = LocalRule([((0,),)])
        p = ColouringProblem(g, 16, rule_lo)  # margin 1/16 = 0.0625
        thr = 1.0 / ((math.e) ** 2 * 16 ** (eps * d))
        assert lll_margin(p) > thr  # 0.0625 > 0.00846
        assert check_condition(p, 1.0, eps) is False

    def test_invalid_parameters_rejected(self):
        p = single_clause_problem()
        with pytest.raises(ValueError):
            check_condition(p, 0.0, 0.1)
        with pytest.raises(ValueError):
            check_condition(p, 0.1, -1.0)

    @pytest.mark.parametrize("delta, eps", [(math.nan, 0.1), (0.1, math.nan), (math.nan, math.nan)])
    def test_nan_parameters_rejected(self, delta, eps):
        # NaN fails every comparison, so a guard written as `delta <= 0` lets it through
        p = single_clause_problem()
        for check in (condition_report, check_condition):
            with pytest.raises(ValueError, match="must be positive"):
                check(p, delta, eps)

    @pytest.mark.parametrize("delta, eps", [(1e6, 1.0), (1.0, 1e6), (1e6, 1e6)])
    def test_threshold_past_the_float_range_is_zero(self, delta, eps):
        # (e*Delta)^(1+delta) or b^(eps*d) once raised OverflowError here
        p = gen_torus_nae(6, 6, 2)
        rep = condition_report(p, delta, eps)
        assert rep["threshold"] == 0.0 and rep["ok"] is False
        free = ColouringProblem(p.graph, 2, LocalRule([()] * p.n))  # margin 0 still passes
        assert check_condition(free, delta, eps) is True

    def test_scope_free_instance(self):
        # no scope, so Delta = 0: a validated problem passes, and a table forbidding the
        # empty tuple, which `validate` refuses, is reported rather than given a threshold
        g = Digraph.from_scopes([[], []])
        p = ColouringProblem(g, 2, LocalRule([(), ()]))
        p.validate()
        assert g.big_delta() == 0
        assert condition_report(p, 0.5, 0.5) == {"margin": 0.0, "max_dep_degree": 0, "threshold": 1.0, "ok": True}
        bad = ColouringProblem(g, 2, LocalRule([((),), ()]))
        with pytest.raises(MalformedProblemError, match="^nonempty forbidden sets on a scope-free instance$"):
            condition_report(bad, 0.5, 0.5)

    def test_threshold_inside_the_float_range_is_the_formula(self):
        p = gen_torus_nae(6, 6, 2)  # d = 5, Delta = 13
        for delta, eps in [(0.1, 0.05), (100.0, 1.0), (1.0, 200.0)]:
            want = 1.0 / ((math.e * 13) ** (1.0 + delta) * 2 ** (eps * 5))
            assert want > 0.0 and condition_report(p, delta, eps)["threshold"] == want


def test_active_clauses_of_a_torus_are_a_range():
    # every torus vertex has a rule, so no list of n ints is kept
    p = gen_torus_nae(6, 6, 2)
    assert p.active_clauses() == range(p.n) and p.active_clauses() is p.active_clauses()
    assert p.active_clauses()[0] == 0  # the first active rule, as the benchmark's corrupted checks pick it
    rng = random.Random(3)
    for _ in range(20):
        f = [rng.randrange(p.b) for _ in range(p.n)]
        assert bad_set(p, f) == reference_bad_set(p, f)


def test_active_clauses_of_a_ksat_instance_are_its_clause_vertices():
    # variable vertices carry no rule, so only the clause vertices are listed
    p = gen_grid_ksat(6, 6, 3, 1, 2, 0)
    want = [x for x in range(p.n) if p.rule.forbidden[x]]
    assert type(p.active_clauses()) is list and p.active_clauses() == want and 0 < len(want) < p.n
    rng = random.Random(4)
    for _ in range(20):
        f = [rng.randrange(p.b) for _ in range(p.n)]
        assert bad_set(p, f) == reference_bad_set(p, f)


def test_constructor_takes_the_graph_rule_and_metadata_only():
    # the caches (forbidden_sets, active_clauses) are filled by their methods, never passed in
    assert list(inspect.signature(ColouringProblem).parameters) == ["graph", "b", "rule", "metadata"]
