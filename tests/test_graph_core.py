"""Tests for graph_core against brute-force oracles and hand-traced values."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from resample_forge.graph_core import (
    Digraph,
    ball,
    balls,
    build_rel,
    check_subexp,
    greedy_mis,
    power_graph,
)
from resample_forge.instance_io import gen_grid_ksat, gen_torus_nae
from tests.reference_partition import (
    reference_build_rel,
    reference_check_subexp,
    reference_from_edges,
    reference_power_graph,
    reference_validate,
)
from tests.reference_runner import VertexOrder, reference_greedy_mis

INF = 10**9


def floyd_warshall_distances(g):
    """Independent all-pairs undirected distance oracle."""
    n = g.n
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for x in range(n):
        for y in g.out_adj[x]:
            if x != y:
                dist[x][y] = 1
                dist[y][x] = 1
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            for j in range(n):
                alt = dik + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return dist


def path_graph(n):
    return Digraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def random_digraph(n, num_edges, seed, self_loops=True):
    rng = random.Random(seed)
    edges = set()
    for _ in range(num_edges):
        x = rng.randrange(n)
        y = rng.randrange(n)
        if x == y and not self_loops:
            continue
        edges.add((x, y))
    return Digraph.from_edges(n, edges)


def regular_tree(branching, depth):
    """Tree whose root has `branching` children and inner vertices branching-1."""
    edges = []
    next_id = 1
    frontier = [0]
    for level in range(depth):
        new_frontier = []
        for v in frontier:
            kids = branching if v == 0 else branching - 1
            for _ in range(kids):
                edges.append((v, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return Digraph.from_edges(next_id, edges)


class TestDigraph:
    def test_from_edges_dedups_and_sorts(self):
        g = Digraph.from_edges(3, [(0, 2), (0, 1), (0, 2), (2, 2)])
        assert g.out_adj[0] == [1, 2]
        assert g.out_adj[2] == [2]
        assert g.in_adj[2] == [0, 2]
        g.validate()

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Digraph.from_edges(2, [(0, 2)])

    def test_deg_counts_self_loop_once(self):
        g = Digraph.from_edges(1, [(0, 0)])
        assert g.deg(0) == 1

    def test_deg_is_union_of_scopes(self):
        g = Digraph.from_edges(4, [(0, 1), (2, 0), (0, 2)])
        # N(0) = Var(0) | Cl(0) = {1, 2} | {2}
        assert g.deg(0) == 2
        assert g.maxdeg() == 2

    def test_validate_rejects_inconsistent_adjacency(self):
        g = Digraph(2, [[1], []], [[], []])
        with pytest.raises(ValueError):
            g.validate()


class TestBuildRel:
    def test_disjoint_scopes_give_no_edge(self):
        # dependency graph definition: edge iff scopes intersect
        g = Digraph.from_edges(4, [(0, 1), (2, 3)])
        rel = build_rel(g)
        assert 2 not in rel.out_adj[0]
        assert 0 in rel.out_adj[0]  # self-loop: Var(0) nonempty

    def test_empty_scope_vertex_is_isolated(self):
        g = Digraph.from_edges(3, [(0, 1)])
        rel = build_rel(g)
        assert rel.out_adj[1] == []
        assert rel.out_adj[2] == []

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_pairwise_oracle(self, seed):
        g = random_digraph(8, 14, seed)
        rel = build_rel(g)
        rel.validate()
        for x in range(g.n):
            for y in range(g.n):
                expected = bool(set(g.out_adj[x]) & set(g.out_adj[y]))
                assert (y in rel.out_adj[x]) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_symmetric_with_self_loops(self, seed):
        g = random_digraph(7, 10, seed)
        rel = build_rel(g)
        for x in range(g.n):
            assert (x in rel.out_adj[x]) == (len(g.out_adj[x]) > 0)
            for y in rel.out_adj[x]:
                assert x in rel.out_adj[y]


class TestBall:
    def test_radius_zero_is_singleton(self):
        g = path_graph(5)
        assert ball(g, 2, 0) == {2}

    def test_path_ball(self):
        g = path_graph(10)
        assert ball(g, 0, 3) == {0, 1, 2, 3}
        assert ball(g, 5, 2) == {3, 4, 5, 6, 7}

    def test_direction_is_ignored(self):
        # distances use the underlying undirected graph
        g = Digraph.from_edges(3, [(1, 0), (1, 2)])
        assert ball(g, 0, 1) == {0, 1}
        assert ball(g, 0, 2) == {0, 1, 2}

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 4))
    def test_matches_distance_oracle(self, seed, r):
        g = random_digraph(9, 12, seed)
        dist = floyd_warshall_distances(g)
        for x in range(g.n):
            expected = {y for y in range(g.n) if dist[x][y] <= r}
            assert ball(g, x, r) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_monotone_in_radius(self, seed):
        g = random_digraph(9, 12, seed)
        for x in range(g.n):
            prev = set()
            for r in range(4):
                cur = ball(g, x, r)
                assert prev <= cur
                prev = cur


class TestBalls:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 4))
    def test_centre_first_then_bfs_order(self, seed, r):
        g = random_digraph(12, 10, seed)
        dist = floyd_warshall_distances(g)
        for x, near in enumerate(balls(g, r)):
            assert near[0] == x
            assert len(near) == len(set(near))
            assert set(near) == ball(g, x, r)
            levels = [dist[x][y] for y in near]
            assert levels == sorted(levels)

    def test_empty_graph_and_negative_radius(self):
        assert list(balls(Digraph.from_edges(0, []), 3)) == []
        with pytest.raises(ValueError):
            list(balls(path_graph(3), -1))


class TestPowerGraph:
    def test_path_power_two(self):
        g = path_graph(4)
        p = power_graph(g, 2)
        assert p.out_adj[0] == [1, 2]
        assert p.out_adj[1] == [0, 2, 3]

    def test_loopless_even_with_self_loops(self):
        g = Digraph.from_edges(2, [(0, 0), (0, 1)])
        p = power_graph(g, 3)
        assert p.out_adj[0] == [1]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_matches_distance_oracle(self, seed, r):
        g = random_digraph(8, 11, seed)
        dist = floyd_warshall_distances(g)
        p = power_graph(g, r)
        p.validate()
        for x in range(g.n):
            expected = sorted(y for y in range(g.n) if y != x and dist[x][y] <= r)
            assert p.out_adj[x] == expected


class TestGreedyMis:
    def test_path_identity_order(self):
        # scan 0 (take), 1 (blocked by 0), 2 (take)
        g = path_graph(3)
        sym = power_graph(g, 1)
        assert greedy_mis(sym, [0, 1, 2]) == [0, 2]

    def test_order_changes_selection(self):
        g = path_graph(3)
        sym = power_graph(g, 1)
        assert greedy_mis(sym, [1, 0, 2]) == [1]

    def test_returns_scan_order(self):
        g = path_graph(5)
        sym = power_graph(g, 1)
        assert greedy_mis(sym, [4, 1, 2, 0]) == [4, 1]

    def test_self_loops_do_not_block(self):
        g = Digraph.from_edges(2, [(0, 0), (1, 1)])
        rel = build_rel(g)
        assert greedy_mis(rel, [0, 1]) == [0, 1]

    def test_empty_candidates(self):
        g = path_graph(3)
        assert greedy_mis(build_rel(g), []) == []

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_independent_and_maximal(self, seed, cand_seed):
        g = random_digraph(9, 14, seed)
        rel = build_rel(g)
        rng = random.Random(cand_seed)
        candidates = {x for x in range(g.n) if rng.random() < 0.7}
        priority = rng.sample(range(g.n), rng.randrange(g.n + 1))
        by_priority = VertexOrder.from_priority(priority + priority[:2], g.n)
        rest = [x for x in range(g.n) if x not in priority]
        assert [by_priority.key(x) for x in priority + rest] == list(range(g.n))
        for order in (VertexOrder.identity(g.n), by_priority):
            scan = sorted(candidates, key=order.key)
            chosen = greedy_mis(rel, scan)
            assert chosen == [x for x in scan if x in set(chosen)]  # in scan order
            assert sorted(chosen) == reference_greedy_mis(rel, candidates, order)
            chosen_set = set(chosen)
            assert chosen_set <= candidates
            for x in chosen:
                for y in chosen:
                    if x != y:
                        assert y not in rel.out_adj[x]
            # maximality: every unchosen candidate is blocked by a chosen one
            for x in candidates - chosen_set:
                assert any(y in chosen_set and y != x for y in rel.out_adj[x])


class TestCheckSubexp:
    def test_path_100_fails_growth(self):
        # a middle vertex has |ball(x, 12)| = 25 > (1+1)^4 = 16
        g = path_graph(100)
        assert check_subexp(g, 4, 1.0, 2) is False

    def test_short_path_passes(self):
        g = path_graph(10)
        # every ball has at most 10 vertices <= 2^4
        assert check_subexp(g, 4, 1.0, 2) is True

    def test_regular_tree_fails(self):
        g = regular_tree(3, 12)
        assert g.maxdeg() == 3
        assert check_subexp(g, 4, 1.0, 3) is False

    def test_degree_bound_enforced(self):
        g = regular_tree(3, 2)
        assert check_subexp(g, 4, 10.0, 2) is False

    def test_boundary_equality_accepted(self):
        # 16 vertices within radius 12 against (1+1)^4 = 16: log-space slack accepts
        g = path_graph(16)
        assert check_subexp(g, 4, 1.0, 2) is True

    def test_bad_parameters_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            check_subexp(g, 0, 1.0, 2)
        with pytest.raises(ValueError):
            check_subexp(g, 1, 0.0, 2)


def validate_error(check, g):
    try:
        check(g)
    except ValueError as exc:
        return str(exc)
    return None


class TestMatchesBallPerVertex:
    """The BFS scans against the ball-per-vertex references in tests/reference_partition.py."""

    @pytest.mark.parametrize("seed", range(6))
    def test_power_graph_on_random_digraphs(self, seed):
        # at 30 vertices and 24 edges, every seed here leaves isolated vertices; seeds 1, 2, 4 have self-loops
        g = random_digraph(30, 24, seed)
        for r in range(5):
            assert power_graph(g, r) == reference_power_graph(g, r)

    def test_power_graph_on_empty_graph(self):
        g = Digraph.from_edges(0, [])
        for r in range(5):
            assert power_graph(g, r) == reference_power_graph(g, r)

    def test_check_subexp_on_empty_graph(self):
        g = Digraph.from_edges(0, [])
        assert check_subexp(g, 1, 1.0, 0) is reference_check_subexp(g, 1, 1.0, 0) is True

    @pytest.mark.parametrize("seed", range(6))
    def test_check_subexp_on_random_digraphs(self, seed):
        g = random_digraph(30, 40, seed)
        for big_r in (1, 2):
            for eps in (0.5, 1.0, 2.0, 8.0):
                assert check_subexp(g, big_r, eps, 9) is reference_check_subexp(g, big_r, eps, 9)

    @pytest.mark.parametrize(
        "n, out_adj, in_adj",
        [
            (2, [[1], []], [[], []]),  # one-sided edge, out only
            (2, [[], []], [[], [0]]),  # one-sided edge, in only
            (2, [[1], [0]], [[1], [1]]),  # both sides, different edges
            (3, [[2, 1], [], []], [[], [0], [0]]),  # unsorted
            (2, [[1, 1], []], [[], [0]]),  # duplicate
            (2, [[1], []], [[], [0, 0]]),  # duplicate on the in side
            (3, [[0, 5, 7], [], []], [[0], [], []]),  # out of range: the first offender is named
            (3, [[-1, 0], [], []], [[0], [], []]),  # negative vertex
            (3, [[], [], []], [[], [], [3]]),  # out of range on the in side
            (2, [[1]], [[]]),  # list count
        ],
    )
    def test_validate_rejects_with_the_same_message(self, n, out_adj, in_adj):
        g = Digraph(n, out_adj, in_adj)
        message = validate_error(Digraph.validate, g)
        assert message is not None
        assert message == validate_error(reference_validate, g)

    @pytest.mark.parametrize("seed", range(4))
    def test_validate_accepts_valid_graphs(self, seed):
        for g in (random_digraph(30, 24, seed), build_rel(random_digraph(20, 30, seed))):
            assert validate_error(Digraph.validate, g) is None
            assert validate_error(reference_validate, g) is None


class TestMatchesSetPerVertex:
    """from_edges and build_rel against the set-per-vertex references in tests/reference_partition.py."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_from_edges(self, data):
        n = data.draw(st.integers(0, 40))
        vertex = st.integers(0, max(n - 1, 0))
        # up to 40 edges over up to 40 vertices: duplicates, self-loops and isolated vertices all occur
        edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=40 if n else 0))
        g = Digraph.from_edges(n, edges)
        assert g == reference_from_edges(n, edges)
        g.validate()
        bad = data.draw(
            st.tuples(st.integers(-2, n + 2), st.integers(-2, n + 2)).filter(
                lambda e: not (0 <= e[0] < n and 0 <= e[1] < n)
            )
        )
        for at in {0, len(edges) // 2, len(edges)}:
            broken = [*edges[:at], bad, *edges[at:], bad[::-1]]
            message = validate_error(lambda e: Digraph.from_edges(n, e), broken)
            assert message is not None
            assert message == validate_error(lambda e: reference_from_edges(n, e), broken)

    def test_torus_120(self):
        g = gen_torus_nae(120, 120, 2).graph
        assert build_rel(g) == reference_build_rel(g)

    def test_grid_ksat(self):
        g = gen_grid_ksat(32, 32, 5, 2, 2, 7).graph
        assert build_rel(g) == reference_build_rel(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_build_rel_on_random_digraphs(self, seed):
        for g in (random_digraph(30, 24, seed), random_digraph(40, 160, seed), Digraph.from_edges(0, [])):
            assert build_rel(g) == reference_build_rel(g)
