"""Tests for distance-sparse partitions."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from resample_forge import graph_core, instance_io, partitioner
from resample_forge.graph_core import Digraph
from resample_forge.instance_io import gen_grid_ksat, gen_torus_nae
from resample_forge.partitioner import (
    SparsePartition,
    is_pi_unique,
    singleton_partition,
    sparse_partition,
)
from tests.reference_partition import reference_is_pi_unique, reference_is_r_sparse, reference_sparse_partition
from tests.test_graph_core import floyd_warshall_distances, path_graph, random_digraph, scope_copy, traced_peak


def pairwise_distance_sparse(g, pi, r):
    """Independent sparsity oracle: same part implies distance > 2r."""
    dist = floyd_warshall_distances(g)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if pi.part_of[x] == pi.part_of[y] and dist[x][y] <= 2 * r:
                return False
    return True


def random_partition(n, parts, seed):
    """Random (not necessarily sparse) partition into at most `parts` dense parts."""
    rng = random.Random(seed)
    labels = [rng.randrange(parts) for _ in range(n)]
    remap = {p: i for i, p in enumerate(sorted(set(labels)))}
    return SparsePartition(len(remap), tuple(remap[p] for p in labels))


class TestSparsePartition:
    def test_two_isolated_vertices_share_a_part(self):
        g = Digraph.from_edges(2, [])
        pi = sparse_partition(g, 5)
        assert pi.num_parts == 1
        assert pi.part_of == (0, 0)

    def test_path_three_needs_three_parts(self):
        pi = sparse_partition(path_graph(3), 1)
        assert pi.num_parts == 3

    def test_greedy_is_deterministic(self):
        g = random_digraph(20, 30, seed=7)
        assert sparse_partition(g, 2) == sparse_partition(g, 2)

    def test_rejects_radius_zero(self):
        with pytest.raises(ValueError, match=r"^sparsity radius must be >= 1$"):
            sparse_partition(path_graph(3), 0)

    @pytest.mark.parametrize("r", [-1, -7])
    def test_negative_int_radius_keeps_its_message(self, r):
        with pytest.raises(ValueError, match=r"^sparsity radius must be >= 1$"):
            sparse_partition(path_graph(3), r)

    @pytest.mark.parametrize("r", [None, "2", 2.0, True, 1.5])
    def test_radius_that_is_not_an_exact_int_is_checked_before_any_comparison(self, r):
        # None and "2" used to reach `r < 1` first and raise TypeError
        with pytest.raises(ValueError, match=rf"^radius must be an integer, not {re.escape(repr(r))}$"):
            sparse_partition(path_graph(3), r)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3))
    def test_result_is_r_sparse_and_dense(self, seed, r):
        g = random_digraph(10, 14, seed)
        pi = sparse_partition(g, r)
        assert set(pi.part_of) == set(range(pi.num_parts))
        assert reference_is_r_sparse(g, pi, r)
        assert pairwise_distance_sparse(g, pi, r)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3))
    def test_ball_and_distance_definitions_agree(self, seed, r):
        # random (not necessarily sparse) partitions: the two definitions coincide
        g = random_digraph(9, 12, seed)
        pi = random_partition(g.n, 3, seed + 1)
        assert reference_is_r_sparse(g, pi, r) == pairwise_distance_sparse(g, pi, r)


class TestSingletonPartition:
    def test_singleton_is_sparse_for_every_radius(self):
        g = path_graph(6)
        pi = singleton_partition(6)
        assert pi.part_of == tuple(range(6))
        for r in range(4):
            assert reference_is_r_sparse(g, pi, r)

    def test_empty_graph_has_no_parts(self):
        assert singleton_partition(0) == SparsePartition(0, ())

    @pytest.mark.parametrize("n", [-2, -1, True, False, 3.0, "3", None])
    def test_rejects_a_count_that_is_not_a_nonnegative_int(self, n):
        # -2 used to give num_parts=-2, and True num_parts=True
        with pytest.raises(ValueError, match=rf"^vertex count must be a nonnegative integer, not {re.escape(repr(n))}$"):
            singleton_partition(n)


class TestPiUnique:
    def test_injective_subset(self):
        pi = SparsePartition(2, (0, 1, 0))
        assert is_pi_unique(pi, [0, 1])
        assert not is_pi_unique(pi, [0, 1, 2])
        assert is_pi_unique(pi, [])

    def test_matches_the_loop_on_lists_with_duplicates_and_on_generators(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 12)
            pi = SparsePartition(n, tuple(rng.randrange(n) for _ in range(n)))
            subset = [rng.randrange(n) for _ in range(rng.randint(0, n + 2))]  # may repeat a vertex
            want = reference_is_pi_unique(pi, subset)
            assert is_pi_unique(pi, subset) is want
            assert is_pi_unique(pi, (x for x in subset)) is want
            assert is_pi_unique(pi, set(subset)) is reference_is_pi_unique(pi, set(subset))
        assert not is_pi_unique(singleton_partition(3), [1, 1])  # a repeated vertex shares its own part

    def test_sparse_partition_unique_on_balls(self):
        # r-sparse partitions are injective on radius-r balls by definition
        from resample_forge.graph_core import ball

        g = random_digraph(12, 18, seed=3)
        pi = sparse_partition(g, 2)
        for x in range(g.n):
            assert is_pi_unique(pi, ball(g, x, 2))


class TestMatchesBallPerVertex:
    """sparse_partition against the ball-per-vertex reference."""

    def test_torus_120(self):
        g = gen_torus_nae(120, 120, 2).graph
        pi = sparse_partition(g, 3)
        assert pi == reference_sparse_partition(g, 3)
        assert reference_is_r_sparse(g, pi, 3)

    def test_grid_ksat(self):
        g = gen_grid_ksat(32, 32, 5, 2, 2, 7).graph
        for r in (1, 2, 3):
            assert sparse_partition(g, r) == reference_sparse_partition(g, r)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_digraphs(self, seed):
        # at 30 vertices and 24 edges, every seed here leaves isolated vertices; seeds 1, 2, 4 have self-loops
        g = random_digraph(30, 24, seed)
        assert any(x in g.out_adj[x] for x in range(g.n)) == (seed in (1, 2, 4))
        for r in range(1, 5):
            pi = sparse_partition(g, r)
            assert pi == reference_sparse_partition(g, r)

    def test_empty_graph(self):
        g = Digraph.from_edges(0, [])
        for r in range(1, 5):
            assert sparse_partition(g, r) == reference_sparse_partition(g, r)

    @pytest.mark.parametrize("n", range(3, 16))
    def test_cycles_and_paths(self, n):
        # odd shortest paths up to 2r split unevenly at their midpoint, ceil(k/2) + floor(k/2)
        cycle = Digraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        for g in (cycle, path_graph(n)):
            for r in range(1, 5):
                assert sparse_partition(g, r) == reference_sparse_partition(g, r)

    def test_disjoint_union_of_two_tori(self):
        a = gen_torus_nae(6, 6, 2).graph
        b = gen_torus_nae(5, 7, 2).graph
        g = Digraph.from_scopes(a.out_adj + [[v + a.n for v in scope] for scope in b.out_adj])
        for r in range(1, 5):
            pi = sparse_partition(g, r)
            assert pi == reference_sparse_partition(g, r)
            assert reference_is_r_sparse(g, pi, r)

    @pytest.mark.parametrize("w, h", [(7, 12), (9, 20)])
    def test_oblong_tori(self, w, h):
        g = gen_torus_nae(w, h, 2).graph
        for r in range(1, 5):
            pi = sparse_partition(g, r)
            assert pi == reference_sparse_partition(g, r)
            assert reference_is_r_sparse(g, pi, r)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 14), st.integers(0, 30), st.integers(0, 10**6), st.integers(1, 4))
    def test_small_random_digraphs(self, n, num_edges, seed, r):
        g = random_digraph(n, num_edges, seed)
        assert sparse_partition(g, r) == reference_sparse_partition(g, r)


def test_partition_transient_is_under_half_the_distance_2r_power_graph():
    # a machine-independent memory bound: the partition must not hold the distance-2r power graph
    g = gen_torus_nae(60, 60, 2).graph
    assert traced_peak(sparse_partition, g, 3) < traced_peak(graph_core.power_graph, g, 6) / 2


def test_partition_transient_bound_holds_on_the_bfs_path():
    # the same bound on an equal graph read from scope lists, which power_graph reaches by BFS, not offsets
    g = scope_copy(gen_torus_nae(60, 60, 2).graph)
    assert traced_peak(sparse_partition, g, 3) < traced_peak(graph_core.power_graph, g, 6) / 2


def test_partition_off_the_torus_holds_no_radius_r_power_graph():
    # grid k-SAT has no described torus: the partition walks its balls and keeps none of them
    g = gen_grid_ksat(32, 32, 5, 2, 2, 7).graph
    assert traced_peak(sparse_partition, g, 3) < traced_peak(graph_core.power_graph, g, 3) / 3


class TestTorusRowsPartition:
    """sparse_partition on a described torus, coloured row by row, against the same torus read from scopes."""

    @pytest.mark.parametrize("r", range(1, 6))
    def test_every_shape_up_to_4r_plus_3(self, r):
        # sides up to 4r + 3 include every side on which a column window of half-width < 2r wraps onto itself
        for w in range(3, 4 * r + 4):
            for h in range(3, 4 * r + 4):
                g = instance_io.torus_graph(w, h)
                pi = sparse_partition(g, r)
                assert pi == sparse_partition(scope_copy(g), r)
                if g.n <= 64:
                    assert pi == reference_sparse_partition(g, r)

    @pytest.mark.parametrize("w, h", [(37, 53), (61, 29), (29, 61), (120, 120)])
    def test_large_and_oblong_tori(self, w, h):
        g = instance_io.torus_graph(w, h)
        assert sparse_partition(g, 3) == sparse_partition(scope_copy(g), 3)

    def test_a_huge_radius_is_clamped_to_the_diameter(self):
        # every cell lies within 2r of every other, so each takes its own part
        g = instance_io.torus_graph(7, 12)
        pi = sparse_partition(g, 10**6)
        assert pi == sparse_partition(scope_copy(g), 10**6) == reference_sparse_partition(g, 10**6)
        assert pi == singleton_partition(g.n)


def test_torus_partition_holds_under_a_quarter_of_the_radius_r_power_graph():
    # a machine-independent memory bound: the row scan keeps no ball, only at most 4r rows of colour bits
    g = instance_io.torus_graph(200, 200)
    assert traced_peak(sparse_partition, g, 3) < traced_peak(graph_core.power_graph, g, 3) / 4


def test_ball_scans_do_not_call_ball(monkeypatch):
    # the per-vertex ball() scan must not come back: every whole-graph scan goes through balls()
    def refuse(*args):
        raise AssertionError("whole-graph scan called a per-vertex function")

    for module in (graph_core, partitioner, instance_io):
        monkeypatch.setattr(module, "ball", refuse)
    g = random_digraph(30, 40, seed=5)
    sparse_partition(g, 2)
    assert graph_core.power_graph(g, 3).n == 30
