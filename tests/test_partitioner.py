"""Tests for distance-sparse partitions."""

import random

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
from tests.reference_partition import reference_is_r_sparse, reference_sparse_partition
from tests.test_graph_core import floyd_warshall_distances, path_graph, random_digraph


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
    return SparsePartition(len(remap), tuple(remap[p] for p in labels), 0)


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
        with pytest.raises(ValueError):
            sparse_partition(path_graph(3), 0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3))
    def test_result_is_r_sparse_and_dense(self, seed, r):
        g = random_digraph(10, 14, seed)
        pi = sparse_partition(g, r)
        pi.validate()
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
        pi.validate()
        for r in range(4):
            assert reference_is_r_sparse(g, pi, r)


class TestPiUnique:
    def test_injective_subset(self):
        pi = SparsePartition(2, (0, 1, 0), 0)
        assert is_pi_unique(pi, [0, 1])
        assert not is_pi_unique(pi, [0, 1, 2])
        assert is_pi_unique(pi, [])

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
        for r in range(1, 5):
            pi = sparse_partition(g, r)
            assert pi == reference_sparse_partition(g, r)

    def test_empty_graph(self):
        g = Digraph.from_edges(0, [])
        for r in range(1, 5):
            assert sparse_partition(g, r) == reference_sparse_partition(g, r)


def test_ball_scans_do_not_call_ball(monkeypatch):
    # the per-vertex ball() scan must not come back: every whole-graph scan goes through balls()
    def refuse(*args):
        raise AssertionError("whole-graph scan called a per-vertex function")

    for module in (graph_core, partitioner, instance_io):
        monkeypatch.setattr(module, "ball", refuse)
    g = random_digraph(30, 40, seed=5)
    sparse_partition(g, 2)
    assert graph_core.power_graph(g, 3).n == 30
    assert graph_core.check_subexp(path_graph(10), 4, 1.0, 2)
    assert gen_torus_nae(10, 10, 2).metadata["subexp"] is not None
