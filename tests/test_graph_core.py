"""Tests for graph_core against brute-force oracles and hand-traced values."""

import inspect
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from resample_forge.graph_core import (
    Digraph,
    ball,
    balls,
    build_rel,
    greedy_mis,
    power_graph,
    torus_rows,
)
from resample_forge.instance_io import gen_grid_ksat, gen_torus_nae, torus_graph
from tests.reference_partition import (
    reference_build_rel,
    reference_from_edges,
    reference_power_graph,
    reference_und_adj,
    reference_validate,
)
from tests.reference_rule_engine import reference_validate_problem
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


class TestDigraph:
    def test_from_edges_dedups_and_sorts(self):
        g = Digraph.from_edges(3, [(0, 2), (0, 1), (0, 2), (2, 2)])
        assert g.out_adj[0] == [1, 2]
        assert g.out_adj[2] == [2]
        assert g.in_adj[2] == [0, 2]
        reference_validate(g)

    @pytest.mark.parametrize(
        "edge",
        [
            (0, 2),  # out of range
            (-1, 0),  # negative
            (True, 0),  # bool source
            (0, True),  # bool target
            (0.0, 1),  # float
            ("a", 0),  # str source: the type test comes before the range test
            (0, None),  # None target
        ],
    )
    def test_from_edges_rejects(self, edge):
        with pytest.raises(ValueError):
            Digraph.from_edges(2, [(0, 1), edge])

    def test_from_edges_rejects_a_negative_vertex_count(self):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            Digraph.from_edges(-1, [])

    def test_from_scopes_builds_sorted_in_lists(self):
        g = Digraph.from_scopes([[1, 2], [], [0, 2]])
        assert g == Digraph(3, [[1, 2], [], [0, 2]], [[2], [0], [0, 2]])
        reference_validate(g)

    @pytest.mark.parametrize(
        "scopes",
        [
            [[1, 0], []],  # unsorted
            [[0, 0], []],  # duplicate cell
            [[2], []],  # out of range
            [[-1], []],  # negative
            [[True], []],  # bool
            [[0.0], []],  # float
            [["0"], []],  # str
            [(0,), []],  # a scope that is not a list
            [0, []],
            ([0], []),  # the scopes themselves not a list
        ],
    )
    def test_from_scopes_rejects(self, scopes):
        with pytest.raises(ValueError):
            Digraph.from_scopes(scopes)

    def test_deg_counts_self_loop_once(self):
        g = Digraph.from_edges(1, [(0, 0)])
        assert g.maxdeg() == 1

    def test_deg_is_union_of_scopes(self):
        g = Digraph.from_edges(4, [(0, 1), (2, 0), (0, 2)])
        # N(0) = Var(0) | Cl(0) = {1, 2} | {2}; every other vertex has one neighbour
        assert g.maxdeg() == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_und_adj_matches_set_union_reference(self, seed):
        # ball and balls at radius 1 reach exactly the undirected rows, on every shape of out/in lists
        symmetric = build_rel(random_digraph(20, 30, seed))  # out_adj is in_adj, self-loops on
        shapes = [
            random_digraph(20, 30, seed, self_loops=False),  # asymmetric, loopless
            random_digraph(20, 30, seed),  # asymmetric, self-loops
            symmetric,
            Digraph(symmetric.n, symmetric.out_adj, [list(a) for a in symmetric.out_adj]),  # equal, unshared lists
            power_graph(random_digraph(20, 30, seed), 2),  # symmetric and loopless
        ]
        for g in shapes:
            want = [{x, *near} for x, near in enumerate(reference_und_adj(g))]
            assert [ball(g, x, 1) for x in range(g.n)] == want
            scanned = list(balls(g, 1))
            assert [set(near) for near in scanned] == want
            assert all(len(near) == len(set(near)) for near in scanned)

    def test_constructor_takes_the_lists_and_torus_only(self):
        # the caches (readers, rel_rows) are filled by their methods, never passed in
        assert list(inspect.signature(Digraph).parameters) == ["n", "out_adj", "in_adj", "torus"]

    def test_readers_return_scope_tuples_at_every_arity(self):
        # scopes of arity 2, 1 and 0
        g = Digraph.from_edges(3, [(0, 2), (0, 1), (1, 0)])
        read = g.readers()
        f = [7, 8, 9]
        assert [r(f) for r in read] == [(8, 9), (7,), ()]
        assert g.readers() is read  # built once per graph


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
        reference_validate(rel)
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


@pytest.mark.parametrize("r", [1.5, 1.0, True, "1", None])
def test_non_int_radius_rejected(r):
    # ball(path10, 0, 1.5) once returned all ten vertices: its `d == r` never held
    g = path_graph(10)
    with pytest.raises(ValueError, match="radius must be an integer"):
        ball(g, 0, r)
    with pytest.raises(ValueError, match="radius must be an integer"):
        list(balls(g, r))
    with pytest.raises(ValueError, match="radius must be an integer"):
        power_graph(g, r)


@pytest.mark.parametrize("x", [True, 1.0, "1", None])
def test_non_int_vertex_rejected(x):
    # ball(torus, True, 1) once returned {0, True, 2, 7, 31}, and ball(torus, 1.0, 1) raised TypeError
    g = gen_torus_nae(6, 6, 2).graph
    with pytest.raises(ValueError, match="vertex must be an integer"):
        ball(g, x, 1)


@pytest.mark.parametrize("x", [-1, 36])
def test_out_of_range_vertex_rejected(x):
    # -1 would otherwise start the search at the last vertex
    g = gen_torus_nae(6, 6, 2).graph
    with pytest.raises(ValueError, match=f"^vertex {x} out of range$"):
        ball(g, x, 1)


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
        reference_validate(p)
        for x in range(g.n):
            expected = sorted(y for y in range(g.n) if y != x and dist[x][y] <= r)
            assert p.out_adj[x] == expected


class TestGreedyMis:
    def test_path_identity_order(self):
        # scan 0 (take), 1 (blocked by 0), 2 (take)
        g = path_graph(3)
        sym = power_graph(g, 1)
        assert greedy_mis(sym.out_adj, [0, 1, 2]) == [0, 2]

    def test_order_changes_selection(self):
        g = path_graph(3)
        sym = power_graph(g, 1)
        assert greedy_mis(sym.out_adj, [1, 0, 2]) == [1]

    def test_returns_scan_order(self):
        g = path_graph(5)
        sym = power_graph(g, 1)
        assert greedy_mis(sym.out_adj, [4, 1, 2, 0]) == [4, 1]

    def test_self_loops_do_not_block(self):
        g = Digraph.from_edges(2, [(0, 0), (1, 1)])
        rel = build_rel(g)
        assert greedy_mis(rel.out_adj, [0, 1]) == [0, 1]

    def test_empty_candidates(self):
        g = path_graph(3)
        assert greedy_mis(build_rel(g).out_adj, []) == []

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
            chosen = greedy_mis(rel.out_adj, scan)
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


    def test_maxdeg_on_empty_graph(self):
        assert Digraph.from_edges(0, []).maxdeg() == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_maxdeg_on_random_digraphs(self, seed):
        # deg(x) is |Var(x) | Cl(x)|: the vertices x reads and the vertices that read x
        g = random_digraph(30, 40, seed)
        # symmetric, one list of lists as both sides, a self-loop at every vertex
        adj = [sorted(set(a) | {x}) for x, a in enumerate(reference_und_adj(g))]
        shared = Digraph(g.n, adj, adj)
        for h in (g, build_rel(g), shared):
            nbrs = [set() for _ in range(h.n)]
            for x in range(h.n):
                for y in h.out_adj[x]:
                    nbrs[x].add(y)
                    nbrs[y].add(x)
            assert h.maxdeg() == max(len(ys) for ys in nbrs)


def scope_copy(g):
    """An equal graph read from g's scope lists; its `torus` is None, so `power_graph` walks its balls."""
    return Digraph.from_scopes([list(s) for s in g.out_adj])


def traced_peak(fn, *args):
    """Peak bytes tracemalloc sees while fn(*args) runs, from a fresh start."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def wrapped_offset_rows(w, h, offsets):
    """`torus_rows` by its definition: per cell, the set of its wrapped offsets, sorted, the centre kept only at (0, 0)."""
    rows = []
    for i in range(h):
        for j in range(w):
            near = {((i + di) % h) * w + (j + dj) % w for di, dj in offsets}
            if (0, 0) not in offsets:
                near.discard(i * w + j)
            rows.append(sorted(near))
    return rows


class TestTorusRows:
    """The rows `torus_rows` writes down on a torus against its definition, the BFS path and the ball reference."""

    @staticmethod
    def assert_all_three_agree(g, r):
        got = power_graph(g, r)
        assert got.out_adj is got.in_adj
        assert got == power_graph(scope_copy(g), r) == reference_power_graph(g, r)

    @pytest.mark.parametrize("r", range(5))
    def test_every_shape_up_to_2r_plus_3(self, r):
        # w or h <= 2r wraps every ball round the torus; from 2r + 1 on, inner cells take the slice path
        for w in range(3, 2 * r + 4):
            for h in range(3, 2 * r + 4):
                self.assert_all_three_agree(torus_graph(w, h), r)

    @pytest.mark.parametrize("w, h", [(37, 53), (120, 120)])
    def test_large_tori(self, w, h):
        self.assert_all_three_agree(torus_graph(w, h), 3)

    @pytest.mark.parametrize("w, h", [(3, 3), (7, 5)])
    def test_radius_past_the_diameter_is_clamped(self, w, h):
        # every ball is the whole torus once r reaches w//2 + h//2, so no larger r may build more offsets
        g = torus_graph(w, h)
        diameter = w // 2 + h // 2
        whole = power_graph(scope_copy(g), diameter)
        assert all(len(row) == g.n - 1 for row in whole.out_adj)
        for r in (diameter, 300, 10**9):  # 300 first: unclamped, it would build ~180k offsets and fail here
            assert traced_peak(power_graph, g, r) < 100_000
            assert power_graph(g, r) == whole

    def test_radius_checked_before_the_offsets(self):
        # a negative r would otherwise build no offsets and return empty rows
        for r in (-1, 1.5, True):
            with pytest.raises(ValueError, match="radius must be"):
                power_graph(torus_graph(3, 3), r)

    @pytest.mark.parametrize("w, h", [(5, 40), (40, 5), (40, 6), (6, 40)])
    def test_only_one_side_at_most_2r(self, w, h):
        # balls wrap round the short axis only: a short h leaves no slab, a short w leaves no inner column
        self.assert_all_three_agree(torus_graph(w, h), 3)

    @pytest.mark.parametrize("w, h", [(3, 3), (7, 5), (40, 6)])
    def test_radius_zero_gives_empty_rows(self, w, h):
        got = power_graph(torus_graph(w, h), 0)
        assert got.out_adj == [[] for _ in range(w * h)]
        assert got == reference_power_graph(torus_graph(w, h), 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_any_offsets_match_their_definition(self, seed):
        # one-sided, lopsided and centre-holding offset sets, on tori from 1 cell wide up to clear slabs
        rng = random.Random(seed)
        for _ in range(20):
            w, h = rng.randint(1, 12), rng.randint(1, 12)
            box = [(di, dj) for di in range(-3, 4) for dj in range(-3, 4)]
            offsets = rng.sample(box, rng.randint(0, 8))
            assert torus_rows(w, h, offsets) == wrapped_offset_rows(w, h, offsets), (w, h, offsets)

    def test_scopes_and_rows_hold_no_fresh_ints(self):
        # 40x40 is past CPython's small-int cache (-5..256), so a row entry computed per cell would be a new
        # int object; every entry must be one of the n ints of the writer's one `cells` list
        g = torus_graph(40, 40)
        for adj in (g.out_adj, power_graph(g, 3).out_adj):
            assert len({id(x) for row in adj for x in row}) <= g.n

    def test_torus_graph_traced_peak(self):
        # the scopes and their n shared ints take ~2.2 MB at 120x120; a fresh int per entry took 3.8 MB
        assert traced_peak(torus_graph, 120, 120) < 3_000_000

    def test_rows_hold_no_fresh_ints(self):
        # rows built as `[x + d for d in offsets]` would hold one new int per entry, ~86k of them here;
        # the written-down rows reuse the ints of one shared list and must not outgrow the BFS path
        g = torus_graph(60, 60)
        assert traced_peak(power_graph, g, 3) <= traced_peak(power_graph, scope_copy(g), 3)


class TestBuiltGraphsPassTheReferenceCheck:
    """Every graph the package builds passes `reference_validate`, the one copy of the graph check.

    The package checks only outside graphs, in `Digraph.from_scopes` and
    `Digraph.from_edges`; its own builders are valid by construction, and these
    tests hold them to it.
    """

    @pytest.mark.parametrize(
        "n, out_adj, in_adj",
        [
            (2, [[1], []], [[], []]),  # one-sided edge, out only
            (2, [[], []], [[], [0]]),  # one-sided edge, in only
            (2, [[1], [0]], [[1], [1]]),  # both sides, different edges
            (3, [[2, 1], [], []], [[], [0], [0]]),  # unsorted
            (2, [[1, 1], []], [[], [0]]),  # duplicate
            (2, [[1], []], [[], [0, 0]]),  # duplicate on the in side
            (3, [[0, 5, 7], [], []], [[0], [], []]),  # out of range
            (3, [[-1, 0], [], []], [[0], [], []]),  # negative vertex
            (3, [[], [], []], [[], [], [3]]),  # out of range on the in side
            (2, [[1]], [[]]),  # list count
        ],
    )
    def test_reference_rejects_malformed_lists(self, n, out_adj, in_adj):
        assert validate_error(reference_validate, Digraph(n, out_adj, in_adj)) is not None

    @pytest.mark.parametrize("seed", range(4))
    def test_from_edges_build_rel_and_power_graph(self, seed):
        for g in (random_digraph(30, 24, seed), random_digraph(20, 60, seed), Digraph.from_edges(0, [])):
            reference_validate(g)
            reference_validate(build_rel(g))
            for r in range(4):
                reference_validate(power_graph(g, r))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen_torus_nae(3, 3, 2),
            lambda: gen_torus_nae(7, 4, 3),
            lambda: gen_grid_ksat(1, 1, 1, 1, 1, 0),
            lambda: gen_grid_ksat(3, 4, 3, 3, 1, 0),  # the clause window clipped at every edge
            lambda: gen_grid_ksat(6, 5, 5, 2, 2, 9, b=3),
        ],
    )
    def test_generators(self, make):
        p = make()
        reference_validate_problem(p)  # the graph through reference_validate, then the rule table
        p.validate()
        reference_validate(build_rel(p.graph))


class TestMatchesSetPerVertex:
    """from_scopes, from_edges and build_rel against the set-per-vertex references in tests/reference_partition.py."""

    @staticmethod
    def draw_digraph(data):
        """(n, edges): up to 40 edges over up to 40 vertices; duplicates, self-loops and isolated vertices all occur."""
        n = data.draw(st.integers(0, 40))
        vertex = st.integers(0, max(n - 1, 0))
        return n, data.draw(st.lists(st.tuples(vertex, vertex), max_size=40 if n else 0))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_from_scopes(self, data):
        n, edges = self.draw_digraph(data)
        scopes = [sorted({dst for src, dst in edges if src == x}) for x in range(n)]
        g = Digraph.from_scopes(scopes)
        assert g == reference_from_edges(n, edges)
        assert g == Digraph.from_edges(n, edges)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_from_scopes_shares_symmetric_lists(self, data):
        # the scopes serve as in_adj too exactly when the in-lists equal them
        n, edges = self.draw_digraph(data)
        if data.draw(st.booleans()):  # close the edges under reversal: symmetric scopes
            edges = [*edges, *((dst, src) for src, dst in edges)]
        want = reference_from_edges(n, edges)
        g = Digraph.from_scopes([sorted({dst for src, dst in edges if src == x}) for x in range(n)])
        assert g.in_adj == want.in_adj
        assert (g.in_adj is g.out_adj) == (want.in_adj == want.out_adj)

    def test_from_scopes_shares_the_torus_lists_only(self):
        torus = gen_torus_nae(7, 5, 2).graph
        ksat = gen_grid_ksat(6, 6, 5, 2, 1, 1).graph  # clauses read variables, variables read nothing
        assert torus.in_adj is torus.out_adj
        assert ksat.in_adj is not ksat.out_adj

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rel_maxdeg_and_big_delta(self, data):
        n, edges = self.draw_digraph(data)
        self.check_big_delta(Digraph.from_edges(n, edges))

    @pytest.mark.parametrize("scopes", [[], [[]], [[], [], []], [[], [0, 2], []]])
    def test_rel_maxdeg_and_big_delta_with_empty_scopes(self, scopes):
        self.check_big_delta(Digraph.from_scopes(scopes))

    @staticmethod
    def check_big_delta(g):
        want = build_rel(g).maxdeg()
        assert g.big_delta() == want == reference_build_rel(g).maxdeg()
        assert g._rel_rows is None
        built = Digraph(g.n, g.out_adj, g.in_adj)  # a fresh graph, whose row table is then filled
        built.rel_rows(range(g.n))
        assert built.big_delta() == want

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_from_edges(self, data):
        n, edges = self.draw_digraph(data)
        g = Digraph.from_edges(n, edges)
        assert g == reference_from_edges(n, edges)
        reference_validate(g)
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
