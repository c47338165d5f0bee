"""Witness landscape construction, grounding, restriction, and the counting oracles."""

import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resample_forge.graph_core import Digraph, ball, build_rel, rel_row
from resample_forge.instance_io import gen_torus_nae
from resample_forge.landscape_lab import (
    MAX_FOREST_VERTICES,
    MAX_Q_DEGREE,
    FinalisedLandscape,
    GForest,
    GroundingError,
    build_landscape,
    count_delta_trees,
    count_grounded_forests,
    ground,
    landscape_to_json,
    q_poly,
    q_value_at_rho,
    restrict_landscape,
    restrict_problem,
    used_of,
    validate_landscape,
    varcount,
)
from resample_forge.mta_runner import RunTrace, run
from resample_forge.partitioner import SparsePartition, singleton_partition, sparse_partition
from resample_forge.rule_engine import ColouringProblem, LocalRule, lll_margin
from resample_forge.tape import RandomTape, used_unused

from tests.helpers import (
    partition_for,
    random_looped_problem,
    run_random_case,
    single_clause_problem,
    torus_graph,
    witness_rules_problem,
)
from tests.reference_landscape import (
    brute_labelled_trees,
    reference_build_landscape,
    reference_ground,
    reference_restrict_landscape,
    reference_restrict_problem,
    reference_used_of,
    reference_validate_landscape,
)
from tests.reference_partition import reference_validate

SEED_ONE_RESAMPLE = 6


def path_problem():
    """Three cells in a row; scopes 0:{0}, 1:{0,1}, 2:{1,2}; all-zero tuples forbidden."""
    g = Digraph.from_edges(3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
    rule = LocalRule.from_lists([[(0,)], [(0, 0)], [(0, 0)]])
    p = ColouringProblem(g, 2, rule)
    p.validate()
    return p


# ---------------------------------------------------------------------------
# construction


def test_single_clause_landscape_frozen():
    p = single_clause_problem()
    pi = singleton_partition(p.n)
    tape = RandomTape(SEED_ONE_RESAMPLE, p.b)
    trace = run(p, pi, tape)
    assert trace.succeeded and trace.rounds == 1

    fl = build_landscape(p, pi, trace, 2)
    assert fl.forest.nodes == {(1, 0)}
    assert fl.forest.parent == {}
    assert fl.viol == {(1, 0): (0,)}
    assert fl.fin == trace.final_colouring
    validate_landscape(p, fl)

    # one level deeper than the run went: everything stabilises
    fl3 = build_landscape(p, pi, trace, 3)
    assert fl3.forest.nodes == {(1, 0)}
    assert fl3.fin == trace.final_colouring


def test_small_k_cuts():
    p = single_clause_problem()
    pi = singleton_partition(p.n)
    trace = run(p, pi, RandomTape(SEED_ONE_RESAMPLE, p.b))
    for k in (0, 1):
        fl = build_landscape(p, pi, trace, k)
        assert fl.forest.nodes == set()
        assert fl.fin == trace.colouring_at(0)
    with pytest.raises(ValueError):
        build_landscape(p, pi, trace, -1)


def test_exhausted_trace_k_range():
    g = Digraph.from_edges(1, [(0, 0)])
    p = ColouringProblem(g, 2, LocalRule.from_lists([[(0,), (1,)]]))
    pi = singleton_partition(1)
    trace = run(p, pi, RandomTape(3, 2), max_steps=4)
    assert not trace.succeeded
    fl = build_landscape(p, pi, trace, trace.rounds + 1)
    validate_landscape(p, fl)
    with pytest.raises(ValueError):
        build_landscape(p, pi, trace, trace.rounds + 2)


def test_k_prefix_rule_shared_by_landscape_and_used_unused():
    """Both k-prefix readers refuse the same k with the same message, and cut at min(k-1, rounds)."""
    g = Digraph.from_edges(1, [(0, 0)])
    p = ColouringProblem(g, 2, LocalRule.from_lists([[(0,), (1,)]]))
    pi = singleton_partition(1)
    trace = run(p, pi, RandomTape(3, 2), max_steps=4)
    assert not trace.succeeded and trace.rounds == 4
    readers = (lambda k: build_landscape(p, pi, trace, k), lambda k: used_unused(trace, pi, RandomTape(3, 2), k))
    for read in readers:
        with pytest.raises(ValueError, match=r"^k must be nonnegative$"):
            read(-1)
        with pytest.raises(ValueError, match=r"^k=6 exceeds trace length 5$"):
            read(6)
    assert [trace.prefix_rounds(k) for k in range(6)] == [0, 0, 1, 2, 3, 4]
    done = run(single_clause_problem(), singleton_partition(2), RandomTape(SEED_ONE_RESAMPLE, 2))
    assert done.succeeded and done.prefix_rounds(done.rounds + 9) == done.rounds


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    mode=st.sampled_from(["singleton", "sparse", "random"]),
    b=st.sampled_from([2, 3]),
)
def test_landscape_is_valid_and_grounded(seed, mode, b):
    p, pi, tape, trace = run_random_case(seed, n=10, b=b, mode=mode)
    rel_sets = [set(a) for a in build_rel(p.graph).out_adj]
    for k in range(1, trace.rounds + 2):
        fl = build_landscape(p, pi, trace, k)
        validate_landscape(p, fl)
        assert all(lvl == 0 for _, lvl in fl.forest.roots())
        # parents sit one level down and share a dependency edge
        for (cx, clvl), (px, plvl) in fl.forest.parent.items():
            assert plvl == clvl - 1 and px in rel_sets[cx]


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    mode=st.sampled_from(["singleton", "sparse", "random"]),
    b=st.sampled_from([2, 3]),
)
def test_landscape_recovers_consumed_symbols(seed, mode, b):
    """The load-bearing identity: landscape playback equals the tape's used prefixes."""
    p, pi, tape, trace = run_random_case(seed, n=10, b=b, mode=mode)
    ks = list(range(1, trace.rounds + 2))
    if trace.succeeded:
        ks.append(trace.rounds + 4)
    for k in ks:
        fl = build_landscape(p, pi, trace, k)
        recovered = used_of(p, fl)
        expected, _ = used_unused(trace, pi, tape, k)
        assert recovered == expected


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_varcount_matches_recovered_lengths(seed):
    p, pi, tape, trace = run_random_case(seed, n=9, b=2)
    k = trace.rounds + 1
    fl = build_landscape(p, pi, trace, k)
    seqs = used_of(p, fl)
    assert sum(len(s) for s in seqs) == varcount(p, fl.forest)


def test_used_of_level_ordering_and_clash():
    p = single_clause_problem()
    chain = GForest({(1, 0), (1, 1)}, {(1, 1): (1, 0)})
    fl = FinalisedLandscape(chain, {(1, 0): (0,), (1, 1): (1,)}, [0, 1])
    # cell 0 replays level 0, then level 1, then the final colour
    assert used_of(p, fl)[0] == (0, 1, 0)
    assert used_of(p, fl)[1] == (1,)

    q = path_problem()
    # vertices 1 and 2 both read cell 1; parking them on one level is refused
    clash = FinalisedLandscape(
        GForest({(1, 0), (2, 0)}, {}), {(1, 0): (0, 0), (2, 0): (0, 0)},
        [0, 0, 0],
    )
    with pytest.raises(ValueError, match="one level"):
        used_of(q, clash)


def test_validate_rejects_malformed():
    p = path_problem()
    ok = FinalisedLandscape(
        GForest({(1, 0), (1, 1)}, {(1, 1): (1, 0)}), {(1, 0): (0, 0), (1, 1): (0, 0)},
        [1, 1, 1],
    )
    validate_landscape(p, ok)

    skip_level = FinalisedLandscape(
        GForest({(1, 0), (1, 2)}, {(1, 2): (1, 0)}), {(1, 0): (0, 0), (1, 2): (0, 0)},
        [1, 1, 1],
    )
    with pytest.raises(ValueError, match="advance one level"):
        validate_landscape(p, skip_level)

    dependent_level = FinalisedLandscape(
        GForest({(0, 0), (1, 0)}, {}), {(0, 0): (0,), (1, 0): (0, 0)},
        [1, 1, 1],
    )
    with pytest.raises(ValueError, match="not independent"):
        validate_landscape(p, dependent_level)

    wrong_arity = FinalisedLandscape(
        GForest({(1, 0)}, {}), {(1, 0): (0,)}, [1, 1, 1]
    )
    with pytest.raises(ValueError, match="arity"):
        validate_landscape(p, wrong_arity)

    allowed_decoration = FinalisedLandscape(
        GForest({(1, 0)}, {}), {(1, 0): (1, 1)}, [1, 1, 1]
    )
    with pytest.raises(ValueError, match="not forbidden"):
        validate_landscape(p, allowed_decoration)

    short_fin = FinalisedLandscape(ok.forest, ok.viol, [1, 1])
    with pytest.raises(ValueError, match="^final colouring has wrong length$"):
        validate_landscape(p, short_fin)


@pytest.mark.parametrize("problem", [path_problem, lambda: gen_torus_nae(4, 4, 2)])
def test_validate_rejects_a_decoration_that_is_not_a_tuple(problem):
    # distinct small tables answer lookups as tuples, one shared table as a set: a list is refused by both
    p = problem()
    fl = FinalisedLandscape(GForest({(1, 0)}, {}), {(1, 0): list(p.rule.forbidden[1][0])}, [0] * p.n)
    for check in (validate_landscape, reference_validate_landscape):
        with pytest.raises(ValueError, match=r"^decoration at \(1,0\) is not a tuple$"):
            check(p, fl)


@pytest.mark.parametrize("node", [(16, 0), (-1, 0), (0, -1)])
def test_validate_refuses_out_of_range_nodes_before_reading_rows(node):
    # (-1, 0) must not reach row n-1 through a negative index
    p = witness_rules_problem(4, 0)
    assert p.n == 16
    nodes = {(0, 0), node}
    bad = FinalisedLandscape(GForest(nodes, {}), {nd: (0,) * 5 for nd in nodes}, [0] * p.n)
    with pytest.raises(ValueError, match=rf"^node \({node[0]}, {node[1]}\) out of range$"):
        validate_landscape(p, bad)
    assert p.graph.rel_rows([]) == [None] * p.n


@pytest.mark.parametrize("node", [(True, 0), (1, 0.0), (1, True), (1.0, 0)])
def test_validate_refuses_non_int_nodes_before_reading_rows(node):
    # a range test alone lets True stand for vertex 1 and 0.0 for level 0, and 1.0 cannot index a row
    p = witness_rules_problem(4, 0)
    bad = FinalisedLandscape(GForest({node}, {}), {node: p.rule.forbidden[1][0]}, [0] * p.n)
    with pytest.raises(ValueError, match=f"^{re.escape(f'node {node} out of range')}$"):
        validate_landscape(p, bad)
    assert p.graph._rel_rows is None


@pytest.mark.parametrize("partition", ["singleton", "sparse"])
def test_witness_forests_build_no_row_beyond_the_run(partition):
    # the forests read only the rows of resampled rules, which the run built
    p = witness_rules_problem(16, 5)
    pi = partition_for(p, partition, r=3)
    for seed in range(3):
        trace = run(p, pi, RandomTape(seed, p.b), max_steps=30)
        rows = p.graph.rel_rows([])
        built = [x for x in range(p.n) if rows[x] is not None]
        assert trace.rounds > 0 and 0 < len(built) < p.n
        fl = build_landscape(p, pi, trace, trace.rounds + 1)
        validate_landscape(p, fl)
        assert [x for x in range(p.n) if rows[x] is not None] == built
        assert p.graph.rel_rows([]) is rows


def test_validate_rejects_repeated_node():
    # a node list that repeats a node can never equal the decoration keys
    p = path_problem()
    repeated = FinalisedLandscape(GForest([(1, 0), (1, 0)], {}), {(1, 0): (0, 0)}, [1, 1, 1])
    with pytest.raises(ValueError, match="decoration keys"):
        validate_landscape(p, repeated)


# ---------------------------------------------------------------------------
# grounding


def test_ground_identity_on_grounded():
    p, pi, tape, trace = run_random_case(11, n=8, b=2)
    fl = build_landscape(p, pi, trace, trace.rounds + 1)
    gl = ground(p, fl)
    assert gl.forest.nodes == fl.forest.nodes
    assert gl.forest.parent == fl.forest.parent
    assert gl.viol == fl.viol and gl.fin == fl.fin


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    mode=st.sampled_from(["singleton", "sparse", "random"]),
    b=st.sampled_from([2, 3]),
)
def test_ground_identity_and_idempotent(seed, mode, b):
    p, pi, tape, trace = run_random_case(seed, n=10, b=b, mode=mode)
    for k in range(1, trace.rounds + 2):
        fl = build_landscape(p, pi, trace, k)
        gl = ground(p, fl)
        assert gl.forest == fl.forest
        assert gl.viol == fl.viol and gl.fin == fl.fin
        again = ground(p, gl)
        assert again.forest == gl.forest and again.viol == gl.viol


def test_ground_slides_chain_down():
    p = single_clause_problem()
    fl = FinalisedLandscape(
        GForest({(1, 1), (1, 2)}, {(1, 2): (1, 1)}),
        {(1, 1): (0,), (1, 2): (0,)},
        [0, 1],
    )
    gl = ground(p, fl)
    assert gl.forest.nodes == {(1, 0), (1, 1)}
    assert gl.forest.parent == {(1, 1): (1, 0)}
    assert used_of(p, gl) == used_of(p, fl)
    validate_landscape(p, gl)


def test_ground_rehangs_root():
    p = single_clause_problem()
    fl = FinalisedLandscape(
        GForest({(1, 0), (1, 1)}, {}), {(1, 0): (0,), (1, 1): (0,)},
        [0, 1],
    )
    gl = ground(p, fl)
    assert gl.forest.parent == {(1, 1): (1, 0)}
    assert used_of(p, gl) == used_of(p, fl)


def test_ground_reroutes_blocked_nonroot():
    p = path_problem()
    fl = FinalisedLandscape(
        GForest(
            {(0, 1), (1, 2), (2, 0), (2, 1)},
            {(1, 2): (0, 1), (2, 1): (2, 0)},
        ),
        {(0, 1): (0,), (1, 2): (0, 0), (2, 0): (0, 0), (2, 1): (0, 0)},
        [1, 1, 1],
    )
    validate_landscape(p, fl)
    gl = ground(p, fl)
    assert all(lvl == 0 for _, lvl in gl.forest.roots())
    # the blocked middle node re-hung onto vertex 2's chain
    assert gl.forest.parent[(1, 2)] == (2, 1)
    assert gl.forest.nodes == {(0, 0), (1, 2), (2, 0), (2, 1)}
    assert used_of(p, gl) == used_of(p, fl)
    validate_landscape(p, gl)


def test_ground_stuck_empty_scope_stack():
    # two nodes for an isolated rule vertex with empty scope: nothing relates
    # them, so neither a slide nor a re-hang applies once they stack up
    g = Digraph.from_edges(2, [(1, 0)])
    p = ColouringProblem(g, 2, LocalRule.from_lists([[], [(0,)]]))
    stuck = FinalisedLandscape(
        GForest({(0, 0), (0, 1)}, {}), {(0, 0): (), (0, 1): ()},
        [0, 0],
    )
    with pytest.raises(GroundingError):
        ground(p, stuck)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), lift=st.integers(1, 3))
def test_ground_preserves_playback(seed, lift):
    """Lift a whole landscape into the air, ground it, compare per-cell playback."""
    p, pi, tape, trace = run_random_case(seed, n=8, b=2)
    fl = build_landscape(p, pi, trace, trace.rounds + 1)
    if not fl.forest.nodes:
        return
    lifted = FinalisedLandscape(
        GForest(
            {(x, lvl + lift) for x, lvl in fl.forest.nodes},
            {
                (cx, clvl + lift): (px, plvl + lift)
                for (cx, clvl), (px, plvl) in fl.forest.parent.items()
            },
        ),
        {(x, lvl + lift): t for (x, lvl), t in fl.viol.items()},
        list(fl.fin),
    )
    validate_landscape(p, lifted)
    gl = ground(p, lifted)
    validate_landscape(p, gl)
    assert len(gl.forest.nodes) == len(fl.forest.nodes)
    assert all(lvl == 0 for _, lvl in gl.forest.roots())
    assert used_of(p, gl) == used_of(p, lifted)


def _lift(fl, lift, stretch):
    """Shift every level up by `lift`; with `stretch`, also double the levels and drop the edges."""
    if stretch:
        return FinalisedLandscape(
            GForest({(x, 2 * lvl + lift) for x, lvl in fl.forest.nodes}, {}),
            {(x, 2 * lvl + lift): t for (x, lvl), t in fl.viol.items()},
            list(fl.fin),
        )
    return FinalisedLandscape(
        GForest(
            {(x, lvl + lift) for x, lvl in fl.forest.nodes},
            {(c[0], c[1] + lift): (q[0], q[1] + lift) for c, q in fl.forest.parent.items()},
        ),
        {(x, lvl + lift): t for (x, lvl), t in fl.viol.items()},
        list(fl.fin),
    )


def _assert_grounds_like_reference(p, fl):
    want = reference_ground(p, fl)
    got = ground(p, fl)
    assert got.forest.nodes == want.forest.nodes
    assert got.viol == want.viol and got.fin == want.fin
    assert all(lvl == 0 for _, lvl in got.forest.roots())
    rel_sets = [set(a) for a in build_rel(p.graph).out_adj]
    for (cx, clvl), (px, plvl) in got.forest.parent.items():
        assert plvl == clvl - 1 and px in rel_sets[cx]
    assert used_of(p, got) == used_of(p, fl)
    reference_validate_landscape(p, got, strict_viol=False)


@pytest.mark.parametrize("mode", ["singleton", "sparse"])
def test_ground_matches_move_set(mode):
    """Single-pass grounding against the move set in tests/reference_landscape.py.

    Restricted landscapes come from criterion-6-style runs; lifted ones shift
    or stretch a whole run's landscape into the air.
    """
    rng = random.Random(7 if mode == "singleton" else 70)
    for case in range(300):
        p = random_looped_problem(
            n=rng.randint(6, 14),
            extra_edges=rng.randint(2, 10),
            b=2,
            max_forbidden=2,
            seed=rng.randrange(2**30),
        )
        pi = singleton_partition(p.n) if mode == "singleton" else sparse_partition(p.graph, 3)
        trace = run(p, pi, RandomTape(rng.randrange(2**30), p.b), max_steps=30)
        k = rng.randint(1, max(1, min(8, trace.rounds + 1)))
        fl = build_landscape(p, pi, trace, k)
        u = ball(p.graph, rng.randrange(p.n), 3)
        q, _ = restrict_problem(p, pi, u)
        reference_validate(q.graph)
        _assert_grounds_like_reference(q, restrict_landscape(p, pi, fl, u))
        _assert_grounds_like_reference(p, _lift(fl, rng.randint(1, 3), stretch=case % 2 == 1))


# ---------------------------------------------------------------------------
# restriction


def test_restrict_problem_torus_patch():
    g = torus_graph(5, 5)
    rows = [[(0,) * 5, (1,) * 5] for _ in range(g.n)]
    p = ColouringProblem(g, 2, LocalRule.from_lists(rows))
    p.validate()
    pi = sparse_partition(g, 3)
    u = ball(g, 12, 3)
    q, qpi = restrict_problem(p, pi, u)
    reference_validate(q.graph)
    q.validate()
    assert q.n == pi.num_parts
    assert qpi.num_parts == q.n
    # interior part keeps a same-shape rule
    alpha = pi.part_of[12]
    assert len(q.rule.forbidden[alpha]) == 2
    assert all(len(t) == 5 for t in q.rule.forbidden[alpha])
    assert lll_margin(q) <= lll_margin(p)


def test_restrict_problem_rejects_clashing_subset():
    p, pi, tape, trace = run_random_case(5, n=8, b=2, mode="sparse")
    clashing = None
    for x in range(p.n):
        for y in range(x + 1, p.n):
            if pi.part_of[x] == pi.part_of[y]:
                clashing = {x, y}
                break
        if clashing:
            break
    if clashing is None:
        pytest.skip("partition is injective on this instance")
    with pytest.raises(ValueError, match="part-unique"):
        restrict_problem(p, pi, clashing)


# -1 once reached vertex n-1 and True vertex 1; n raised IndexError and 1.0 TypeError
@pytest.mark.parametrize("vertex", [-1, 16, True, 1.0])
@pytest.mark.parametrize(
    "restrict",
    [
        restrict_problem,
        lambda p, pi, subset: restrict_landscape(p, pi, FinalisedLandscape(GForest(set(), {}), {}, [0] * p.n), subset),
    ],
    ids=["problem", "landscape"],
)
def test_restriction_refuses_a_subset_member_that_is_not_a_vertex(restrict, vertex):
    p = gen_torus_nae(4, 4, 2)
    with pytest.raises(ValueError, match=f"^{re.escape(f'subset vertex {vertex!r} out of range')}$"):
        restrict(p, singleton_partition(p.n), [0, vertex])


@pytest.mark.parametrize("sides", [(6, 7), (7, 6)])
@pytest.mark.parametrize(
    "restrict",
    [
        restrict_problem,
        lambda p, pi, subset: restrict_landscape(p, pi, FinalisedLandscape(GForest(set(), {}), {}, [0] * p.n), subset),
    ],
    ids=["problem", "landscape"],
)
def test_restriction_refuses_a_partition_of_another_instance(restrict, sides):
    # a 7x7 partition once quotiented a 6x6 torus silently; a 6x6 one raised IndexError on a 7x7 torus
    p, other = (gen_torus_nae(side, side, 2) for side in sides)
    message = f"partition of {other.n} vertices does not fit a problem of {p.n} vertices"
    with pytest.raises(ValueError, match=f"^{message}$"):
        restrict(p, sparse_partition(other.graph, 1), ball(p.graph, 0, 1))


def test_restrict_landscape_boundary_fallback():
    p = path_problem()
    pi = singleton_partition(p.n)
    fl = FinalisedLandscape(
        GForest({(1, 0), (2, 1)}, {(2, 1): (1, 0)}),
        {(1, 0): (0, 0), (2, 1): (0, 0)},
        [1, 0, 1],
    )
    validate_landscape(p, fl)
    u = {1, 2}
    rl = restrict_landscape(p, pi, fl, u)
    rp, _ = restrict_problem(p, pi, u)
    # vertex 1 reads 0 which fell outside: decoration becomes the zero tuple
    assert rl.viol[(1, 0)] == (0,) * len(rp.graph.out_adj[1])
    # vertex 2's whole scope survived: decoration carried over
    assert rl.viol[(2, 1)] == (0, 0)
    assert rl.forest.parent == {(2, 1): (1, 0)}
    assert rl.fin == [0, 0, 1]
    reference_validate_landscape(rp, rl, strict_viol=False)


# each builder hands its forest the decoration map's keys view, not a copy of the keys
def test_landscape_builders_hold_the_node_set_once():
    p, pi, tape, trace = run_random_case(11, n=8, b=2)
    fl = build_landscape(p, pi, trace, trace.rounds + 1)
    assert fl.forest.nodes
    for made in (fl, ground(p, fl), restrict_landscape(p, pi, fl, range(0, p.n, 2))):
        nodes = made.forest.nodes
        assert type(nodes) is type({}.keys()) and nodes == set(made.viol)
        # `nodes.mapping` is a read-only proxy, never viol itself: a key added to viol shows the view is of it
        made.viol[None] = ()
        assert None in nodes


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), centre=st.integers(0, 24))
def test_restriction_preserves_interior_playback(seed, centre):
    """Cells whose clause neighbourhood survives keep their symbol sequence."""
    g = torus_graph(5, 5)
    rows = [[(0,) * 5] for _ in range(g.n)]
    p = ColouringProblem(g, 2, LocalRule.from_lists(rows))
    pi = sparse_partition(g, 3)
    tape = RandomTape(seed, 2)
    trace = run(p, pi, tape, max_steps=50)
    fl = build_landscape(p, pi, trace, trace.rounds + 1)
    u = ball(g, centre, 3)
    rl = restrict_landscape(p, pi, fl, u)
    rp, _ = restrict_problem(p, pi, u)
    reference_validate_landscape(rp, rl, strict_viol=False)
    base = used_of(p, fl)
    restricted = used_of(rp, rl)
    interior = [
        x
        for x in u
        if set(p.graph.in_adj[x]) <= u
        and all(set(p.graph.out_adj[y]) <= u for y in p.graph.in_adj[x])
    ]
    assert interior, "ball of radius 3 should contain interior cells"
    for x in interior:
        assert restricted[pi.part_of[x]] == base[x]


# ---------------------------------------------------------------------------
# differential checks against tests/reference_landscape.py


def _same_outcome(new, ref, *args):
    """Both versions raise, or both return equal values."""
    try:
        want = ref(*args)
    except (ValueError, IndexError):
        with pytest.raises((ValueError, IndexError)):
            new(*args)
        return None
    got = new(*args)
    assert got == want
    return got


def _problem_key(restricted):
    q, qpi = restricted
    return q.graph.out_adj, q.graph.in_adj, q.b, q.rule.forbidden, q.metadata, qpi


def _mutate(p, fl, rng):
    """One random edit: move, add or re-parent a node, or flip or clip a decoration.

    Two edits aim at one refusal each: a dependency neighbour added on a
    node's level, and an edge from a vertex independent of its child.
    """
    nodes, parent, viol = set(fl.forest.nodes), dict(fl.forest.parent), dict(fl.viol)
    order = sorted(nodes)
    kind = rng.randrange(8)
    if kind == 0 and order:  # move a node, carrying its decoration and edges
        old = rng.choice(order)
        new = (rng.randrange(p.n), max(0, old[1] + rng.choice((-1, 0, 1))))
        if new not in nodes:
            nodes = (nodes - {old}) | {new}
            viol[new] = viol.pop(old)
            parent = {(new if c == old else c): (new if q == old else q) for c, q in parent.items()}
    elif kind == 1:  # add a node with a random decoration of the right arity
        top = max((lvl for _, lvl in order), default=0)
        x = rng.randrange(p.n)
        nd = (x, rng.randint(0, top + 1))
        nodes.add(nd)
        viol[nd] = tuple(rng.randrange(p.b) for _ in p.graph.out_adj[x])
        if nd[1] > 0 and order and rng.random() < 0.5:
            parent[nd] = (rng.choice(order)[0], nd[1] - 1)
    elif kind == 2 and order:  # re-parent a node under any node
        child = rng.choice(order)
        parent[child] = rng.choice(order)
    elif kind == 3 and order:  # flip one symbol of a decoration
        nd = rng.choice(order)
        t = list(viol[nd])
        if t:
            i = rng.randrange(len(t))
            t[i] = 1 - t[i]
        viol[nd] = tuple(t)
    elif kind == 4 and order:  # clip a decoration to the wrong arity
        nd = rng.choice(order)
        viol[nd] = viol[nd][:-1]
    elif kind == 5 and order:  # move a node but leave its decoration behind
        old = rng.choice(order)
        nodes = (nodes - {old}) | {(old[0], old[1] + 1)}
    elif kind == 6 and order:  # put a dependency neighbour of a node on the node's level
        x, lvl = rng.choice(order)
        others = [y for y in rel_row(p.graph, x) if y != x and (y, lvl) not in nodes]
        if others:
            nd = (rng.choice(others), lvl)
            nodes.add(nd)
            viol[nd] = tuple(rng.randrange(p.b) for _ in p.graph.out_adj[nd[0]])
    elif kind == 7 and order:  # hang a node from an independent vertex one level below
        par = rng.choice(order)
        row = set(rel_row(p.graph, par[0]))
        strangers = [x for x in range(p.n) if x not in row]
        if strangers:
            child = (rng.choice(strangers), par[1] + 1)
            if child not in nodes:
                nodes.add(child)
                viol[child] = tuple(rng.randrange(p.b) for _ in p.graph.out_adj[child[0]])
            parent[child] = par
    return FinalisedLandscape(GForest(nodes, parent), viol, list(fl.fin))


def _assert_witness_path_matches(p, fl):
    _same_outcome(validate_landscape, reference_validate_landscape, p, fl)
    _same_outcome(used_of, reference_used_of, p, fl)


def _random_run(case, mode, rng):
    """A run on a random looped instance or, every fifth case, a small NAE torus, as criteria 6 and 7 draw them."""
    if case % 5 == 4:
        p = gen_torus_nae(rng.randint(4, 6), rng.randint(4, 6), 2)
    else:
        p = random_looped_problem(
            n=rng.randint(6, 16),
            extra_edges=rng.randint(2, 12),
            b=2,
            max_forbidden=2,
            seed=rng.randrange(2**30),
        )
    if mode == "sparse":
        pi = sparse_partition(p.graph, 3)
    elif mode == "singleton":
        pi = singleton_partition(p.n)
    else:
        pi = SparsePartition(p.n, tuple(rng.sample(range(p.n), p.n)))
    return p, pi, run(p, pi, RandomTape(rng.randrange(2**30), p.b), max_steps=30)


@pytest.mark.parametrize("mode", ["singleton", "sparse", "shuffled"])
def test_build_landscape_matches_reference(mode):
    """Every k-prefix forest against the node-by-node build over the whole dependency graph."""
    rng = random.Random({"singleton": 20, "sparse": 200, "shuffled": 2000}[mode])
    for case in range(100):
        p, pi, trace = _random_run(case, mode, rng)
        for k in range(trace.rounds + 2):
            _same_outcome(build_landscape, reference_build_landscape, p, pi, trace, k)


def test_build_landscape_refuses_a_round_without_a_parent():
    # round 1 resamples vertex 2, whose scope {1, 2} misses round 0's {0}: round 0 was not maximal
    p = path_problem()
    trace = RunTrace(
        status="budget_exhausted", b=2, num_parts=3, viol_snapshots=[{0: (0,)}, {2: (0, 0)}],
        bad_sizes=[2, 1, 1], h=[1, 1, 1], final_colouring=[1, 1, 1], clause_evals=3, scopes=p.graph.out_adj,
    )
    for build in (build_landscape, reference_build_landscape):
        with pytest.raises(RuntimeError, match=r"^no parent for node \(2,1\): previous resampled set not maximal$"):
            build(p, singleton_partition(p.n), trace, 3)
        assert build(p, singleton_partition(p.n), trace, 2).forest.nodes == {(0, 0)}  # round 0 alone is fine


@pytest.mark.parametrize("mode", ["singleton", "sparse", "shuffled"])
def test_witness_path_matches_reference(mode):
    """Restriction, recovery and validation against their multi-pass versions.

    Cases follow criteria 6 and 7: random looped instances and small NAE
    tori, run for a random prefix, restricted to a radius-3 ball or to a
    random subset; every landscape is also checked after random edits.  The
    shuffled mode numbers singleton parts out of vertex order, so a scope
    must be reordered by part when it is restricted.
    """
    rng = random.Random({"singleton": 10, "sparse": 100, "shuffled": 1000}[mode])
    for case in range(200):
        p, pi, trace = _random_run(case, mode, rng)
        fl = build_landscape(p, pi, trace, rng.randint(1, max(1, min(8, trace.rounds + 1))))
        if case % 3 == 2:
            u = set(rng.sample(range(p.n), rng.randint(0, p.n)))
        else:
            u = ball(p.graph, rng.randrange(p.n), 3)
        edited = _mutate(p, fl, rng)
        for landscape in (fl, edited):
            _assert_witness_path_matches(p, landscape)
        restricted = _same_outcome(
            lambda *a: _problem_key(restrict_problem(*a)),
            lambda *a: _problem_key(reference_restrict_problem(*a)),
            p, pi, u,
        )
        if restricted is None:  # the subset is not part-unique
            with pytest.raises(ValueError, match="part-unique"):
                restrict_landscape(p, pi, fl, u)
            continue
        q, _ = restrict_problem(p, pi, u)
        for landscape in (fl, edited):
            rfl = _same_outcome(restrict_landscape, reference_restrict_landscape, p, pi, landscape, u)
            if rfl is not None:
                _assert_witness_path_matches(q, rfl)
                _assert_witness_path_matches(q, _mutate(q, rfl, rng))
                try:
                    grounded = ground(q, rfl)
                except (ValueError, IndexError, GroundingError):
                    continue
                _assert_witness_path_matches(q, grounded)


# ---------------------------------------------------------------------------
# radius selection


def path_digraph(n):
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1))
        edges.append((i + 1, i))
    return Digraph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# counting oracles


def test_count_delta_trees_frozen():
    assert count_delta_trees(2, 0) == 1
    assert count_delta_trees(2, 1) == 1
    assert count_delta_trees(2, 2) == 2
    assert count_delta_trees(2, 3) == 5
    assert count_delta_trees(1, 4) == 1  # unary: one chain per size


def test_count_delta_trees_matches_closed_form():
    # the closed form against explicitly built shapes
    for delta in range(1, 5):
        for i in range(0, 7):
            assert count_delta_trees(delta, i) == brute_labelled_trees(delta, i)


def test_count_delta_trees_budget():
    # delta = 5 is counted: trees of at most 3 vertices have depth <= 2
    coeffs = q_poly(5, 2)
    for i in range(0, 4):
        assert count_delta_trees(5, i) == coeffs[i]


def test_q_poly_frozen():
    assert q_poly(2, 0) == [1, 1]
    assert q_poly(2, 1) == [1, 1, 2, 1]
    # coefficients below the depth horizon agree with direct enumeration
    for delta in (2, 3):
        coeffs = q_poly(delta, 5)
        for size in range(0, 6):
            assert coeffs[size] == count_delta_trees(delta, size)


def test_q_poly_degree_cap():
    assert len(q_poly(4, 5)) == MAX_Q_DEGREE + 1  # deg Q_5 at delta = 4 is the cap itself
    for delta, i in [(4, 6), (2, 10), (1, MAX_Q_DEGREE), (5, 10**9)]:
        with pytest.raises(ValueError, match="MAX_Q_DEGREE"):
            q_poly(delta, i)


def test_q_value_at_rho_bounded():
    for delta in (2, 3, 4):
        bound = Fraction(delta, delta - 1)
        prev = Fraction(0)
        for i in range(0, 9):
            val = q_value_at_rho(delta, i)
            assert prev < val <= bound
            prev = val
    with pytest.raises(ValueError, match="nonnegative"):
        q_value_at_rho(2, -1)


@pytest.mark.parametrize(
    "oracle, args, message",
    [
        (count_delta_trees, (0, 1), "delta must be >= 1"),
        (count_delta_trees, (2, -1), "size must be nonnegative"),
        (q_poly, (0, 1), "delta must be >= 1"),
        (q_poly, (2, -1), "iteration must be nonnegative"),
        (q_value_at_rho, (0, 1), "delta must be >= 1"),
    ],
)
def test_counting_oracles_refuse_bad_arguments(oracle, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        oracle(*args)


def brute_grounded_forests(g, m):
    """Generate-and-check oracle: all parent maps over all node placements."""
    rel_sets = [set(a) for a in build_rel(g).out_adj]
    slots = [(x, lvl) for lvl in range(m) for x in range(g.n)]
    count = 0
    for combo in itertools.combinations(slots, max(m, 0)):
        nodes = set(combo)
        by_level = {}
        for x, lvl in combo:
            by_level.setdefault(lvl, []).append(x)
        if any(
            b in rel_sets[a]
            for xs in by_level.values()
            for a, b in itertools.combinations(xs, 2)
        ):
            continue
        nonroots = [nd for nd in combo if nd[1] > 0]
        choices = [
            [par for par in combo if par[1] == nd[1] - 1 and par[0] in rel_sets[nd[0]]]
            for nd in nonroots
        ]
        for picks in itertools.product(*choices):
            count += 1
    return count


def test_enumerate_grounded_forests_frozen():
    g = Digraph.from_edges(2, [(1, 0)])  # one clause reading one cell
    assert count_grounded_forests(g, 2) == [1, 2, 2]
    assert count_grounded_forests(g, 0) == [1]


def test_enumerate_grounded_forests_matches_brute_force():
    cycle8 = [(x, x) for x in range(8)] + [(x, (x + 1) % 8) for x in range(8)]
    cases = [
        Digraph.from_edges(2, [(1, 0)]),
        path_digraph(3),
        Digraph.from_edges(3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]),
        Digraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        Digraph.from_edges(8, cycle8),
        gen_torus_nae(3, 3, 2).graph,
    ]
    for g in cases:
        counts = count_grounded_forests(g, 3)
        for m in range(0, 4):
            assert counts[m] == brute_grounded_forests(g, m)


def test_enumerate_grounded_forests_budget():
    with pytest.raises(ValueError, match="MAX_FOREST_VERTICES"):
        count_grounded_forests(path_digraph(MAX_FOREST_VERTICES + 1), 2)
    with pytest.raises(ValueError, match="nonnegative"):
        count_grounded_forests(path_digraph(3), -1)
    # the node count is not capped
    assert count_grounded_forests(path_digraph(3), 5)[5] == brute_grounded_forests(path_digraph(3), 5)


def test_landscape_json_deterministic():
    p, pi, tape, trace = run_random_case(21, n=8, b=2)
    a = landscape_to_json(build_landscape(p, pi, trace, trace.rounds + 1))
    b = landscape_to_json(build_landscape(p, pi, trace, trace.rounds + 1))
    assert a == b
    payload = json.loads(a)
    assert set(payload) == {"nodes", "edges", "viol", "fin"}
