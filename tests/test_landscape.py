"""Witness landscape construction, grounding, restriction, and the counting oracles."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resample_forge.graph_core import Digraph, ball, build_rel
from resample_forge.landscape_lab import (
    FinalisedLandscape,
    GForest,
    GroundingError,
    build_landscape,
    count_delta_trees,
    enumerate_grounded_forests,
    ground,
    landscape_to_json,
    q_poly,
    q_value_at_rho,
    restrict_landscape,
    restrict_problem,
    stable_radius,
    used_of,
    validate_landscape,
    varcount,
)
from resample_forge.mta_runner import run
from resample_forge.partitioner import singleton_partition, sparse_partition
from resample_forge.rule_engine import ColouringProblem, LocalRule, lll_margin
from resample_forge.tape import RandomTape, used_unused

from tests.helpers import (
    random_looped_problem,
    run_random_case,
    single_clause_problem,
    torus_graph,
)

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


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    mode=st.sampled_from(["singleton", "sparse", "random"]),
    b=st.sampled_from([2, 3]),
)
def test_landscape_is_valid_and_grounded(seed, mode, b):
    p, pi, tape, trace = run_random_case(seed, n=10, b=b, mode=mode)
    for k in range(1, trace.rounds + 2):
        fl = build_landscape(p, pi, trace, k)
        validate_landscape(p, fl)
        assert all(lvl == 0 for _, lvl in fl.forest.roots())
        # parents sit one level down and share a dependency edge
        rel_sets = [set(a) for a in p.rel().out_adj]
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
    validate_landscape(p, allowed_decoration, strict_viol=False)


# ---------------------------------------------------------------------------
# grounding


def test_ground_identity_on_grounded():
    p, pi, tape, trace = run_random_case(11, n=8, b=2)
    fl = build_landscape(p, pi, trace, trace.rounds + 1)
    gl = ground(p, fl)
    assert gl.forest.nodes == fl.forest.nodes
    assert gl.forest.parent == fl.forest.parent
    assert gl.viol == fl.viol and gl.fin == fl.fin


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


def test_ground_step_cap():
    p = single_clause_problem()
    fl = FinalisedLandscape(
        GForest({(1, 5)}, {}), {(1, 5): (0,)}, [0, 1]
    )
    with pytest.raises(GroundingError):
        ground(p, fl, step_cap=2)


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
    validate_landscape(rp, rl, strict_viol=False)


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
    validate_landscape(rp, rl, strict_viol=False)
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
# radius selection


def path_digraph(n):
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1))
        edges.append((i + 1, i))
    return Digraph.from_edges(n, edges)


def test_stable_radius_frozen_path():
    g = path_digraph(20)
    assert stable_radius(g, [1] * 20, 0, 2, 1.0) == 5


def test_stable_radius_complete_graph():
    n = 5
    edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    g = Digraph.from_edges(n, edges)
    with pytest.raises(ValueError, match="no stable radius"):
        stable_radius(g, [1] * n, 0, 1, 1.0)
    assert stable_radius(g, [1] * n, 0, 2, 1.0) == 4


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), y=st.integers(0, 19), eps=st.sampled_from([0.5, 1.0, 2.0]))
def test_stable_radius_is_minimal_witness(seed, y, eps):
    g = path_digraph(20)
    rng = random.Random(seed)
    weights = [rng.randint(0, 4) for _ in range(20)]
    weights[y] = max(weights) + 1
    try:
        r = stable_radius(g, weights, y, 3, eps)
    except ValueError:
        return
    inner = sum(weights[x] for x in ball(g, y, r - 3))
    outer = sum(weights[x] for x in ball(g, y, r))
    assert outer <= (1 + eps) * inner * (1 + 1e-12)
    for smaller in range(3, r):
        i2 = sum(weights[x] for x in ball(g, y, smaller - 3))
        o2 = sum(weights[x] for x in ball(g, y, smaller))
        assert o2 > (1 + eps) * i2 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# counting oracles


def test_count_delta_trees_frozen():
    assert count_delta_trees(2, 0) == 1
    assert count_delta_trees(2, 1) == 1
    assert count_delta_trees(2, 2) == 2
    assert count_delta_trees(2, 3) == 5
    assert count_delta_trees(1, 4) == 1  # unary: one chain per size


def test_count_delta_trees_matches_closed_form():
    # independent closed form: C(delta*i, i) / ((delta-1)*i + 1)
    for delta in range(1, 5):
        for i in range(0, 7):
            expected = math.comb(delta * i, i) // ((delta - 1) * i + 1)
            assert count_delta_trees(delta, i) == expected


def test_count_delta_trees_budget():
    with pytest.raises(ValueError, match="budget"):
        count_delta_trees(5, 2)
    with pytest.raises(ValueError, match="budget"):
        count_delta_trees(2, 7)
    assert count_delta_trees(5, 2, max_delta=5) == 5


def test_q_poly_frozen():
    assert q_poly(2, 0) == [1, 1]
    assert q_poly(2, 1) == [1, 1, 2, 1]
    # coefficients below the depth horizon agree with direct enumeration
    for delta in (2, 3):
        coeffs = q_poly(delta, 5)
        for size in range(0, 6):
            assert coeffs[size] == count_delta_trees(delta, size)


def test_q_value_at_rho_bounded():
    for delta in (2, 3, 4):
        bound = Fraction(delta, delta - 1)
        prev = Fraction(0)
        for i in range(0, 9):
            val = q_value_at_rho(delta, i)
            assert prev < val <= bound
            prev = val


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
    assert enumerate_grounded_forests(g, 0) == 1
    assert enumerate_grounded_forests(g, 1) == 2
    assert enumerate_grounded_forests(g, 2) == 2


def test_enumerate_grounded_forests_matches_brute_force():
    cases = [
        Digraph.from_edges(2, [(1, 0)]),
        path_digraph(3),
        Digraph.from_edges(3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]),
        Digraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    ]
    for g in cases:
        for m in range(0, 4):
            assert enumerate_grounded_forests(g, m) == brute_grounded_forests(g, m)


def test_enumerate_grounded_forests_budget():
    g = path_digraph(3)
    with pytest.raises(ValueError, match="budget"):
        enumerate_grounded_forests(g, 5)
    with pytest.raises(ValueError, match="budget"):
        enumerate_grounded_forests(path_digraph(6), 2)


def test_landscape_json_deterministic():
    p, pi, tape, trace = run_random_case(21, n=8, b=2)
    a = landscape_to_json(build_landscape(p, pi, trace, trace.rounds + 1))
    b = landscape_to_json(build_landscape(p, pi, trace, trace.rounds + 1))
    assert a == b
    payload = json.loads(a)
    assert set(payload) == {"nodes", "edges", "viol", "fin"}
