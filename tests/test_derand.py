"""Deterministic solver: bound arithmetic, tape enumeration, pass semantics, pattern search."""

import itertools
import math
import pathlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resample_forge import derand
from resample_forge.derand import (
    SUCCESS,
    TAPE_EXHAUSTED,
    ExhaustedError,
    InfeasibleError,
    decode_tape,
    derand_solve,
    explicit_k_log,
    run_finite_tape,
    theoretical_budget,
    threshold_m,
)
from resample_forge.graph_core import Digraph, build_rel
from resample_forge.instance_io import load_problem
from resample_forge.mta_runner import STATUS_TAPE_DEPLETED, run
from resample_forge.partitioner import SparsePartition, singleton_partition, sparse_partition
from resample_forge.rule_engine import ColouringProblem, LocalRule, bad_set, satisfies
from resample_forge.tape import FiniteTape

from tests.helpers import (
    all_allowed_problem,
    partition_for,
    random_cnf_problem,
    random_looped_problem,
    single_clause_problem,
    star_problem,
    unsatisfiable_problem,
)
from tests.reference_derand import reference_derand_solve
from tests.reference_runner import reference_finite_tape
from tests.test_acceptance import _tiny_satisfiable
from tests.test_instance_io import reference_stamps

ONE_PART = SparsePartition(1, (0, 0))


# ---------------------------------------------------------------------------
# bound arithmetic


def explicit_k(b, delta, d, num_parts, big_delta):
    """The constant K evaluated directly, the reference for explicit_k_log.

    Raises OverflowError once K leaves float range.
    """
    decay = math.exp(-delta * (1.0 + math.log(big_delta)))
    numerator = d * (num_parts**d * 2 ** (b**d + 1) * b) ** num_parts * math.factorial(num_parts)
    return float(numerator) / (1.0 - decay) ** num_parts


def test_explicit_k_frozen():
    expected = 16.0 / (1.0 - math.exp(-1.0))
    assert explicit_k(2, 1.0, 1, 1, 1) == pytest.approx(expected, rel=1e-12)
    assert math.exp(explicit_k_log(2, 1.0, 1, 1, 1)) == pytest.approx(expected, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    b=st.integers(2, 3),
    delta=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    d=st.integers(1, 3),
    parts=st.integers(1, 4),
    big_delta=st.integers(1, 6),
)
def test_explicit_k_paths_agree(b, delta, d, parts, big_delta):
    try:
        direct = explicit_k(b, delta, d, parts, big_delta)
    except OverflowError:
        return
    assert math.exp(explicit_k_log(b, delta, d, parts, big_delta)) == pytest.approx(
        direct, rel=1e-9
    )


def test_explicit_k_monotone_in_parts():
    logs = [explicit_k_log(2, 1.0, 2, parts, 3) for parts in range(1, 6)]
    assert logs == sorted(logs)
    assert len(set(logs)) == len(logs)


def test_explicit_k_log_finite_past_float_range():
    with pytest.raises(OverflowError):
        explicit_k(3, 1.0, 5, 8, 2)  # 2^(3^5+1) to the 8th power leaves float range
    assert math.isfinite(explicit_k_log(3, 1.0, 5, 8, 2))


def test_explicit_k_rejects_bad_args():
    for args in [(1, 1.0, 1, 1, 1), (2, 0.0, 1, 1, 1), (2, 1.0, 0, 1, 1), (2, 1.0, 1, 0, 1), (2, 1.0, 1, 1, 0)]:
        with pytest.raises(ValueError):
            explicit_k_log(*args)
    for delta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            explicit_k_log(2, delta, 1, 1, 1)
        with pytest.raises(ValueError):
            threshold_m(0.0, 1, 1, delta)
    for delta in (5e-324, 1e-300):  # (e*Delta)^-delta rounds to 1
        with pytest.raises(ValueError, match=f"delta={delta} is too small"):
            explicit_k_log(2, delta, 1, 1, 1)
        with pytest.raises(ValueError, match=f"delta={delta} is too small"):
            threshold_m(0.0, 1, 1, delta)
    # ln K past the float range: b^d + 1 itself, or |pi| times a finite term
    for args in [(2, 1.0, 1030, 16, 11), (2, 1.0, 1100, 1100, 1), (2, 1.0, 1024, 1, 1), (2, 1.0, 1020, 1100, 1)]:
        with pytest.raises(ValueError, match="ln K overflows a float"):
            explicit_k_log(*args)
    with pytest.raises(ValueError, match="ln K overflows a float"):
        explicit_k_log(2**64, 1.0, 10**4000, 1, 1)  # rejected before b**d is built
    for k_log in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="k_log must be finite"):
            threshold_m(k_log, 1, 1, 1.0)
    for args, message in [((0.0, 0, 1, 1.0), "need at least one part"), ((0.0, 1, 0, 1.0), "dependency degree must be >= 1")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            threshold_m(*args)
    # m ~ k_log / (delta * (1 + ln Delta)) would pass 2^1024
    with pytest.raises(ValueError, match="no tape length below 2\\^1024"):
        threshold_m(1.2e308, 16, 11, 1e-10)


def test_budget_past_the_float_range_is_unenumerable():
    # the star's own d = 1,012 and |pi| = 1,013 give ln K ~ 3.1e307, which is finite, and
    # |pi| * m ~ 3.1e310 is compared with the 10,000-bit limit without a float
    p = star_problem(1012)
    budget = theoretical_budget(p, singleton_partition(p.n), delta=1.0)
    assert budget.k_log == pytest.approx(1013 * (2**1012 * math.log(2)), rel=1e-3)
    assert budget.m > 10**307
    assert budget.num_tapes is None and budget.infeasible


def test_threshold_m_frozen():
    k_log = explicit_k_log(2, 1.0, 1, 1, 1)
    assert threshold_m(k_log, 1, 1, 1.0) == 6


def test_threshold_m_clamps_to_one():
    assert threshold_m(math.log(0.5), 1, 1, 1.0) == 1


def test_threshold_m_nonincreasing_in_delta():
    k_log = explicit_k_log(2, 1.0, 2, 2, 4)
    ms = [threshold_m(k_log, 2, 4, delta) for delta in (0.25, 0.5, 1.0, 2.0)]
    assert ms == sorted(ms, reverse=True)


def test_threshold_m_satisfies_and_is_minimal():
    # at delta = 1e-6 the answers pass 10^7, where a linear scan used to give up
    for k_log, parts, big_delta, delta in itertools.product((0.0, 2.5, 10.0, 40.0), (1, 3), (1, 4), (0.5, 1e-6)):
        m = threshold_m(k_log, parts, big_delta, delta)
        rate = delta * (1 + math.log(big_delta))
        assert k_log + parts * math.log(m + 1) - rate * m < 0
        if m > 1:
            assert k_log + parts * math.log(m) - rate * (m - 1) >= 0


def linear_threshold_m(k_log, num_parts, big_delta, delta):
    """The first m with a negative gap, by scanning m = 1, 2, ...: the reference for threshold_m."""
    rate = delta * (1.0 + math.log(big_delta))
    m = 1
    while k_log + num_parts * math.log(m + 1) - rate * m >= 0:
        m += 1
    return m


def test_threshold_m_matches_linear_scan():
    grid = itertools.product(
        (-3.0, 0.0, 0.7, 2.5, 10.0, 40.0, 150.0), (1, 2, 3, 5, 8), (1, 2, 4, 9), (0.05, 0.25, 0.5, 1.0, 2.0, 4.0)
    )
    for args in grid:
        assert threshold_m(*args) == linear_threshold_m(*args), args


def test_theoretical_budget_flags_infeasible():
    p = single_clause_problem()
    budget = theoretical_budget(p, singleton_partition(p.n), delta=1.0)
    assert budget.m >= 1
    assert budget.num_tapes == p.b ** (p.n * budget.m)
    assert budget.infeasible == (budget.num_tapes > 2**24)


# the budget takes d and Delta from the instance: here they are counted from its scopes
@pytest.mark.parametrize("mode", ["singleton", "sparse"])
@pytest.mark.parametrize("name", ["torus10", "ksat6", "tiny1000", "unsat_2x4", "unsat_3x9", "single_clause"])
def test_theoretical_budget_reads_the_instance_degrees(name, mode):
    p = load_problem(str(GOLDEN_DIR / f"{name}.json"))
    pi = partition_for(p, mode, r=3)
    stamps = reference_stamps(p)
    d, big_delta = max(1, stamps["d"]), max(1, stamps["Delta"])
    k_log = explicit_k_log(p.b, 1.0, d, pi.num_parts, big_delta)
    budget = theoretical_budget(p, pi, 1.0)
    assert budget.k_log == k_log
    assert budget.m == threshold_m(k_log, pi.num_parts, big_delta, 1.0)


# ---------------------------------------------------------------------------
# tape enumeration


def test_decode_tape_layout():
    # digit of cell (part, t) sits at flat position t*|pi| + part
    b, parts, rounds = 3, 2, 2
    index = 1 * 1 + 2 * 3 + 0 * 9 + 1 * 27  # digits [1, 2, 0, 1]
    tape = decode_tape(index, parts, rounds, b)
    assert tape.digits == [1, 2, 0, 1]
    assert tape.symbol(0, 0) == 1
    assert tape.symbol(1, 0) == 2
    assert tape.symbol(0, 1) == 0
    assert tape.symbol(1, 1) == 1


def test_decode_tape_range():
    assert decode_tape(0, 2, 2, 2).digits == [0, 0, 0, 0]
    assert decode_tape(15, 2, 2, 2).digits == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        decode_tape(16, 2, 2, 2)


def test_decode_tape_is_injective():
    seen = set()
    for index in range(81):
        seen.add(tuple(decode_tape(index, 2, 2, 3).digits))
    assert len(seen) == 81


# ---------------------------------------------------------------------------
# inner loop


def list_pass_problem():
    """Clauses 1 and 2 share cell 1; clause 0 has no rules."""
    g = Digraph.from_edges(3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
    p = ColouringProblem(g, 2, LocalRule.from_lists([[], [(0, 0)], [(0, 0)]]))
    p.validate()
    return p


def test_internal_pass_skips_shadowed_neighbour():
    p = list_pass_problem()
    pi = singleton_partition(p.n)
    # round 0 all zeros; cell 0 redraws 1, cell 1 redraws 0, cell 2 spare
    tape = FiniteTape(3, 2, 2, [0, 0, 0, 1, 0, 0])
    trace = run(p, pi, tape, found_order=True)
    assert trace.bad_sizes[0] == 2  # clauses 1 and 2
    assert trace.ib_sets[0] == [1]  # clause 2 shadowed through shared cell 1
    assert trace.colouring_at(1) == [1, 0, 0]
    # round 1 would redraw cell 1 at t=2, past the tape's end
    assert trace.status == STATUS_TAPE_DEPLETED and trace.rounds == 1
    assert trace.h == [2, 2, 1]
    # the re-check evaluated clauses 1, 2 and their neighbour 0; only clause 2 still violated
    assert trace.bad_sizes == [2, 1]
    assert trace.clause_evals == len(p.active_clauses()) + 3


def test_internal_pass_empty_is_fixed_point():
    p = all_allowed_problem(4)
    pi = singleton_partition(p.n)
    trace = run(p, pi, FiniteTape(4, 1, 2, [0, 1, 0, 1]), found_order=True)
    assert trace.succeeded and trace.bad_sizes == [0]
    assert trace.colouring_at(0) == trace.final_colouring == [0, 1, 0, 1]
    assert trace.rounds == 0 and trace.clause_evals == len(p.active_clauses())


def test_run_finite_tape_immediate_success_zero_work():
    p = all_allowed_problem(4)
    pi = singleton_partition(p.n)
    attempt = run_finite_tape(p, pi, FiniteTape(4, 1, 2, [0, 0, 0, 0]), 0)
    assert attempt.outcome == SUCCESS
    assert attempt.passes == 0
    assert attempt.reevals == 0


def test_derand_solve_rejects_work_over_the_bound(monkeypatch):
    # d = 1, m = 1, n = 2: an attempt may re-evaluate at most 2 rules
    p = unsatisfiable_problem()
    real = derand.run_finite_tape

    def padded(*args):
        attempt = real(*args)
        attempt.reevals = 2 if attempt.tape_index == 0 else 3  # at the bound, then one over
        return attempt

    monkeypatch.setattr(derand, "run_finite_tape", padded)
    attempts = []
    with pytest.raises(RuntimeError, match=r"re-evaluation count 3 exceeds d\^4\*m\*n = 2"):
        derand_solve(p, singleton_partition(p.n), 1, attempts=attempts)
    assert [a.tape_index for a in attempts] == [0]


def test_derand_solve_refuses_success_on_a_violated_colouring(monkeypatch):
    # the final check that the winning colouring satisfies every rule, made to fail
    p = single_clause_problem()
    monkeypatch.setattr(derand, "satisfies", lambda p, f: False)
    with pytest.raises(RuntimeError, match="^inner loop reported success on a violated colouring$"):
        derand_solve(p, ONE_PART, 1)


# ---------------------------------------------------------------------------
# outer loop


def test_single_clause_one_part_hand_trace():
    p = single_clause_problem()
    attempts = []
    winner = derand_solve(p, ONE_PART, 1, attempts=attempts)
    assert winner.colouring == [1, 1]
    assert satisfies(p, winner.colouring)
    assert [a.outcome for a in attempts] == [TAPE_EXHAUSTED, SUCCESS]
    assert attempts[1] is winner and winner.tape_index == 1


def test_single_clause_singleton_parts():
    p = single_clause_problem()
    winner = derand_solve(p, singleton_partition(p.n), 1)
    assert winner.colouring == [1, 0]  # tape 1 flips the cell, clause part still 0
    assert winner.tape_index == 1


def test_single_clause_m2_work_frozen():
    p = single_clause_problem()
    attempts = []
    derand_solve(p, ONE_PART, 2, attempts=attempts)
    first = attempts[0]
    assert first.outcome == TAPE_EXHAUSTED
    assert (first.passes, first.reevals) == (1, 1)
    assert attempts[1].outcome == SUCCESS
    assert attempts[1].passes == 0


def test_unsatisfiable_exhausts_all_tapes():
    p = unsatisfiable_problem()
    attempts = []
    with pytest.raises(ExhaustedError, match="4 tapes") as exc:
        derand_solve(p, ONE_PART, 2, attempts=attempts)
    assert exc.value.tapes_tried == len(attempts) == 4
    assert all(a.outcome == TAPE_EXHAUSTED for a in attempts)


def test_tape_space_cap():
    p = random_looped_problem(8, 4, 2, 2, seed=1)
    with pytest.raises(InfeasibleError, match="cap"):
        derand_solve(p, singleton_partition(p.n), 4)
    with pytest.raises(ValueError, match="m must be"):
        derand_solve(p, singleton_partition(p.n), 0)


def test_enumerability_limit_is_10000_bits():
    # 8 parts, b = 2: m = 1250 gives a 10,000-bit count, one more round does not fit
    p = random_looped_problem(8, 4, 2, 2, seed=1)
    with pytest.raises(InfeasibleError, match="exceed the cap"):
        derand_solve(p, singleton_partition(p.n), 1250)
    with pytest.raises(InfeasibleError, match="cannot be enumerated"):
        derand_solve(p, singleton_partition(p.n), 1251)
    big = random_looped_problem(30, 30, 2, 2, seed=1)
    budget = theoretical_budget(big, singleton_partition(big.n), delta=1.0)
    assert big.n * budget.m > 10_000
    assert budget.num_tapes is None and budget.infeasible


def test_derand_solve_deterministic():
    p = random_looped_problem(4, 2, 2, 1, seed=9)
    pi = singleton_partition(p.n)
    a1, a2 = [], []
    w1 = derand_solve(p, pi, 2, tape_cap=2**26, attempts=a1)
    w2 = derand_solve(p, pi, 2, tape_cap=2**26, attempts=a2)
    assert w1 == w2 and a1 == a2
    indices = [a.tape_index for a in a1]
    assert indices == sorted(set(indices)) and indices[-1] == w1.tape_index
    assert satisfies(p, w1.colouring)


# ---------------------------------------------------------------------------
# parity with the reference inner loop


def same_moves(p, pi, index, m):
    """Run tape `index` through `run(..., found_order=True)` and the reference loop; check they agree.

    Rounds, re-evaluations, colourings, resampled rules, outcome and the tape
    cells read all match.  Returns (trace, reference attempt).
    """
    want_tape = decode_tape(index, pi.num_parts, m, p.b)
    want = reference_finite_tape(p, pi, want_tape)
    tape = decode_tape(index, pi.num_parts, m, p.b)
    trace = run(p, pi, tape, max_steps=p.n * m, found_order=True)
    assert trace.rounds == want.passes
    assert trace.clause_evals - len(p.active_clauses()) == want.reevals
    assert [trace.colouring_at(j) for j in range(trace.rounds + 1)] == want.colourings
    assert trace.ib_sets == want.resampled_sets
    assert trace.succeeded == (want.outcome == SUCCESS)
    if trace.succeeded:
        assert trace.final_colouring == want.colouring
    assert tape.max_index_touched == want_tape.max_index_touched
    return trace, want


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), index=st.integers(0, 200))
def test_passes_match_parallel_rounds(seed, index):
    """Same finite tape: the found-order run makes the reference loop's passes."""
    p = random_looped_problem(5, 2, 2, 2, seed=seed)
    pi = singleton_partition(p.n)
    m = 3
    index %= p.b ** (pi.num_parts * m)
    _, want = same_moves(p, pi, index, m)
    attempt = run_finite_tape(p, pi, decode_tape(index, pi.num_parts, m, p.b), index)
    assert (attempt.outcome, attempt.passes, attempt.reevals, attempt.colouring) == (
        want.outcome,
        want.passes,
        want.reevals,
        want.colouring,
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), index=st.integers(0, 500))
def test_pass_resamples_maximal_independent_slice(seed, index):
    p = random_looped_problem(5, 3, 2, 2, seed=seed)
    pi = singleton_partition(p.n)
    m = 3
    index %= p.b ** (pi.num_parts * m)
    trace, want = same_moves(p, pi, index, m)
    rel_sets = [set(a) for a in build_rel(p.graph).out_adj]
    for j in range(trace.rounds):
        picked = trace.ib_sets[j]
        bad = bad_set(p, trace.colouring_at(j))
        assert set(picked) <= set(bad)
        for a in picked:
            for b_ in picked:
                assert a == b_ or b_ not in rel_sets[a]
        for c in bad:
            if c not in picked:
                assert any(c in rel_sets[d] for d in picked)
        # the scan list is the bad set, but in rebuild order, not ascending
        assert sorted(want.currently_lists[j]) == bad


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_work_bound_on_random_instances(seed):
    p = random_looped_problem(6, 3, 2, 2, seed=seed)
    pi = singleton_partition(p.n)
    for index in (0, 1, 17 % p.b ** (pi.num_parts * 2)):
        tape = decode_tape(index, pi.num_parts, 2, p.b)
        attempt = run_finite_tape(p, pi, tape, index)
        assert attempt.reevals <= max(1, p.graph.maxdeg()) ** 4 * 2 * p.n


# ---------------------------------------------------------------------------
# one run per read pattern, against the numeric-order reference

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def search_result(solve, p, pi, m, **kwargs):
    """Everything a search reports: its winner, exhaustion or error, and every attempt row."""
    attempts = []
    try:
        winner = solve(p, pi, m, attempts=attempts, **kwargs)
        result = ("winner", winner)
    except ExhaustedError as exc:
        result = ("exhausted", str(exc), exc.tapes_tried)
    except (InfeasibleError, RuntimeError) as exc:
        result = (type(exc).__name__, str(exc))
    return result, attempts


def assert_same_runs(p, pi, m, **kwargs):
    """The search's result is the reference's, and each of its rows is the reference's row at that tape.

    Returns the search's (result, rows) and the reference's rows.
    """
    got, rows = search_result(derand_solve, p, pi, m, **kwargs)
    want, want_rows = search_result(reference_derand_solve, p, pi, m, **kwargs)
    assert got == want
    assert [a.tape_index for a in want_rows] == list(range(len(want_rows)))
    for a in rows:
        assert a == want_rows[a.tape_index]
    return (got, rows), want_rows


def live_reads(p, pi, tape):
    """The flat indices a run read, less the fill digits of parts with no cell an active rule reads."""
    scopes = p.graph.out_adj
    read_by_rules = {v for x in p.active_clauses() for v in scopes[x]}
    live_parts = {pi.part_of[v] for v in read_by_rules}
    return [i for i in tape.reads if i >= pi.num_parts or i in live_parts]


def assert_same_search(p, pi, m, **kwargs):
    """The search reports what the numeric-order reference does, running each read pattern it meets once.

    Each run's row equals the reference's row at its tape_index.  Then,
    with each attempt's read pattern (over its live reads) put in its
    `passes`, the patterns of the runs are distinct and, as a set, are the
    patterns of every tape the reference tried: no pattern is run twice and
    none is skipped.
    """
    got, _ = assert_same_runs(p, pi, m, **kwargs)
    real = derand.run_finite_tape

    def with_pattern(p, pi, tape, index):
        attempt = real(p, pi, tape, index)
        attempt.passes = tuple(sorted((i, tape.digits[i]) for i in live_reads(p, pi, tape)))
        return attempt

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(derand, "run_finite_tape", with_pattern)
        (_, rows), want_rows = assert_same_runs(p, pi, m, **kwargs)
    patterns = [a.passes for a in rows]
    assert len(set(patterns)) == len(patterns)
    assert set(patterns) == {a.passes for a in want_rows}
    return got


def count_runs(monkeypatch):
    """Count derand's engine runs from here on; returns the counter list."""
    real = derand.run_finite_tape
    calls = []

    def counted(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(derand, "run_finite_tape", counted)
    return calls


def test_criterion_nine_instances_match_the_reference(monkeypatch):
    calls = count_runs(monkeypatch)
    for idx in range(50):
        p = _tiny_satisfiable(1000 + idx)
        pi = singleton_partition(p.n)
        (kind, winner), attempts = assert_same_search(p, pi, 3)
        assert kind == "winner"
        calls.clear()
        derand_solve(p, pi, 3)
        assert calls == [a.tape_index for a in attempts]
        assert calls == sorted(set(calls)) and calls[-1] == winner.tape_index


@pytest.mark.parametrize("name, m, runs", [("unsat_2x4.json", 2, 16), ("unsat_3x9.json", 1, 8)])
def test_tape_search_shapes_run_once_per_read_pattern(monkeypatch, name, m, runs):
    p = load_problem(str(GOLDEN_DIR / name))
    pi = singleton_partition(p.n)
    calls = count_runs(monkeypatch)
    with pytest.raises(ExhaustedError) as exc:
        derand_solve(p, pi, m)
    assert exc.value.tapes_tried == 4096
    assert len(calls) == runs and calls == sorted(set(calls))
    result, attempts = assert_same_search(p, pi, m)
    assert result[0] == "exhausted" and len(attempts) == runs


def test_exhausted_default_cap_runs_once_per_read_pattern(monkeypatch):
    # the whole 2^24-tape space at the default cap, in 256 engine runs
    p = load_problem(str(GOLDEN_DIR / "unsat_2x4.json"))
    calls = count_runs(monkeypatch)
    with pytest.raises(ExhaustedError) as exc:
        derand_solve(p, singleton_partition(p.n), 4)
    assert exc.value.tapes_tried == 16_777_216
    assert len(calls) == 256
    assert calls == sorted(set(calls))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 4),
    b=st.integers(2, 3),
    m=st.integers(1, 3),
    sparse=st.booleans(),
)
def test_random_instances_match_the_reference(seed, n, b, m, sparse):
    p = random_looped_problem(n, n, b, 2 * b, seed=seed)
    pi = sparse_partition(p.graph, 1) if sparse else singleton_partition(p.n)
    assume(b ** (pi.num_parts * m) <= 4096)
    assert_same_search(p, pi, m)


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_over_bound_attempt_matches_the_reference(monkeypatch, cutoff):
    # an attempt goes over the bound when its live digits sum to `cutoff`
    # or more: a function of its read pattern, as the real work count is
    real = derand.run_finite_tape

    def padded(p, pi, tape, index):
        attempt = real(p, pi, tape, index)
        if sum(tape.digits[i] for i in live_reads(p, pi, tape)) >= cutoff:
            attempt.reevals = 10**6
        return attempt

    monkeypatch.setattr(derand, "run_finite_tape", padded)
    p = load_problem(str(GOLDEN_DIR / "unsat_2x4.json"))
    result, attempts = assert_same_search(p, singleton_partition(p.n), 2)
    assert result[0] == "RuntimeError" and "re-evaluation count 1000000 exceeds" in result[1]
    assert attempts


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    num_vars=st.integers(1, 3),
    num_clauses=st.integers(1, 3),
    b=st.integers(2, 3),
    m=st.integers(1, 3),
    mode=st.sampled_from(["singleton", "sparse", "random"]),
    unsat=st.booleans(),
)
def test_cnf_instances_with_dead_cells_match_the_reference(seed, num_vars, num_clauses, b, m, mode, unsat):
    # no rule reads a clause cell, so every clause's part that holds no
    # variable an active rule reads is dead, and its digit is not branched on
    p = random_cnf_problem(num_vars, num_clauses, b, seed, unsat)
    pi = partition_for(p, mode, seed=seed)
    while b ** (pi.num_parts * m) > 4096:
        m -= 1
    result, _ = assert_same_search(p, pi, m)
    if unsat:
        assert result[0] == "exhausted"


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    index=st.integers(0, 10**6),
    noise=st.integers(0, 10**6),
    b=st.integers(2, 3),
    mode=st.sampled_from(["singleton", "sparse", "random"]),
)
def test_dead_digits_do_not_change_a_run(seed, index, noise, b, mode):
    """Two tapes that differ only in dead digits give equal reference rows; only dead cells' colours differ."""
    p = random_cnf_problem(3, 3, b, seed)
    pi = partition_for(p, mode, seed=seed)
    m = 2
    index %= b ** (pi.num_parts * m)
    tape = decode_tape(index, pi.num_parts, m, b)
    want = reference_finite_tape(p, pi, tape)
    # the fill reads every part's digit at t = 0, flat index = part number
    dead = set(range(pi.num_parts)) - set(live_reads(p, pi, tape))
    rng = random.Random(noise)
    digits = [rng.randrange(b) if i in dead else d for i, d in enumerate(tape.digits)]
    got = reference_finite_tape(p, pi, FiniteTape(pi.num_parts, m, b, digits))
    assert (got.outcome, got.passes, got.reevals, got.resampled_sets) == (
        want.outcome,
        want.passes,
        want.reevals,
        want.resampled_sets,
    )
    for before, after in zip(want.colourings, got.colourings):
        for v in range(p.n):
            a = pi.part_of[v]
            assert after[v] == (digits[a] if a in dead else before[v])


def test_finite_tape_lists_reads_in_order():
    tape = FiniteTape(2, 2, 2, [1, 0, 0, 1])
    assert [tape.symbol(1, 1), tape.symbol(0, 0), tape.symbol(1, 0)] == [1, 1, 0]
    assert tape.reads == [3, 0, 1]
    assert tape.max_index_touched == {0: 0, 1: 1}
