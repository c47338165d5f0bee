"""Runner tests: frozen micro-runs, invariants, determinism, trace bookkeeping."""

import functools
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from resample_forge import graph_core
from resample_forge.graph_core import Digraph, build_rel, rel_row
from resample_forge.instance_io import gen_grid_ksat, gen_torus_nae, load_problem, save_problem
from resample_forge.mta_runner import (
    DEFAULT_MAX_STEPS,
    STATUS_BUDGET_EXHAUSTED,
    STATUS_SUCCEEDED,
    STATUS_TAPE_DEPLETED,
    run,
    trace_round_csv,
    trace_to_json,
)
from resample_forge.partitioner import SparsePartition, singleton_partition, sparse_partition
from resample_forge.rule_engine import ColouringProblem, LocalRule, bad_set, res, satisfies
from resample_forge.tape import FiniteTape, RandomTape, symbols_consumed, used_unused
from tests.helpers import (
    all_allowed_problem,
    random_cnf_problem,
    run_random_case,
    single_clause_problem,
    unsatisfiable_problem,
    witness_rules_problem,
)
from tests.reference_partition import reference_build_rel
from tests.reference_runner import assert_same_trace, reference_run


def depleting_case():
    """A two-round finite tape whose second round runs out after its first read.

    Cells 0 and 1; rule 2 reads cell 1 and forbids 0; rule 3 reads cells 0
    and 1 and forbids (0, 1).  Round 0 redraws cell 1 to 1, which violates
    rule 3; round 1 reads cell 0 at t=1, then needs cell 1 at t=2.
    """
    g = Digraph.from_edges(4, [(2, 1), (3, 0), (3, 1)])
    p = ColouringProblem(g, 2, LocalRule.from_lists([[], [], [(0,)], [(0, 1)]]))
    p.validate()
    pi = singleton_partition(p.n)
    return p, pi, FiniteTape(4, 2, 2, [0, 0, 0, 0, 0, 1, 0, 0])


# frozen seeds found by direct search over the tape contract:
# part-0 stream prefixes at b=2 are (1,...), (0,1,...), (0,0,1,...) respectively
SEED_IMMEDIATE = 0
SEED_ONE_RESAMPLE = 6
SEED_TWO_RESAMPLES = 2


class TestMicroRuns:
    def test_all_allowed_succeeds_in_one_step(self):
        p = all_allowed_problem()
        pi = singleton_partition(p.n)
        trace = run(p, pi, RandomTape(123, p.b))
        assert trace.status == STATUS_SUCCEEDED
        assert trace.steps == 1
        assert trace.rounds == 0
        assert trace.h == [1] * p.n

    def test_single_clause_immediate(self):
        p = single_clause_problem()
        pi = singleton_partition(2)
        trace = run(p, pi, RandomTape(SEED_IMMEDIATE, 2))
        assert trace.steps == 1
        assert trace.final_colouring[0] == 1

    def test_single_clause_one_resample(self):
        p = single_clause_problem()
        pi = singleton_partition(2)
        trace = run(p, pi, RandomTape(SEED_ONE_RESAMPLE, 2))
        assert trace.status == STATUS_SUCCEEDED
        assert trace.steps == 2
        assert trace.ib_sets == [[1]]
        assert trace.viol_snapshots == [{1: (0,)}]
        assert trace.resampled_sets == [{0}]
        # the clause vertex itself is never a cell anyone reads
        assert trace.h == [2, 1]
        assert trace.colouring_at(0)[0] == 0
        assert trace.final_colouring[0] == 1

    def test_single_clause_two_resamples(self):
        p = single_clause_problem()
        pi = singleton_partition(2)
        trace = run(p, pi, RandomTape(SEED_TWO_RESAMPLES, 2))
        assert trace.steps == 3
        assert trace.h == [3, 1]

    def test_unsatisfiable_exhausts_budget(self):
        p = unsatisfiable_problem()
        pi = singleton_partition(2)
        trace = run(p, pi, RandomTape(5, 2), max_steps=7)
        assert trace.status == STATUS_BUDGET_EXHAUSTED
        assert trace.steps is None
        assert trace.rounds == 7

    def test_max_steps_validation(self):
        p = single_clause_problem()
        with pytest.raises(ValueError):
            run(p, singleton_partition(2), RandomTape(0, 2), max_steps=0)


class TestSharedParts:
    def test_same_part_cells_start_equal(self):
        from resample_forge.partitioner import SparsePartition

        p = all_allowed_problem(4)
        pi = SparsePartition(2, (0, 1, 0, 1))
        fill = run(p, pi, RandomTape(77, 2)).colouring_at(0)
        assert fill[0] == fill[2]
        assert fill[1] == fill[3]


class TestFixedPoint:
    def test_fixed_point_is_stable(self):
        p = single_clause_problem()
        pi = singleton_partition(2)
        for max_steps in (1, DEFAULT_MAX_STEPS):
            trace = run(p, pi, RandomTape(SEED_IMMEDIATE, 2), max_steps=max_steps)
            assert trace.rounds == 0 and trace.ib_sets == []
            assert trace.colouring_at(0) == trace.final_colouring
            # the initial scan only: a satisfied colouring is never re-checked
            assert trace.clause_evals == len(p.active_clauses())


class TestTapeDepleted:
    def test_run_ends_when_tape_runs_out_mid_round(self):
        p, pi, tape = depleting_case()
        trace = run(p, pi, tape, found_order=True)
        assert trace.status == STATUS_TAPE_DEPLETED
        assert not trace.succeeded and trace.steps is None
        assert trace.rounds == 1 and trace.ib_sets == [[2]]
        # the depleted round wrote nothing: colouring, counters and re-checks
        # are those round 0 left, though it read cell 0 at t=1 before cell 1
        # ran out at t=2
        assert trace.colouring_at(trace.rounds) == trace.final_colouring == [0, 1, 0, 0]
        assert trace.h == [1, 2, 1, 1]
        assert trace.clause_evals == len(p.active_clauses()) + 2
        assert tape.max_index_touched == {0: 1, 1: 1, 2: 0, 3: 0}
        redraws = [0] * p.n
        for ib in trace.ib_sets:
            for x in ib:
                for v in p.graph.out_adj[x]:
                    redraws[v] += 1
        assert trace.h == [1 + r for r in redraws]
        assert len(trace.bad_sizes) == trace.rounds + 1


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_success_iff_satisfying(self, seed):
        p, pi, tape, trace = run_random_case(seed)
        if trace.succeeded:
            assert satisfies(p, trace.final_colouring)
        else:
            assert bad_set(p, trace.final_colouring)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_ib_scopes_pairwise_disjoint(self, seed):
        p, pi, tape, trace = run_random_case(seed)
        for ib in trace.ib_sets:
            seen = set()
            for c in ib:
                scope = set(p.graph.out_adj[c])
                assert not (scope & seen)
                seen |= scope

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_ib_maximal_in_bad(self, seed):
        p, pi, tape, trace = run_random_case(seed)
        rel = build_rel(p.graph)
        for j, ib in enumerate(trace.ib_sets):
            f = trace.colouring_at(j)
            bad = bad_set(p, f)
            ib_set = set(ib)
            assert ib_set <= set(bad)
            for c in set(bad) - ib_set:
                assert any(y in ib_set and y != c for y in rel.out_adj[c])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_snapshots_are_the_violations_redrawn(self, seed):
        # each round snapshots exactly its resampled rules, in index order,
        # and every snapshot is a forbidden tuple of its rule
        p, pi, tape, trace = run_random_case(seed)
        tables = p.rule.forbidden
        for ib, snap in zip(trace.ib_sets, trace.viol_snapshots, strict=True):
            assert ib == sorted(ib) and list(snap) == ib
            assert all(snap[x] in tables[x] for x in ib)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_counter_totals(self, seed):
        # sum of counters = n + total cells redrawn across rounds
        p, pi, tape, trace = run_random_case(seed)
        assert sum(trace.h) == p.n + sum(len(s) for s in trace.resampled_sets)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_only_resampled_cells_change(self, seed):
        p, pi, tape, trace = run_random_case(seed)
        for j in range(trace.rounds):
            before = trace.colouring_at(j)
            after = trace.colouring_at(j + 1)
            changed = {v for v in range(p.n) if before[v] != after[v]}
            assert changed <= trace.resampled_sets[j]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_deterministic_replay(self, seed):
        p1, pi1, _, t1 = run_random_case(seed)
        p2, pi2, _, t2 = run_random_case(seed)
        assert t1 == t2


class TestUsedUnused:
    def test_k1_everything_length_one(self):
        p, pi, tape, trace = run_random_case(31, n=8)
        used, unused = used_unused(trace, pi, RandomTape(31 ^ 0xABCDEF, p.b), 1)
        assert all(len(u) == 1 for u in used)
        assert all(len(u) == 0 for u in unused)

    def test_concat_length_k(self):
        p, pi, tape, trace = run_random_case(32, n=8)
        k = min(4, trace.rounds + 1)
        fresh = RandomTape(32 ^ 0xABCDEF, p.b)
        used, unused = used_unused(trace, pi, fresh, k)
        for x in range(p.n):
            assert len(used[x]) + len(unused[x]) == k

    def test_never_resampled_cell(self):
        p = single_clause_problem()
        pi = singleton_partition(2)
        trace = run(p, pi, RandomTape(SEED_ONE_RESAMPLE, 2))
        used, unused = used_unused(trace, pi, RandomTape(SEED_ONE_RESAMPLE, 2), 2)
        # cell 0 was redrawn once: both symbols consumed; clause vertex 1 never
        assert used[0] == (0, 1)
        assert unused[0] == ()
        assert len(used[1]) == 1
        assert len(unused[1]) == 1

    def test_k_zero(self):
        p, pi, tape, trace = run_random_case(33, n=6)
        used, unused = used_unused(trace, pi, RandomTape(33 ^ 0xABCDEF, p.b), 0)
        assert all(u == () for u in used)
        assert all(u == () for u in unused)

    def test_k_beyond_trace_ok_when_succeeded(self):
        p = single_clause_problem()
        pi = singleton_partition(2)
        trace = run(p, pi, RandomTape(SEED_IMMEDIATE, 2))
        used, unused = used_unused(trace, pi, RandomTape(SEED_IMMEDIATE, 2), 5)
        assert len(used[0]) + len(unused[0]) == 5

    def test_k_beyond_trace_rejected_when_exhausted(self):
        p = unsatisfiable_problem()
        pi = singleton_partition(2)
        trace = run(p, pi, RandomTape(5, 2), max_steps=3)
        with pytest.raises(ValueError):
            used_unused(trace, pi, RandomTape(5, 2), trace.rounds + 2)

    @pytest.mark.parametrize("other", [SparsePartition(4, (0, 1, 2, 3)), SparsePartition(1, (0,) * 6)])
    def test_rejects_a_partition_that_does_not_fit_the_trace(self, other):
        p = all_allowed_problem(6)
        trace = run(p, singleton_partition(6), RandomTape(4, 2))
        msg = f"^partition of {len(other.part_of)} vertices in {other.num_parts} parts does not fit a trace of 6 vertices in 6 parts$"
        with pytest.raises(ValueError, match=msg):
            used_unused(trace, other, RandomTape(4, 2), 1)


class TestSymbolsConsumed:
    def test_immediate_success_counts_parts(self):
        p = all_allowed_problem(6)
        pi = singleton_partition(6)
        trace = run(p, pi, RandomTape(4, 2))
        report = symbols_consumed(trace, pi)
        assert report.count == pi.num_parts
        assert report.bits == pytest.approx(6.0)

    def test_part_maximum_wins(self):
        from resample_forge.partitioner import SparsePartition

        p = single_clause_problem()
        pi = SparsePartition(1, (0, 0))  # both vertices share one part
        trace = run(p, pi, RandomTape(SEED_ONE_RESAMPLE, 2))
        report = symbols_consumed(trace, pi)
        assert report.count == max(trace.h)

    def test_exhausted_run_counts_a_lower_bound(self):
        p = unsatisfiable_problem()
        pi = singleton_partition(2)
        trace = run(p, pi, RandomTape(5, 2), max_steps=3)
        report = symbols_consumed(trace, pi)
        assert report.count >= 2

    @pytest.mark.parametrize("other", [SparsePartition(4, (0, 1, 2, 3)), SparsePartition(1, (0,) * 6)])
    def test_rejects_a_partition_that_does_not_fit_the_trace(self, other):
        # zip used to truncate: another instance's 4-vertex partition counted 4 of the 6 vertices
        p = all_allowed_problem(6)
        trace = run(p, singleton_partition(6), RandomTape(4, 2))
        msg = f"^partition of {len(other.part_of)} vertices in {other.num_parts} parts does not fit a trace of 6 vertices in 6 parts$"
        with pytest.raises(ValueError, match=msg):
            symbols_consumed(trace, other)


class TestTraceExport:
    def test_json_round_trips_fields(self):
        p, pi, tape, trace = run_random_case(77, n=6)
        payload = json.loads(trace_to_json(trace))
        assert payload["status"] == trace.status
        assert payload["h"] == trace.h
        assert payload["ib_sets"] == trace.ib_sets

    def test_round_csv_has_row_per_round(self):
        p, pi, tape, trace = run_random_case(78, n=6)
        lines = trace_round_csv(trace).strip().splitlines()
        assert lines[0] == "round,bad,ib,cells_redrawn"
        assert len(lines) == 1 + trace.rounds


class TestDerivedColourings:
    def test_initial_fill_above_ten_thousand_vertices(self):
        p = gen_torus_nae(101, 101, 2)
        pi = singleton_partition(p.n)
        trace = run(p, pi, RandomTape(3, p.b))
        assert p.n > 10_000 and trace.rounds > 0
        fill = RandomTape(3, p.b)
        assert trace.colouring_at(0) == [fill.symbol(x, 0) for x in range(p.n)]

    def test_rounds_outside_the_run_rejected(self):
        p = unsatisfiable_problem()
        trace = run(p, singleton_partition(2), RandomTape(5, 2), max_steps=3)
        for i in (-1, trace.rounds + 1):
            with pytest.raises(ValueError):
                trace.colouring_at(i)


def reloaded(p):
    """`p` saved and loaded back: shared rule tables, no dependency rows built yet."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        save_problem(p, path)
        return load_problem(path)


def prebuilt(p):
    """`p` with every dependency row built."""
    p.graph.rel_rows(range(p.n))
    return p


# every kind but "prebuilt_torus" has its rows built on demand by `run`
DIFFERENTIAL_CASES = {
    "torus": lambda seed: gen_torus_nae(12, 12, 2),
    "prebuilt_torus": lambda seed: prebuilt(gen_torus_nae(12, 12, 2)),
    "ksat": lambda seed: gen_grid_ksat(8, 8, 5, 2, 2, seed, b=2),
    "witness_rules": lambda seed: witness_rules_problem(8, seed),
    "loaded_torus": lambda seed: reloaded(gen_torus_nae(12, 12, 2)),
    "loaded_ksat": lambda seed: reloaded(gen_grid_ksat(8, 8, 5, 2, 2, seed, b=2)),
    # clauses of one or two cells: a one-cell scope is read through the readers' 1-tuple wrapper
    "cnf": lambda seed: random_cnf_problem(12, 8, 3, seed),
}


class TestMatchesFullRescan:
    """The worklist engine gives the full-rescan reference's trace, field for field.

    The colourings, redrawn cells and resampled rules the trace derives match
    the ones the reference recorded, round for round, and so does the
    "ib_sets" list of its JSON export.
    """

    @pytest.mark.parametrize("kind", list(DIFFERENTIAL_CASES))
    @pytest.mark.parametrize("partition", ["singleton", "sparse"])
    def test_same_trace(self, kind, partition):
        for seed in range(4):
            p = DIFFERENTIAL_CASES[kind](seed)
            pi = singleton_partition(p.n) if partition == "singleton" else sparse_partition(p.graph, 3)
            got = run(p, pi, RandomTape(seed, p.b), max_steps=30)
            # the rows the run built on demand: only the prebuilt kind has every row
            assert (None in p.graph.rel_rows([])) == (kind != "prebuilt_torus")
            assert_same_trace(got, reference_run(p, pi, RandomTape(seed, p.b), max_steps=30))

    def test_one_cell_snapshots_are_what_res_reads(self):
        # the "cnf" case resamples one-cell rules, whose snapshots come from the 1-tuple wrapper
        one_cell = 0
        for seed in range(4):
            p = DIFFERENTIAL_CASES["cnf"](seed)
            trace = run(p, singleton_partition(p.n), RandomTape(seed, p.b), max_steps=30)
            for j, snap in enumerate(trace.viol_snapshots):
                f = trace.colouring_at(j)
                assert snap == {x: res(p, f, x) for x in snap}
                one_cell += sum(len(p.graph.out_adj[x]) == 1 for x in snap)
        assert one_cell > 0


class TestDependencyRowsOnDemand:
    """A run builds only the dependency rows of the rules it visits, each equal to build_rel's."""

    @pytest.mark.parametrize("make", [lambda: reloaded(gen_torus_nae(60, 60, 2)), lambda: witness_rules_problem(16, 3)])
    def test_rows_built_equal_build_rel(self, make):
        p = make()
        want = build_rel(p.graph).out_adj
        pi = sparse_partition(p.graph, 3)
        for seed in range(3):
            trace = run(p, pi, RandomTape(seed, p.b), max_steps=30)
            rows = p.graph.rel_rows([])
            built = [x for x in range(p.n) if rows[x] is not None]
            assert built and all(rows[x] == want[x] for x in built)
            assert {x for snap in trace.viol_snapshots for x in snap} <= set(built)
        assert p.graph.rel_rows(range(p.n)) == want
        assert p.graph.rel_rows(range(p.n)) is rows  # completing the table fills the same list

    def test_problems_on_one_graph_share_their_rows(self, monkeypatch):
        # rows depend on the graph alone: a second rule set on the graph rebuilds none of them
        p1 = witness_rules_problem(16, 1)
        p2 = ColouringProblem(p1.graph, 2, witness_rules_problem(16, 2).rule)
        assert p2.rule != p1.rule
        built = []
        monkeypatch.setattr(graph_core, "rel_row", lambda g, x: built.append(x) or rel_row(g, x))
        pi = sparse_partition(p1.graph, 3)
        run(p1, pi, RandomTape(1, 2), max_steps=30)
        first = set(built)
        built.clear()
        trace = run(p2, pi, RandomTape(2, 2), max_steps=30)
        visited = {x for snap in trace.viol_snapshots for x in snap}
        assert first and visited & first  # the second run reads rows the first built
        assert built and not first & set(built) and len(set(built)) == len(built)
        assert p1.graph.rel_rows([]) is p2.graph.rel_rows([])
        rows = p2.graph.rel_rows([])
        want = reference_build_rel(p1.graph).out_adj
        assert all(rows[x] == want[x] for x in first | set(built))
        assert [x for x in range(p1.n) if rows[x] is not None] == sorted(first | set(built))

    def test_loaded_torus_builds_fewer_rows_than_vertices(self):
        p = reloaded(gen_torus_nae(60, 60, 2))
        trace = run(p, sparse_partition(p.graph, 3), RandomTape(11, p.b))
        assert trace.succeeded and trace.rounds > 0
        built = sum(row is not None for row in p.graph.rel_rows([]))
        assert 0 < built < p.n


class RecordingTape:
    """A RandomTape that records every (part, t) it is asked for, one by one or by a bulk fill."""

    def __init__(self, seed, b):
        self.tape = RandomTape(seed, b)
        self.calls = []

    def symbol(self, part, t):
        self.calls.append((part, t))
        return self.tape.symbol(part, t)

    def fill(self, num_parts):
        self.calls += [(a, 0) for a in range(num_parts)]
        return self.tape.fill(num_parts)


@functools.cache
def read_once_case(kind, partition):
    p = gen_torus_nae(40, 40, 2) if kind == "torus" else gen_grid_ksat(16, 16, 5, 2, 2, 1, b=2)
    pi = singleton_partition(p.n) if partition == "singleton" else sparse_partition(p.graph, 3)
    return p, pi


class TestReadOnce:
    """A run asks the tape for each (part, t) it consumes exactly once."""

    @pytest.mark.parametrize("kind", ["torus", "ksat"])
    @pytest.mark.parametrize("partition", ["singleton", "sparse"])
    @pytest.mark.parametrize(
        "max_steps, status", [(DEFAULT_MAX_STEPS, STATUS_SUCCEEDED), (3, STATUS_BUDGET_EXHAUSTED)]
    )
    def test_each_symbol_read_once(self, kind, partition, max_steps, status):
        p, pi = read_once_case(kind, partition)
        for seed in (0, 2):
            tape = RecordingTape(seed, p.b)
            trace = run(p, pi, tape, max_steps=max_steps)
            assert trace.status == status
            assert trace == run(p, pi, RandomTape(seed, p.b), max_steps=max_steps)
            assert len(set(tape.calls)) == len(tape.calls)
            assert len(tape.calls) == symbols_consumed(trace, pi).count
            if kind == "torus" and partition == "sparse":
                # 45 parts: a few symbols per part, however large the torus
                assert len(tape.calls) < p.n // 10
