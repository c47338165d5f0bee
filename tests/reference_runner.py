"""Reference runners for `mta_runner.run`, kept as differential oracles.

`reference_run` is the full-rescan runner: every round evaluates every active
rule from scratch, takes the violated ones in vertex order, resamples a greedy
maximal independent subset and records the same trace fields as the worklist
engine.  Its clause_evals is the number of active rules times the number of
scans.  It also records every colouring, every round's redrawn cells and every
round's resampled rules, which the engine's trace only derives, and
`assert_same_trace` holds a run's trace to all of it, field for field.

Both runners find violations with `reference_bad_set`, which builds each
scope's tuple, not with the package's cached scope readers, and read the tape
once per cell per draw.

`reference_finite_tape` is the exhaustive solver's inner loop as it stood
before it ran through `run`: worklist passes over one finite tape, each
scanning the violated rules by a priority order built from the list the last
re-check found, redrawing cell by cell until the tape runs out.  It records
every pass's colouring, scan list and resampled rules.
"""

import dataclasses
import itertools
import json
from dataclasses import dataclass, field

from resample_forge import mta_runner
from resample_forge.derand import SUCCESS, TAPE_EXHAUSTED
from resample_forge.graph_core import build_rel
from resample_forge.mta_runner import STATUS_BUDGET_EXHAUSTED, STATUS_SUCCEEDED, RunTrace
from resample_forge.rule_engine import res
from resample_forge.tape import TapeDepleted
from tests.reference_rule_engine import reference_bad_set


@dataclass(frozen=True)
class VertexOrder:
    """Total order on vertices given by rank; smaller rank scans first."""

    rank: tuple

    @staticmethod
    def identity(n):
        return VertexOrder(tuple(range(n)))

    @staticmethod
    def from_priority(priority, n):
        """Vertices listed in `priority` rank first (in list order), the rest follow by index."""
        first = dict.fromkeys(priority)
        scan = [*first, *itertools.filterfalse(first.__contains__, range(n))]
        # the rank of x is its position in `scan`: the inverse permutation
        return VertexOrder(tuple(sorted(range(n), key=scan.__getitem__)))

    def key(self, x):
        return self.rank[x]


def reference_greedy_mis(rel, candidates, order):
    """Greedy MIS that tests each candidate against every chosen neighbour."""
    chosen = set()
    for x in sorted(candidates, key=order.key):
        if not any(y != x and y in chosen for y in rel.out_adj[x]):
            chosen.add(x)
    return sorted(chosen)


def reference_run(p, pi, tape, max_steps=mta_runner.DEFAULT_MAX_STEPS):
    """(trace, colourings, redrawn cell sets, resampled rule lists) of a full-rescan run."""
    identity = VertexOrder.identity(p.n)
    f = [tape.symbol(pi.part_of[x], 0) for x in range(p.n)]
    h = [1] * p.n
    colourings = [list(f)]
    ib_sets, resampled_sets, viol_snapshots, bad_sizes = [], [], [], []
    evals = 0
    j = 0
    rel = build_rel(p.graph)
    while True:
        bad = reference_bad_set(p, f)
        evals += len(p.active_clauses())
        bad_sizes.append(len(bad))
        if not bad:
            status = STATUS_SUCCEEDED
            break
        if j >= max_steps:
            status = STATUS_BUDGET_EXHAUSTED
            break
        ib = reference_greedy_mis(rel, bad, identity)
        viol_snapshots.append({x: res(p, f, x) for x in ib})
        resampled = sorted({v for x in ib for v in p.graph.out_adj[x]})
        for v in resampled:
            f[v] = tape.symbol(pi.part_of[v], h[v])
            h[v] += 1
        ib_sets.append(ib)
        resampled_sets.append(set(resampled))
        colourings.append(list(f))
        j += 1
    trace = RunTrace(
        status=status,
        b=p.b,
        num_parts=pi.num_parts,
        viol_snapshots=viol_snapshots,
        bad_sizes=bad_sizes,
        h=h,
        final_colouring=list(f),
        clause_evals=evals,
        scopes=p.graph.out_adj,
    )
    return trace, colourings, resampled_sets, ib_sets


def assert_same_trace(got, want):
    """`got`, a run's trace, matches `want`, what `reference_run` returned, field for field.

    The colourings, redrawn cells and resampled rules the trace derives
    match the ones the reference recorded, round for round, and so does the
    "ib_sets" list of its JSON export.
    """
    want, colourings, resampled_sets, ib_sets = want
    for f in dataclasses.fields(RunTrace):
        if f.name != "clause_evals":  # counts re-checks there, full scans here
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert [got.colouring_at(i) for i in range(got.rounds + 1)] == colourings
    assert got.resampled_sets == resampled_sets
    assert got.ib_sets == ib_sets
    assert json.loads(mta_runner.trace_to_json(got))["ib_sets"] == ib_sets
    assert got.steps == (len(colourings) if want.succeeded else None)


@dataclass
class ReferenceAttempt:
    """One finite tape's outcome, work counters and per-pass history."""

    outcome: str = TAPE_EXHAUSTED
    passes: int = 0
    reevals: int = 0
    colouring: list | None = None
    currently_lists: list = field(default_factory=list)
    resampled_sets: list = field(default_factory=list)
    colourings: list = field(default_factory=list)


def _with_neighbours(rel_adj, rules):
    return list(dict.fromkeys([*rules, *(nb for c in rules for nb in rel_adj[c])]))


def reference_finite_tape(p, pi, tape):
    """Passes until success or the tape runs out, with every pass's history."""
    attempt = ReferenceAttempt()
    rel, scopes = build_rel(p.graph), p.graph.out_adj
    sets = [frozenset(rows) for rows in p.rule.forbidden]
    try:
        f = [tape.symbol(pi.part_of[x], 0) for x in range(p.n)]
        h = [1] * p.n
        currently = reference_bad_set(p, f)
        potentially = _with_neighbours(rel.out_adj, currently)
        while currently:
            attempt.colourings.append(list(f))
            attempt.currently_lists.append(list(currently))
            order = VertexOrder.from_priority(currently, p.n)
            ib = reference_greedy_mis(rel, currently, order)
            for c in sorted(ib, key=order.key):
                for v in scopes[c]:
                    f[v] = tape.symbol(pi.part_of[v], h[v])
                    h[v] += 1
            currently = [c for c in potentially if res(p, f, c) in sets[c]]
            attempt.reevals += len(potentially)
            attempt.passes += 1
            potentially = _with_neighbours(rel.out_adj, currently)
            attempt.resampled_sets.append(ib)
    except TapeDepleted:
        return attempt
    attempt.outcome = SUCCESS
    attempt.colouring = list(f)
    attempt.colourings.append(list(f))
    return attempt
