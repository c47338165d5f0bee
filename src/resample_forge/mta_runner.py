"""The parallel resampling round engine over a shared random tape.

Each round picks a greedy maximal independent subset of the violated rules in
the dependency graph and redraws every cell those rules read.  Cell x redraws
from its part's tape stream at the per-cell counter h(x), which counts samples
taken at x so far (the initial fill included), so a run is a pure function of
(problem, partition, tape).

Cells of one part share their stream, so a run asks the tape for each
(part, t) symbol once and hands it to every cell that reaches it: the fill
takes one symbol per part from the tape's bulk `fill` (on a `RandomTape`, one
packed SplitMix64 pass per block of parts), and the rounds read theirs one
`symbol` call at a time and keep them in a dict.  The tape work therefore
follows the symbols consumed, not the cells touched.
Rules are checked, and snapshots taken, through the graph's cached scope
readers (`Digraph.readers`), which build each scope's tuple of colours in C.

What depends only on the instance is built once and shared: the readers
per graph, and each rule's membership test, built when the problem is
validated (see `ColouringProblem.forbidden_lookup`).  Dependency-graph rows
are built on demand: a run asks `Digraph.rel_rows` for the rows of the rules
it visits, which the graph keeps for later runs, for the witness forests and
for every other problem on the same graph.  Loading or generating a problem
builds no row (Delta is streamed by `Digraph.big_delta`), so no graph holds
the rows of rules that were never violated.

`run` is the engine for both solvers: one loop over the colouring, the
counters and the list of violated rules, on an infinite tape and on each
finite tape of the exhaustive search in `derand`.  Only the initial fill
evaluates every rule.  A rule can be violated after a round only if it was
violated before or shares a cell with a resampled rule, so each round
re-checks just the violated rules and their dependency-graph neighbours.

A run's trace stores no intermediate colouring: each round snapshots the
scopes it is about to redraw, so the snapshots and the final colouring
rebuild every earlier colouring.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from itertools import chain

from resample_forge.graph_core import greedy_mis
from resample_forge.rule_engine import ColouringProblem, bad_set
# unused here, but perfbench/tracing.py wraps the name mta_runner.res
from resample_forge.rule_engine import res  # noqa: F401
from resample_forge.tape import TapeDepleted

STATUS_SUCCEEDED = "succeeded"
STATUS_BUDGET_EXHAUSTED = "budget_exhausted"
STATUS_TAPE_DEPLETED = "tape_depleted"

DEFAULT_MAX_STEPS = 100_000


@dataclass
class RunTrace:
    """What a run leaves behind: the round record, the counters and the end state.

    viol_snapshots[j] records round j: the violating local assignment of each
    resampled rule vertex, keyed in index order and taken just before the
    round redraws its scope.  The round's resampled set (`ib_sets`), its
    redrawn cells (`resampled_sets`) and the round count are views of it.
    bad_sizes[j] is the number of violated rules before round j (one entry
    more than there are rounds).  clause_evals counts rule evaluations: the
    initial scan of every active rule plus the worklist re-checks of each
    round.  `scopes` is the problem's scope table, used to derive the
    redrawn cells and the intermediate colourings.

    `h` and `final_colouring` could be replayed from the tape but are kept:
    the engine needs h to pick each redraw's tape counter, and a replay of the
    final colouring costs a third to all of a seed-sweep op (0.9-2.6 ms
    against ~2.4 ms on a 40x40 torus, 1.9-5.0 ms against ~4.4 ms on a 32x32
    k-SAT grid; shared 2-core Xeon VM, Python 3.11).

    `status` is "succeeded", "budget_exhausted" (max_steps rounds ran) or
    "tape_depleted" (the next round would have read past a finite tape's end).
    """

    status: str
    b: int
    num_parts: int
    viol_snapshots: list[dict[int, tuple[int, ...]]]
    bad_sizes: list[int]
    h: list[int]
    final_colouring: list[int]
    clause_evals: int
    scopes: list[list[int]] = field(compare=False, repr=False)

    @property
    def succeeded(self) -> bool:
        return self.status == STATUS_SUCCEEDED

    @property
    def rounds(self) -> int:
        return len(self.viol_snapshots)

    @property
    def ib_sets(self) -> list[list[int]]:
        return [list(snap) for snap in self.viol_snapshots]

    @property
    def steps(self) -> int | None:
        """Colourings checked up to success (rounds + 1), or None when the run did not succeed."""
        return self.rounds + 1 if self.succeeded else None

    @property
    def resampled_sets(self) -> list[set[int]]:
        """Per round, the cells redrawn: the union of the resampled rules' scopes."""
        scopes = self.scopes
        return [{v for x in snap for v in scopes[x]} for snap in self.viol_snapshots]

    def prefix_rounds(self, k: int) -> int:
        """Rounds behind the first k colourings, min(k-1, rounds) or 0; a k < 0 or past a failed run raises."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if not self.succeeded and k > self.rounds + 1:
            raise ValueError(f"k={k} exceeds trace length {self.rounds + 1}")
        return max(0, min(k - 1, self.rounds))

    def colouring_at(self, i: int) -> list[int]:
        """The colouring after round i (i=0 is the initial fill), for 0 <= i <= rounds.

        Walks back from the final colouring: round j redraws exactly the
        scopes its snapshots are keyed by, and they hold their values before.
        """
        if not (0 <= i <= self.rounds):
            raise ValueError(f"colouring {i} outside rounds 0..{self.rounds}")
        f = list(self.final_colouring)
        for j in range(self.rounds - 1, i - 1, -1):
            for x, t in self.viol_snapshots[j].items():
                for v, c in zip(self.scopes[x], t):
                    f[v] = c
        return f

    @property
    def colourings(self) -> list[list[int]]:
        # derived, not stored: kept only because perfbench/tracing.py reads it
        return [self.colouring_at(i) for i in range(self.rounds + 1)]


def run(
    p: ColouringProblem,
    pi,
    tape,
    max_steps: int = DEFAULT_MAX_STEPS,
    found_order: bool = False,
) -> RunTrace:
    """Drive rounds until nothing is violated, the budget runs out or a finite tape does.

    The partition must have the problem's vertex count; the initial fill
    reads each part at counter 0 and must fit on the tape.
    Each round scans the violated rules by vertex index or, with
    `found_order`, in the order the last re-check found them (the exhaustive
    solver's scan), and resamples their greedy maximal independent subset.
    Its scopes are disjoint, so each cell redraws once.  Every symbol the run
    has not read yet is read, in scan order, before any cell is written: a
    round that would read past the end of a finite tape is not taken, and the
    run ends with status "tape_depleted".  A symbol read before comes from
    the run's own record, which never depletes.  The chosen scopes are
    snapshotted through the graph's readers, redrawn, and then only the
    rules violated before the round and their neighbours are re-checked.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")

    part_of, scopes, read = pi.part_of, p.graph.out_adj, p.graph.readers()
    if len(part_of) != p.n:  # a partition of another instance: the fill would colour the wrong cells
        raise ValueError(f"partition of {len(part_of)} vertices does not fit a problem of {p.n} vertices")
    # one read per part for the fill: parts are dense 0..num_parts-1
    fill = tape.fill(pi.num_parts)
    f = [fill[a] for a in part_of]
    symbols: dict[tuple[int, int], int] = {}  # what the rounds read, keyed (part, t >= 1)
    h = [1] * p.n
    currently = bad_set(p, f)
    lookup = p.forbidden_lookup()
    viol_snapshots: list[dict[int, tuple[int, ...]]] = []
    bad_sizes = [len(currently)]
    reevals = 0

    while currently and len(viol_snapshots) < max_steps:
        rel_adj = p.graph.rel_rows(currently)  # greedy_mis and the re-check read only these rows
        ib = greedy_mis(rel_adj, currently if found_order else sorted(currently))
        cells = [v for c in ib for v in scopes[c]]
        keys = [(part_of[v], h[v]) for v in cells]
        try:
            for key in keys:
                if key not in symbols:
                    symbols[key] = tape.symbol(*key)
        except TapeDepleted:
            status = STATUS_TAPE_DEPLETED
            break
        viol_snapshots.append({x: read[x](f) for x in sorted(ib)})
        for v, key in zip(cells, keys):
            f[v] = symbols[key]
            h[v] += 1
        # the violated rules, then their neighbours, each once in first-seen order
        potentially = list(dict.fromkeys(chain(currently, *map(rel_adj.__getitem__, currently))))
        currently = [c for c in potentially if read[c](f) in lookup[c]]
        reevals += len(potentially)
        bad_sizes.append(len(currently))
    else:
        status = STATUS_BUDGET_EXHAUSTED if currently else STATUS_SUCCEEDED

    return RunTrace(
        status=status,
        b=p.b,
        num_parts=pi.num_parts,
        viol_snapshots=viol_snapshots,
        bad_sizes=bad_sizes,
        h=h,
        final_colouring=f,
        clause_evals=len(p.active_clauses()) + reevals,
        scopes=scopes,
    )


def trace_to_json(trace: RunTrace) -> str:
    payload = {
        "status": trace.status,
        "steps": trace.steps,
        "rounds": trace.rounds,
        "b": trace.b,
        "num_parts": trace.num_parts,
        "ib_sets": trace.ib_sets,
        "viol_snapshots": [
            {str(x): list(t) for x, t in snap.items()} for snap in trace.viol_snapshots
        ],
        "bad_sizes": trace.bad_sizes,
        "h": trace.h,
        "final_colouring": trace.final_colouring,
        "clause_evals": trace.clause_evals,
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def trace_round_csv(trace: RunTrace) -> str:
    """Per-round summary: round, violated count, resampled rule count, cells redrawn."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["round", "bad", "ib", "cells_redrawn"])
    for j, (snap, redrawn) in enumerate(zip(trace.viol_snapshots, trace.resampled_sets)):
        writer.writerow([j, trace.bad_sizes[j], len(snap), len(redrawn)])
    return buf.getvalue()
