"""The parallel resampling round engine over a shared random tape.

Each round picks a greedy maximal independent subset of the violated rules in
the dependency graph and redraws every cell those rules read.  Cell x redraws
from its part's tape stream at the per-cell counter h(x), which counts samples
taken at x so far (the initial fill included), so a run is a pure function of
(problem, partition, tape).

Only the initial fill evaluates every rule.  A rule can be violated after a
round only if it was violated before or shares a cell with a resampled rule,
so each round re-checks just the violated rules and their dependency-graph
neighbours.  `run` drives these rounds for both solvers: over an infinite
tape, and over each finite tape of the exhaustive search in `derand`.

A run's trace stores no intermediate colouring: every redraw follows a
snapshot of the scope it replaces, so the snapshots and the final colouring
rebuild every earlier colouring.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from resample_forge.graph_core import greedy_mis
from resample_forge.rule_engine import ColouringProblem, bad_set, res
from resample_forge.tape import TapeDepleted

STATUS_SUCCEEDED = "succeeded"
STATUS_BUDGET_EXHAUSTED = "budget_exhausted"
STATUS_TAPE_DEPLETED = "tape_depleted"

DEFAULT_MAX_STEPS = 100_000


@dataclass
class RoundState:
    """Colouring, per-cell counters and the two rule worklists carried between rounds.

    `currently` is exactly the violated set, in the order the last re-check
    found it; `potentially` is `currently` plus its dependency-graph
    neighbours, the superset the next round re-checks.  `reevals` counts the
    rule evaluations of those re-checks (the initial scan excluded).
    """

    colouring: list[int]
    h: list[int]
    currently: list[int]
    potentially: list[int]
    rounds: int = 0
    reevals: int = 0


@dataclass
class RunTrace:
    """What a run leaves behind: only what cannot be derived from the rest.

    ib_sets[j] and viol_snapshots[j] describe round j: the resampled rule
    vertices, and the violating local assignment of each at that moment.
    bad_sizes[j] is the number of violated rules before round j (one entry
    more than there are rounds).  clause_evals counts rule evaluations: the
    initial scan of every active rule plus the worklist re-checks of each
    round.  `scopes` is the problem's scope table, used to derive the
    redrawn cells and the intermediate colourings.

    `status` is "succeeded", "budget_exhausted" (max_steps rounds ran) or
    "tape_depleted" (the next round would have read past a finite tape's end).
    """

    status: str
    b: int
    num_parts: int
    ib_sets: list[list[int]]
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
        return len(self.ib_sets)

    @property
    def steps(self) -> int | None:
        """Colourings checked up to success (rounds + 1), or None when the run did not succeed."""
        return self.rounds + 1 if self.succeeded else None

    @property
    def resampled_sets(self) -> list[set[int]]:
        """Per round, the cells redrawn: the union of the resampled rules' scopes."""
        scopes = self.scopes
        return [{v for x in ib for v in scopes[x]} for ib in self.ib_sets]

    def colouring_at(self, i: int) -> list[int]:
        """The colouring after round i (i=0 is the initial fill), for 0 <= i <= rounds.

        Walks back from the final colouring: round j redraws exactly the
        scopes of ib_sets[j], and its snapshots hold their values before.
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


def _with_neighbours(rel_adj: list[list[int]], rules: list[int]) -> list[int]:
    """`rules`, then their dependency-graph neighbours, each once in first-seen order."""
    out = list(rules)
    seen = set(rules)
    for c in rules:
        for nb in rel_adj[c]:
            if nb not in seen:
                seen.add(nb)
                out.append(nb)
    return out


def start_state(p: ColouringProblem, pi, tape) -> RoundState:
    """Fill every cell from its part's stream at counter 0 and scan every rule."""
    colouring = [tape.symbol(pi.part_of[x], 0) for x in range(p.n)]
    currently = bad_set(p, colouring)
    return RoundState(colouring, [1] * p.n, currently, _with_neighbours(p.rel().out_adj, currently))


def step(p: ColouringProblem, pi, tape, state: RoundState, scan: list[int]) -> list[int]:
    """Advance one round; returns the resampled rules, sorted by vertex index.

    `scan` lists the violated rules (`currently`) in the order to take them;
    the resampled rules are its greedy maximal independent subset.  Their
    scopes are disjoint, so each cell redraws once.  The round is atomic:
    every new symbol is read, in scan order, before any cell is written, so a
    finite tape that runs out raises TapeDepleted and leaves `state` as it
    was.  The round then re-checks `potentially` and rebuilds both worklists.
    A fixed point (nothing violated) is left untouched.
    """
    if not state.currently:
        return []
    rel = p.rel()
    ib = greedy_mis(rel, scan)
    f, h, part_of, scopes = state.colouring, state.h, pi.part_of, p.graph.out_adj
    cells = [v for c in ib for v in scopes[c]]
    drawn = [tape.symbol(part_of[v], h[v]) for v in cells]
    for v, symbol in zip(cells, drawn):
        f[v] = symbol
        h[v] += 1
    sets = p.forbidden_sets()
    state.currently = [c for c in state.potentially if tuple(f[v] for v in scopes[c]) in sets[c]]
    state.reevals += len(state.potentially)
    state.potentially = _with_neighbours(rel.out_adj, state.currently)
    state.rounds += 1
    return sorted(ib)


def run(
    p: ColouringProblem,
    pi,
    tape,
    max_steps: int = DEFAULT_MAX_STEPS,
    found_order: bool = False,
) -> RunTrace:
    """Drive rounds until nothing is violated, the budget runs out or a finite tape does.

    Each round's independent-set greedy scans the violated rules by vertex
    index or, with `found_order`, in the order the last re-check found them
    (the exhaustive solver's scan).  A round that would read past the end of
    a finite tape is not taken: the run ends with status "tape_depleted".
    The initial fill must fit on the tape.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")

    state = start_state(p, pi, tape)
    ib_sets: list[list[int]] = []
    viol_snapshots: list[dict[int, tuple[int, ...]]] = []
    bad_sizes = [len(state.currently)]

    while state.currently and state.rounds < max_steps:
        before = list(state.colouring)
        try:
            ib = step(p, pi, tape, state, state.currently if found_order else sorted(state.currently))
        except TapeDepleted:
            status = STATUS_TAPE_DEPLETED
            break
        ib_sets.append(ib)
        viol_snapshots.append({x: res(p, before, x) for x in ib})
        bad_sizes.append(len(state.currently))
    else:
        status = STATUS_BUDGET_EXHAUSTED if state.currently else STATUS_SUCCEEDED

    return RunTrace(
        status=status,
        b=p.b,
        num_parts=pi.num_parts,
        ib_sets=ib_sets,
        viol_snapshots=viol_snapshots,
        bad_sizes=bad_sizes,
        h=list(state.h),
        final_colouring=list(state.colouring),
        clause_evals=len(p.active_clauses()) + state.reevals,
        scopes=p.graph.out_adj,
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
    for j, redrawn in enumerate(trace.resampled_sets):
        writer.writerow([j, trace.bad_sizes[j], len(trace.ib_sets[j]), len(redrawn)])
    return buf.getvalue()
