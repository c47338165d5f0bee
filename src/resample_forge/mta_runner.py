"""The parallel resampling round engine over a shared random tape.

Each round picks a greedy maximal independent subset of the violated rules in
the dependency graph and redraws every cell those rules read.  Cell x redraws
from its part's tape stream at the per-cell counter h(x), which counts samples
taken at x so far (the initial fill included), so a run is a pure function of
(problem, partition, tape, order).

Only the initial fill evaluates every rule.  A rule can be violated after a
round only if it was violated before or shares a cell with a resampled rule,
so each round re-checks just the violated rules and their dependency-graph
neighbours.  `run` drives these rounds over an infinite tape; the exhaustive
solver in `derand` drives the same rounds over finite tapes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from resample_forge.graph_core import VertexOrder, greedy_mis
from resample_forge.rule_engine import ColouringProblem, bad_set, res

STATUS_SUCCEEDED = "succeeded"
STATUS_BUDGET_EXHAUSTED = "budget_exhausted"

# traces keep every intermediate colouring up to this vertex count, and only
# a 2-deep ring buffer beyond it (counters and per-round snapshots are always kept)
FULL_HISTORY_LIMIT = 10_000

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
    """Everything a run leaves behind.

    colourings[i] is the colouring after round colouring_offset + i; up to
    FULL_HISTORY_LIMIT vertices the offset is 0 and the list starts at the
    initial fill.  resampled_sets[j] and viol_snapshots[j] describe round j:
    the cells redrawn going into the next colouring, and the violating local
    assignment of each resampled rule vertex at that moment.  clause_evals
    counts rule evaluations: the initial scan of every active rule plus the
    worklist re-checks of each round.
    """

    status: str
    steps: int | None
    b: int
    num_parts: int
    colourings: list[list[int]]
    colouring_offset: int
    ib_sets: list[list[int]]
    resampled_sets: list[set[int]]
    viol_snapshots: list[dict[int, tuple[int, ...]]]
    bad_sizes: list[int]
    h: list[int]
    clause_evals: int

    @property
    def succeeded(self) -> bool:
        return self.status == STATUS_SUCCEEDED

    @property
    def rounds(self) -> int:
        return len(self.ib_sets)

    def colouring_at(self, i: int) -> list[int]:
        """The colouring after round i (i=0 is the initial fill)."""
        idx = i - self.colouring_offset
        if not (0 <= idx < len(self.colourings)):
            raise ValueError(f"colouring {i} not retained (offset {self.colouring_offset})")
        return self.colourings[idx]

    @property
    def final_colouring(self) -> list[int]:
        return self.colourings[-1]


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


def step(p: ColouringProblem, pi, tape, state: RoundState, order: VertexOrder | None = None) -> list[int]:
    """Advance one round; returns the resampled rules, sorted by vertex index.

    The resampled rules are a greedy maximal independent subset of
    `currently`, scanned by `order` (vertex index by default).  Their scopes
    are disjoint, so each cell redraws at most once, in scan order.  The round
    then re-checks `potentially` and rebuilds both worklists.  A fixed point
    (nothing violated) is left untouched.  A finite tape that runs out raises
    TapeDepleted part-way through the redraws, before `rounds` and `reevals`
    advance.
    """
    if not state.currently:
        return []
    order = order or VertexOrder.identity(p.n)
    rel = p.rel()
    ib = greedy_mis(rel, state.currently, order)
    f, h, part_of, scopes = state.colouring, state.h, pi.part_of, p.graph.out_adj
    for c in sorted(ib, key=order.rank.__getitem__):
        for v in scopes[c]:
            f[v] = tape.symbol(part_of[v], h[v])
            h[v] += 1
    sets = p.forbidden_sets()
    state.currently = [c for c in state.potentially if tuple(f[v] for v in scopes[c]) in sets[c]]
    state.reevals += len(state.potentially)
    state.potentially = _with_neighbours(rel.out_adj, state.currently)
    state.rounds += 1
    return ib


def run(
    p: ColouringProblem,
    pi,
    tape,
    max_steps: int = DEFAULT_MAX_STEPS,
    order: VertexOrder | None = None,
    round_order=None,
) -> RunTrace:
    """Drive rounds until nothing is violated or the budget runs out.

    `round_order(j)` may supply a per-round scan order for the independent-set
    greedy (used by differential tests); otherwise `order` applies throughout.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    keep_full = p.n <= FULL_HISTORY_LIMIT
    base_order = order or VertexOrder.identity(p.n)
    scopes = p.graph.out_adj

    state = start_state(p, pi, tape)
    colourings = [list(state.colouring)]
    offset = 0
    ib_sets: list[list[int]] = []
    resampled_sets: list[set[int]] = []
    viol_snapshots: list[dict[int, tuple[int, ...]]] = []
    bad_sizes: list[int] = []

    while state.currently and state.rounds < max_steps:
        bad_sizes.append(len(state.currently))
        before = colourings[-1]
        this_order = round_order(state.rounds) if round_order is not None else base_order
        ib = step(p, pi, tape, state, this_order)
        ib_sets.append(ib)
        viol_snapshots.append({x: res(p, before, x) for x in ib})
        resampled_sets.append({v for x in ib for v in scopes[x]})
        colourings.append(list(state.colouring))
        if not keep_full and len(colourings) > 2:
            del colourings[0]
            offset += 1
    bad_sizes.append(len(state.currently))
    succeeded = not state.currently

    return RunTrace(
        status=STATUS_SUCCEEDED if succeeded else STATUS_BUDGET_EXHAUSTED,
        steps=state.rounds + 1 if succeeded else None,
        b=p.b,
        num_parts=pi.num_parts,
        colourings=colourings,
        colouring_offset=offset,
        ib_sets=ib_sets,
        resampled_sets=resampled_sets,
        viol_snapshots=viol_snapshots,
        bad_sizes=bad_sizes,
        h=list(state.h),
        clause_evals=len(p.active_clauses()) + state.reevals,
    )


def h_infinity(trace: RunTrace) -> list[int]:
    """Final per-cell sample counters; stable from the success round onward."""
    if not trace.succeeded:
        raise ValueError("h_infinity requires a successful run")
    return list(trace.h)


def trace_to_json(trace: RunTrace) -> str:
    payload = {
        "status": trace.status,
        "steps": trace.steps,
        "rounds": trace.rounds,
        "b": trace.b,
        "num_parts": trace.num_parts,
        "colouring_offset": trace.colouring_offset,
        "colourings": trace.colourings,
        "ib_sets": trace.ib_sets,
        "resampled_sets": [sorted(s) for s in trace.resampled_sets],
        "viol_snapshots": [
            {str(x): list(t) for x, t in snap.items()} for snap in trace.viol_snapshots
        ],
        "bad_sizes": trace.bad_sizes,
        "h": trace.h,
        "clause_evals": trace.clause_evals,
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def trace_round_csv(trace: RunTrace) -> str:
    """Per-round summary: round, violated count, resampled rule count, cells redrawn."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["round", "bad", "ib", "cells_redrawn"])
    for j in range(trace.rounds):
        writer.writerow(
            [j, trace.bad_sizes[j], len(trace.ib_sets[j]), len(trace.resampled_sets[j])]
        )
    return buf.getvalue()
