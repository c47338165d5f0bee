"""Full-rescan reference for `mta_runner.run`, kept as the differential oracle.

Every round evaluates every active rule from scratch, takes the violated ones
in vertex order, resamples a greedy maximal independent subset and records
the same trace fields as the worklist engine.  Its clause_evals is the number
of active rules times the number of scans.  It also records every colouring
and every round's redrawn cells, which the engine's trace only derives.
"""

from resample_forge import mta_runner
from resample_forge.graph_core import VertexOrder
from resample_forge.mta_runner import STATUS_BUDGET_EXHAUSTED, STATUS_SUCCEEDED, RunTrace
from resample_forge.rule_engine import bad_set, res


def reference_greedy_mis(rel, candidates, order):
    """Greedy MIS that tests each candidate against every chosen neighbour."""
    chosen = set()
    for x in sorted(candidates, key=order.key):
        if not any(y != x and y in chosen for y in rel.out_adj[x]):
            chosen.add(x)
    return sorted(chosen)


def reference_run(p, pi, tape, max_steps=mta_runner.DEFAULT_MAX_STEPS, round_order=None):
    """(trace, colourings, redrawn cell sets) of a full-rescan run."""
    identity = VertexOrder.identity(p.n)
    f = [tape.symbol(pi.part_of[x], 0) for x in range(p.n)]
    h = [1] * p.n
    colourings = [list(f)]
    ib_sets, resampled_sets, viol_snapshots, bad_sizes = [], [], [], []
    evals = 0
    j = 0
    while True:
        bad = bad_set(p, f)
        evals += len(p.active_clauses())
        bad_sizes.append(len(bad))
        if not bad:
            status = STATUS_SUCCEEDED
            break
        if j >= max_steps:
            status = STATUS_BUDGET_EXHAUSTED
            break
        ib = reference_greedy_mis(p.rel(), bad, round_order(j) if round_order is not None else identity)
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
        ib_sets=ib_sets,
        viol_snapshots=viol_snapshots,
        bad_sizes=bad_sizes,
        h=h,
        final_colouring=list(f),
        clause_evals=evals,
        scopes=p.graph.out_adj,
    )
    return trace, colourings, resampled_sets
