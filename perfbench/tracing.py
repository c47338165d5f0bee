"""Spans and counters recorded around the package's layer boundaries.

The benchmark traces from outside.  For the length of a traced phase it
replaces the names one module imports from another (`cli.load_problem`,
`partitioner.power_graph`, `derand.is_violated`, ...) and a few class
attributes (`RandomTape.symbol`, `ColouringProblem.validate`, ...) with
wrappers, and restores them afterwards; the source is never edited.

Coarse boundaries keep one span per call (name, start, end, parent span,
op id).  Hot boundaries (ball, res, tape symbols, is_violated, per-tape
attempts) are called up to millions of times per op, so they only add to
per-name totals.  Every wrapped call, kept or not, adds its duration to its
caller's child time, so self time (duration minus time in wrapped callees)
is exact at both kinds of boundary.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from time import perf_counter

from resample_forge import (
    cli,
    derand,
    graph_core,
    instance_io,
    landscape_lab,
    mta_runner,
    partitioner,
    rule_engine,
    tape,
)

MODULES = (
    "cli",
    "derand",
    "graph_core",
    "instance_io",
    "landscape_lab",
    "mta_runner",
    "partitioner",
    "rule_engine",
    "tape",
)


class Tracer:
    """Wrappers, spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self.read_patterns: set = set()
        self.partitions: list[int] = []
        self.op: object = "setup"
        self.active = False
        self._stack: list[list] = []  # open calls: [child seconds, enclosing span index]
        self._reads: list = []
        self._patches: list = []

    def wrap(self, name: str, fn, keep_span: bool, after=None):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            enclosing = stack[-1][1] if stack else -1
            if keep_span:
                span = [name, 0.0, 0.0, enclosing, self.op]
                enclosing = len(spans)
                spans.append(span)
            frame = [0.0, enclosing]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    span[1], span[2] = start, end
            if after is not None:
                after(self, result, args)
            return result

        return traced

    def install(self) -> None:
        """Swap every boundary in _boundaries() for its wrapper."""
        for name, keep_span, targets, after in _boundaries():
            for owner, attr in targets:
                original = owner.__dict__[attr]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self.wrap(name, original.__func__, keep_span, after))
                else:
                    wrapped = self.wrap(name, original, keep_span, after)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        parse = self.wrap("instance_io.parse", json.load, False)
        self._patches.append((instance_io, "json", instance_io.json))
        instance_io.json = _JsonWithLoad(parse)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        """Zero the totals and counters (spans and partitions are kept)."""
        for totals in self.totals.values():
            totals[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.read_patterns.clear()

    def total(self, name: str, index: int = 1) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[index]

    def layer_self(self, layer: str) -> float:
        return sum(t[2] for name, t in self.totals.items() if name.split(".")[0] == layer)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")


class _JsonWithLoad:
    """Stand-in for `instance_io.json` whose `load` is the traced parse."""

    def __init__(self, load):
        self.load = load

    def __getattr__(self, attr):
        return getattr(json, attr)


# ---------------------------------------------------------------------------
# counters read off return values at the boundaries


def trace_ints(trace) -> int:
    """Ints a RunTrace holds: colourings, MIS and redraw sets, snapshots, counters."""
    snapshots = sum(len(snap) + sum(len(t) for t in snap.values()) for snap in trace.viol_snapshots)
    return (
        sum(len(c) for c in trace.colourings)
        + sum(len(s) for s in trace.ib_sets)
        + sum(len(s) for s in trace.resampled_sets)
        + snapshots
        + len(trace.bad_sizes)
        + len(trace.h)
    )


def _after_run(tracer, trace, args):
    c = tracer.counts
    c["mta_runner.rounds"] += trace.rounds
    c["mta_runner.cells_redrawn"] += sum(len(s) for s in trace.resampled_sets)
    c["mta_runner.mis_chosen"] += sum(len(s) for s in trace.ib_sets)
    c["mta_runner.bad_seen"] += sum(trace.bad_sizes)
    c["mta_runner.trace_ints"] += trace_ints(trace)
    c["rule_engine.rule_evals"] += trace.clause_evals
    c["rule_engine.violated"] += sum(trace.bad_sizes)


def _after_tape_attempt(tracer, attempt, args):
    c = tracer.counts
    c["derand.tapes_tried"] += 1
    c["derand.passes"] += attempt.passes
    c["rule_engine.rule_evals"] += attempt.reevals
    tracer.read_patterns.add((tracer.op, frozenset(tracer._reads)))
    tracer._reads.clear()


def _after_finite_symbol(tracer, symbol, args):
    tracer._reads.append((args[1], args[2], symbol))


def _after_is_violated(tracer, violated, args):
    if violated:
        tracer.counts["rule_engine.violated"] += 1


def _after_load_problem(tracer, problem, args):
    tracer.counts["instance_io.file_bytes"] += os.path.getsize(args[0])


def _after_partition(tracer, pi, args):
    tracer.partitions.append(pi.num_parts)


def _after_build_landscape(tracer, fl, args):
    tracer.counts["landscape_lab.nodes"] += len(fl.forest.nodes)


def _after_restrict_landscape(tracer, fl, args):
    tracer.counts["landscape_lab.restricted_nodes"] += len(fl.forest.nodes)


def _after_ground(tracer, fl, args):
    airborne = sum(1 for _, level in args[1].forest.roots() if level > 0)
    tracer.counts["landscape_lab.airborne_trees"] += airborne


SPAN, TALLY = True, False


def _boundaries():
    """(name, keep_span, [(owner, attribute)], after) for every traced boundary.

    A name is `<layer>.<function>`; each (owner, attribute) is a place the
    function is looked up from at call time.
    """
    ll = landscape_lab
    return [
        ("cli.main", SPAN, [(cli, "main")], None),
        (
            "instance_io.load_problem",
            SPAN,
            [(cli, "load_problem"), (instance_io, "load_problem")],
            _after_load_problem,
        ),
        ("instance_io.gen", SPAN, [(instance_io, "gen_torus_nae"), (instance_io, "gen_grid_ksat")], None),
        ("instance_io.save_problem", SPAN, [(instance_io, "save_problem")], None),
        ("graph_core.power_graph", SPAN, [(partitioner, "power_graph"), (graph_core, "power_graph")], None),
        (
            "graph_core.ball",
            TALLY,
            [(graph_core, "ball"), (partitioner, "ball"), (instance_io, "ball"), (ll, "ball")],
            None,
        ),
        ("graph_core.build_rel", TALLY, [(rule_engine, "build_rel"), (ll, "build_rel"), (graph_core, "build_rel")], None),
        ("graph_core.from_edges", TALLY, [(graph_core.Digraph, "from_edges")], None),
        ("graph_core.greedy_mis", TALLY, [(mta_runner, "greedy_mis"), (graph_core, "greedy_mis")], None),
        (
            "partitioner.sparse_partition",
            SPAN,
            [(cli, "sparse_partition"), (partitioner, "sparse_partition")],
            _after_partition,
        ),
        (
            "partitioner.singleton_partition",
            TALLY,
            [(cli, "singleton_partition"), (partitioner, "singleton_partition")],
            _after_partition,
        ),
        ("rule_engine.res", TALLY, [(mta_runner, "res"), (rule_engine, "res")], None),
        ("rule_engine.is_violated", TALLY, [(derand, "is_violated"), (rule_engine, "is_violated")], _after_is_violated),
        ("rule_engine.satisfies", SPAN, [(cli, "satisfies"), (derand, "satisfies"), (rule_engine, "satisfies")], None),
        ("rule_engine.validate", TALLY, [(rule_engine.ColouringProblem, "validate")], None),
        ("tape.random_symbol", TALLY, [(tape.RandomTape, "symbol")], None),
        ("tape.finite_symbol", TALLY, [(tape.FiniteTape, "symbol")], _after_finite_symbol),
        ("tape.symbols_consumed", TALLY, [(cli, "symbols_consumed"), (tape, "symbols_consumed")], None),
        ("mta_runner.run", SPAN, [(cli, "run"), (mta_runner, "run")], _after_run),
        ("derand.derand_solve", SPAN, [(cli, "derand_solve")], None),
        ("derand.run_finite_tape", TALLY, [(derand, "run_finite_tape")], _after_tape_attempt),
        ("derand.decode_tape", TALLY, [(derand, "decode_tape")], None),
        ("landscape_lab.build_landscape", SPAN, [(ll, "build_landscape")], _after_build_landscape),
        ("landscape_lab.used_of", SPAN, [(ll, "used_of")], None),
        ("landscape_lab.validate_landscape", SPAN, [(ll, "validate_landscape")], None),
        ("landscape_lab.restrict_problem", SPAN, [(ll, "restrict_problem")], None),
        ("landscape_lab.restrict_landscape", SPAN, [(ll, "restrict_landscape")], _after_restrict_landscape),
        ("landscape_lab.ground", SPAN, [(ll, "ground")], _after_ground),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics

# (name, unit, better); every traced run prints all of them, 0 where the
# workload does not reach the layer.  "/op" figures are means per traced op.
PER_LAYER = [
    ("instance_io.load_s", "s", "lower"),
    ("instance_io.parse_s", "s", "lower"),
    ("instance_io.file_mb", "MB", "lower"),
    ("instance_io.gen_s", "s", "lower"),
    ("instance_io.self_s", "s", "lower"),
    ("graph_core.power_graph_s", "s", "lower"),
    ("graph_core.ball_calls", "count", "lower"),
    ("graph_core.build_rel_s", "s", "lower"),
    ("graph_core.from_edges_s", "s", "lower"),
    ("graph_core.greedy_mis_s", "s", "lower"),
    ("graph_core.greedy_mis_calls", "count", "lower"),
    ("graph_core.self_s", "s", "lower"),
    ("partitioner.self_s", "s", "lower"),
    ("partitioner.num_parts", "count", "lower"),
    ("rule_engine.rule_evals", "count", "lower"),
    ("rule_engine.violated", "count", "lower"),
    ("rule_engine.violated_ratio", "ratio", "higher"),
    ("rule_engine.res_s", "s", "lower"),
    ("rule_engine.verify_s", "s", "lower"),
    ("rule_engine.validate_s", "s", "lower"),
    ("rule_engine.self_s", "s", "lower"),
    ("tape.symbol_calls", "count", "lower"),
    ("tape.symbol_s", "s", "lower"),
    ("tape.self_s", "s", "lower"),
    ("mta_runner.run_s", "s", "lower"),
    ("mta_runner.self_s", "s", "lower"),
    ("mta_runner.rounds", "count", "lower"),
    ("mta_runner.cells_redrawn", "count", "lower"),
    ("mta_runner.mis_chosen", "count", "higher"),
    ("mta_runner.bad_seen", "count", "lower"),
    ("mta_runner.mis_yield", "ratio", "higher"),
    ("mta_runner.trace_ints", "count", "lower"),
    ("landscape_lab.build_s", "s", "lower"),
    ("landscape_lab.used_of_s", "s", "lower"),
    ("landscape_lab.validate_s", "s", "lower"),
    ("landscape_lab.restrict_s", "s", "lower"),
    ("landscape_lab.ground_s", "s", "lower"),
    ("landscape_lab.nodes", "count", "lower"),
    ("landscape_lab.restricted_nodes", "count", "lower"),
    ("landscape_lab.airborne_trees", "count", "lower"),
    ("landscape_lab.self_s", "s", "lower"),
    ("derand.tapes_tried", "count", "lower"),
    ("derand.tape_us", "us", "lower"),
    ("derand.decode_us", "us", "lower"),
    ("derand.passes", "count", "lower"),
    ("derand.distinct_reads", "count", "lower"),
    ("derand.distinct_read_ratio", "ratio", "higher"),
    ("derand.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    *[(f"{m}.src_lines", "lines", "lower") for m in MODULES],
    ("trace.op_ms_p50_untraced", "ms", "lower"),
    ("trace.op_ms_p90_untraced", "ms", "lower"),
    ("trace.op_ms_p50_traced", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.ops_traced", "count", "higher"),
]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def src_lines(module: str) -> int:
    with open(os.path.join(os.path.dirname(cli.__file__), f"{module}.py"), encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def layer_metrics(
    tracer: Tracer, setup_gen_s: float, ops: int, untraced: dict, p50_traced: float
) -> dict[str, float]:
    """Every PER_LAYER value of a traced phase of `ops` ops; `untraced` holds the untraced phase's latencies."""
    per_op = 1.0 / ops
    t, c = tracer.total, tracer.counts
    # restrict_landscape calls restrict_problem: count only the outermost restrict span
    restrict_s = sum(
        end - start
        for name, start, end, parent, op in tracer.spans
        if op != "setup"
        and name.startswith("landscape_lab.restrict_")
        and not (parent >= 0 and tracer.spans[parent][0].startswith("landscape_lab.restrict_"))
    )
    tapes = c["derand.tapes_tried"]
    distinct = len(tracer.read_patterns)
    symbol_calls = t("tape.random_symbol", 0) + t("tape.finite_symbol", 0)
    values = {
        "instance_io.load_s": t("instance_io.load_problem") * per_op,
        "instance_io.parse_s": t("instance_io.parse") * per_op,
        "instance_io.file_mb": c["instance_io.file_bytes"] / 1e6 * per_op,
        "instance_io.gen_s": setup_gen_s,
        "graph_core.power_graph_s": t("graph_core.power_graph") * per_op,
        "graph_core.ball_calls": t("graph_core.ball", 0) * per_op,
        "graph_core.build_rel_s": t("graph_core.build_rel") * per_op,
        "graph_core.from_edges_s": t("graph_core.from_edges") * per_op,
        "graph_core.greedy_mis_s": t("graph_core.greedy_mis") * per_op,
        "graph_core.greedy_mis_calls": t("graph_core.greedy_mis", 0) * per_op,
        "partitioner.num_parts": _ratio(sum(tracer.partitions), len(tracer.partitions)),
        "rule_engine.rule_evals": c["rule_engine.rule_evals"] * per_op,
        "rule_engine.violated": c["rule_engine.violated"] * per_op,
        "rule_engine.violated_ratio": _ratio(c["rule_engine.violated"], c["rule_engine.rule_evals"]),
        "rule_engine.res_s": t("rule_engine.res") * per_op,
        "rule_engine.verify_s": t("rule_engine.satisfies") * per_op,
        "rule_engine.validate_s": t("rule_engine.validate") * per_op,
        "tape.symbol_calls": symbol_calls * per_op,
        "tape.symbol_s": (t("tape.random_symbol") + t("tape.finite_symbol")) * per_op,
        "mta_runner.run_s": t("mta_runner.run") * per_op,
        "mta_runner.rounds": c["mta_runner.rounds"] * per_op,
        "mta_runner.cells_redrawn": c["mta_runner.cells_redrawn"] * per_op,
        "mta_runner.mis_chosen": c["mta_runner.mis_chosen"] * per_op,
        "mta_runner.bad_seen": c["mta_runner.bad_seen"] * per_op,
        "mta_runner.mis_yield": _ratio(c["mta_runner.mis_chosen"], c["mta_runner.bad_seen"]),
        "mta_runner.trace_ints": c["mta_runner.trace_ints"] * per_op,
        "landscape_lab.build_s": t("landscape_lab.build_landscape") * per_op,
        "landscape_lab.used_of_s": t("landscape_lab.used_of") * per_op,
        "landscape_lab.validate_s": t("landscape_lab.validate_landscape") * per_op,
        "landscape_lab.restrict_s": restrict_s * per_op,
        "landscape_lab.ground_s": t("landscape_lab.ground") * per_op,
        "landscape_lab.nodes": c["landscape_lab.nodes"] * per_op,
        "landscape_lab.restricted_nodes": c["landscape_lab.restricted_nodes"] * per_op,
        "landscape_lab.airborne_trees": c["landscape_lab.airborne_trees"] * per_op,
        "derand.tapes_tried": tapes * per_op,
        "derand.tape_us": _ratio(t("derand.run_finite_tape"), tapes) * 1e6,
        "derand.decode_us": _ratio(t("derand.decode_tape"), tapes) * 1e6,
        "derand.passes": c["derand.passes"] * per_op,
        "derand.distinct_reads": distinct * per_op,
        "derand.distinct_read_ratio": _ratio(distinct, tapes),
        "trace.op_ms_p50_untraced": untraced["op_ms_p50"],
        "trace.op_ms_p90_untraced": untraced["op_ms_p90"],
        "trace.op_ms_p50_traced": p50_traced,
        "trace.overhead": _ratio(p50_traced, untraced["op_ms_p50"]),
        "trace.ops_traced": ops,
    }
    for layer in MODULES:
        values[f"{layer}.src_lines"] = src_lines(layer)
        values[f"{layer}.self_s"] = tracer.layer_self(layer) * per_op
    return {name: values[name] for name, _, _ in PER_LAYER}
