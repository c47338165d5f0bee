"""resample-forge benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from `src/` of
that checkout, never from an installed copy.  The workload's inputs are
built from --seed.  Ops then run back to back in this single-threaded
process for S seconds of op time, each checked outside the timed region.
Every time is rescaled to a reference machine speed (see Stopwatch).

With --trace 0 the last stdout line is one JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced phase, after an untraced phase of equal length that gives the
tracing overhead, and the spans go to .perfbench_work/.  `--workload all`
runs every workload in a fresh process and prints one table, with the
failed-op rate and op counts.  Workload sizes and the layer each metric
should move are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_SECONDS have passed
SETUP_SECONDS = 1.0
CAL_LOOPS = 1000  # iterations of the speed kernel
CAL_REF_S = 0.0004  # the kernel's time on the reference machine (see README.md)
CAL_EVERY_S = 0.02  # seconds between kernel samples
CAL_PAD_S = 0.1  # kernel samples this far before or after a call still rescale it

END_TO_END = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("symbols_per_op", "count"),
]

if not os.path.isfile(os.path.join(SRC, "resample_forge", "__init__.py")):
    sys.exit(f"error: no package source under {SRC}; run from the root of a resample-forge checkout")
sys.path.insert(0, SRC)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _kernel() -> int:
    """Fixed interpreter work that never touches the package: ints, a dict, a list, a sort."""
    counts: dict[int, int] = {}
    kept: list[int] = []
    acc = 0
    for i in range(CAL_LOOPS):
        k = (i * 7919) % 1021
        counts[k] = counts.get(k, 0) + i
        if i & 3:
            kept.append(k)
        acc += len(kept) ^ k
    return acc + sum(sorted(kept[:100])) + len(counts)


class Stopwatch:
    """Timed calls, rescaled to the reference machine speed by a kernel sampled alongside them.

    On a shared host each CPU of this process runs at full speed or about
    half of it, switching every second or so as other tenants come and go,
    and a whole run can fall into a slow stretch.  So while a Stopwatch is
    open, a timer signal interrupts this thread every CAL_EVERY_S and times
    the kernel: in the middle of ops, on the CPU that runs them.  The
    program under test cannot change the kernel's time.  A call's time, net
    of the sampling inside it, is multiplied by the mean speed (reference
    kernel time / kernel time) of the samples over its span widened by
    CAL_PAD_S on each side: the samples are evenly spaced in time, so that
    mean is the share of reference-speed work the call got per second.
    """

    def __init__(self):
        self.kernel: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.timed: list[tuple[float, float, float]] = []  # (start, end, seconds net of sampling)
        self._sampling = 0.0  # seconds spent in _sample so far
        self._in_sample = False
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def _sample(self, *_) -> None:
        if self._in_sample:  # a late signal lands inside the previous sample
            return
        self._in_sample = True
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _kernel()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.kernel.append((start, end - start))
        self._sampling += perf_counter() - start
        self._in_sample = False

    def start(self) -> tuple[float, float]:
        return perf_counter(), self._sampling

    def stop(self, started: tuple[float, float]) -> float:
        end = perf_counter()
        elapsed = end - started[0] - (self._sampling - started[1])
        self.timed.append((started[0], end, elapsed))
        return elapsed

    def __enter__(self) -> Stopwatch:
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def raw(self) -> list[float]:
        return [s for _, _, s in self.timed]

    def scaled(self) -> list[float]:
        """Each timed call in seconds at the reference speed (once the Stopwatch is closed)."""
        out = []
        for start, end, s in self.timed:
            near = [k for at, k in self.kernel if start - CAL_PAD_S <= at <= end + CAL_PAD_S]
            out.append(s * statistics.fmean(CAL_REF_S / k for k in near or [k for _, k in self.kernel]))
        return out


def latency_metrics(loop: dict, kinds: int) -> dict[str, float]:
    """p50 and p90 in ms (mean over op kinds of each kind's quantile) and ops/s, at reference speed."""

    def per_kind(seconds: list[float], q: float) -> float:
        return 1000.0 * statistics.fmean(quantile(seconds[kind::kinds], q) for kind in range(kinds))

    scaled = loop["clock"].scaled()
    return {
        "op_ms_p50": per_kind(scaled, 0.5),
        "op_ms_p90": per_kind(scaled, 0.9),
        "ops_per_s": len(scaled) / sum(scaled),
        "raw_op_ms_p50": per_kind(loop["clock"].raw(), 0.5),
    }


def timed_loop(wl, st, seconds: float, min_ops: int, corrupt_op=None, tracer=None) -> dict:
    """Run ops until `seconds` of op time have passed, at least `min_ops`, whole kind cycles.

    Op i is of kind i % wl.kinds.  Each op is timed alone; its check runs
    after the clock stops (with the tracer paused).  An op that raises or
    fails its check counts as failed.
    """
    symbols: list = []
    busy = 0.0
    failed = 0
    i = 0
    with Stopwatch() as clock:
        while busy < seconds or i < min_ops or i % wl.kinds:
            if tracer is not None:
                tracer.op = i
                tracer.active = True
            start = clock.start()
            try:
                out = wl.op(st, i)
            except Exception:  # a failed op is counted, and the run goes on
                out = None
                traceback.print_exc()
            busy += clock.stop(start)
            if tracer is not None:
                tracer.active = False
            ok, count = False, None
            if out is not None:
                try:
                    ok, count = wl.check(st, i, out, corrupt=i == corrupt_op)
                except Exception:  # a check that cannot complete is a failed op
                    traceback.print_exc()
            failed += not ok
            symbols.append(count)
            i += 1
    return {"ops": i, "failed": failed, "clock": clock, "symbols": symbols}


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool = False, corrupt_op=None) -> dict:
    """One benchmark run: the object printed as the last stdout line, plus a `detail` key.

    `detail` holds figures without a bound (error rate, op count and, untraced,
    p90 latency, the raw p50 and set-up time, and the kernel's time), which go
    to stderr.
    """
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[name](workdir, quick)
        if trace:
            metrics, loops, detail = _traced(wl, name, seed, seconds, corrupt_op)
        else:
            metrics, loops, detail = _untraced(wl, seed, seconds, corrupt_op)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = dict(END_TO_END if not trace else [(n, u) for n, u, _ in tracing.PER_LAYER])
    attempted = sum(loop["ops"] for loop in loops)
    failed = sum(loop["failed"] for loop in loops)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": {"workload": name, "ops": attempted, "error_rate": failed / attempted, **detail},
    }


def _untraced(wl, seed, seconds, corrupt_op):
    with Stopwatch() as clock:
        while len(clock.timed) < SETUP_REPEATS or sum(clock.raw()) < SETUP_SECONDS:
            st = None  # drop the previous inputs before building the next
            start = clock.start()
            st = wl.setup(seed)
            clock.stop(start)
    loop = timed_loop(wl, st, seconds, max(wl.symbol_ops, wl.kinds), corrupt_op)
    latency = latency_metrics(loop, wl.kinds)
    metrics = {
        "setup_s": statistics.median(clock.scaled()),
        "op_ms_p50": latency["op_ms_p50"],
        "ops_per_s": latency["ops_per_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "symbols_per_op": wl.symbols(st, loop["symbols"]),
    }
    detail = {
        "op_ms_p90": latency["op_ms_p90"],
        "raw_op_ms_p50": latency["raw_op_ms_p50"],
        "raw_setup_s": statistics.median(clock.raw()),
        "kernel_ms": 1000.0 * statistics.median(k for _, k in loop["clock"].kernel),
    }
    return metrics, [loop], detail


def _traced(wl, name, seed, seconds, corrupt_op):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        st = wl.setup(seed)
    finally:
        tracer.uninstall()
    gen_s = tracer.total("instance_io.gen")
    tracer.reset()
    plain = timed_loop(wl, st, seconds / 2, wl.kinds, corrupt_op)
    tracer.install()
    try:
        traced = timed_loop(wl, st, seconds / 2, wl.kinds, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(os.path.join(WORK, f"spans-{name}-seed{seed}.jsonl"))
    metrics = tracing.layer_metrics(
        tracer,
        setup_gen_s=gen_s,
        ops=traced["ops"],
        untraced=latency_metrics(plain, wl.kinds),
        p50_traced=latency_metrics(traced, wl.kinds)["op_ms_p50"],
    )
    return metrics, [plain, traced], {}


def report_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; one table of end-to-end figures, failed-op rate and op count."""
    columns = [("ops", "count"), ("error_rate", "ratio"), *END_TO_END, ("op_ms_p90", "ms")]
    print(f"{'workload':<12}  " + "  ".join(f"{n} [{u}]" for n, u in columns))
    correct = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {k: v["value"] for k, v in res["metrics"].items()}
        values.update(json.loads(proc.stderr.strip().splitlines()[-1]))
        correct = correct and res["correct"]
        print(f"{name:<12}  " + "  ".join(f"{values[n]:<{len(n) + len(u) + 3}.6g}" for n, u in columns))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return report_all(args.seed, args.seconds)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), quick=args.quick)
    print(json.dumps(result.pop("detail")), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
