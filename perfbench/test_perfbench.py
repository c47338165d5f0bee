"""Quick-mode checks of the benchmark itself: python3 -m pytest -q perfbench

Every workload runs at tiny sizes for a fraction of a second, untraced and
traced.  The tests check that each run emits exactly the metrics that
BENCHMARK.json declares, with their units, and that a deliberately
corrupted op result is counted as a failed op.
"""

import json
import os
import subprocess
import sys

import pytest

import run
import workloads
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _declared("end_to_end") == dict(run.END_TO_END)
    assert _declared("per_layer") == {name: unit for name, unit, _ in run.tracing.PER_LAYER}
    assert [m["better"] for m in SPEC["per_layer"]] == [b for _, _, b in run.tracing.PER_LAYER]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_quick_run_emits_every_metric(name, trace, section):
    result = run.measure(name, seed=3, seconds=0.2, trace=trace, quick=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _declared(section)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_result_counts_as_failed(name):
    result = run.measure(name, seed=3, seconds=0.2, trace=False, quick=True, corrupt_op=1)
    assert result["failed"] == 1
    assert not result["correct"]


def test_op_that_raises_counts_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(workloads.mta_runner, "run", broken)
    result = run.measure("seed-sweep", seed=3, seconds=0.1, trace=False, quick=True)
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"]


def test_stopwatch_rescales_each_call_by_the_kernel_speed_around_it():
    with run.Stopwatch() as clock:
        pass
    ref = run.CAL_REF_S
    clock.kernel = [(0.0, ref), (1.0, 2 * ref), (1.05, 2 * ref), (5.0, ref)]
    clock.timed = [(0.95, 1.1, 0.15), (4.95, 5.0, 0.05)]
    # the first call only saw the kernel at half speed, the second at full speed
    assert clock.scaled() == pytest.approx([0.075, 0.05])


def test_stopwatch_takes_sampling_off_the_timed_call():
    with run.Stopwatch() as clock:
        start = clock.start()
        for _ in range(5):
            clock._sample()
        elapsed = clock.stop(start)
    assert 0 <= elapsed < sum(k for _, k in clock.kernel[-6:-1])


def test_traced_run_reaches_each_workloads_layers():
    layers = {
        "solve-large": ["instance_io.load_s", "graph_core.power_graph_s", "partitioner.self_s", "cli.self_s"],
        "seed-sweep": ["graph_core.greedy_mis_s", "mta_runner.self_s", "rule_engine.rule_evals", "tape.symbol_s"],
        "tape-search": ["derand.tapes_tried", "derand.tape_us", "derand.distinct_read_ratio", "tape.symbol_calls"],
        "witness": ["landscape_lab.build_s", "landscape_lab.ground_s", "landscape_lab.restricted_nodes"],
    }
    for name, metrics in layers.items():
        values = run.measure(name, seed=5, seconds=0.2, trace=True, quick=True)["metrics"]
        assert all(values[m]["value"] > 0 for m in metrics), name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_symbol_counts_repeat_for_a_seed(name):
    first, second = (run.measure(name, seed=7, seconds=0.1, trace=False, quick=True) for _ in range(2))
    assert first["metrics"]["symbols_per_op"] == second["metrics"]["symbols_per_op"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    here = os.path.dirname(os.path.abspath(__file__))
    for f in ("run.py", "workloads.py", "tracing.py"):
        (bench / f).write_text(open(os.path.join(here, f), encoding="utf-8").read())
    argv = [sys.executable, "perfbench/run.py", "--workload", "witness", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
