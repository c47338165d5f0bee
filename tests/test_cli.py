"""End-to-end checks of the command line front end.

Everything drives cli.main() in-process; stdout is parsed as JSON where the
command emits JSON.  Wall-clock columns are the only tolerated difference
between repeated runs.
"""

import contextlib
import csv
import functools
import gc
import io
import json
import os
import tempfile
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from resample_forge import cli
from resample_forge.graph_core import Digraph
from resample_forge.instance_io import RESULTS_HEADER, gen_torus_nae, save_problem
from resample_forge.rule_engine import ColouringProblem, LocalRule

from .helpers import all_allowed_problem, single_clause_problem, unsatisfiable_problem
from .make_golden import COMMANDS, GOLDEN_DIR, capture

GOLDEN_TORUS10_SEED7 = (
    '{"bits": 77.0, "max_h": 2, "rounds": 1, "status": "succeeded", "symbols": 77}'
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, p, name="problem.json"):
    path = tmp_path / name
    save_problem(p, str(path))
    return str(path)


# ---------------------------------------------------------------------------
# solve


def test_solve_all_allowed_succeeds_immediately(tmp_path, capsys):
    path = write_problem(tmp_path, all_allowed_problem(5))
    code, out, err = run_cli(capsys, "solve", path, "--quiet")
    assert code == 0
    summary = json.loads(out)
    assert summary["status"] == "succeeded"
    assert summary["rounds"] == 0
    assert summary["max_h"] == 1
    assert err == ""


def test_solve_golden_torus10(tmp_path, capsys):
    path = write_problem(tmp_path, gen_torus_nae(10, 10, 2))
    code, out, _ = run_cli(capsys, "solve", path, "--seed", "7", "--quiet")
    assert code == 0
    assert out.strip() == GOLDEN_TORUS10_SEED7


def test_solve_byte_identical_across_runs(tmp_path, capsys):
    path = write_problem(tmp_path, gen_torus_nae(8, 8, 2))
    first = run_cli(capsys, "solve", path, "--seed", "11")
    second = run_cli(capsys, "solve", path, "--seed", "11")
    assert first == second


def test_solve_writes_verifiable_colouring(tmp_path, capsys):
    path = write_problem(tmp_path, gen_torus_nae(6, 6, 2))
    out_path = str(tmp_path / "col.json")
    code, _, _ = run_cli(
        capsys, "solve", path, "--seed", "3", "--out", out_path, "--verify", "--quiet"
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", path, out_path, "--quiet")
    assert code == 0
    assert json.loads(out) == {"satisfies": True, "violated": [], "violated_count": 0}


def test_solve_budget_exhausted_exit_two(tmp_path, capsys):
    path = write_problem(tmp_path, unsatisfiable_problem())
    code, out, _ = run_cli(capsys, "solve", path, "--max-steps", "4", "--quiet")
    assert code == 2
    assert json.loads(out)["status"] == "budget_exhausted"


def test_solve_missing_file_exit_one(tmp_path, capsys):
    paths = ["/nonexistent/problem.json"]
    good = {"schema_version": 1, "b": 2, "num_vertices": 2, "edges": [[1, 0]], "forbidden": {"1": [[0]]}}
    # malformed files exit 1 with one error line, not a traceback or an answer
    for name, change in [
        ("edge_str", {"edges": [[0, "1"]]}),
        ("edges_int", {"edges": 5}),
        ("forbidden_list", {"forbidden": []}),
        ("colour_float", {"forbidden": {"1": [[0.5]]}}),
        ("colour_bool", {"forbidden": {"1": [[True]]}}),
        ("b_bool", {"b": True}),
        ("schema_bool", {"schema_version": True}),
        ("duplicate_then_unknown", {"forbidden": {"1": [[0], [0]], "7": [[0]]}}),
        # two spellings of vertex 0: the later used to replace the earlier, and
        # the run wrote [0, 1], which the file's "0": [[0]] forbids
        ("key_space", {"edges": [[0, 0], [1, 1]], "forbidden": {"0": [[0]], " 0": [[1]]}}),
        ("key_leading_zero", {"edges": [[0, 0], [1, 1]], "forbidden": {"0": [[0]], "00": [[1]]}}),
        # past 2^64 colours the tape's rejection sampler accepts no candidate
        ("b_above_2_64", {"b": 2**64 + 1, "num_vertices": 1, "edges": [[0, 0]], "forbidden": {}}),
        # rule-table checks that ColouringProblem.validate alone makes
        ("colour_out_of_range", {"forbidden": {"1": [[2]]}}),
        ("wrong_arity", {"forbidden": {"1": [[0, 1]]}}),
        ("empty_scope", {"edges": [], "forbidden": {"1": [[0]]}}),
        ("duplicate_then_wrong_arity", {"forbidden": {"1": [[0], [0], [0, 1]]}}),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**good, **change}))
        paths.append(str(path))
    # the same key twice in one object, which json.dumps cannot write
    path = tmp_path / "key_twice.json"
    path.write_text(json.dumps(good).replace('"forbidden": {', '"forbidden": {"1": [[1]], '))
    paths.append(str(path))
    for path in paths:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "solve", path, "--quiet")
        assert code == 1, path
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert caught == [], path  # a warning would print more lines on stderr


@functools.cache
def saved_torus3_text():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "torus3.json")
        save_problem(gen_torus_nae(3, 3, 2), path)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def json_slots(node, out):
    """Every (container, key) of a parsed JSON document, outermost first."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            json_slots(value, out)
    return out


NOT_AN_INT = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none())
ANY_VALUE = st.one_of(
    NOT_AN_INT,
    st.integers(-3, 12),
    st.lists(st.integers(-1, 9), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


def mutate(payload, data):
    """Apply one random mutation: drop a key, retype a value, truncate a list, or un-int an int."""
    kind = data.draw(st.sampled_from(["drop", "retype", "truncate", "not_int"]))
    slots = json_slots(payload, [])
    if kind == "drop":
        slots = [(c, k) for c, k in slots if isinstance(c, dict)]
    elif kind == "truncate":
        slots = [(c, k) for c, k in slots if isinstance(c[k], list)]
    elif kind == "not_int":
        slots = [(c, k) for c, k in slots if type(c[k]) is int]
    container, key = data.draw(st.sampled_from(slots))
    if kind == "drop":
        del container[key]
    elif kind == "truncate":
        container[key] = container[key][: data.draw(st.integers(0, len(container[key])))]
    else:
        container[key] = data.draw(NOT_AN_INT if kind == "not_int" else ANY_VALUE)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_problem_file_never_raises(data):
    payload = json.loads(saved_torus3_text())
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(payload, data)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["solve", path, "--seed", "1"])
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, err.getvalue()
        assert caught == []  # a warning would print more lines on stderr


def test_solve_classic_uses_singleton_parts(tmp_path, capsys):
    path = write_problem(tmp_path, gen_torus_nae(5, 5, 2))
    _, _, err = run_cli(capsys, "solve", path, "--classic", "--seed", "2")
    assert "parts" in err and "25" in err


# ---------------------------------------------------------------------------
# solve-det


def test_solve_det_report_only(tmp_path, capsys):
    path = write_problem(tmp_path, single_clause_problem())
    code, out, _ = run_cli(capsys, "solve-det", path, "--classic", "--quiet")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "report_only"
    assert payload["m_theoretical"] >= 1
    assert payload["k_log"] > 0


def test_solve_det_solves_and_logs_tapes(tmp_path, capsys):
    path = write_problem(tmp_path, single_clause_problem())
    csv_path = str(tmp_path / "tapes.csv")
    out_path = str(tmp_path / "col.json")
    code, out, _ = run_cli(
        capsys,
        "solve-det", path, "--classic", "--m", "2",
        "--csv", csv_path, "--out", out_path, "--quiet",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "solved"
    assert payload["tape_index"] == 1
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tape_index", "outcome", "passes", "reevals"]
    assert rows[1][:2] == ["0", "tape_exhausted"]
    assert rows[2][:2] == ["1", "success"]
    with open(out_path) as fh:
        colouring = json.load(fh)["colouring"]
    assert colouring == [1, 0]


def test_solve_det_rejects_non_finite_delta(tmp_path, capsys):
    path = write_problem(tmp_path, single_clause_problem())
    for delta in ("nan", "inf"):
        for quiet in ([], ["--quiet"]):
            code, out, err = run_cli(capsys, "solve-det", path, "--classic", "--delta", delta, *quiet)
            assert code == 1, delta
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1, err


# a small delta used to scan 10^7 tape lengths and die with a traceback
def test_solve_det_small_delta_reports(tmp_path, capsys):
    path = write_problem(tmp_path, gen_torus_nae(4, 4, 2))
    code, out, err = run_cli(capsys, "solve-det", path, "--classic", "--delta", "1e-6", "--quiet")
    assert code == 0
    assert out.count("\n") == 1 and err == ""
    payload = json.loads(out)
    assert payload["status"] == "report_only"
    assert payload["infeasible"] is True


def test_solve_det_infeasible_exit_three(tmp_path, capsys):
    path = write_problem(tmp_path, single_clause_problem())
    code, out, _ = run_cli(
        capsys, "solve-det", path, "--classic", "--m", "20",
        "--tape-cap", "100", "--quiet",
    )
    assert code == 3
    assert json.loads(out)["status"] == "infeasible"


def test_solve_det_exhausted_exit_four(tmp_path, capsys):
    path = write_problem(tmp_path, unsatisfiable_problem())
    code, out, _ = run_cli(capsys, "solve-det", path, "--classic", "--m", "1", "--quiet")
    assert code == 4
    payload = json.loads(out)
    assert payload["status"] == "exhausted"
    assert payload["tapes_tried"] == 4


def unsat_two_variable_cnf():
    """Variables 0 and 1, and clause vertices 2..5 forbidding one assignment each: all four."""
    g = Digraph.from_edges(6, [(c, v) for c in range(2, 6) for v in (0, 1)])
    rows = [(), ()] + [((a, b),) for a in range(2) for b in range(2)]
    p = ColouringProblem(g, 2, LocalRule(rows))
    p.validate()
    return p


# the search used to keep a record of every tape tried, even with no --csv to write
def test_solve_det_keeps_no_record_per_tape(tmp_path, capsys):
    path = write_problem(tmp_path, unsat_two_variable_cnf())
    argv = ["solve-det", path, "--classic", "--m", "2"]
    run_cli(capsys, *argv)  # warm every lazy import and cache before measuring
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4
    assert json.loads(out)["tapes_tried"] == 4096  # 6 parts, m = 2, b = 2
    assert peak < 0.4e6, peak


def test_solve_det_reports_a_tape_length_past_the_float_range(tmp_path, capsys):
    # ln K ~ 1.2e308 is finite; m ~ 3.7e307 used to overflow the tape count
    path = write_problem(tmp_path, gen_torus_nae(4, 4, 2))
    code, out, err = run_cli(capsys, "solve-det", path, "--d", "1020", "--quiet")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["status"] == "report_only"
    assert payload["m_theoretical"] > 10**307
    assert payload["num_tapes_theoretical"] is None and payload["infeasible"] is True


# vertex 0 reads all 1,100 cells, so the default degree bound d is 1,100 and
# 2^d overflows a float; --d 1020 fits, but |pi| = 1,100 times it does not
@pytest.mark.parametrize("flags", [[], ["--d", "1020"]])
def test_solve_det_star_exits_one(tmp_path, capsys, flags):
    n = 1100
    g = Digraph.from_edges(n, [(0, y) for y in range(n)])
    path = write_problem(tmp_path, ColouringProblem(g, 2, LocalRule([()] * n)))
    assert_one_error_line(capsys, ["solve-det", path, "--classic", *flags], "ln K overflows a float")


# ---------------------------------------------------------------------------
# garbage collector


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector(tmp_path, capsys, enabled):
    solvable = write_problem(tmp_path, gen_torus_nae(4, 4, 2), "torus.json")
    unsat = write_problem(tmp_path, unsatisfiable_problem(), "unsat.json")
    was_enabled = gc.isenabled()
    try:
        for argv, expected in [
            (["solve", solvable, "--seed", "1", "--quiet"], 0),
            (["solve", "/nonexistent/problem.json", "--quiet"], 1),
            (["solve"], 1),  # a missing argument
            (["solve-det", unsat, "--classic", "--m", "1", "--quiet"], 4),
        ]:
            if enabled:
                gc.enable()
            else:
                gc.disable()
            code, _, _ = run_cli(capsys, *argv)
            assert code == expected
            assert gc.isenabled() is enabled, argv
        with pytest.raises(SystemExit):  # --help prints and exits 0
            cli.main(["--help"])
        assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_solve_cyclic_garbage_does_not_grow_with_n(tmp_path, capsys):
    # the collector is paused during a command, so whatever cyclic garbage one
    # command leaves must not depend on the instance size
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        counts = []
        for side in (10, 40):
            path = write_problem(tmp_path, gen_torus_nae(side, side, 2), f"torus{side}.json")
            gc.collect()
            code, _, _ = run_cli(capsys, "solve", path, "--seed", "1", "--quiet")
            assert code == 0
            counts.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    assert counts[0] == counts[1], counts


# ---------------------------------------------------------------------------
# stats


def test_stats_repeat_zero_writes_header_only(tmp_path, capsys):
    csv_path = str(tmp_path / "results.csv")
    code, out, _ = run_cli(
        capsys, "stats", "--sizes", "5", "--repeat", "0", "--csv", csv_path, "--quiet"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 0
    assert payload["tail"] == {}
    assert payload["decay_ratio"] is None
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [RESULTS_HEADER]


def test_stats_builds_each_size_once(monkeypatch, capsys):
    built = []

    def counting_gen(w, h, b):
        built.append(w)
        return gen_torus_nae(w, h, b)

    monkeypatch.setattr(cli, "gen_torus_nae", counting_gen)
    code, out, _ = run_cli(capsys, "stats", "--sizes", "5,6", "--repeat", "3", "--quiet")
    assert code == 0
    assert json.loads(out)["trials"] == 6
    assert built == [5, 6]


def test_stats_tail_monotone_and_csv_rows(tmp_path, capsys):
    csv_path = str(tmp_path / "results.csv")
    code, out, _ = run_cli(
        capsys,
        "stats", "--sizes", "5,6", "--repeat", "4", "--seed", "10",
        "--csv", csv_path, "--quiet",
    )
    assert code == 0
    payload = json.loads(out)
    tail = [payload["tail"][k] for k in sorted(payload["tail"], key=int)]
    assert tail == sorted(tail, reverse=True)
    assert tail and tail[0] == 1.0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 8
    seeds = [int(r[2]) for r in rows[1:]]
    assert seeds == sorted(seeds[:4]) + sorted(seeds[4:])


def test_tail_table_and_decay_ratio_units():
    tail = cli.tail_table([1, 1, 2, 3])
    assert tail == {1: 1.0, 2: 0.5, 3: 0.25}
    ratio = cli.decay_ratio({1: 1.0, 2: 0.5, 3: 0.25})
    assert ratio == pytest.approx(0.5)
    assert cli.decay_ratio({1: 1.0}) is None
    assert cli.tail_table([]) == {}


# ---------------------------------------------------------------------------
# oracle


def test_oracle_all_bounds_hold(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--quiet")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "73/73 bounds hold"
    assert all(line.endswith("PASS") for line in lines[:-1])
    assert any(line.startswith("P_1(delta=2) = 1 <=") for line in lines)
    assert any(line.startswith("P_3(delta=2) = 5 <=") for line in lines)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_stdout(name):
    # regenerate with `python3 -m tests.make_golden` only when an output changes on purpose
    argv, expected = COMMANDS[name]
    code, out, files = capture(argv)
    assert code == expected
    files["stdout"] = out.encode()
    for suffix, data in files.items():
        assert data == (GOLDEN_DIR / f"{name}.{suffix}").read_bytes(), suffix


# ---------------------------------------------------------------------------
# gen / verify


def test_gen_torus_reports_metadata(tmp_path, capsys):
    out_path = str(tmp_path / "t.json")
    code, out, _ = run_cli(
        capsys, "gen", "torus", "--w", "5", "--h", "5", "--out", out_path, "--quiet"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 25
    assert payload["metadata"]["margin"] == pytest.approx(1 / 16)


def test_gen_ksat_roundtrips_through_solve(tmp_path, capsys):
    out_path = str(tmp_path / "k.json")
    code, out, _ = run_cli(
        capsys,
        "gen", "ksat", "--w", "4", "--h", "4", "--k", "5", "--radius", "2",
        "--per-cell", "1", "--seed", "9", "--out", out_path, "--quiet",
    )
    assert code == 0
    assert json.loads(out)["kind"] == "ksat"
    code, out, _ = run_cli(capsys, "solve", out_path, "--seed", "1", "--quiet")
    assert code == 0
    assert json.loads(out)["status"] == "succeeded"


def test_verify_rejects_bad_colouring(tmp_path, capsys):
    path = write_problem(tmp_path, single_clause_problem())
    col_path = tmp_path / "bad.json"
    col_path.write_text('{"colouring": [0, 1]}')
    code, out, _ = run_cli(capsys, "verify", path, str(col_path), "--quiet")
    assert code == 1
    payload = json.loads(out)
    assert payload["satisfies"] is False
    assert payload["violated"] == [1]


def test_verify_length_mismatch_is_an_error(tmp_path, capsys):
    path = write_problem(tmp_path, single_clause_problem())
    col_path = tmp_path / "short.json"
    col_path.write_text("[0]")
    code, _, err = run_cli(capsys, "verify", path, str(col_path), "--quiet")
    assert code == 1
    assert "entries" in err


def test_verify_rejects_malformed_colourings(tmp_path, capsys):
    # b = 2: colours outside 0..1 and JSON booleans are errors, not answers
    path = write_problem(tmp_path, single_clause_problem())
    for name, text in [("big", "[5, 0]"), ("negative", "[-1, 0]"), ("bools", "[true, false]")]:
        col_path = tmp_path / f"{name}.json"
        col_path.write_text(text)
        code, out, err = run_cli(capsys, "verify", path, str(col_path), "--quiet")
        assert code == 1, name
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_bad_flag_values_exit_one(tmp_path, capsys):
    path = write_problem(tmp_path, single_clause_problem())
    for argv, reason in [
        (["solve", path, "--R", "0"], "R must be >= 1"),
        # argparse's own rejections exit 1 too, not 2 (budget exhausted), with
        # one error line instead of a usage block
        (["solve", path, "--max-steps", "abc"], "invalid int value: 'abc'"),
        (["solve-det", path, "--classic", "--delta", "-inf"], "expected one argument"),  # -inf reads as an option
        # used to print "math domain error": the decay factor rounds to 1
        (["solve-det", path, "--classic", "--delta", "1e-300"], "delta=1e-300 is too small"),
        # these used to end in an OverflowError traceback
        (["solve-det", path, "--classic", "--d", "1030"], "ln K overflows a float"),
        (["solve-det", path, "--classic", "--d", "1" + "0" * 4000], "ln K overflows a float"),
        (["solve-det", path, "--classic", "--d", "1020", "--delta", "1e-10"], "no tape length below 2^1024"),
        # a repeated side used to run twice and count its trials twice
        (["stats", "--sizes", "5,5", "--repeat", "2"], "ladder sizes must not repeat"),
        (["stats", "--sizes", "3,8,3", "--repeat", "2"], "ladder sizes must not repeat"),
        (["solve"], "required: problem"),
        ([], "required: subcommand"),
        (["stats", "--sizes", "a,b"], "not a comma list of ints"),
        (["nosuchcommand"], "invalid choice"),
    ]:
        assert_one_error_line(capsys, argv, reason)


def assert_one_error_line(capsys, argv, reason):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1, argv
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert reason in err, argv


# a cap of 0 used to report "infeasible" with exit 0, and -1 an exit 3
@pytest.mark.parametrize("cap_flags", [["--tape-cap", "0"], ["--tape-cap=-1", "--m", "1"]])
def test_tape_cap_below_one_exit_one(tmp_path, capsys, cap_flags):
    path = write_problem(tmp_path, single_clause_problem())
    assert_one_error_line(capsys, ["solve-det", path, "--classic", *cap_flags], "tape-cap must be >= 1")


# an empty ladder used to run the default sides 8 and 12
@pytest.mark.parametrize("sizes", [",", ""])
def test_stats_empty_ladder_exit_one(capsys, sizes):
    assert_one_error_line(capsys, ["stats", "--sizes", sizes, "--repeat", "1"], "ladder sizes must not be empty")


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage:")
    assert err == ""
