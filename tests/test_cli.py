"""End-to-end checks of the command line front end.

Everything drives cli.main() in-process; stdout is parsed as JSON where the
command emits JSON.  Wall-clock columns are the only tolerated difference
between repeated runs.
"""

import contextlib
import csv
import functools
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from resample_forge import cli
from resample_forge.instance_io import RESULTS_HEADER, gen_torus_nae, save_problem

from .helpers import all_allowed_problem, single_clause_problem, unsatisfiable_problem

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
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**good, **change}))
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


def test_oracle_rows_structure():
    rows = cli.oracle_checks()
    assert all(row["pass"] for row in rows)
    trees = {(r["delta"], r["i"]): r["value"] for r in rows if r["check"] == "trees"}
    assert trees[(2, 3)] == 5
    assert all(trees[(d, 1)] == 1 for d in range(1, 5))


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
    code, _, err = run_cli(capsys, "solve", path, "--R", "0", "--quiet")
    assert code == 1
    assert "R must be" in err
