"""End-to-end checks of the command line front end.

Everything drives cli.main() in-process; stdout is parsed as JSON where the
command emits JSON.  Wall-clock columns are the only tolerated difference
between repeated runs.  Every command line `run_cli` or the golden corpus
runs is first read by the parser `main` builds, which holds only the command
argv starts with, and by the parser with every command and its flags; the two
must agree (`assert_parsers_agree`).
"""

import contextlib
import csv
import functools
import gc
import io
import json
import math
import os
import random
import tempfile
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from resample_forge import cli, instance_io
from resample_forge.graph_core import Digraph
from resample_forge.instance_io import (
    MAX_TORUS_B,
    MAX_TORUS_CELLS,
    MAX_WINDOW_CELLS,
    gen_torus_nae,
    load_problem,
    save_problem,
    torus_graph,
)
from resample_forge.rule_engine import ColouringProblem, LocalRule

from .helpers import (
    all_allowed_problem,
    schema2_payload,
    schema3_payload,
    single_clause_problem,
    star_problem,
    unsatisfiable_problem,
    witness_rules_problem,
)
from .make_golden import COMMANDS, GOLDEN_DIR, KSAT6, TORUS10, capture

GOLDEN_TORUS10_SEED7 = (
    '{"bits": 77.0, "max_h": 2, "rounds": 1, "status": "succeeded", "symbols": 77}'
)


def run_cli(capsys, *argv):
    assert_parsers_agree(argv)
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _Picked(Exception):
    pass


def command_main_picks(argv, from_sys_argv=False):
    """The command name `cli.main` hands to `build_parser` for argv, stopped before it parses."""
    picked = []

    def spy(command=None):
        picked.append(command)
        raise _Picked

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_parser", spy)
        mp.setattr("sys.argv", ["resample-forge", *argv])
        with pytest.raises(_Picked):
            cli.main(None if from_sys_argv else list(argv))
    return picked[0]


def main_outcome(argv, full_parser):
    """Exit code, stdout and stderr of `cli.main(argv)`, with every command's flags built if full_parser."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if full_parser:
            build_all = cli.build_parser
            mp.setattr(cli, "build_parser", lambda command=None: build_all())
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parsed(parser, argv):
    """The Namespace parser makes of argv, or None when it refuses argv or prints help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(list(argv))
        except (ValueError, SystemExit):
            return None


def assert_parsers_agree(argv):
    """The parser `main` builds for argv, with only the command it names, reads it as the full parser does.

    A command line both parse gives equal Namespaces, and its command is the
    one `main` named; one both refuse, or a `--help`, gives the same exit code,
    stdout and stderr through `cli.main`, so no command runs here.  `main(None)`
    names the same command from `sys.argv`.
    """
    command = command_main_picks(argv)
    assert command_main_picks(argv, from_sys_argv=True) == command, argv
    full = parsed(cli.build_parser(), argv)
    assert parsed(cli.build_parser(command), argv) == full, argv
    if full is None:
        assert main_outcome(argv, full_parser=False) == main_outcome(argv, full_parser=True), argv
    else:
        assert full.subcommand == command, argv


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


def test_solve_verify_refuses_a_violated_colouring(tmp_path, capsys, monkeypatch):
    # --verify re-checks the run's success; a check that disagrees exits 1 and writes nothing
    path = write_problem(tmp_path, gen_torus_nae(6, 6, 2))
    out_path = tmp_path / "col.json"
    monkeypatch.setattr(cli, "satisfies", lambda p, f: False)
    code, out, err = run_cli(capsys, "solve", path, "--seed", "3", "--verify", "--out", str(out_path), "--quiet")
    assert code == 1
    assert json.loads(out)["status"] == "succeeded"
    assert err == "error: run reported success but the colouring is violated\n"
    assert not out_path.exists()


def test_solve_budget_exhausted_exit_two(tmp_path, capsys):
    path = write_problem(tmp_path, unsatisfiable_problem())
    code, out, _ = run_cli(capsys, "solve", path, "--max-steps", "4", "--quiet")
    assert code == 2
    assert json.loads(out)["status"] == "budget_exhausted"


def test_solve_missing_file_exit_one(tmp_path, capsys):
    paths = ["/nonexistent/problem.json"]
    good = {"schema_version": 2, "b": 2, "scopes": [[], [0]], "forbidden": [[], [[0]]]}
    # malformed files exit 1 with one error line, not a traceback, a warning or an answer
    for name, change in [
        ("scope_str", {"scopes": [[], ["0"]]}),
        ("scope_bool", {"scopes": [[], [False]]}),
        ("scope_not_list", {"scopes": [[], 0]}),
        ("scopes_int", {"scopes": 5}),
        ("scope_unsorted", {"scopes": [[], [1, 0]], "forbidden": [[], [[0, 0]]]}),
        ("scope_duplicate", {"scopes": [[], [0, 0]], "forbidden": [[], [[0, 0]]]}),
        ("scope_out_of_range", {"scopes": [[], [2]]}),
        ("scope_negative", {"scopes": [[], [-1]]}),
        ("forbidden_map", {"forbidden": {"1": [[0]]}}),
        ("rows_not_list", {"forbidden": [[], 0]}),
        ("row_not_list", {"forbidden": [[], [0]]}),
        ("colour_float", {"forbidden": [[], [[0.5]]]}),
        ("colour_bool", {"forbidden": [[], [[True]]]}),
        ("b_bool", {"b": True}),
        ("schema_bool", {"schema_version": True}),
        # one rule table entry per vertex, no more and no fewer
        ("forbidden_longer", {"forbidden": [[], [[0]], [[0]]]}),
        ("forbidden_shorter", {"forbidden": [[]]}),
        # past 2^64 colours the tape's rejection sampler accepts no candidate
        ("b_above_2_64", {"b": 2**64 + 1, "scopes": [[0]], "forbidden": [[]]}),
        # rule-table checks that ColouringProblem.validate alone makes
        ("colour_out_of_range", {"forbidden": [[], [[2]]]}),
        ("wrong_arity", {"forbidden": [[], [[0, 1]]]}),
        ("empty_scope", {"scopes": [[], []]}),
        ("duplicate_row", {"forbidden": [[], [[0], [0]]]}),
        ("unsorted_rows", {"forbidden": [[], [[1], [0]]]}),
        ("duplicate_then_wrong_arity", {"forbidden": [[], [[0], [0], [0, 1]]]}),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**good, **change}))
        paths.append(str(path))
    # the same key twice in one object, which json.dumps cannot write
    path = tmp_path / "key_twice.json"
    path.write_text(json.dumps(good).replace('"forbidden": [', '"forbidden": [], "forbidden": ['))
    paths.append(str(path))
    # a schema-1 file: an edge list and a forbidden map keyed by vertex id
    path = tmp_path / "schema_1.json"
    old = {"schema_version": 1, "b": 2, "num_vertices": 2, "edges": [[1, 0]], "forbidden": {"1": [[0]]}}
    path.write_text(json.dumps(old))
    paths.append(str(path))
    for path in paths:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "solve", path, "--quiet")
        assert code == 1, path
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert caught == [], path  # a warning would print more lines on stderr


SCHEMA_3 = {"schema_version": 3, "b": 2, "scopes": [[], [0], [0, 1]], "tables": [[], [[0]]], "table_of": [0, 1, 0]}
TORUS_3 = {"schema_version": 3, "b": 2, "graph": {"torus": [3, 4]}, "tables": [[[0] * 5]], "table_of": 0}


# a malformed schema-3 file exits 1 with one error line, never a traceback or an answer
@pytest.mark.parametrize(
    "base, change, reason",
    [
        (SCHEMA_3, {"table_of": [0, 2, 0]}, "field 'table_of': vertex 1: index 2 out of range for 2 tables"),
        (SCHEMA_3, {"table_of": [0, 1, -1]}, "field 'table_of': vertex 2: index -1 out of range for 2 tables"),
        (SCHEMA_3, {"table_of": 2}, "field 'table_of': index 2 out of range for 2 tables"),
        (SCHEMA_3, {"table_of": -1}, "field 'table_of': index -1 out of range for 2 tables"),
        (TORUS_3, {"table_of": 1}, "field 'table_of': index 1 out of range for 1 tables"),
        (SCHEMA_3, {"tables": [], "table_of": [0, 0, 0]}, "index 0 out of range for 0 tables"),
        (SCHEMA_3, {"table_of": [0, True, 0]}, "'table_of' must be an integer table index or a list of them"),
        (SCHEMA_3, {"table_of": [0, 1.0, 0]}, "'table_of' must be an integer table index or a list of them"),
        (TORUS_3, {"table_of": False}, "'table_of' must be an integer table index or a list of them"),
        (TORUS_3, {"table_of": 0.0}, "'table_of' must be an integer table index or a list of them"),
        (SCHEMA_3, {"table_of": [0, 1]}, "field 'table_of' has 2 entries for 3 vertices"),
        (SCHEMA_3, {"table_of": [0, 1, 0, 0]}, "field 'table_of' has 4 entries for 3 vertices"),
        (TORUS_3, {"table_of": [0] * 11}, "field 'table_of' has 11 entries for 12 vertices"),
        (SCHEMA_3, {"tables": {"0": []}}, "'tables' must be a list of tables, each a list of colour tuples"),
        (SCHEMA_3, {"tables": [[], 0]}, "'tables' must be a list of tables, each a list of colour tuples"),
        (SCHEMA_3, {"tables": [[], [0]]}, "'tables' must be a list of tables, each a list of colour tuples"),
        (SCHEMA_3, {"tables": [[], [[0], 0]]}, "'tables' must be a list of tables, each a list of colour tuples"),
        (SCHEMA_3, {"tables": [[], [[[0]]]]}, "vertex 1: colour [0] out of range 0..1"),
        (SCHEMA_3, {"graph": {"torus": [3, 3]}}, "need exactly one of the fields 'scopes' and 'graph'"),
        ({k: v for k, v in SCHEMA_3.items() if k != "scopes"}, {}, "need exactly one of the fields"),
        (TORUS_3, {"graph": {"torus": [2, 4]}}, "field 'graph': torus needs both sides >= 3"),
        (TORUS_3, {"graph": {"torus": [3, -3]}}, "field 'graph': torus needs both sides >= 3"),
        (TORUS_3, {"graph": {"torus": [3.0, 4]}}, "field 'graph': w must be an integer, not 3.0"),
        (TORUS_3, {"graph": {"torus": [3, True]}}, "field 'graph': h must be an integer, not True"),
        (TORUS_3, {"graph": {"torus": [3, "4"]}}, "field 'graph': h must be an integer, not '4'"),
        (TORUS_3, {"graph": {"torus": [3, 4, 5]}}, "field 'graph': torus must be a list of two sides [w, h]"),
        (TORUS_3, {"graph": {"torus": 12}}, "field 'graph': torus must be a list of two sides [w, h]"),
        (TORUS_3, {"graph": {"torus": [3, 4], "w": 3}}, 'field \'graph\' must be {"torus": [w, h]}'),
        (TORUS_3, {"graph": {"grid": [3, 4]}}, 'field \'graph\' must be {"torus": [w, h]}'),
        (TORUS_3, {"graph": [3, 4]}, 'field \'graph\' must be {"torus": [w, h]}'),
        (TORUS_3, {"graph": {"torus": [1 << 20, 1 << 20]}}, f"torus needs at most {MAX_TORUS_CELLS} cells"),
        (TORUS_3, {"forbidden": []}, "unknown field 'forbidden'"),
        (TORUS_3, {"schema_version": 4}, "unsupported schema_version 4"),
        ({k: v for k, v in TORUS_3.items() if k != "tables"}, {}, "missing field 'tables'"),
        ({k: v for k, v in TORUS_3.items() if k != "table_of"}, {}, "missing field 'table_of'"),
        # the checks the rows get in schema 2 hold here: the torus needs 5-cell rows
        (TORUS_3, {"tables": [[[0, 0]]]}, "vertex 0: forbidden tuple (0, 0) has length 2, scope needs 5"),
        (TORUS_3, {"tables": [[[1] * 5, [0] * 5]]}, "vertex 0: forbidden tuples are not strictly increasing"),
        (SCHEMA_3, {"scopes": [[], [0], [1, 0]]}, "vertex 2: scope must be strictly increasing vertex ids in 0..2"),
    ],
)
def test_malformed_schema_3_file_exits_one(tmp_path, capsys, base, change, reason):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**base, **change}))
    for cmd in (["solve", str(path)], ["solve-det", str(path), "--classic"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert_one_error_line(capsys, cmd, reason)
        assert caught == []


def test_well_formed_schema_3_files_solve(tmp_path, capsys):
    # the two bases above are well formed: each malformed case is one change away from a loadable file
    for payload in (SCHEMA_3, TORUS_3):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "solve", str(path), "--quiet")
        assert code == 0 and json.loads(out)["status"] == "succeeded"


@functools.cache
def saved_torus3_text():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "torus3.json")
        save_problem(gen_torus_nae(3, 3, 2), path)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


# the same torus in each form a file can hold it: schema 3 by its sides (what gen writes),
# schema 3 by its scope lists, and schema 2
def torus3_payloads():
    described = json.loads(saved_torus3_text())
    schema2 = json.loads(json.dumps(schema2_payload(gen_torus_nae(3, 3, 2))))
    return [described, schema3_payload(schema2), schema2]


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
    """Apply one random mutation: drop a key, retype a value, truncate a list, or un-int an int.

    Only kinds with a slot left are drawn: earlier mutations can remove every
    list or int.
    """
    slots = json_slots(payload, [])
    by_kind = {
        "drop": [(c, k) for c, k in slots if isinstance(c, dict)],
        "retype": slots,
        "truncate": [(c, k) for c, k in slots if isinstance(c[k], list)],
        "not_int": [(c, k) for c, k in slots if type(c[k]) is int],
    }
    kind = data.draw(st.sampled_from([name for name, where in by_kind.items() if where]))
    container, key = data.draw(st.sampled_from(by_kind[kind]))
    if kind == "drop":
        del container[key]
    elif kind == "truncate":
        container[key] = container[key][: data.draw(st.integers(0, len(container[key])))]
    else:
        container[key] = data.draw(NOT_AN_INT if kind == "not_int" else ANY_VALUE)


class ScriptedData:
    """Stands in for hypothesis's `data`: each draw returns the next scripted value.

    A `sampled_from` draw records the elements offered, and its scripted value
    must be one of them.
    """

    def __init__(self, *script):
        self.script = list(script)
        self.offered = []

    def draw(self, strategy):
        value = self.script.pop(0)
        elements = getattr(strategy, "elements", None)
        if elements is not None:
            self.offered.append(list(elements))
            assert value in elements, (value, elements)
        return value


def test_mutate_draws_only_kinds_with_a_slot():
    # retyping "graph" and then "tables" leaves no list to truncate
    payload = json.loads(saved_torus3_text())
    mutate(payload, ScriptedData("retype", (payload, "graph"), 0))
    mutate(payload, ScriptedData("retype", (payload, "tables"), None))
    data = ScriptedData("not_int", (payload, "b"), "x")
    mutate(payload, data)
    assert data.offered[0] == ["drop", "retype", "not_int"]
    assert payload["b"] == "x"


@settings(max_examples=90, deadline=None)
@given(st.data())
def test_mutated_problem_file_never_raises(data):
    payload = data.draw(st.sampled_from(torus3_payloads()))
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


def _stderr_report(err):
    """The (key, value) pairs of a stderr table, in printed order."""
    return [tuple(line.split(None, 1)) for line in err.splitlines()]


def test_stderr_table_prints_the_stdout_payload(tmp_path, capsys):
    torus = str(GOLDEN_DIR / "torus10.json")  # 60 parts under the default sparse partition
    clause = write_problem(tmp_path, single_clause_problem(), "clause.json")
    unsat = write_problem(tmp_path, unsatisfiable_problem(), "unsat.json")

    code, out, err = run_cli(capsys, "solve", torus, "--seed", "7")
    assert code == 0
    summary = json.loads(out)
    keys = ["status", "rounds", "max_h", "symbols", "bits"]
    assert sorted(summary) == sorted(keys)
    assert _stderr_report(err) == [(k, str(summary[k])) for k in keys] + [("parts", "60")]

    budget = ["k_log", "m_theoretical", "num_tapes_theoretical", "infeasible"]
    solved = ["status", "m_used", "tape_index", "tapes_tried", "passes", "reevals"]
    for argv, code_want, report_keys in [
        ([clause], 0, budget),
        ([clause, "--m", "2"], 0, budget + solved),
        ([unsat, "--m", "3"], 4, budget),
    ]:
        code, out, err = run_cli(capsys, "solve-det", *argv, "--classic")
        assert code == code_want
        payload = json.loads(out)
        report = _stderr_report(err)
        if code == 4:
            assert report.pop() == ("error:", payload["error"])
        assert report == [(k, str(payload[k])) for k in report_keys]

    for argv in (["solve", torus], ["solve-det", clause, "--classic", "--m", "2"]):
        code, _, err = run_cli(capsys, *argv, "--quiet")
        assert code == 0 and err == ""


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


# a budget past the float range used to refuse a search given its own tape length:
# with --m the budget fields are null, and the search alone sets the exit code
def test_solve_det_with_m_searches_past_an_overflowing_budget(tmp_path, capsys):
    star1012 = write_problem(tmp_path, star_problem(1012), "star1012.json")
    star1015 = write_problem(tmp_path, star_problem(1015), "star1015.json")
    null_budget = {"k_log": None, "m_theoretical": None, "num_tapes_theoretical": None, "infeasible": True}
    for argv in (
        [star1015, "--m", "1"],
        [star1015, "--m", "1", "--classic"],
        [star1012, "--m", "1", "--classic", "--delta", "1e-10"],
    ):
        # 2^1013 or more tapes exceed the default cap
        code, out, _ = run_cli(capsys, "solve-det", *argv, "--quiet")
        assert code == 3, argv
        payload = json.loads(out)
        assert payload["status"] == "infeasible"
        assert {k: payload[k] for k in null_budget} == null_budget
    code, out, _ = run_cli(capsys, "solve-det", star1015, "--m", "1", "--tape-cap", str(2**1100), "--quiet")
    assert code == 0
    payload = json.loads(out)
    assert {k: payload[k] for k in null_budget} == null_budget
    assert (payload["status"], payload["tape_index"], payload["passes"]) == ("solved", 0, 0)


def test_solve_det_exhausted_exit_four(tmp_path, capsys):
    path = write_problem(tmp_path, unsatisfiable_problem())
    code, out, _ = run_cli(capsys, "solve-det", path, "--classic", "--m", "1", "--quiet")
    assert code == 4
    payload = json.loads(out)
    assert payload["status"] == "exhausted"
    assert payload["tapes_tried"] == 4


# a space of 2^62 tapes under the cap used to exit 3, reporting "infeasible": false next to
# "status": "infeasible", because the search could not allocate a byte of marks per tape
def test_solve_det_searches_any_space_under_the_cap(tmp_path, capsys):
    path = write_problem(tmp_path, single_clause_problem())
    code, out, err = run_cli(capsys, "solve-det", path, "--classic", "--m", "31", "--tape-cap", str(2**62), "--quiet")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["status"] == "solved"
    assert (payload["tape_index"], payload["tapes_tried"]) == (1, 2)


# the rows used to be one per tape, kept in memory until the search ended: 43.6 MB here
def test_solve_det_csv_has_one_row_per_engine_run(tmp_path, capsys):
    csv_path = str(tmp_path / "runs.csv")
    argv = ["solve-det", str(GOLDEN_DIR / "unsat_2x4.json"), "--classic", "--m", "3", "--csv", csv_path, "--quiet"]
    run_cli(capsys, *argv)  # warm every lazy import and cache before measuring
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4
    assert json.loads(out)["tapes_tried"] == 2**18
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tape_index", "outcome", "passes", "reevals"]
    assert len(rows) == 1 + 64
    indices = [int(row[0]) for row in rows[1:]]
    assert indices == sorted(set(indices))
    assert peak < 2e6, peak


# solve and solve-det used to run the whole solve, print a complete payload and only then
# fail to open the side file; gen and stats also failed only after their work
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["solve-det", "<single>", "--classic", "--m", "2", "--csv", "missing/x.csv"], "--csv"),
        (["solve-det", "<single>", "--classic", "--m", "2", "--out", "missing/x.json"], "--out"),
        (["solve", "<torus>", "--out", "missing/x.json"], "--out"),
        (["gen", "torus", "--out", "missing/x.json"], "--out"),
        (["stats", "--sizes", "4", "--repeat", "1", "--csv", "missing/x.csv"], "--csv"),
    ],
)
def test_side_file_path_that_cannot_be_a_file_exits_one_before_work(tmp_path, capsys, monkeypatch, argv, flag):
    inputs = {
        "<single>": write_problem(tmp_path, single_clause_problem(), "single.json"),
        "<torus>": write_problem(tmp_path, gen_torus_nae(4, 4, 2), "torus.json"),
    }
    argv = [inputs.get(tok, tok) for tok in argv]
    monkeypatch.chdir(tmp_path)
    assert_one_error_line(capsys, argv, f"{flag}: missing/x.")
    assert not (tmp_path / "missing").exists()
    (tmp_path / "here").mkdir()  # a path naming a directory cannot be written either
    argv[argv.index(flag) + 1] = "here"
    assert_one_error_line(capsys, argv, f"{flag}: here: is a directory")


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
    # the star's own d = 1,012 gives ln K ~ 3.1e307, which is finite; m ~ 3.1e307 used to overflow the tape count
    path = write_problem(tmp_path, star_problem(1012))
    code, out, err = run_cli(capsys, "solve-det", path, "--classic", "--quiet")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["status"] == "report_only"
    assert payload["m_theoretical"] > 10**307
    assert payload["num_tapes_theoretical"] is None and payload["infeasible"] is True


# vertex 0 reads all 1,100 cells, so the instance's degree d is 1,100 and 2^d overflows a float
def test_solve_det_star_exits_one(tmp_path, capsys):
    n = 1100
    g = Digraph.from_edges(n, [(0, y) for y in range(n)])
    path = write_problem(tmp_path, ColouringProblem(g, 2, LocalRule([()] * n)))
    assert_one_error_line(capsys, ["solve-det", path, "--classic"], "ln K overflows a float")


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
            out = str(tmp_path / f"gen{side}.json")
            for argv in (
                ["solve", path, "--seed", "1", "--quiet"],
                ["gen", "torus", "--w", str(side), "--h", str(side), "--out", out, "--quiet"],
            ):
                gc.collect()
                code, _, _ = run_cli(capsys, *argv)
                assert code == 0
                counts.append((argv[0], gc.collect()))
    finally:
        if was_enabled:
            gc.enable()
    assert counts[:2] == counts[2:], counts


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
    assert rows == [cli.RESULTS_HEADER]


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


def test_stats_csv_appends_runs_under_one_header(tmp_path, capsys):
    csv_path = str(tmp_path / "results.csv")
    for seed in ("0", "10"):
        code, _, _ = run_cli(
            capsys, "stats", "--sizes", "4", "--repeat", "2", "--seed", seed, "--csv", csv_path, "--quiet"
        )
        assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == cli.RESULTS_HEADER
    assert [(r[0], r[2]) for r in rows[1:]] == [("torus-4x4", s) for s in ("0", "1", "10", "11")]


# runs cut off by --max-steps used to be averaged as if complete, with exit 0
def test_stats_exits_two_when_the_budget_stops_a_run(capsys):
    code, out, err = run_cli(capsys, "stats", "--sizes", "10,20", "--repeat", "5", "--max-steps", "1", "--quiet")
    assert code == 2
    assert json.loads(out)["trials"] == 10
    assert err == "budget exhausted at --max-steps 1: 4 of 5 runs at size 10, 5 of 5 runs at size 20\n"


def test_tail_table_and_decay_ratio_units():
    tail = cli.tail_table([1, 1, 2, 3])
    assert tail == {1: 1.0, 2: 0.5, 3: 0.25}
    ratio = cli.decay_ratio({1: 1.0, 2: 0.5, 3: 0.25})
    assert ratio == pytest.approx(0.5)
    assert cli.decay_ratio({1: 1.0}) is None
    assert cli.tail_table([]) == {}


def reference_decay_ratio(tail):
    """The hand-written least-squares fit of log Pr against m that `decay_ratio` replaced."""
    points = [(m, math.log(p)) for m, p in sorted(tail.items()) if p > 0]
    if len(points) < 2:
        return None
    xs = [m for m, _ in points]
    ys = [y for _, y in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    denom = sum((x - mean_x) ** 2 for x in xs)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denom
    return math.exp(slope)


def test_decay_ratio_matches_the_hand_written_fit():
    # tails of random max-h samples, and random tails with gaps and zeros in their support
    rng = random.Random(37)
    tails = [cli.tail_table([rng.randint(1, rng.randint(1, 12)) for _ in range(rng.randint(1, 60))]) for _ in range(300)]
    tails += [
        {m: rng.choice([0.0, rng.random()]) for m in rng.sample(range(1, 40), rng.randint(1, 12))} for _ in range(300)
    ]
    fitted = 0
    for tail in tails:
        got, want = cli.decay_ratio(tail), reference_decay_ratio(tail)
        if want is None:
            assert got is None
        else:
            fitted += 1
            assert math.isclose(got, want, rel_tol=1e-12), tail
            assert round(got, 6) == round(want, 6), tail  # the figure `stats` prints
    assert fitted > 300


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
    assert_parsers_agree(argv)
    code, out, files = capture(argv)
    assert code == expected
    files["stdout"] = out.encode()
    for suffix, data in files.items():
        assert data == (GOLDEN_DIR / f"{name}.{suffix}").read_bytes(), suffix


@pytest.mark.parametrize(
    "name, source", [("gen_torus10", "torus10_schema3.json"), ("gen_ksat6", "ksat6_schema3.json")]
)
def test_golden_inputs_are_what_gen_writes(name, source):
    assert (GOLDEN_DIR / f"{name}.out.json").read_bytes() == (GOLDEN_DIR / source).read_bytes()


SCHEMA_2_INPUTS = ["torus10", "ksat6", "single_clause", "unsat", "unsat_2x4", "unsat_3x9", "tiny1000"]


@pytest.mark.parametrize("name", [*SCHEMA_2_INPUTS, "torus10_schema3", "ksat6_schema3", "torus40x6", "random6_8x8"])
def test_committed_problem_files_are_canonical(tmp_path, name):
    # every problem input but malformed.json is byte for byte what its schema's writer makes of it:
    # save_problem for the schema-3 inputs, the schema-2 writer's sorted compact JSON for the rest
    source = GOLDEN_DIR / f"{name}.json"
    p = load_problem(str(source))
    if name in SCHEMA_2_INPUTS:
        assert source.read_text() == json.dumps(schema2_payload(p), sort_keys=True) + "\n"
    else:
        path = tmp_path / "resaved.json"
        save_problem(p, str(path))
        assert path.read_bytes() == source.read_bytes()


def test_random6_holds_the_witness_tables_on_the_described_torus(tmp_path):
    w = witness_rules_problem(8, 1)
    path = tmp_path / "random6.json"
    save_problem(ColouringProblem(torus_graph(8, 8), 2, w.rule), str(path))
    assert path.read_bytes() == (GOLDEN_DIR / "random6_8x8.json").read_bytes()
    assert load_problem(str(path)).graph.out_adj == w.graph.out_adj


# each golden command on torus10.json or ksat6.json, with the schema-3 form of its input
SCHEMA_3_TWINS = {
    name: [tok.replace(".json", "_schema3.json") if tok in (TORUS10, KSAT6) else tok for tok in argv]
    for name, (argv, _) in COMMANDS.items()
    if TORUS10 in argv or KSAT6 in argv
}


def test_schema_3_twins_cover_solve_on_both_inputs():
    covered = {"solve_torus10", "solve_ksat6", "solve_det_report", "verify_solved", "verify_violated"}
    assert covered <= set(SCHEMA_3_TWINS)


@pytest.mark.parametrize("name", sorted(SCHEMA_3_TWINS))
def test_schema_3_input_prints_the_schema_2_golden(name):
    # stdout, exit code and side files byte for byte as recorded from the schema-2 input
    assert_parsers_agree(SCHEMA_3_TWINS[name])
    code, out, files = capture(SCHEMA_3_TWINS[name])
    assert code == COMMANDS[name][1]
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


# gen --seed used to take any int: -1 and 2^64 - 1 then wrote the same instance
# under different recorded seeds, as the generator masked the seed to 64 bits
@pytest.mark.parametrize(
    "seed, reason", [("-1", "seed must be >= 0"), (str(1 << 64), f"seed must be <= {(1 << 64) - 1}")]
)
def test_gen_seed_outside_64_bits_exits_one(tmp_path, capsys, seed, reason):
    out_path = tmp_path / "k.json"
    argv = ["gen", "ksat", "--w", "3", "--h", "3", "--k", "2", "--seed", seed, "--out", str(out_path)]
    assert_one_error_line(capsys, argv, f"--seed: {reason}")
    assert not out_path.exists()


def test_gen_seed_at_the_top_of_64_bits_is_recorded(tmp_path, capsys):
    out_path = tmp_path / "k.json"
    seed = (1 << 64) - 1
    argv = ["gen", "ksat", "--w", "3", "--h", "3", "--k", "2", "--seed", str(seed), "--out", str(out_path)]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out_path.read_text())["metadata"]["seed"] == seed


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
    col_path.write_text('{"colouring": [0]}')
    code, _, err = run_cli(capsys, "verify", path, str(col_path), "--quiet")
    assert code == 1
    assert "entries" in err


def test_verify_rejects_malformed_colourings(tmp_path, capsys):
    # b = 2: colours outside 0..1 and JSON booleans are errors, not answers
    path = write_problem(tmp_path, single_clause_problem())
    for name, text in [("big", "[5, 0]"), ("negative", "[-1, 0]"), ("bools", "[true, false]")]:
        col_path = tmp_path / f"{name}.json"
        col_path.write_text(f'{{"colouring": {text}}}')
        code, out, err = run_cli(capsys, "verify", path, str(col_path), "--quiet")
        assert code == 1, name
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_bad_flag_values_exit_one(tmp_path, capsys):
    path = write_problem(tmp_path, single_clause_problem())
    star1012 = write_problem(tmp_path, star_problem(1012), "star1012.json")
    star1015 = write_problem(tmp_path, star_problem(1015), "star1015.json")
    for argv, reason in [
        (["solve", path, "--R", "0"], "R must be >= 1"),
        # argparse's own rejections exit 1 too, not 2 (budget exhausted), with
        # one error line instead of a usage block
        (["solve", path, "--max-steps", "abc"], "invalid int value: 'abc'"),
        (["solve-det", path, "--classic", "--delta", "-inf"], "expected one argument"),  # -inf reads as an option
        # used to print "math domain error": the decay factor rounds to 1
        (["solve-det", path, "--classic", "--delta", "1e-300"], "delta=1e-300 is too small"),
        # these used to end in an OverflowError traceback; each star's d is its own degree
        (["solve-det", star1015, "--classic"], "ln K overflows a float"),
        (["solve-det", star1012, "--classic", "--delta", "1e-10"], "no tape length below 2^1024"),
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


def forbid_work(monkeypatch):
    """Make loading a problem file or building a torus fail the test."""

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    for name in ("load_problem", "gen_torus_nae"):
        monkeypatch.setattr(cli, name, no_work)


# every ranged flag on every subcommand that takes it, refused by its argparse type
# before any work; the solve-det --R, stats --R, stats --max-steps, --repeat, --m,
# stats --b and --sizes cases had no test before, and solve --seed -1 and every
# solve-det --delta case were refused only after the problem was loaded and
# partitioned; a stats seed range past 64 bits was refused only after the first
# torus was built and run, and a stats --b past the torus cap of 2^16 colours
# only after a torus whose rule table holds b constant tuples had been built
@pytest.mark.parametrize(
    "argv, reason",
    [
        (["solve", "<p>", "--R", "0"], "--R: R must be >= 1"),
        (["solve-det", "<p>", "--R", "0"], "--R: R must be >= 1"),
        (["stats", "--R", "0"], "--R: R must be >= 1"),
        (["solve", "<p>", "--R", "x"], "--R: invalid int value: 'x'"),
        (["solve", "<p>", "--max-steps", "0"], "--max-steps: max-steps must be >= 1"),
        (["stats", "--max-steps", "0"], "--max-steps: max-steps must be >= 1"),
        (["solve-det", "<p>", "--m", "0"], "--m: m must be >= 1"),
        (["solve-det", "<p>", "--tape-cap", "0"], "--tape-cap: tape-cap must be >= 1"),
        (["stats", "--repeat", "-1"], "--repeat: repeat must be >= 0"),
        (["stats", "--b", "1"], "--b: b must be >= 2"),
        (["stats", "--b", str(MAX_TORUS_B + 1)], f"--b: b must be <= {MAX_TORUS_B}"),
        (["stats", "--sizes", "2"], "--sizes: ladder sizes must be >= 3"),
        (["stats", "--sizes", "4,4"], "--sizes: ladder sizes must not repeat"),
        (["stats", "--sizes", ","], "--sizes: ladder sizes must not be empty"),
        (["solve", "<p>", "--seed", "-1"], "--seed: seed must be >= 0"),
        (["solve", "<p>", "--seed", str(1 << 64)], f"--seed: seed must be <= {(1 << 64) - 1}"),
        (["stats", "--seed", "-1"], "--seed: seed must be >= 0"),
        (["stats", "--seed", str((1 << 64) - 1), "--repeat", "2"], "do not all fit in 64 bits"),
        (["solve-det", "<p>", "--delta", "0"], "--delta: delta must be positive and finite"),
        (["solve-det", "<p>", "--delta=-1"], "--delta: delta must be positive and finite"),
        (["solve-det", "<p>", "--delta", "nan"], "--delta: delta must be positive and finite"),
        (["solve-det", "<p>", "--delta", "inf"], "--delta: delta must be positive and finite"),
        (["solve-det", "<p>", "--delta", "x"], "--delta: invalid float value: 'x'"),
    ],
)
def test_ranged_flag_out_of_range_exits_one(tmp_path, capsys, monkeypatch, argv, reason):
    forbid_work(monkeypatch)
    argv = [str(tmp_path / "problem.json") if tok == "<p>" else tok for tok in argv]
    assert_one_error_line(capsys, argv, reason)


# stats --b took up to 2^64 and gen --b any int, and the torus then tried to hold
# b constant tuples, ~120 B each: 7.8 MB at 2^16, without bound past it
@pytest.mark.parametrize("cmd", [["stats", "--sizes", "3", "--repeat", "1"], ["gen", "torus", "--w", "3", "--h", "3"]])
def test_b_past_the_torus_cap_exits_one_before_any_torus(tmp_path, capsys, monkeypatch, cmd):
    def no_graph(*args, **kwargs):
        raise AssertionError("a torus was built")

    monkeypatch.setattr(instance_io, "Digraph", no_graph)
    out = tmp_path / "torus.json"
    argv = [*cmd, "--b", str(MAX_TORUS_B + 1), *(["--out", str(out)] if cmd[0] == "gen" else [])]
    assert_one_error_line(capsys, argv, f"must be <= {MAX_TORUS_B}")
    assert not out.exists()


@pytest.mark.parametrize("cmd", [["stats", "--sizes", "3", "--repeat", "1"], ["gen", "torus", "--w", "3", "--h", "3"]])
def test_b_at_the_torus_cap_is_accepted(tmp_path, capsys, cmd):
    out = tmp_path / "torus.json"
    argv = [*cmd, "--b", str(MAX_TORUS_B), *(["--out", str(out)] if cmd[0] == "gen" else [])]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and "error:" not in err
    if cmd[0] == "gen":
        p = load_problem(str(out))
        assert p.b == MAX_TORUS_B and len(p.rule.forbidden[0]) == MAX_TORUS_B


# a file or a flag that names a torus past the cell cap is refused before any list is built
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "torus", "--w", "1048576", "--h", "1048576", "--out", "<out>"],
        ["gen", "torus", "--w", "3", "--h", str(MAX_TORUS_CELLS // 3 + 1), "--out", "<out>"],
        ["solve", "<big>"],
        ["verify", "<big>", "<big>"],
    ],
)
def test_torus_past_the_cell_cap_exits_one_before_building(tmp_path, capsys, argv):
    big = tmp_path / "big.json"
    payload = {"schema_version": 3, "b": 2, "graph": {"torus": [1 << 20, 1 << 20]}, "tables": [[]], "table_of": 0}
    big.write_text(json.dumps(payload))
    out = tmp_path / "torus.json"
    argv = [str(big) if tok == "<big>" else str(out) if tok == "<out>" else tok for tok in argv]
    tracemalloc.start()
    try:
        assert_one_error_line(capsys, argv, f"torus needs at most {MAX_TORUS_CELLS} cells")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the argparse parser and the error line, no torus
    assert not out.exists()


# gen ksat --w 100000 --h 100000 used to start on 10^10 scope lists
@pytest.mark.parametrize(
    "sides, per_cell",
    [(["--w", "100000", "--h", "100000"], "1"), (["--w", "512", "--h", str(MAX_TORUS_CELLS // (512 * 3) + 1)], "2")],
)
def test_gen_ksat_past_the_vertex_cap_exits_one_before_building(tmp_path, capsys, sides, per_cell):
    out = tmp_path / "ksat.json"
    tracemalloc.start()
    try:
        argv = ["gen", "ksat", *sides, "--per-cell", per_cell, "--out", str(out)]
        assert_one_error_line(capsys, argv, f"grid k-SAT needs at most {MAX_TORUS_CELLS} vertices")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the argparse parsers and the error line, no grid
    assert not out.exists()


# gen ksat --w 700 --h 700 --radius 1400 used to start on ~2.4 * 10^11 window cells
def test_gen_ksat_past_the_window_cap_exits_one_before_building(tmp_path, capsys):
    out = tmp_path / "ksat.json"
    tracemalloc.start()
    try:
        argv = ["gen", "ksat", "--w", "700", "--h", "700", "--radius", "1400", "--out", str(out)]
        assert_one_error_line(capsys, argv, f"grid k-SAT copies at most {MAX_WINDOW_CELLS} window cells")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the argparse parsers and the error line, no grid
    assert not out.exists()


def test_stats_side_past_the_cell_cap_exits_one_while_parsing(capsys, monkeypatch):
    forbid_work(monkeypatch)
    argv = ["stats", "--sizes", "8,1025", "--repeat", "1"]
    assert_one_error_line(capsys, argv, "--sizes: ladder sizes must be <= 1024")


# gen torus --b 65536 used to write every cell's table of b constant tuples, ~2.4 MB per
# cell; the one shared table is written once, so the file's size does not grow with the torus.
# The files differ only in the digits of w and h (metadata and the torus field, twice each)
# and of the Delta stamp, which wrap-around lowers from 13 to 9 on a 3x3 torus
@pytest.mark.parametrize("small, large", [(3, 30), (5, 50)])
def test_gen_torus_file_size_does_not_grow_with_the_torus(tmp_path, capsys, small, large):
    sizes, deltas = [], []
    for side in (small, large):
        out = tmp_path / f"torus{side}.json"
        argv = ["gen", "torus", "--w", str(side), "--h", str(side), "--b", "1024", "--out", str(out)]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        sizes.append(out.stat().st_size)
        deltas.append(json.loads(out.read_text())["metadata"]["Delta"])
    digits = 4 * (len(str(large)) - len(str(small))) + len(str(deltas[1])) - len(str(deltas[0]))
    assert sizes[1] - sizes[0] == digits
    assert sizes[0] < 40_000  # 1,024 rows of 5 colours, written once


# argparse used to take any unique prefix of a flag: --m ran as --max-steps, and
# with --d gone, --d would have run as --delta
@pytest.mark.parametrize(
    "argv",
    [
        ["solve-det", "<p>", "--d", "5"],
        ["solve", "<p>", "--m", "1"],
        ["solve", "<p>", "--ver"],
        ["solve-det", "<p>", "--cl"],
    ],
)
def test_flags_are_taken_only_by_their_full_names(tmp_path, capsys, monkeypatch, argv):
    forbid_work(monkeypatch)
    argv = [str(tmp_path / "problem.json") if tok == "<p>" else tok for tok in argv]
    assert_one_error_line(capsys, argv, "unrecognized arguments")


# a KeyError can only be a bug, so main lets it through instead of reporting it as bad input
def test_main_lets_an_internal_key_error_through(monkeypatch):
    def broken():
        raise KeyError("bug")

    monkeypatch.setattr(cli, "oracle_checks", broken)
    with pytest.raises(KeyError):
        cli.main(["oracle", "--quiet"])


# a file nested past the recursion limit used to end in a RecursionError traceback
@pytest.mark.parametrize(
    "argv",
    [["solve", "<deep>"], ["solve-det", "<deep>"], ["verify", "<deep>", "<deep>"], ["verify", "<p>", "<deep>"]],
)
def test_deeply_nested_json_exits_one(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    path = write_problem(tmp_path, single_clause_problem())
    argv = [str(deep) if tok == "<deep>" else path if tok == "<p>" else tok for tok in argv]
    assert_one_error_line(capsys, argv, f"{deep}: JSON nested too deeply")


# a second key used to win: a violating colouring then a satisfying one printed "satisfies": true
def test_verify_refuses_a_repeated_key(tmp_path, capsys):
    path = write_problem(tmp_path, single_clause_problem())
    col_path = tmp_path / "twice.json"
    col_path.write_text('{"colouring": [0, 1], "colouring": [1, 0]}')
    assert_one_error_line(capsys, ["verify", path, str(col_path)], "key 'colouring' appears twice")


def test_verify_refuses_a_bare_list(tmp_path, capsys):
    # only the shape solve and solve-det write is read, even for a satisfying colouring
    path = write_problem(tmp_path, single_clause_problem())
    col_path = tmp_path / "bare.json"
    col_path.write_text("[1, 0]")
    assert_one_error_line(capsys, ["verify", path, str(col_path)], '{"colouring": [...]}')


# stats used to append its rows under whatever header the file already had
@pytest.mark.parametrize(
    "text",
    [b"tape_index,outcome,passes,reevals\r\n0,failed,1,0\r\n", b"torus-4x4,16,0\r\n", b"\n", b"\xff\x00"],
)
def test_stats_csv_refuses_a_foreign_header(tmp_path, capsys, monkeypatch, text):
    forbid_work(monkeypatch)
    csv_path = tmp_path / "results.csv"
    csv_path.write_bytes(text)
    argv = ["stats", "--sizes", "4", "--repeat", "1", "--csv", str(csv_path)]
    assert_one_error_line(capsys, argv, "--csv: ")
    assert csv_path.read_bytes() == text


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_zero(capsys, argv):
    assert_parsers_agree(argv)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage:")
    assert err == ""


# main builds only the command argv starts with; beyond every argv the tests above run,
# each command's --help, no command, unknown commands, tokens that name a command
# elsewhere in argv, `--`, `-` and help around a command, and one refused value of each
# ranged flag read as with every command built
@pytest.mark.parametrize(
    "argv",
    [
        *([c.name, "--help"] for c in cli.SUBCOMMANDS),
        [],
        ["--help"],
        ["nosuchcommand"],
        ["nosuchcommand", "solve", "p.json"],
        ["--quiet", "solve", "p.json"],
        ["solve-det", "solve", "--m", "1"],
        ["verify", "gen", "stats"],
        ["oracle", "solve"],
        ["solve", "p.json", "--R", "0"],
        ["solve", "p.json", "--max-steps", "0"],
        ["solve", "p.json", "--seed", "-1"],
        ["solve", "p.json", "--out", "<missing>"],
        ["solve-det", "p.json", "--R", "0"],
        ["solve-det", "p.json", "--delta", "0"],
        ["solve-det", "p.json", "--m", "0"],
        ["solve-det", "p.json", "--tape-cap", "0"],
        ["solve-det", "p.json", "--out", "<missing>"],
        ["solve-det", "p.json", "--csv", "<missing>"],
        ["stats", "--sizes", "2"],
        ["stats", "--repeat", "-1"],
        ["stats", "--seed", "-1"],
        ["stats", "--b", "1"],
        ["stats", "--R", "0"],
        ["stats", "--max-steps", "0"],
        ["stats", "--csv", "<missing>"],
        ["gen", "torus", "--seed", "-1", "--out", "t.json"],
        ["gen", "torus", "--w", "x", "--out", "t.json"],
        ["gen", "torus", "--out", "<missing>"],
        ["gen", "cube", "--out", "t.json"],
        ["--", "solve", "p.json"],
        ["-h", "solve"],
        ["-", "solve"],
        ["solve", "--", "p.json"],
        ["solve", "p.json", "extra"],
        ["solve", "-h", "p.json"],
        ["--help", "solve", "--help"],
    ],
)
def test_each_command_parses_as_with_every_flag_built(tmp_path, argv):
    assert_parsers_agree([str(tmp_path / "missing" / "x") if tok == "<missing>" else tok for tok in argv])


@pytest.mark.parametrize(
    "argv, built",
    [
        (["solve", "<missing>"], ["solve"]),
        (["--help"], [c.name for c in cli.SUBCOMMANDS]),
        ([], [c.name for c in cli.SUBCOMMANDS]),
        (["nosuchcommand"], [c.name for c in cli.SUBCOMMANDS]),
    ],
)
def test_main_builds_only_the_command_argv_starts_with(tmp_path, capsys, argv, built):
    names = []
    subcommand = cli._subcommand

    def spy(subs, c):
        names.append(c.name)
        return subcommand(subs, c)

    argv = [str(tmp_path / "missing.json") if tok == "<missing>" else tok for tok in argv]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_subcommand", spy)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    assert names == built
    assert code == (0 if argv == ["--help"] else cli.EXIT_ERROR)
    capsys.readouterr()
