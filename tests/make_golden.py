"""Generate the golden outputs of the command line.

Run from the repository root:

    PYTHONPATH=src python3 -m tests.make_golden

For each entry of COMMANDS it runs `cli.main(argv)` in-process, inside a
fresh temporary directory, checks the exit code against the expected one, and
writes `tests/golden/<name>.stdout` with the exact bytes printed on stdout,
plus `tests/golden/<name>.<suffix>` for each side file the command writes (see
SIDE_FILES).  Every CSV column named `wall_ms` is blanked, both here and when
the test compares, because it holds a wall-clock timing.  A side file is named by a path relative to that directory, so a
command that prints its output path (`gen`) prints the same bytes wherever
the directory is.  `tests/test_cli.py`
demands the same exit code and bytes on every run, so a change to these
outputs shows up as a failing test and a regenerated file.

The inputs are fixed files in `tests/golden/`, never regenerated here:
- `torus10.json`: `gen torus --w 10 --h 10 --out torus10.json`, as written
  in schema 2;
- `single_clause.json` and `unsat.json`: `tests.helpers.single_clause_problem`
  and `unsatisfiable_problem`, written by `instance_io.save_problem` when it
  wrote schema 2;
- `zeros100.json`: the all-zero colouring of the torus, which violates
  every rule;
- `ksat6.json`: `gen ksat --w 6 --h 6 --seed 1 --out ksat6.json`, as
  written in schema 2;
- `torus10_schema3.json` and `ksat6_schema3.json`: the same two commands as
  `gen` writes them now, in schema 3, the torus by its sides;
- `torus40x6.json`: `gen torus --w 40 --h 6 --out torus40x6.json`, in schema
  3 only.  At the default r = 3 every radius-r ball wraps round its 6-row
  axis but no ball wraps round its 40-column one;
- `malformed.json`: a problem file whose one rule row has the wrong arity;
- `unsat_2x4.json` and `unsat_3x9.json`: the two unsatisfiable tape-search
  instances of the benchmark, `perfbench.workloads.unsat_cnf(2, 4, rng)` then
  `unsat_cnf(3, 9, rng)` with `rng = random.Random(7)`;
- `tiny1000.json`: `tests.test_acceptance._tiny_satisfiable(1000)`, the first
  instance of criterion 9;
- `colouring_repeated_key.json`: a colouring file for `single_clause.json`
  that gives its `colouring` key twice, a violating colouring then a
  satisfying one;
- `colouring_bare_list.json`: a satisfying colouring of `single_clause.json`
  as a bare JSON list, not the `{"colouring": [...]}` that the program writes;
- `random6_8x8.json`: `save_problem` of the tables of
  `tests.helpers.witness_rules_problem(8, 1)` on `instance_io.torus_graph(8, 8)`,
  the same scopes, so schema 3 with the torus by its sides and 64 distinct
  six-row tables, one per cell;
- `columns_8x8.json`: the colouring j mod 2 of its cell (i, j), which
  violates 7 of its rules.

The `gen_torus10` and `gen_ksat6` entries record the bytes of those two
commands, so their side files equal `torus10_schema3.json` and
`ksat6_schema3.json`.  `tests/test_cli.py` runs every entry that reads
`torus10.json` or `ksat6.json` on the schema-3 file too, and demands the same
exit code, stdout and side files.

Every problem input but those three is a schema-2 file, which the loader still
reads.  They were converted from their schema-1 forms once, by loading each with the
schema-1 reader and writing it with the schema-2 writer; each loads to the
same `b`, scopes, in-lists, rows and metadata as before.  `malformed.json` was
rewritten by hand in the same shape, keeping its one wrong-arity row.

`verify_solved` reads `solve_ksat6.out.json`, the colouring recorded by the
`solve_ksat6` entry before it, so that entry must stay first.
"""

import contextlib
import csv
import io
import os
import pathlib
import tempfile

from resample_forge import cli

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

# an argv token naming a side file -> the suffix its bytes are recorded under
SIDE_FILES = {"<csv>": "csv", "<out>": "out.json"}


def _input(name: str) -> str:
    return str(GOLDEN_DIR / name)


TORUS10 = _input("torus10.json")
SINGLE_CLAUSE = _input("single_clause.json")
UNSAT = _input("unsat.json")
KSAT6 = _input("ksat6.json")
MALFORMED = _input("malformed.json")
UNSAT_2X4 = _input("unsat_2x4.json")
UNSAT_3X9 = _input("unsat_3x9.json")
TINY1000 = _input("tiny1000.json")
TORUS40X6 = _input("torus40x6.json")
RANDOM6 = _input("random6_8x8.json")

# name -> (argv, expected exit code)
COMMANDS = {
    "oracle": (["oracle"], 0),
    "solve_torus10": (["solve", TORUS10, "--seed", "7", "--quiet"], 0),
    "solve_torus10_classic": (["solve", TORUS10, "--classic", "--seed", "7", "--quiet"], 0),
    "solve_torus10_seed1": (["solve", TORUS10, "--seed", "1", "--quiet"], 0),
    "solve_torus10_seed5": (["solve", TORUS10, "--seed", "5", "--quiet"], 0),
    "solve_torus10_budget": (["solve", TORUS10, "--seed", "5", "--max-steps", "1", "--quiet"], 2),
    # r = 3R = 6, so 2r >= 10 and every radius-r ball of the torus wraps round it
    "solve_torus10_R2": (["solve", TORUS10, "--R", "2", "--seed", "7", "--quiet"], 0),
    # 6 <= 2r rows, so every ball wraps round the short axis, and none round the long one
    "solve_torus40x6": (["solve", TORUS40X6, "--seed", "3", "--quiet"], 0),
    "solve_ksat6": (["solve", KSAT6, "--seed", "3", "--out", "<out>", "--quiet"], 0),
    "verify_solved": (["verify", KSAT6, _input("solve_ksat6.out.json"), "--quiet"], 0),
    "solve_det_report": (["solve-det", TORUS10, "--quiet"], 0),
    "solve_det_solved": (
        ["solve-det", SINGLE_CLAUSE, "--classic", "--m", "2", "--csv", "<csv>", "--out", "<out>", "--quiet"],
        0,
    ),
    "solve_det_exhausted": (["solve-det", UNSAT, "--classic", "--m", "3", "--csv", "<csv>", "--quiet"], 4),
    "solve_det_infeasible": (["solve-det", UNSAT, "--classic", "--m", "20", "--quiet"], 3),
    # the benchmark's two tape-search shapes: all 4,096 tapes fail, decided in 16 and 8 engine runs
    "solve_det_unsat_2x4": (["solve-det", UNSAT_2X4, "--classic", "--m", "2", "--quiet"], 4),
    "solve_det_unsat_3x9": (["solve-det", UNSAT_3X9, "--classic", "--m", "1", "--quiet"], 4),
    "solve_det_tiny1000": (
        ["solve-det", TINY1000, "--classic", "--m", "3", "--csv", "<csv>", "--out", "<out>", "--quiet"],
        0,
    ),
    "verify_violated": (["verify", TORUS10, _input("zeros100.json"), "--quiet"], 1),
    # a distinct random six-row table per cell: solved in 24 of its 30 rounds
    "solve_random6": (["solve", RANDOM6, "--seed", "5", "--max-steps", "30", "--quiet"], 0),
    "verify_random6": (["verify", RANDOM6, _input("columns_8x8.json"), "--quiet"], 1),
    "gen_torus10": (["gen", "torus", "--w", "10", "--h", "10", "--out", "<out>"], 0),
    "gen_ksat6": (["gen", "ksat", "--w", "6", "--h", "6", "--seed", "1", "--out", "<out>"], 0),
    # a 3x4 grid clips the radius-3 clause window at every edge
    "gen_ksat_clipped": (
        ["gen", "ksat", "--w", "3", "--h", "4", "--k", "3", "--radius", "3", "--out", "<out>"],
        0,
    ),
    "stats": (["stats", "--sizes", "4,5", "--repeat", "3", "--quiet"], 0),
    # sides 2r + 1 and 4r + 1 at r = 3: one and seven columns of each row clear of both side seams
    "stats_7_13": (["stats", "--sizes", "7,13", "--repeat", "3", "--quiet"], 0),
    "stats_csv": (["stats", "--sizes", "4,5", "--repeat", "3", "--csv", "<csv>"], 0),
    "solve_malformed": (["solve", MALFORMED, "--quiet"], 1),
    "solve_no_steps": (["solve", TORUS10, "--max-steps", "0", "--quiet"], 1),
    # a side file into a missing directory is refused before the solve: empty stdout, exit 1
    "solve_det_csv_missing_dir": (
        ["solve-det", SINGLE_CLAUSE, "--classic", "--m", "2", "--csv", "missing/x.csv", "--quiet"],
        1,
    ),
    "solve_out_missing_dir": (["solve", KSAT6, "--seed", "3", "--out", "missing/x.json", "--quiet"], 1),
    # colouring files are read only in the shape solve writes, and a repeated key is refused
    "verify_repeated_key": (["verify", SINGLE_CLAUSE, _input("colouring_repeated_key.json"), "--quiet"], 1),
    "verify_bare_list": (["verify", SINGLE_CLAUSE, _input("colouring_bare_list.json"), "--quiet"], 1),
}


def capture(argv: list) -> tuple:
    """Exit code, stdout and {suffix: bytes} of the side files of one in-process CLI call.

    stderr is left alone.  The command runs in a fresh temporary directory,
    and each side-file token becomes a relative name there.  A CSV column
    named `wall_ms` comes back blank.
    """
    paths = {tok: f"side.{SIDE_FILES[tok]}" for tok in argv if tok in SIDE_FILES}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([paths.get(tok, tok) for tok in argv])
            files = {SIDE_FILES[tok]: pathlib.Path(path).read_bytes() for tok, path in paths.items()}
        finally:
            os.chdir(cwd)
    if "csv" in files:
        files["csv"] = _blank_wall_ms(files["csv"])
    return code, out.getvalue(), files


def _blank_wall_ms(data: bytes) -> bytes:
    """The CSV bytes with every `wall_ms` value emptied; the rest is rewritten as read."""
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    if not rows or "wall_ms" not in rows[0]:
        return data
    blank = [i for i, name in enumerate(rows[0]) if name == "wall_ms"]
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    for k, row in enumerate(rows):
        writer.writerow(row if k == 0 else [("" if i in blank else v) for i, v in enumerate(row)])
    return out.getvalue().encode()


def main():
    for name, (argv, expected) in COMMANDS.items():
        code, stdout, files = capture(argv)
        if code != expected:
            raise SystemExit(f"{name}: {argv} exited {code}, expected {expected}")
        files["stdout"] = stdout.encode()
        for suffix, data in files.items():
            path = GOLDEN_DIR / f"{name}.{suffix}"
            path.write_bytes(data)
            print(f"wrote {len(data)} bytes to {path}")


if __name__ == "__main__":
    main()
