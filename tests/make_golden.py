"""Generate the golden outputs of the command line.

Run from the repository root:

    PYTHONPATH=src python3 -m tests.make_golden

For each entry of COMMANDS it runs `cli.main(argv)` in-process, checks the
exit code against the expected one, and writes `tests/golden/<name>.stdout`
with the exact bytes printed on stdout, plus `tests/golden/<name>.<suffix>`
for each side file the command writes (see SIDE_FILES).  `tests/test_cli.py`
demands the same exit code and bytes on every run, so a change to these
outputs shows up as a failing test and a regenerated file.

The inputs are fixed files in `tests/golden/`, never regenerated here:
- `torus10.json`: `gen torus --w 10 --h 10 --out torus10.json`;
- `single_clause.json` and `unsat.json`: `tests.helpers.single_clause_problem`
  and `unsatisfiable_problem`, written by `instance_io.save_problem`;
- `zeros100.json`: the all-zero colouring of the torus, which violates
  every rule.
"""

import contextlib
import io
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

# name -> (argv, expected exit code)
COMMANDS = {
    "oracle": (["oracle"], 0),
    "solve_torus10": (["solve", TORUS10, "--seed", "7", "--quiet"], 0),
    "solve_torus10_classic": (["solve", TORUS10, "--classic", "--seed", "7", "--quiet"], 0),
    "solve_det_report": (["solve-det", TORUS10, "--quiet"], 0),
    "solve_det_solved": (
        ["solve-det", SINGLE_CLAUSE, "--classic", "--m", "2", "--csv", "<csv>", "--out", "<out>", "--quiet"],
        0,
    ),
    "solve_det_exhausted": (["solve-det", UNSAT, "--classic", "--m", "3", "--csv", "<csv>", "--quiet"], 4),
    "solve_det_infeasible": (["solve-det", UNSAT, "--classic", "--m", "20", "--quiet"], 3),
    "verify_violated": (["verify", TORUS10, _input("zeros100.json"), "--quiet"], 1),
}


def capture(argv: list) -> tuple:
    """Exit code, stdout and {suffix: bytes} of the side files of one in-process CLI call.

    stderr is left alone.  Side files go to a fresh temporary directory.
    """
    with tempfile.TemporaryDirectory() as workdir:
        paths = {tok: f"{workdir}/side.{SIDE_FILES[tok]}" for tok in argv if tok in SIDE_FILES}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([paths.get(tok, tok) for tok in argv])
        files = {SIDE_FILES[tok]: pathlib.Path(path).read_bytes() for tok, path in paths.items()}
    return code, out.getvalue(), files


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
