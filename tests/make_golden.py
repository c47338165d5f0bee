"""Generate the golden stdout files for the command line.

Run from the repository root:

    PYTHONPATH=src python3 -m tests.make_golden

Writes one `tests/golden/<name>.stdout` per entry of COMMANDS, holding the
exact bytes `cli.main(argv)` prints on stdout.  Every command must exit 0;
`tests/test_cli.py` demands the same bytes and exit code on every run, so a
change to these outputs shows up as a failing test and a regenerated file.
"""

import contextlib
import io
import pathlib

from resample_forge import cli

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "oracle": ["oracle"],
}


def capture(argv: list) -> tuple:
    """Exit code and stdout of one in-process CLI call (stderr is left alone)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def main():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        code, stdout = capture(argv)
        if code != 0:
            raise SystemExit(f"{name}: {argv} exited {code}")
        path = GOLDEN_DIR / f"{name}.stdout"
        path.write_bytes(stdout.encode())
        print(f"wrote {len(stdout.encode())} bytes to {path}")


if __name__ == "__main__":
    main()
