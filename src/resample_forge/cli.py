"""Command line front end: solve, derandomise, run experiments, self-check.

Machine-readable JSON goes to stdout.  Unless --quiet, stderr gets the same
report as a table, one `key  value` line per field: `solve` adds the part
count, `solve-det` prints its budget before the search and its solved
fields after it, and `stats` prints one line per ladder size.  `stats --csv`
appends one RESULTS_HEADER row per run, to a new or empty file or under that
header only.

The command table `SUBCOMMANDS` is the one place that knows each flag: an
entry gives a command's name, handler, help line and the function that adds
its flags.  `main` builds every command but only the flags of the one argv
names; `build_parser()` with no name builds them all.  A flag's range is
checked by its argparse type while parsing, so a bad value, or a side file
that cannot be written, is refused before any work; so is a `stats` seed
range past 2^64 - 1, the one check that spans two flags.  `verify` reads
only the shape solve writes, `{"colouring": [...]}`, and refuses a key
given twice.

Exit codes are stable: 0 solved or all checks passed, 1 error (a malformed
flag or file included), 2 randomized budget exhausted (by `solve`, or by any
`stats` run), 3 exhaustive search infeasible, 4 exhaustive search exhausted
without a solution.  Each flag is taken only by its full name.

Outputs are byte-identical across runs with the same flags; wall-clock
timings only ever land in the wall_ms CSV column, never on stdout.

The cyclic garbage collector is paused for each command.  Building and
solving an instance allocates hundreds of thousands of containers but almost
no reference cycles, and none that grow with the instance: only the argparse
parser's few hundred objects, which `main` frees with one young-generation
collection before the command runs.  The collector's automatic passes found
nothing else to free while taking about a sixth of a large solve.  Reference
counting still frees everything at once, and `main` restores the collector as
it found it.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import statistics
import sys
import time
from typing import Callable, NamedTuple

from .derand import DEFAULT_TAPE_CAP, ExhaustedError, InfeasibleError, derand_solve, theoretical_budget
from .graph_core import Digraph
from .instance_io import (
    MAX_TORUS_B,
    MAX_TORUS_CELLS,
    gen_grid_ksat,
    gen_torus_nae,
    load_json,
    load_problem,
    save_problem,
    stamps,
)
from .landscape_lab import count_delta_trees, count_grounded_forests, q_poly, q_value_at_rho
from .mta_runner import DEFAULT_MAX_STEPS, run
from .partitioner import singleton_partition, sparse_partition
from .rule_engine import bad_set, satisfies
from .tape import MASK64, RandomTape, symbols_consumed

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2
EXIT_INFEASIBLE = 3
EXIT_EXHAUSTED = 4

RESULTS_HEADER = ["instance", "n", "seed", "parts", "rounds", "max_h", "symbols", "bits", "wall_ms"]


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _table(report: dict, quiet: bool) -> None:
    if quiet:
        return
    width = max(map(len, report), default=0)
    for key, value in report.items():
        print(f"  {key:<{width}}  {value}", file=sys.stderr)


def _partition_for(p, args: argparse.Namespace):
    if args.classic:
        return singleton_partition(p.n)
    return sparse_partition(p.graph, 3 * args.R)


def _write_colouring(path: str, colouring: list[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"colouring": list(colouring)}) + "\n")  # dumps takes the C encoder


def _read_colouring(path: str) -> list[int]:
    """The colouring of a file shaped as `_write_colouring` writes it; a key given twice is refused."""
    payload = load_json(path)
    colouring = payload.get("colouring") if isinstance(payload, dict) else None
    # bool is an int subclass, so JSON true/false are rejected by exact type
    if not isinstance(colouring, list) or not all(type(v) is int for v in colouring):
        raise ValueError(f"{path}: expected {{\"colouring\": [...]}} holding a list of ints")
    return colouring


def _run_summary(trace, pi) -> dict:
    """The rounds, max_h, symbols and bits of one run, as `solve` and each `stats` row report them."""
    report = symbols_consumed(trace, pi)
    return {
        "rounds": trace.rounds,
        "max_h": max(trace.h) if trace.h else 0,
        "symbols": report.count,
        "bits": round(report.bits, 3),
    }


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args: argparse.Namespace) -> int:
    p = load_problem(args.problem)
    pi = _partition_for(p, args)
    tape = RandomTape(args.seed, p.b)
    trace = run(p, pi, tape, max_steps=args.max_steps)
    summary = {"status": trace.status, **_run_summary(trace, pi)}
    _emit(summary)
    _table({**summary, "parts": pi.num_parts}, args.quiet)
    if not trace.succeeded:
        return EXIT_BUDGET
    final = trace.final_colouring
    if args.verify and not satisfies(p, final):
        print("error: run reported success but the colouring is violated", file=sys.stderr)
        return EXIT_ERROR
    if args.out:
        _write_colouring(args.out, final)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve-det


def cmd_solve_det(args: argparse.Namespace) -> int:
    p = load_problem(args.problem)
    pi = _partition_for(p, args)
    try:
        budget = theoretical_budget(p, pi, args.delta, args.tape_cap)
        payload = {
            "k_log": round(budget.k_log, 6),
            "m_theoretical": budget.m,
            "num_tapes_theoretical": budget.num_tapes,
            "infeasible": budget.infeasible,
        }
    except ValueError:
        if args.m is None:
            raise
        # with a tape length given, a budget past the float range is only a report;
        # unenumerable, it is infeasible, as whenever num_tapes is None
        payload = {"k_log": None, "m_theoretical": None, "num_tapes_theoretical": None, "infeasible": True}
    _table(payload, args.quiet)
    if args.m is None:
        payload["status"] = "report_only"
        _emit(payload)
        return EXIT_OK

    attempts: list | None = [] if args.csv else None
    try:
        winner = derand_solve(p, pi, args.m, args.tape_cap, attempts)
    except InfeasibleError as exc:
        payload["status"] = "infeasible"
        payload["error"] = str(exc)
        _emit(payload)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ExhaustedError as exc:
        payload["status"] = "exhausted"
        payload["error"] = str(exc)
        payload["tapes_tried"] = exc.tapes_tried
        _emit(payload)
        _write_attempts(args.csv, attempts)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED

    solved = {
        "status": "solved",
        "m_used": args.m,
        "tape_index": winner.tape_index,
        "tapes_tried": winner.tape_index + 1,  # the search runs in index order from 0
        "passes": winner.passes,
        "reevals": winner.reevals,
    }
    _emit({**payload, **solved})
    _table(solved, args.quiet)
    if args.out:
        _write_colouring(args.out, winner.colouring)
    _write_attempts(args.csv, attempts)
    return EXIT_OK


def _write_attempts(path: str | None, attempts: list | None) -> None:
    if not path:
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tape_index", "outcome", "passes", "reevals"])
        for a in attempts:
            writer.writerow([a.tape_index, a.outcome, a.passes, a.reevals])


# ---------------------------------------------------------------------------
# stats


def _trials(side: int, args: argparse.Namespace) -> tuple[list[dict], int]:
    """One RESULTS_HEADER row per seeded run on one torus, built and partitioned once, and how many hit max_steps."""
    p = gen_torus_nae(side, side, args.b)
    pi = _partition_for(p, args)
    rows = []
    stopped = 0
    for seed in range(args.seed, args.seed + args.repeat):
        t0 = time.perf_counter()
        trace = run(p, pi, RandomTape(seed, p.b), max_steps=args.max_steps)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        stopped += not trace.succeeded
        row = {"instance": f"torus-{side}x{side}", "n": p.n, "seed": seed, "parts": pi.num_parts}
        rows.append({**row, **_run_summary(trace, pi), "wall_ms": round(wall_ms, 3)})
    return rows, stopped


def tail_table(max_h_values: list[int]) -> dict[int, float]:
    """Empirical Pr(max h >= m) for m = 1..max observed; nonincreasing in m."""
    total = len(max_h_values)
    if total == 0:
        return {}
    top = max(max_h_values)
    return {
        m: sum(1 for v in max_h_values if v >= m) / total
        for m in range(1, top + 1)
    }


def decay_ratio(tail: dict[int, float]) -> float | None:
    """Least-squares slope of log Pr over the nonzero support, as a ratio.

    A value of 0.5 means each extra unit of m halves the tail mass.  None when
    fewer than two support points exist.
    """
    points = [(m, math.log(p)) for m, p in sorted(tail.items()) if p > 0]
    if len(points) < 2:
        return None
    return math.exp(statistics.linear_regression(*zip(*points)).slope)  # the m are distinct


def cmd_stats(args: argparse.Namespace) -> int:
    if args.seed + args.repeat - 1 > MASK64:
        raise ValueError(f"seeds {args.seed}..{args.seed + args.repeat - 1} do not all fit in 64 bits")
    rows: list[dict] = []
    per_size: dict[str, dict] = {}
    stopped: dict[int, int] = {}  # per side, the runs that ran out of steps
    sides = sorted(args.sizes) if args.repeat else []  # no runs, so no torus to build
    for side in sides:
        batch, stopped[side] = _trials(side, args)
        rows += batch
        per_size[batch[0]["instance"]] = {
            "trials": len(batch),
            "n": batch[0]["n"],
            "parts": batch[0]["parts"],
            "mean_rounds": round(sum(r["rounds"] for r in batch) / len(batch), 6),
            "mean_max_h": round(sum(r["max_h"] for r in batch) / len(batch), 6),
            "mean_symbols": round(sum(r["symbols"] for r in batch) / len(batch), 6),
        }
    if args.csv:  # _results_csv has checked that the file is new, empty or under RESULTS_HEADER
        with open(args.csv, "a", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, RESULTS_HEADER)
            if fh.tell() == 0:  # append mode opens at the end: the file is new or empty
                writer.writeheader()
            writer.writerows(rows)

    tail = tail_table([r["max_h"] for r in rows])
    ratio = decay_ratio(tail)
    payload = {
        "per_size": per_size,
        "tail": {str(m): round(p, 6) for m, p in sorted(tail.items())},
        "decay_ratio": None if ratio is None else round(ratio, 6),
        "trials": len(rows),
    }
    _emit(payload)
    report = {
        name: f"mean symbols {info['mean_symbols']}, mean max h {info['mean_max_h']}"
        for name, info in per_size.items()
    }
    _table({**report, "tail decay ratio": payload["decay_ratio"]}, args.quiet)
    cut = ", ".join(f"{k} of {args.repeat} runs at size {side}" for side, k in stopped.items() if k)
    if cut:  # their rows count only the rounds run before the budget ran out
        print(f"budget exhausted at --max-steps {args.max_steps}: {cut}", file=sys.stderr)
    return EXIT_BUDGET if cut else EXIT_OK


# ---------------------------------------------------------------------------
# oracle


def _oracle_graphs() -> list[tuple[str, Digraph]]:
    return [
        ("loop1", Digraph.from_scopes([[0]])),
        ("pair", Digraph.from_scopes([[0, 1], [1]])),
        ("path3", Digraph.from_scopes([[0], [0, 1], [1, 2]])),
        ("cycle3", Digraph.from_scopes([[0, 1], [1, 2], [0, 2]])),
    ]


def oracle_checks() -> list[tuple[str, bool]]:
    """Counting-bound grid: each (line, ok) pair is an exact count (closed form, polynomial or DP) vs its bound."""
    rows: list[tuple[str, bool]] = []

    def check(lhs: str, rhs: str, ok: bool) -> None:
        rows.append((f"{lhs} <= {rhs} : {'PASS' if ok else 'FAIL'}", ok))

    for delta in range(1, 5):
        for i in range(0, 7):
            value = count_delta_trees(delta, i)
            bound = (math.e * delta) ** i
            check(f"P_{i}(delta={delta}) = {value}", f"(e*{delta})^{i} ~= {round(bound, 3)}", value <= bound)
    for delta in range(2, 5):
        cap = delta / (delta - 1)
        for i in range(0, 9):
            q = q_value_at_rho(delta, i)
            check(f"Q_{i}(rho; delta={delta}) = {round(float(q), 6)}", f"{round(cap, 6)}", q <= cap)
    for delta in (2, 3):
        coeffs = q_poly(delta, 4)
        ok = all(
            coeffs[nn] == count_delta_trees(delta, nn)
            for nn in range(0, min(5, len(coeffs)))
        )
        check(f"Q_4 coefficients (delta={delta}) = {coeffs[: min(5, len(coeffs))]}", "tree counts", ok)
    for name, g in _oracle_graphs():
        big = max(1, g.big_delta())
        for m, value in enumerate(count_grounded_forests(g, 3)):
            bound = (m + 1) ** (g.n - 1) * (math.e * big) ** m
            check(f"forests({name}, m={m}) = {value}", f"(m+1)^(n-1)*(e*Delta)^m ~= {round(bound, 3)}", value <= bound)
    return rows


def cmd_oracle(args: argparse.Namespace) -> int:
    rows = oracle_checks()
    for line, _ in rows:
        print(line)
    passed = sum(ok for _, ok in rows)
    all_pass = passed == len(rows)
    print(f"{passed}/{len(rows)} bounds hold")
    if not args.quiet:
        print("all pass" if all_pass else "FAILURES PRESENT", file=sys.stderr)
    return EXIT_OK if all_pass else EXIT_ERROR


# ---------------------------------------------------------------------------
# gen / verify


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "torus":
        p = gen_torus_nae(args.w, args.h, args.b)
    else:
        p = gen_grid_ksat(
            args.w,
            args.h,
            args.k,
            args.radius,
            args.per_cell,
            args.seed,
            b=args.b,
        )
    p.metadata.update(stamps(p))
    save_problem(p, args.out)
    _emit({"path": args.out, "kind": args.kind, "n": p.n, "b": p.b, "metadata": p.metadata})
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    p = load_problem(args.problem)
    colouring = _read_colouring(args.colouring)
    if len(colouring) != p.n:
        raise ValueError(f"colouring has {len(colouring)} entries, problem has {p.n}")
    for x, c in enumerate(colouring):
        if not 0 <= c < p.b:
            raise ValueError(f"vertex {x}: colour {c} out of range 0..{p.b - 1}")
    bad = bad_set(p, colouring)
    _emit({"satisfies": not bad, "violated": bad[:10], "violated_count": len(bad)})
    return EXIT_OK if not bad else EXIT_ERROR


# ---------------------------------------------------------------------------
# parser / dispatch


def _at_least(low: int, name: str, high: int | None = None):
    """The argparse type of a ranged int flag; argparse prefixes a refusal with `argument --flag: `."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"{name} must be <= {high}")
        return value

    return parse


def _positive_float(raw: str) -> float:
    """The `solve-det --delta` type: a positive, finite float."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("delta must be positive and finite")
    return value


def _int_list(raw: str) -> tuple[int, ...]:
    """The `stats --sizes` ladder: a nonempty comma list of distinct torus sides, each >= 3 and within the torus cap."""
    try:
        sizes = tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma list of ints: {raw!r}") from exc
    if not sizes:
        raise argparse.ArgumentTypeError("ladder sizes must not be empty")
    if min(sizes) < 3:
        raise argparse.ArgumentTypeError("ladder sizes must be >= 3")
    if max(sizes) ** 2 > MAX_TORUS_CELLS:
        raise argparse.ArgumentTypeError(f"ladder sizes must be <= {math.isqrt(MAX_TORUS_CELLS)}")
    if len(set(sizes)) != len(sizes):
        raise argparse.ArgumentTypeError("ladder sizes must not repeat")
    return sizes


def _side_file(path: str) -> str:
    """An --out or --csv path; the file is written after the work, so its place is checked before."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise argparse.ArgumentTypeError(f"{path}: no such directory")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path}: is a directory")
    return path


def _results_csv(path: str) -> str:
    """The `stats --csv` path: rows are appended only to a missing or empty file or under RESULTS_HEADER."""
    _side_file(path)
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
    except FileNotFoundError:
        return path
    header = ",".join(RESULTS_HEADER)
    if first and first.rstrip(b"\r\n") != header.encode():
        raise argparse.ArgumentTypeError(f"{path}: first row is not the stats header {header}")
    return path


class _Parser(argparse.ArgumentParser):
    """A malformed command line raises ValueError, so `main` reports it as exit 1."""

    def error(self, message: str):
        raise ValueError(message)


def _add_partition(s: argparse.ArgumentParser) -> None:
    s.add_argument("--R", type=_at_least(1, "R"), default=1, help="sparsity radius parameter (default 1)")
    s.add_argument("--classic", action="store_true", help="singleton partition (no sharing)")


def _add_max_steps(s: argparse.ArgumentParser) -> None:
    s.add_argument("--max-steps", type=_at_least(1, "max-steps"), default=DEFAULT_MAX_STEPS, dest="max_steps")


def _solve_args(s: argparse.ArgumentParser) -> None:
    s.add_argument("problem", help="problem JSON path")
    s.add_argument("--seed", type=_at_least(0, "seed", high=MASK64), default=0, help="tape seed (default 0)")
    _add_partition(s)
    _add_max_steps(s)
    s.add_argument("--out", type=_side_file, help="write the satisfying colouring here on success")
    s.add_argument("--verify", action="store_true", help="re-check the output colouring")


def _solve_det_args(s: argparse.ArgumentParser) -> None:
    s.add_argument("problem")
    _add_partition(s)
    s.add_argument("--delta", type=_positive_float, default=1.0, help="slack exponent (default 1)")
    s.add_argument("--m", type=_at_least(1, "m"), default=None, help="tape rounds; omit to only report the budget")
    s.add_argument("--tape-cap", type=_at_least(1, "tape-cap"), default=DEFAULT_TAPE_CAP, dest="tape_cap")
    s.add_argument("--out", type=_side_file, help="write the colouring here on success")
    s.add_argument("--csv", type=_side_file, help="write pass/reeval stats here, one row per engine run")


def _stats_args(s: argparse.ArgumentParser) -> None:
    s.add_argument("--sizes", type=_int_list, default=(8, 12), help="comma list of torus sides")
    s.add_argument("--repeat", type=_at_least(0, "repeat"), default=20, help="trials per size (default 20)")
    s.add_argument("--seed", type=_at_least(0, "seed", high=MASK64), default=0, help="base seed (default 0)")
    # the torus holds a table of b constant tuples, so b is capped as gen_torus_nae caps it
    s.add_argument("--b", type=_at_least(2, "b", high=MAX_TORUS_B), default=2, help="colour count (default 2)")
    _add_partition(s)
    _add_max_steps(s)
    s.add_argument("--csv", type=_results_csv, help="append one row per run here")


def _no_args(s: argparse.ArgumentParser) -> None:
    pass


def _gen_args(s: argparse.ArgumentParser) -> None:
    # gen leaves --b and the sides to its generators
    s.add_argument("kind", choices=("torus", "ksat"))
    s.add_argument("--w", type=int, default=10)
    s.add_argument("--h", type=int, default=10)
    s.add_argument("--b", type=int, default=2)
    s.add_argument("--k", type=int, default=5, help="ksat: literals per clause")
    s.add_argument("--radius", type=int, default=2, help="ksat: clause scope radius")
    s.add_argument("--per-cell", type=int, default=1, dest="per_cell", help="ksat: clauses per cell")
    s.add_argument("--seed", type=_at_least(0, "seed", high=MASK64), default=0, help="ksat: generator seed")
    s.add_argument("--out", type=_side_file, required=True, help="output problem JSON path")


def _verify_args(s: argparse.ArgumentParser) -> None:
    s.add_argument("problem")
    s.add_argument("colouring")


class Command(NamedTuple):
    name: str
    handler: Callable[[argparse.Namespace], int]
    help: str
    add_args: Callable[[argparse.ArgumentParser], None]


# every subcommand once, in the order `--help` lists them
SUBCOMMANDS = (
    Command("solve", cmd_solve, "randomized shared-tape solve of a problem file", _solve_args),
    Command("solve-det", cmd_solve_det, "exhaustive finite-tape search", _solve_det_args),
    Command("stats", cmd_stats, "seeded trial ladder over torus instances", _stats_args),
    Command("oracle", cmd_oracle, "run the counting-bound self-checks", _no_args),
    Command("gen", cmd_gen, "generate an instance file", _gen_args),
    Command("verify", cmd_verify, "check a colouring file against a problem file", _verify_args),
)
_NAMES = frozenset(c.name for c in SUBCOMMANDS)


def _subcommand(subs, c: Command) -> argparse.ArgumentParser:
    s = subs.add_parser(c.name, help=c.help, allow_abbrev=False)
    s.set_defaults(handler=c.handler)
    s.add_argument("--quiet", action="store_true", help="suppress the stderr table")
    return s


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand, with its own flags only for `command`, or for all of them when it is None."""
    parser = _Parser(
        prog="resample-forge",
        allow_abbrev=False,
        description="shared-tape resampling solver and its verification oracles",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for c in SUBCOMMANDS:
        s = _subcommand(subs, c)
        if command is None or command == c.name:
            c.add_args(s)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # no top-level option takes a value, so the subcommand argparse picks is argv's first
    # positional; when that names a command it is the first token that does, and when it
    # does not, every command is still registered, so argparse refuses it the same way
    command = next((tok for tok in argv if tok in _NAMES), None)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser(command).parse_args(argv)
        # the parser is now cyclic garbage, all of it in the youngest generation:
        # free it before the command runs rather than hold it until the end
        gc.collect(0)
        return args.handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
