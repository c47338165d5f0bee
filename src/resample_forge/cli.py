"""Command line front end: solve, derandomise, run experiments, self-check.

Machine-readable JSON goes to stdout; a small human table goes to stderr
unless --quiet.  Exit codes are stable: 0 solved or all checks passed,
1 error (a malformed flag included), 2 randomized budget exhausted,
3 exhaustive search infeasible, 4 exhaustive search exhausted without a
solution.

Outputs are byte-identical across runs with the same flags; wall-clock
timings only ever land in the wall_ms CSV column, never on stdout.

The cyclic garbage collector is paused for each command.  Building and
solving an instance allocates hundreds of thousands of containers but almost
no reference cycles, and none that grow with the instance: the argparse
parser's few hundred objects, which `main` frees with one young-generation
collection before the command runs, and a few dozen from json's indenting
encoder in `gen`.  The collector's automatic passes found nothing else to
free while taking about a sixth of a large solve.  Reference counting still frees everything at once, and `main`
restores the collector as it found it.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import sys
import time

from .derand import (
    DEFAULT_TAPE_CAP,
    ExhaustedError,
    InfeasibleError,
    derand_solve,
    theoretical_budget,
)
from .graph_core import Digraph, build_rel
from .instance_io import (
    ExperimentRecord,
    append_results,
    gen_grid_ksat,
    gen_torus_nae,
    load_problem,
    save_problem,
)
from .landscape_lab import (
    count_delta_trees,
    count_grounded_forests,
    q_poly,
    q_value_at_rho,
)
from .mta_runner import DEFAULT_MAX_STEPS, run
from .partitioner import singleton_partition, sparse_partition
from .rule_engine import bad_set, satisfies
from .tape import RandomTape, symbols_consumed

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2
EXIT_INFEASIBLE = 3
EXIT_EXHAUSTED = 4


def _check_args(args: argparse.Namespace) -> None:
    """Reject out-of-range option values before any work starts."""
    if getattr(args, "R", 1) < 1:
        raise ValueError("R must be >= 1")
    if getattr(args, "max_steps", 1) < 1:
        raise ValueError("max-steps must be >= 1")
    if getattr(args, "repeat", 0) < 0:
        raise ValueError("repeat must be >= 0")
    if getattr(args, "m", None) is not None and args.m < 1:
        raise ValueError("m must be >= 1")
    if getattr(args, "tape_cap", 1) < 1:
        raise ValueError("tape-cap must be >= 1")
    if args.subcommand == "stats":  # gen leaves --b and the sides to its generators
        if args.b < 2:
            raise ValueError("b must be >= 2")
        if not args.sizes:
            raise ValueError("ladder sizes must not be empty")
        if any(s < 3 for s in args.sizes):
            raise ValueError("ladder sizes must be >= 3")
        if len(set(args.sizes)) != len(args.sizes):
            raise ValueError("ladder sizes must not repeat")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _table(rows: list[tuple[str, object]], quiet: bool) -> None:
    if quiet:
        return
    width = max((len(k) for k, _ in rows), default=0)
    for key, value in rows:
        print(f"  {key:<{width}}  {value}", file=sys.stderr)


def _partition_for(p, args: argparse.Namespace):
    if args.classic:
        return singleton_partition(p.n)
    return sparse_partition(p.graph, 3 * args.R)


def _write_colouring(path: str, colouring: list[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"colouring": list(colouring)}) + "\n")  # dumps takes the C encoder


def _read_colouring(path: str) -> list[int]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        payload = payload.get("colouring")
    # bool is an int subclass, so JSON true/false are rejected by exact type
    if not isinstance(payload, list) or not all(type(v) is int for v in payload):
        raise ValueError(f"{path}: expected a JSON list of ints or {{'colouring': [...]}}")
    return payload


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args: argparse.Namespace) -> int:
    p = load_problem(args.problem)
    pi = _partition_for(p, args)
    tape = RandomTape(args.seed, p.b)
    trace = run(p, pi, tape, max_steps=args.max_steps)
    report = symbols_consumed(trace, pi)
    summary = {
        "status": trace.status,
        "rounds": trace.rounds,
        "max_h": max(trace.h) if trace.h else 0,
        "symbols": report.count,
        "bits": round(report.bits, 3),
    }
    _emit(summary)
    _table(
        [
            ("status", trace.status),
            ("parts", pi.num_parts),
            ("rounds", trace.rounds),
            ("max h", summary["max_h"]),
            ("symbols", report.count),
            ("bits", summary["bits"]),
        ],
        args.quiet,
    )
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
    budget = theoretical_budget(p, pi, args.delta, args.d, args.tape_cap)
    payload = {
        "k_log": round(budget.k_log, 6),
        "m_theoretical": budget.m,
        "num_tapes_theoretical": budget.num_tapes,
        "infeasible": budget.infeasible,
    }
    _table(
        [
            ("ln K", payload["k_log"]),
            ("theoretical m", budget.m),
            ("theoretical tapes", "unenumerable" if budget.num_tapes is None else budget.num_tapes),
            ("feasible under cap", not budget.infeasible),
        ],
        args.quiet,
    )
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

    tapes_tried = winner.tape_index + 1  # the search runs in index order from 0
    payload.update(
        {
            "status": "solved",
            "m_used": args.m,
            "tape_index": winner.tape_index,
            "tapes_tried": tapes_tried,
            "passes": winner.passes,
            "reevals": winner.reevals,
        }
    )
    _emit(payload)
    _table(
        [
            ("winning tape", winner.tape_index),
            ("tapes tried", tapes_tried),
            ("passes", winner.passes),
            ("rule evaluations", winner.reevals),
        ],
        args.quiet,
    )
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


def _trials(side: int, args: argparse.Namespace) -> list[ExperimentRecord]:
    """`args.repeat` seeded runs on one torus, built and partitioned once."""
    p = gen_torus_nae(side, side, args.b)
    pi = _partition_for(p, args)
    records = []
    for seed in range(args.seed, args.seed + args.repeat):
        t0 = time.perf_counter()
        trace = run(p, pi, RandomTape(seed, p.b), max_steps=args.max_steps)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        report = symbols_consumed(trace, pi)
        records.append(
            ExperimentRecord(
                instance=f"torus-{side}x{side}",
                n=p.n,
                seed=seed,
                parts=pi.num_parts,
                rounds=trace.rounds,
                max_h=max(trace.h) if trace.h else 0,
                symbols=report.count,
                bits=report.bits,
                wall_ms=wall_ms,
            )
        )
    return records


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
    xs = [m for m, _ in points]
    ys = [y for _, y in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    denom = sum((x - mean_x) ** 2 for x in xs)
    if denom == 0:
        return None
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denom
    return math.exp(slope)


def cmd_stats(args: argparse.Namespace) -> int:
    records = [r for side in args.sizes for r in _trials(side, args)] if args.repeat else []
    records.sort(key=lambda r: (r.n, r.instance, r.seed))
    if args.csv:
        append_results(args.csv, records)

    per_size: dict[str, dict] = {}
    for side in sorted(args.sizes):
        name = f"torus-{side}x{side}"
        batch = [r for r in records if r.instance == name]
        if not batch:
            continue
        per_size[name] = {
            "trials": len(batch),
            "n": batch[0].n,
            "parts": batch[0].parts,
            "mean_rounds": round(sum(r.rounds for r in batch) / len(batch), 6),
            "mean_max_h": round(sum(r.max_h for r in batch) / len(batch), 6),
            "mean_symbols": round(sum(r.symbols for r in batch) / len(batch), 6),
        }
    tail = tail_table([r.max_h for r in records])
    ratio = decay_ratio(tail)
    payload = {
        "per_size": per_size,
        "tail": {str(m): round(p, 6) for m, p in sorted(tail.items())},
        "decay_ratio": None if ratio is None else round(ratio, 6),
        "trials": len(records),
    }
    _emit(payload)
    rows: list[tuple[str, object]] = [
        (name, f"mean symbols {info['mean_symbols']}, mean max h {info['mean_max_h']}")
        for name, info in per_size.items()
    ]
    rows.append(("tail decay ratio", payload["decay_ratio"]))
    _table(rows, args.quiet)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle


def _oracle_graphs() -> list[tuple[str, Digraph]]:
    return [
        ("loop1", Digraph.from_edges(1, [(0, 0)])),
        ("pair", Digraph.from_edges(2, [(0, 0), (0, 1), (1, 1)])),
        ("path3", Digraph.from_edges(3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])),
        ("cycle3", Digraph.from_edges(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])),
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
        big = max(1, build_rel(g).maxdeg())
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


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--quiet", action="store_true", help="suppress the stderr table")


class _Parser(argparse.ArgumentParser):
    """A malformed command line raises ValueError, so `main` reports it as exit 1."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="resample-forge",
        description="shared-tape resampling solver and its verification oracles",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    s = subs.add_parser("solve", help="randomized shared-tape solve of a problem file")
    s.add_argument("problem", help="problem JSON path")
    s.add_argument("--seed", type=int, default=0, help="tape seed (default 0)")
    s.add_argument("--R", type=int, default=1, help="sparsity radius parameter (default 1)")
    s.add_argument("--classic", action="store_true", help="singleton partition (no sharing)")
    s.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS, dest="max_steps")
    s.add_argument("--out", help="write the satisfying colouring here on success")
    s.add_argument("--verify", action="store_true", help="re-check the output colouring")
    _add_common(s)

    s = subs.add_parser("solve-det", help="exhaustive finite-tape search")
    s.add_argument("problem")
    s.add_argument("--R", type=int, default=1)
    s.add_argument("--classic", action="store_true")
    s.add_argument("--delta", type=float, default=1.0, help="slack exponent (default 1)")
    s.add_argument("--d", type=int, default=None, help="degree bound override")
    s.add_argument("--m", type=int, default=None, help="tape rounds; omit to only report the budget")
    s.add_argument("--tape-cap", type=int, default=DEFAULT_TAPE_CAP, dest="tape_cap")
    s.add_argument("--out", help="write the colouring here on success")
    s.add_argument("--csv", help="write per-tape pass/reeval stats here")
    _add_common(s)

    s = subs.add_parser("stats", help="seeded trial ladder over torus instances")
    s.add_argument("--sizes", type=_int_list, default=(8, 12), help="comma list of torus sides")
    s.add_argument("--repeat", type=int, default=20, help="trials per size (default 20)")
    s.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    s.add_argument("--b", type=int, default=2, help="colour count (default 2)")
    s.add_argument("--R", type=int, default=1)
    s.add_argument("--classic", action="store_true")
    s.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS, dest="max_steps")
    s.add_argument("--csv", help="append experiment records here")
    _add_common(s)

    s = subs.add_parser("oracle", help="run the counting-bound self-checks")
    _add_common(s)

    s = subs.add_parser("gen", help="generate an instance file")
    s.add_argument("kind", choices=("torus", "ksat"))
    s.add_argument("--w", type=int, default=10)
    s.add_argument("--h", type=int, default=10)
    s.add_argument("--b", type=int, default=2)
    s.add_argument("--k", type=int, default=5, help="ksat: literals per clause")
    s.add_argument("--radius", type=int, default=2, help="ksat: clause scope radius")
    s.add_argument("--per-cell", type=int, default=1, dest="per_cell", help="ksat: clauses per cell")
    s.add_argument("--seed", type=int, default=0, help="ksat: generator seed")
    s.add_argument("--out", required=True, help="output problem JSON path")
    _add_common(s)

    s = subs.add_parser("verify", help="check a colouring file against a problem file")
    s.add_argument("problem")
    s.add_argument("colouring")
    _add_common(s)

    return parser


def _int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma list of ints: {raw!r}") from exc


def main(argv: list[str] | None = None) -> int:
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        # the parser is now cyclic garbage, all of it in the youngest generation:
        # free it before the command runs rather than hold it until the end
        gc.collect(0)
        handler = {
            "solve": cmd_solve,
            "solve-det": cmd_solve_det,
            "stats": cmd_stats,
            "oracle": cmd_oracle,
            "gen": cmd_gen,
            "verify": cmd_verify,
        }[args.subcommand]
        _check_args(args)
        return handler(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
