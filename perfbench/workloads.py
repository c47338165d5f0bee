"""The benchmark's four workloads: inputs built from a seed, one timed op, its check.

A workload builds every input in `setup` from the workload seed, runs one
unit of user work in `op` (the only timed call) and verifies that op's
output in `check`, outside the timed region.  Ops cycle through `kinds`
input shapes; the runner takes latency quantiles per kind and averages
them, so a figure does not depend on how many ops of each shape fit into
the measured time.

Package functions are always reached through their module (`cli.main`,
`mta_runner.run`, ...), so the traced run's wrappers see the benchmark's
own calls as well as the calls one package module makes into another.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass

from resample_forge import (
    cli,
    derand,
    graph_core,
    instance_io,
    landscape_lab,
    mta_runner,
    partitioner,
    rule_engine,
    tape,
)


def op_seed(seed: int, i: int) -> int:
    """Tape seed of op i: distinct per op and per workload seed, 64-bit."""
    return ((seed << 24) + i) & 0xFFFFFFFFFFFFFFFF


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`resample-forge ARGV` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def violate(p, colouring: list[int]) -> list[int]:
    """A copy of `colouring` that breaks the first active rule: the corrupted result."""
    bad = list(colouring)
    x = p.active_clauses()[0]
    for v, c in zip(p.graph.out_adj[x], p.rule.forbidden[x][0]):
        bad[v] = c
    return bad


class SolveLarge:
    """`solve FILE --seed S --verify --out F` on a 120x120 not-all-equal torus.

    Loading and partitioning the instance dominate each op; it is the only
    workload above FULL_HISTORY_LIMIT (n = 14,400), so the run keeps a
    windowed trace.  The side is kept at 120 so that a run holds 10 or more
    ops of about 1.4 s each.
    """

    name = "solve-large"
    kinds = 1

    def __init__(self, workdir: str, quick: bool):
        self.workdir = workdir
        self.side = 12 if quick else 120
        self.symbol_ops = 2 if quick else 10

    def setup(self, seed: int):
        p = instance_io.gen_torus_nae(self.side, self.side, 2)
        path = os.path.join(self.workdir, "torus.json")
        instance_io.save_problem(p, path)
        return {"seed": seed, "problem": p, "path": path, "out": os.path.join(self.workdir, "colouring.json")}

    def op(self, st, i: int):
        return run_cli(["solve", st["path"], "--seed", str(op_seed(st["seed"], i)), "--verify", "--out", st["out"]])

    def check(self, st, i: int, out, corrupt: bool):
        rc, stdout = out
        if rc != 0:
            return False, None
        with open(st["out"], encoding="utf-8") as fh:
            colouring = json.load(fh)["colouring"]
        os.remove(st["out"])
        p = st["problem"]
        if corrupt:
            colouring = violate(p, colouring)
        ok = len(colouring) == p.n and rule_engine.satisfies(p, colouring)
        return ok, json.loads(stdout)["symbols"]

    def symbols(self, st, per_op: list[int]) -> float:
        return mean(per_op[: self.symbol_ops])


class SeedSweep:
    """`run` + `satisfies` + `symbols_consumed` per seed on two prebuilt instances.

    Kind 0 is a 40x40 torus (5-cell self-reading scopes), kind 1 a grid k-SAT
    instance (5-ary clauses over rule-free variable cells), both with their
    sparse partitions built in setup.
    """

    name = "seed-sweep"
    kinds = 2

    def __init__(self, workdir: str, quick: bool):
        self.torus_side, self.ksat_side = (8, 6) if quick else (40, 32)
        self.symbol_ops = 8 if quick else 200

    def setup(self, seed: int):
        torus = instance_io.gen_torus_nae(self.torus_side, self.torus_side, 2)
        ksat = instance_io.gen_grid_ksat(self.ksat_side, self.ksat_side, 5, 2, 2, seed, b=2)
        cases = [(p, partitioner.sparse_partition(p.graph, 3)) for p in (torus, ksat)]
        return {"seed": seed, "cases": cases}

    def op(self, st, i: int):
        p, pi = st["cases"][i % 2]
        trace = mta_runner.run(p, pi, tape.RandomTape(op_seed(st["seed"], i), p.b))
        ok = rule_engine.satisfies(p, trace.final_colouring)
        return trace, ok, tape.symbols_consumed(trace, pi).count

    def check(self, st, i: int, out, corrupt: bool):
        trace, ok, symbols = out
        p, _ = st["cases"][i % 2]
        colouring = trace.final_colouring
        if corrupt:
            colouring = violate(p, colouring)
        ok = ok and trace.succeeded and rule_engine.satisfies(p, colouring)
        return ok, symbols

    def symbols(self, st, per_op: list[int]) -> float:
        return mean(per_op[: self.symbol_ops])


def unsat_cnf(num_vars: int, num_clauses: int, rng: random.Random):
    """Seeded unsatisfiable CNF-style instance from public constructors, b = 2.

    Clause vertices follow the variables, each reading min(2, num_vars)
    variables and forbidding one tuple.  The seed picks one scope whose every
    tuple is forbidden (so no retries are needed and set-up time does not
    depend on luck), the remaining clauses, and the clause order; brute force
    over every variable assignment then confirms that nothing satisfies it.
    """
    arity = min(2, num_vars)
    core = sorted(rng.sample(range(num_vars), arity))
    clauses = [(core, t) for t in itertools.product(range(2), repeat=arity)]
    while len(clauses) < num_clauses:
        scope = sorted(rng.sample(range(num_vars), arity))
        clauses.append((scope, tuple(rng.randrange(2) for _ in scope)))
    rng.shuffle(clauses)
    edges, rows = [], [[] for _ in range(num_vars)]
    for c, (scope, forbidden) in enumerate(clauses):
        edges += [(num_vars + c, v) for v in scope]
        rows.append([forbidden])
    g = graph_core.Digraph.from_edges(num_vars + len(clauses), edges)
    p = rule_engine.ColouringProblem(g, 2, rule_engine.LocalRule.from_lists(rows))
    p.validate()
    cells = [0] * len(clauses)
    if any(rule_engine.satisfies(p, list(a) + cells) for a in itertools.product(range(2), repeat=num_vars)):
        raise RuntimeError("tape-search instance is satisfiable")
    return p


class TapeSearch:
    """`solve-det FILE --classic --m M` on unsatisfiable instances: every tape fails.

    Kind 0 has 6 parts at m = 2, kind 1 has 12 parts at m = 1; both walk all
    2^12 tapes and exit 4.
    """

    name = "tape-search"
    kinds = 2
    symbol_ops = 0
    sample_tapes = 1024

    def __init__(self, workdir: str, quick: bool):
        self.workdir = workdir
        # (variables, clauses, m); parts = variables + clauses under --classic
        self.shapes = ((1, 2, 2), (2, 4, 1)) if quick else ((2, 4, 2), (3, 9, 1))

    def setup(self, seed: int):
        """Build and save the instances, and sample the symbols one tape attempt reads.

        The sample (evenly spaced tapes of each kind, run through
        run_finite_tape) is an input-derived figure taken here rather than
        after the run: without it, set-up would be two tiny file writes
        whose cost swings with the host's file-system load.
        """
        rng = random.Random(seed)
        cases = []
        symbols = []
        for kind, (num_vars, num_clauses, m) in enumerate(self.shapes):
            p = unsat_cnf(num_vars, num_clauses, rng)
            path = os.path.join(self.workdir, f"unsat{kind}.json")
            instance_io.save_problem(p, path)
            cases.append((p, path, m))
            symbols.append(tape_symbols(p, m, self.sample_tapes))
        return {"cases": cases, "symbols": mean(symbols)}

    def op(self, st, i: int):
        _, path, m = st["cases"][i % 2]
        return run_cli(["solve-det", path, "--classic", "--m", str(m)])

    def check(self, st, i: int, out, corrupt: bool):
        rc, stdout = out
        p, _, m = st["cases"][i % 2]
        tried = json.loads(stdout).get("tapes_tried") if rc == 4 else None
        if corrupt and tried is not None:
            tried -= 1
        return tried == p.b ** (p.n * m), None

    def symbols(self, st, per_op: list[int]) -> float:
        """Mean symbols one tape attempt consumes, over the tapes sampled in set-up."""
        return st["symbols"]


def tape_symbols(p, m: int, sample: int) -> float:
    """Mean symbols read by one classic tape attempt, over `sample` evenly spaced tapes."""
    pi = partitioner.singleton_partition(p.n)
    num_tapes = p.b ** (p.n * m)
    indices = range(0, num_tapes, max(1, num_tapes // sample))
    total = 0
    for index in indices:
        t = derand.decode_tape(index, pi.num_parts, m, p.b)
        derand.run_finite_tape(p, pi, t, index)
        total += sum(top + 1 for top in t.max_index_touched.values())
    return total / len(indices)


@dataclass
class WitnessRun:
    problem: object
    pi: object
    tape: object
    trace: object
    centre: int
    radius: int
    expected_used: list | None = None


class Witness:
    """Witness forest of a prebuilt run: build, recover, validate, restrict, ground.

    Each run is a seeded 16x16 torus whose cells read themselves and their 4
    neighbours and forbid 6 of the 32 tuples; kind 0 runs use singleton
    parts (restricted to radius-5 balls), kind 1 runs sparse_partition(g, 3)
    (radius-3 balls).  max_steps = 30 makes nearly every run stop on its
    budget at the same round count, so landscapes of one kind are alike.
    """

    name = "witness"
    kinds = 2
    max_steps = 30
    forbidden_per_cell = 6

    def __init__(self, workdir: str, quick: bool):
        self.side, self.runs_per_kind = (6, 2) if quick else (16, 64)
        self.symbol_ops = 2 * self.runs_per_kind

    def setup(self, seed: int):
        rng = random.Random(seed)
        g = instance_io.gen_torus_nae(self.side, self.side, 2).graph
        partitions = (partitioner.singleton_partition(g.n), partitioner.sparse_partition(g, 3))
        tuples = list(itertools.product(range(2), repeat=5))
        runs = []
        for r in range(2 * self.runs_per_kind):
            rows = [tuple(sorted(rng.sample(tuples, self.forbidden_per_cell))) for _ in range(g.n)]
            p = rule_engine.ColouringProblem(g, 2, rule_engine.LocalRule(rows))
            p.validate()
            pi = partitions[r % 2]
            t = tape.RandomTape(rng.getrandbits(64), 2)
            trace = mta_runner.run(p, pi, t, max_steps=self.max_steps)
            runs.append(WitnessRun(p, pi, t, trace, rng.randrange(g.n), 5 if r % 2 == 0 else 3))
        return {"runs": runs}

    def op(self, st, i: int):
        runs = st["runs"]
        run = runs[i % len(runs)]
        p, pi, trace = run.problem, run.pi, run.trace
        fl = landscape_lab.build_landscape(p, pi, trace, trace.rounds + 1)
        used = landscape_lab.used_of(p, fl)
        landscape_lab.validate_landscape(p, fl)
        centre = (run.centre + 97 * (i // len(runs))) % p.n
        subset = graph_core.ball(p.graph, centre, run.radius)
        q, _ = landscape_lab.restrict_problem(p, pi, subset)
        restricted = landscape_lab.restrict_landscape(p, pi, fl, subset)
        grounded = landscape_lab.ground(q, restricted)
        return used, q, restricted, grounded, landscape_lab.used_of(q, grounded)

    def check(self, st, i: int, out, corrupt: bool):
        used, q, restricted, grounded, used_grounded = out
        run = st["runs"][i % len(st["runs"])]
        if run.expected_used is None:
            expected, _ = tape.used_unused(run.trace, run.pi, run.tape, run.trace.rounds + 1)
            run.expected_used = [tuple(u) for u in expected]
        if corrupt:
            used = [(1 - used[0][0],) + used[0][1:]] + used[1:]
        ok = (
            used == run.expected_used
            and all(level == 0 for _, level in grounded.forest.roots())
            and len(grounded.forest.nodes) == len(restricted.forest.nodes)
            and used_grounded == landscape_lab.used_of(q, restricted)
        )
        return ok, tape.symbols_consumed(run.trace, run.pi).count

    def symbols(self, st, per_op: list[int]) -> float:
        return mean(per_op[: self.symbol_ops])


def mean(counts) -> float:
    """Mean of the known counts; a failed op has none, and a run of failed ops reads 0."""
    known = [c for c in counts if c is not None]
    return sum(known) / len(known) if known else 0.0


WORKLOADS = {w.name: w for w in (SolveLarge, SeedSweep, TapeSearch, Witness)}
