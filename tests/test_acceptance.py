"""Binding acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with -s or in captured
output) and enforces its own wall-clock budget.  Numbers follow the criteria
exactly: seed counts, size ladders, tolerances, and zero-tolerance identities
are pinned here and nowhere else.
"""

import itertools
import json
import math
import pathlib
import random
import statistics
import time
from contextlib import contextmanager

from resample_forge.cli import decay_ratio, tail_table
from resample_forge.derand import derand_solve
from resample_forge.graph_core import Digraph, ball, build_rel
from resample_forge.instance_io import gen_grid_ksat, gen_torus_nae
from resample_forge.landscape_lab import (
    build_landscape,
    count_delta_trees,
    count_grounded_forests,
    ground,
    q_poly,
    restrict_landscape,
    restrict_problem,
    used_of,
    varcount,
)
from resample_forge.mta_runner import run, trace_to_json
from resample_forge.partitioner import singleton_partition, sparse_partition
from resample_forge.rule_engine import (
    ColouringProblem,
    LocalRule,
    bad_set,
    check_condition,
    satisfies,
)
from resample_forge.tape import FiniteTape, RandomTape, symbols_consumed, used_unused

from .helpers import random_looped_problem
from .reference_landscape import brute_labelled_trees, reference_grounded_forests
from .reference_runner import reference_finite_tape

GOLDEN_TAPE_PATH = pathlib.Path(__file__).resolve().parent.parent / "tape_vectors.json"


@contextmanager
def criterion(num: int, title: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if elapsed > budget_s:
            raise AssertionError(f"overran the {budget_s:.0f}s budget: {elapsed:.1f}s")
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {title}")
        raise
    print(f"[PASS] criterion {num:02d}: {title}")


# ---------------------------------------------------------------------------
# shared case generators (deterministic, reused verbatim across criteria)


def _recovery_cases(count: int):
    """(problem, partition, tape, trace, k) stream for the recovery identities.

    Alternates shared-tape sparse partitions with classic singleton ones over
    a mix of random self-reading instances and small tori; n stays <= 50 and
    k <= 10 as required.
    """
    rng = random.Random(20260819)
    produced = 0
    while produced < count:
        pick = produced % 10
        if pick == 9:
            p = gen_torus_nae(5, 5, 2)
        else:
            p = random_looped_problem(
                n=rng.randint(3, 10),
                extra_edges=rng.randint(0, 8),
                b=rng.choice((2, 2, 3)),
                max_forbidden=2,
                seed=rng.randrange(2**30),
            )
        pi = sparse_partition(p.graph, 3) if produced % 2 else singleton_partition(p.n)
        tape = RandomTape(rng.randrange(2**30), p.b)
        trace = run(p, pi, tape, max_steps=40)
        top = 10 if trace.succeeded else min(10, trace.rounds + 1)
        k = rng.randint(1, max(1, top))
        yield p, pi, tape, trace, k
        produced += 1


def _tiny_satisfiable(seed: int) -> ColouringProblem:
    """Random 1-2 vertex instance guaranteed to admit a solution (b=2)."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(1, 2)
        cells = [(x, y) for x in range(n) for y in range(n)]
        edges = [e for e in cells if rng.random() < 0.7]
        g = Digraph.from_edges(n, edges)
        rows = []
        for x in range(n):
            scope = g.out_adj[x]
            if not scope:
                rows.append([])
                continue
            space = [t for t in itertools.product(range(2), repeat=len(scope))]
            rng.shuffle(space)
            rows.append(space[: rng.randint(0, len(space) - 1)])
        p = ColouringProblem(g, 2, LocalRule.from_lists(rows))
        p.validate()
        if any(
            satisfies(p, list(f)) for f in itertools.product(range(2), repeat=n)
        ):
            return p


# ---------------------------------------------------------------------------
# 1. correctness


def test_criterion_01_correctness():
    with criterion(1, "succeeded runs verify, zero tolerance (500+ seeds)", 120):
        families = [gen_torus_nae(side, side, 2) for side in (10, 14, 20, 30)]
        families.append(gen_torus_nae(10, 10, 16))
        ksat = [
            (gen_grid_ksat(6, 6, 5, 2, 1, 0, b=3), 0.1, 0.05),
            (gen_grid_ksat(6, 6, 6, 3, 1, 1, b=3), 0.1, 0.05),
            (gen_grid_ksat(6, 6, 7, 3, 1, 2, b=3), 0.3, 0.1),
        ]
        assert check_condition(families[-1], 1.0, 0.25)
        for p, delta, eps in ksat:
            assert check_condition(p, delta, eps)
            families.append(p)
        runs = succeeded = 0
        for p in families:
            pi = sparse_partition(p.graph, 3)
            for seed in range(63):
                trace = run(p, pi, RandomTape(seed, p.b))
                runs += 1
                if trace.succeeded:
                    succeeded += 1
                    assert satisfies(p, trace.final_colouring), (
                        f"violated colouring accepted (n={p.n}, seed={seed})"
                    )
        assert runs >= 500
        assert succeeded == runs, f"only {succeeded}/{runs} runs converged"


# ---------------------------------------------------------------------------
# 2. constant bits across sizes


def test_criterion_02_constant_bits():
    with criterion(2, "symbol usage flat across 10^2..50^2 (25% band)", 300):
        mean_symbols = {}
        mean_max_h = {}
        for side in (10, 20, 50):
            p = gen_torus_nae(side, side, 16)
            pi = sparse_partition(p.graph, 3)
            symbols = []
            max_hs = []
            for seed in range(200):
                trace = run(p, pi, RandomTape(seed, p.b))
                assert trace.succeeded
                symbols.append(symbols_consumed(trace, pi).count)
                max_hs.append(max(trace.h))
            mean_symbols[side] = statistics.fmean(symbols)
            mean_max_h[side] = statistics.fmean(max_hs)
        assert abs(mean_symbols[50] - mean_symbols[10]) <= 0.25 * mean_symbols[10], (
            f"symbols drifted: {mean_symbols}"
        )
        lo, hi = min(mean_max_h.values()), max(mean_max_h.values())
        assert hi <= 1.25 * lo, f"max h drifted: {mean_max_h}"


# ---------------------------------------------------------------------------
# 3. geometric tail decay


def test_criterion_03_tail_decay():
    with criterion(3, "tail of max h nonincreasing, decay ratio <= 0.9", 300):
        p = gen_torus_nae(20, 20, 2)
        pi = sparse_partition(p.graph, 3)
        max_hs = []
        for seed in range(2000):
            trace = run(p, pi, RandomTape(seed, p.b))
            max_hs.append(max(trace.h))
        tail = tail_table(max_hs)
        values = [tail[m] for m in sorted(tail)]
        assert values == sorted(values, reverse=True)
        ratio = decay_ratio(tail)
        assert ratio is not None and ratio <= 0.9, f"decay ratio {ratio}"


# ---------------------------------------------------------------------------
# 4. used-symbol recovery from the landscape


def test_criterion_04_used_recovery():
    with criterion(4, "landscape recovery of used symbols, 1000 exact", 60):
        for p, pi, tape, trace, k in _recovery_cases(1000):
            fl = build_landscape(p, pi, trace, k)
            expected, _ = used_unused(trace, pi, tape, k)
            assert used_of(p, fl) == [tuple(u) for u in expected]


# ---------------------------------------------------------------------------
# 5. varcount identities


def test_criterion_05_varcount_identities():
    with criterion(5, "varcount equals total used length equals sum of h^k", 60):
        for p, pi, tape, trace, k in _recovery_cases(1000):
            fl = build_landscape(p, pi, trace, k)
            used = used_of(p, fl)
            total = sum(len(u) for u in used)
            assert varcount(p, fl.forest) == total
            h_k = [1] * p.n
            for redrawn in trace.resampled_sets[: max(0, k - 1)]:
                for x in redrawn:
                    h_k[x] += 1
            assert sum(h_k) == total


# ---------------------------------------------------------------------------
# 6. grounding restricted landscapes


def test_criterion_06_grounding():
    with criterion(6, "grounding: level-0 roots, counts and symbols kept", 120):
        rng = random.Random(6)
        done = 0
        while done < 1000:
            p = random_looped_problem(
                n=rng.randint(6, 14),
                extra_edges=rng.randint(2, 10),
                b=2,
                max_forbidden=2,
                seed=rng.randrange(2**30),
            )
            if done % 2:
                pi = sparse_partition(p.graph, 3)
            else:
                pi = singleton_partition(p.n)
            trace = run(p, pi, RandomTape(rng.randrange(2**30), p.b), max_steps=30)
            k = rng.randint(1, max(1, min(8, trace.rounds + 1)))
            fl = build_landscape(p, pi, trace, k)
            u = ball(p.graph, rng.randrange(p.n), 3)
            q, _ = restrict_problem(p, pi, u)
            rfl = restrict_landscape(p, pi, fl, u)
            grounded = ground(q, rfl)
            assert all(lvl == 0 for _, lvl in grounded.forest.roots())
            assert len(grounded.forest.nodes) == len(rfl.forest.nodes)
            assert used_of(q, grounded) == used_of(q, rfl)
            done += 1


# ---------------------------------------------------------------------------
# 7. restriction keeps interior symbol sequences


def test_criterion_07_restriction():
    with criterion(7, "interior used sequences survive restriction (500)", 120):
        rng = random.Random(7)
        done = 0
        interiors = 0
        while done < 500:
            if done % 5 == 4:
                p = gen_torus_nae(rng.randint(5, 8), rng.randint(5, 8), 2)
            else:
                p = random_looped_problem(
                    n=rng.randint(8, 20),
                    extra_edges=rng.randint(2, 12),
                    b=2,
                    max_forbidden=2,
                    seed=rng.randrange(2**30),
                )
            pi = sparse_partition(p.graph, 3)
            trace = run(p, pi, RandomTape(rng.randrange(2**30), p.b), max_steps=30)
            k = rng.randint(1, max(1, min(8, trace.rounds + 1)))
            fl = build_landscape(p, pi, trace, k)
            u = ball(p.graph, rng.randrange(p.n), 3)
            rfl = restrict_landscape(p, pi, fl, u)
            q, _ = restrict_problem(p, pi, u)
            base = used_of(p, fl)
            restricted = used_of(q, rfl)
            for x in u:
                clauses = p.graph.in_adj[x]
                if not all(
                    c in u and set(p.graph.out_adj[c]) <= u for c in clauses
                ):
                    continue
                interiors += 1
                assert restricted[pi.part_of[x]] == base[x]
            done += 1
        assert interiors > 500, f"only {interiors} interior vertices exercised"


# ---------------------------------------------------------------------------
# 8. counting oracles


def test_criterion_08_counting_oracles():
    with criterion(8, "tree/forest counts within their closed-form bounds", 120):
        for delta in range(1, 5):
            for i in range(0, 7):
                assert count_delta_trees(delta, i) <= (math.e * delta) ** i
            assert count_delta_trees(delta, 1) == 1
        for i in range(0, 7):
            assert count_delta_trees(2, i) == brute_labelled_trees(2, i)
        assert count_delta_trees(2, 3) == 5
        coeffs2 = q_poly(2, 5)
        for n in range(0, 7):
            assert coeffs2[n] == count_delta_trees(2, n)
        coeffs3 = q_poly(3, 4)
        for n in range(0, 6):
            assert coeffs3[n] == count_delta_trees(3, n)
        checked = 0
        for n in range(1, 5):
            cells = [(x, y) for x in range(n) for y in range(n)]
            for e in range(0, 7):
                for edges in itertools.combinations(cells, e):
                    g = Digraph.from_edges(n, list(edges))
                    dep = max(1, build_rel(g).maxdeg())
                    counts = count_grounded_forests(g, 3)
                    for m in range(0, 4):
                        bound = (m + 1) ** (n - 1) * (math.e * dep) ** m
                        assert counts[m] <= bound
                        assert counts[m] == reference_grounded_forests(g, m)
                        checked += 1
        assert checked > 50_000


# ---------------------------------------------------------------------------
# 9. derandomized solver


def test_criterion_09_derand():
    with criterion(9, "exhaustive-tape solver: exact, maximal, in budget", 120):
        for idx in range(50):
            p = _tiny_satisfiable(1000 + idx)
            pi = singleton_partition(p.n)
            m = 3
            attempts: list = []
            winner = derand_solve(p, pi, m, attempts=attempts)
            assert satisfies(p, winner.colouring)
            d_bound = max(1, p.graph.maxdeg())
            rel_sets = [set(a) for a in build_rel(p.graph).out_adj]
            for a in attempts:
                assert a.reevals <= d_bound**4 * m * p.n
                digits = _digits_of(a.tape_index, pi.num_parts * m, p.b)
                tape = FiniteTape(pi.num_parts, m, p.b, digits)
                trace = run(p, pi, tape, max_steps=p.n * m, found_order=True)
                assert (trace.rounds, trace.clause_evals - len(p.active_clauses())) == (a.passes, a.reevals)
                for j, members in enumerate(trace.ib_sets):
                    bad = set(bad_set(p, trace.colouring_at(j)))
                    assert set(members) <= bad
                    for x, y in itertools.combinations(sorted(members), 2):
                        assert y not in rel_sets[x]
                    for c in bad:
                        assert any(c in rel_sets[x] or c == x for x in members)
                # the reference inner loop makes the same moves on the same tape
                ref_tape = FiniteTape(pi.num_parts, m, p.b, digits)
                replay = reference_finite_tape(p, pi, ref_tape)
                assert trace.ib_sets == replay.resampled_sets
                assert [trace.colouring_at(j) for j in range(trace.rounds + 1)] == replay.colourings
                assert tape.max_index_touched == ref_tape.max_index_touched
                assert trace.succeeded == (replay.outcome == "success") == (a.outcome == "success")
                if trace.succeeded:
                    assert trace.final_colouring == replay.colouring == a.colouring


def _digits_of(index: int, length: int, b: int) -> list:
    digits = []
    rest = index
    for _ in range(length):
        rest, d = divmod(rest, b)
        digits.append(d)
    assert rest == 0
    return digits


# ---------------------------------------------------------------------------
# 10. linear-work evidence


def test_criterion_10_linear_work():
    with criterion(10, "per-vertex rule evaluations flat as n doubles", 300):
        per_vertex = {}
        for side in (20, 28, 40):
            p = gen_torus_nae(side, side, 2)
            pi = sparse_partition(p.graph, 3)
            evals = []
            for seed in range(100):
                trace = run(p, pi, RandomTape(seed, p.b))
                assert trace.succeeded
                evals.append(trace.clause_evals)
            per_vertex[side] = statistics.median(evals) / p.n
        assert per_vertex[28] <= 1.5 * per_vertex[20], f"{per_vertex}"
        assert per_vertex[40] <= 1.5 * per_vertex[28], f"{per_vertex}"


# ---------------------------------------------------------------------------
# 11. determinism


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "byte-identical reruns and frozen tape vectors", 60):
        p = gen_torus_nae(8, 8, 2)
        pi = sparse_partition(p.graph, 3)
        first = run(p, pi, RandomTape(5, p.b))
        second = run(p, pi, RandomTape(5, p.b))
        assert trace_to_json(first) == trace_to_json(second)
        assert first.final_colouring == second.final_colouring

        from resample_forge import cli

        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for path in (out_a, out_b):
            code = cli.main(
                ["stats", "--sizes", "5,6", "--repeat", "5",
                 "--csv", str(path), "--quiet"]
            )
            assert code == 0
        rows_a = [line.rsplit(",", 1)[0] for line in out_a.read_text().splitlines()]
        rows_b = [line.rsplit(",", 1)[0] for line in out_b.read_text().splitlines()]
        assert rows_a == rows_b

        records = json.loads(GOLDEN_TAPE_PATH.read_text())
        assert len(records) >= 60
        for rec in records:
            tape = RandomTape(rec["seed"], rec["b"])
            assert tape.symbol(rec["part"], rec["t"]) == rec["symbol"], rec
