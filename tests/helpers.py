"""Shared builders for runner, landscape, and derandomization tests."""

import itertools
import marshal
import random

from resample_forge.graph_core import Digraph
from resample_forge.partitioner import singleton_partition, sparse_partition
from resample_forge.rule_engine import ColouringProblem, LocalRule
from resample_forge.tape import RandomTape
from resample_forge.mta_runner import run


def single_clause_problem():
    """v=0 (plain cell), c=1 reading v, forbidding v=0, at b=2."""
    g = Digraph.from_edges(2, [(1, 0)])
    p = ColouringProblem(g, 2, LocalRule([(), ((0,),)]))
    p.validate()
    return p


def unsatisfiable_problem():
    """A clause forbidding both colours of its cell."""
    g = Digraph.from_edges(2, [(1, 0)])
    p = ColouringProblem(g, 2, LocalRule([(), ((0,), (1,))]))
    p.validate()
    return p


def all_allowed_problem(n=4):
    g = Digraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    p = ColouringProblem(g, 2, LocalRule([() for _ in range(n)]))
    p.validate()
    return p


def star_problem(d):
    """Vertex 0 reads cells 1..d and nothing else reads or forbids: degree d, Delta 1."""
    g = Digraph.from_edges(d + 1, [(0, y) for y in range(1, d + 1)])
    p = ColouringProblem(g, 2, LocalRule([()] * (d + 1)))
    p.validate()
    return p


def random_looped_problem(n, extra_edges, b, max_forbidden, seed):
    """Random digraph where every vertex reads itself, plus random extra reads.

    Self-reads keep every scope nonempty, so `ground` never meets the one
    landscape it refuses: two nodes of an empty-scope vertex.  Forbidden sets
    stay strict subsets of each scope's tuple space.
    """
    rng = random.Random(seed)
    edges = [(x, x) for x in range(n)]
    for _ in range(extra_edges):
        edges.append((rng.randrange(n), rng.randrange(n)))
    g = Digraph.from_edges(n, edges)
    rows = []
    for x in range(n):
        scope = g.out_adj[x]
        space = b ** len(scope)
        want = rng.randrange(0, min(max_forbidden, space - 1) + 1)
        picked = set()
        while len(picked) < want:
            picked.add(tuple(rng.randrange(b) for _ in scope))
        rows.append(tuple(sorted(picked)))
    p = ColouringProblem(g, b, LocalRule(rows))
    p.validate()
    return p


def random_cnf_problem(num_vars, num_clauses, b, seed, unsat=False):
    """CNF-shaped instance: variable cells 0..num_vars-1, then one clause cell per clause.

    Each clause reads one or two variables and forbids from none to two of
    their tuples.  No rule reads a clause cell, and a variable read only by
    clauses that forbid nothing is read by no active rule either.  With
    `unsat`, the first clause forbids every tuple of its scope, so nothing
    satisfies the instance.
    """
    rng = random.Random(seed)
    edges, rows = [], [() for _ in range(num_vars)]
    for c in range(num_clauses):
        scope = sorted(rng.sample(range(num_vars), rng.randint(1, min(2, num_vars))))
        edges += [(num_vars + c, v) for v in scope]
        space = [tuple(rng.randrange(b) for _ in scope) for _ in range(rng.randint(0, 2))]
        if unsat and c == 0:
            space = list(itertools.product(range(b), repeat=len(scope)))
        rows.append(tuple(sorted(set(space))))
    g = Digraph.from_edges(num_vars + num_clauses, edges)
    p = ColouringProblem(g, b, LocalRule(rows))
    p.validate()
    return p


def torus_graph(w, h):
    """w*h torus where each cell reads itself and its four neighbours."""
    n = w * h
    edges = []
    for y in range(h):
        for x in range(w):
            v = y * w + x
            for u in (
                v,
                y * w + (x + 1) % w,
                y * w + (x - 1) % w,
                ((y + 1) % h) * w + x,
                ((y - 1) % h) * w + x,
            ):
                edges.append((v, u))
    return Digraph.from_edges(n, edges)


def witness_rules_problem(side, seed):
    """Torus scopes of 5 cells, each forbidding 6 random tuples of 32, as in the witness benchmark."""
    rng = random.Random(seed)
    g = torus_graph(side, side)
    tuples = list(itertools.product(range(2), repeat=5))
    rows = [tuple(sorted(rng.sample(tuples, 6))) for _ in range(g.n)]
    p = ColouringProblem(g, 2, LocalRule(rows))
    p.validate()
    return p


def partition_for(p, mode, seed=0, r=1):
    """singleton | sparse | random partition over the problem's graph."""
    if mode == "singleton":
        return singleton_partition(p.n)
    if mode == "sparse":
        return sparse_partition(p.graph, r)
    rng = random.Random(seed)
    num_parts = max(1, p.n // 2)
    part_of = [rng.randrange(num_parts) for _ in range(p.n)]
    dense = sorted(set(part_of))
    remap = {a: i for i, a in enumerate(dense)}
    from resample_forge.partitioner import SparsePartition

    return SparsePartition(len(dense), tuple(remap[a] for a in part_of))


def run_random_case(seed, n=12, b=2, mode="singleton", max_forbidden=2, max_steps=60):
    """One seeded (problem, partition, tape, trace) quadruple for identity tests."""
    p = random_looped_problem(n, n, b, max_forbidden, seed)
    pi = partition_for(p, mode, seed=seed + 1)
    tape = RandomTape(seed ^ 0xABCDEF, b)
    trace = run(p, pi, tape, max_steps=max_steps)
    return p, pi, tape, trace


def schema2_payload(p):
    """The schema-2 file of `p`, every scope and table in full, as the writer wrote it before schema 3."""
    return {
        "schema_version": 2,
        "b": p.b,
        "scopes": p.graph.out_adj,
        "forbidden": p.rule.forbidden,
        "metadata": p.metadata,
    }


def schema3_payload(payload):
    """A schema-2 payload rewritten as schema 3, its scopes kept: each table once, in first-seen order.

    Tables are told apart by their marshal bytes, so [[1]], [[1.0]] and
    [[true]] stay three tables; `table_of` is always a list.
    """
    tables, table_of, index = [], [], {}
    for rows in payload["forbidden"]:
        key = marshal.dumps(rows, 2)
        if key not in index:
            index[key] = len(tables)
            tables.append(rows)
        table_of.append(index[key])
    rest = {k: v for k, v in payload.items() if k != "forbidden"}
    return {**rest, "schema_version": 3, "tables": tables, "table_of": table_of}
