"""Benchmark generators, problem (de)serialisation, and experiment records.

The on-disk format is versioned JSON: edge list plus a per-vertex map of
forbidden colour tuples.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from collections import Counter
from dataclasses import dataclass

from resample_forge.graph_core import Digraph, balls, check_subexp
# unused here, but perfbench/tracing.py wraps the name instance_io.ball
from resample_forge.graph_core import ball  # noqa: F401
from resample_forge.rule_engine import ColouringProblem, LocalRule, lll_margin
from resample_forge.tape import GAMMA, MASK64, mix64

SCHEMA_VERSION = 1

RESULTS_HEADER = ["instance", "n", "seed", "parts", "rounds", "max_h", "symbols", "bits", "wall_ms"]


CERT_SIZE_CAP = 400


def _annotate(p: ColouringProblem) -> ColouringProblem:
    """Stamp degree, dependency degree, margin, and a growth certificate.

    The certificate scan walks every ball up to radius 3R, so it is skipped
    beyond CERT_SIZE_CAP vertices (recorded as None, meaning "not computed").
    """
    d = max(1, p.graph.maxdeg())
    p.metadata["d"] = p.graph.maxdeg()
    p.metadata["Delta"] = p.rel().maxdeg()
    p.metadata["margin"] = lll_margin(p)
    cert = None
    if 0 < p.n <= CERT_SIZE_CAP:
        for big_r in range(1, 6):
            worst = math.log(max(map(len, balls(p.graph, 3 * big_r))))
            for eps in (0.5, 1.0, 2.0):
                if worst <= big_r * math.log1p(eps) + 1e-9:
                    cert = {"R": big_r, "eps": eps, "d": d}
                    if not check_subexp(p.graph, big_r, eps, d):
                        raise RuntimeError(f"growth certificate {cert} fails check_subexp")
                    break
            if cert:
                break
    p.metadata["subexp"] = cert
    return p


# ---------------------------------------------------------------------------
# generators


def gen_torus_nae(w: int, h: int, b: int) -> ColouringProblem:
    """Torus of not-all-equal rules: each cell reads itself and 4 neighbours.

    Forbidden tuples are the b constant assignments, so the violation margin
    is exactly b^-4 per clause.
    """
    if w < 3 or h < 3:
        raise ValueError("torus needs both sides >= 3")
    if b < 2:
        raise ValueError("alphabet size must be >= 2")
    n = w * h

    def vid(i: int, j: int) -> int:
        return (i % h) * w + (j % w)

    edges = []
    for i in range(h):
        for j in range(w):
            x = vid(i, j)
            for (di, dj) in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
                edges.append((x, vid(i + di, j + dj)))
    g = Digraph.from_edges(n, edges)
    constant = [[(c,) * 5 for c in range(b)] for _ in range(n)]
    p = ColouringProblem(
        g,
        b,
        LocalRule.from_lists(constant),
        metadata={"generator": "torus_nae", "w": w, "h": h, "b": b},
    )
    p.validate()
    return _annotate(p)


def gen_grid_ksat(
    w: int,
    h: int,
    k: int,
    clause_radius: int,
    clauses_per_cell: int,
    seed: int,
    b: int = 2,
) -> ColouringProblem:
    """Bipartite clauses-over-grid instance: k-ary rules on nearby grid cells.

    Variable vertices fill a plain w*h grid and carry no rules; each cell
    anchors clauses_per_cell clause vertices reading k distinct variables
    within Manhattan distance clause_radius, each forbidding one tuple drawn
    from a counter-based deterministic stream.
    """
    if w < 1 or h < 1:
        raise ValueError("grid must be nonempty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if clause_radius < 1:
        raise ValueError("clause radius must be >= 1")
    if clauses_per_cell < 1:
        raise ValueError("need at least one clause per cell")
    if b < 2:
        raise ValueError("alphabet size must be >= 2")
    num_vars = w * h

    counter = 0

    def draw(bound: int) -> int:
        nonlocal counter
        counter += 1
        return mix64((seed + counter * GAMMA) & MASK64) % bound

    edges = []
    rows: list = [[] for _ in range(num_vars)]
    clause_id = num_vars
    for i in range(h):
        for j in range(w):
            nearby = [
                i2 * w + j2
                for i2 in range(h)
                for j2 in range(w)
                if abs(i2 - i) + abs(j2 - j) <= clause_radius
            ]
            if len(nearby) < k:
                raise ValueError(
                    f"cell ({i},{j}) sees {len(nearby)} variables within "
                    f"radius {clause_radius}, fewer than k={k}"
                )
            for _ in range(clauses_per_cell):
                pool = list(nearby)
                scope = []
                for _ in range(k):
                    scope.append(pool.pop(draw(len(pool))))
                scope.sort()
                for v in scope:
                    edges.append((clause_id, v))
                rows.append([tuple(draw(b) for _ in scope)])
                clause_id += 1
    g = Digraph.from_edges(clause_id, edges)
    p = ColouringProblem(
        g,
        b,
        LocalRule.from_lists(rows),
        metadata={
            "generator": "grid_ksat",
            "w": w,
            "h": h,
            "k": k,
            "clause_radius": clause_radius,
            "clauses_per_cell": clauses_per_cell,
            "seed": seed,
            "b": b,
            "num_variables": num_vars,
        },
    )
    p.validate()
    return _annotate(p)


# ---------------------------------------------------------------------------
# problem files


def save_problem(p: ColouringProblem, path: str) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "b": p.b,
        "num_vertices": p.n,
        "edges": [[x, y] for x, y in p.graph.edges()],
        "forbidden": {
            str(x): [list(t) for t in p.rule.forbidden[x]]
            for x in range(p.n)
            if p.rule.forbidden[x]
        },
        "metadata": p.metadata,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# exact type tests: JSON true/false load as bool, a subclass of int
def _is_int(v) -> bool:
    return type(v) is int


def _is_int_list(v) -> bool:
    return type(v) is list and {int}.issuperset(map(type, v))


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: a key given twice is an error, not a silent overwrite."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise ValueError(f"key {key!r} appears twice in one JSON object")
    return obj


def load_problem(path: str) -> ColouringProblem:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh, object_pairs_hook=_unique_keys)
    if not isinstance(payload, dict):
        raise ValueError("problem file must hold a JSON object")
    version = payload.get("schema_version")
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    for field_name in ("b", "num_vertices", "edges", "forbidden"):
        if field_name not in payload:
            raise ValueError(f"missing field {field_name!r}")
    b = payload["b"]
    n = payload["num_vertices"]
    if not (_is_int(b) and _is_int(n)):
        raise ValueError("fields 'b' and 'num_vertices' must be integers")
    edges = payload["edges"]
    if not (
        isinstance(edges, list)
        and all(type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int for e in edges)
    ):
        raise ValueError("field 'edges' must hold [from, to] pairs of integers")
    forbidden = payload["forbidden"]
    if not isinstance(forbidden, dict):
        raise ValueError("field 'forbidden' must map vertex ids to lists of colour tuples")
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError("field 'metadata' must be a JSON object")
    g = Digraph.from_edges(n, edges)
    rows: list = [[] for _ in range(n)]
    for key, tuples in forbidden.items():
        try:
            x = int(key)
        except ValueError:
            x = None
        # canonical ids only: int() also reads " 0", "00" and "1_0", which would
        # let two keys name one vertex and the later silently replace the earlier
        if x is None or key != str(x):
            raise ValueError(f"forbidden map key {key!r} is not a vertex id")
        if not (0 <= x < n):
            raise ValueError(f"forbidden map names unknown vertex {x}")
        if not (isinstance(tuples, list) and all(_is_int_list(t) for t in tuples)):
            raise ValueError(f"vertex {x}: forbidden tuples must be lists of integer colours")
        rows[x] = tuples
    # from_lists sorts and drops duplicates; validate then checks every row
    p = ColouringProblem(g, b, LocalRule.from_lists(rows), metadata=dict(metadata))
    p.validate()
    # warn of the dropped duplicates only once the file has loaded
    for key, tuples in forbidden.items():
        x = int(key)
        if len(tuples) != len(p.rule.forbidden[x]):
            seen = set()
            for tup in map(tuple, tuples):
                if tup in seen:
                    message = f"vertex {x}: duplicate forbidden tuple {tup} dropped"
                    warnings.warn(message)
                seen.add(tup)
    return p


# ---------------------------------------------------------------------------
# experiment records


@dataclass
class ExperimentRecord:
    instance: str
    n: int
    seed: int
    parts: int
    rounds: int
    max_h: int
    symbols: int
    bits: float
    wall_ms: float

    def row(self) -> list:
        return [
            self.instance,
            self.n,
            self.seed,
            self.parts,
            self.rounds,
            self.max_h,
            self.symbols,
            round(self.bits, 3),
            round(self.wall_ms, 3),
        ]


def append_results(path: str, records: list) -> None:
    """Append rows to results.csv, writing the fixed header on first contact."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(RESULTS_HEADER)
        for rec in records:
            writer.writerow(rec.row())
