"""Benchmark generators and problem (de)serialisation.

A problem file is one JSON object that mirrors the in-memory model:
`schema_version`, `b`, `scopes` (`graph.out_adj`, one strictly increasing list
of vertex ids per vertex), `forbidden` (`rule.forbidden`, one list of sorted
colour tuples per vertex) and `metadata`.  There is one schema version; a file
of any other version is refused.
"""

from __future__ import annotations

import json
from collections import Counter

from resample_forge.graph_core import Digraph
# unused here, but perfbench/tracing.py wraps the name instance_io.ball
from resample_forge.graph_core import ball  # noqa: F401
from resample_forge.rule_engine import ColouringProblem, LocalRule, lll_margin
from resample_forge.tape import GAMMA, MASK64, mix64

SCHEMA_VERSION = 2


def _annotate(p: ColouringProblem) -> ColouringProblem:
    """Stamp degree, dependency degree and margin."""
    p.metadata["d"] = p.graph.maxdeg()
    p.metadata["Delta"] = p.big_delta()
    p.metadata["margin"] = lll_margin(p)
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

    # both sides >= 3, so the five cells are distinct
    scopes = [
        sorted([vid(i + di, j + dj) for (di, dj) in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))])
        for i in range(h)
        for j in range(w)
    ]
    g = Digraph.from_scopes(scopes)
    constant = tuple((c,) * 5 for c in range(b))  # sorted and distinct: one table for every cell
    p = ColouringProblem(
        g,
        b,
        LocalRule([constant] * n),
        metadata={"generator": "torus_nae", "w": w, "h": h, "b": b},
    )
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
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be in 0..{MASK64}")
    num_vars = w * h

    counter = 0

    def draw(bound: int) -> int:
        nonlocal counter
        counter += 1
        return mix64((seed + counter * GAMMA) & MASK64) % bound

    scopes: list = [[] for _ in range(num_vars)]
    rows: list = [[] for _ in range(num_vars)]
    for i in range(h):
        for j in range(w):
            # the (2r+1)-square around (i, j), clipped at the grid edge; row-major, as draw() picks by index
            nearby = [
                i2 * w + j2
                for i2 in range(max(0, i - clause_radius), min(h, i + clause_radius + 1))
                for j2 in range(max(0, j - clause_radius), min(w, j + clause_radius + 1))
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
                scopes.append(scope)
                rows.append([tuple(draw(b) for _ in scope)])
    g = Digraph.from_scopes(scopes)
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
    return _annotate(p)


# ---------------------------------------------------------------------------
# problem files


def save_problem(p: ColouringProblem, path: str) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "b": p.b,
        "scopes": p.graph.out_adj,
        "forbidden": p.rule.forbidden,
        "metadata": p.metadata,
    }
    with open(path, "w", encoding="utf-8") as fh:
        # compact, so json's C encoder writes it
        fh.write(json.dumps(payload, sort_keys=True))
        fh.write("\n")


def _is_list_of_lists(v) -> bool:
    return type(v) is list and {list}.issuperset(map(type, v))


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: a key given twice is an error, not a silent overwrite."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise ValueError(f"key {key!r} appears twice in one JSON object")
    return obj


def load_json(path: str):
    """The JSON value of a problem or colouring file; a repeated key or too deep a nesting raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def load_problem(path: str) -> ColouringProblem:
    """Read a problem file; raises ValueError, naming the first fault, on a malformed one.

    `Digraph.from_scopes` checks the scopes and `ColouringProblem.validate`
    the rows, which are kept as written: neither is sorted or deduplicated.
    Equal tables are made one object as soon as the file is parsed
    (`LocalRule.share_equal`), so each duplicate is freed before the graph
    is built and the list shape is checked once per distinct table; then
    each becomes one shared tuple (`LocalRule.interned`).
    """
    payload = load_json(path)
    if not isinstance(payload, dict):
        raise ValueError("problem file must hold a JSON object")
    version = payload.get("schema_version")
    # exact type test: JSON true/false load as bool, a subclass of int
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    for field_name in ("b", "scopes", "forbidden"):
        if field_name not in payload:
            raise ValueError(f"missing field {field_name!r}")
    b = payload["b"]
    if type(b) is not int:
        raise ValueError("field 'b' must be an integer")
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError("field 'metadata' must be a JSON object")
    forbidden = payload["forbidden"]
    # sharing raises nothing, so a scope fault is still reported before a 'forbidden' one
    distinct = LocalRule.share_equal(forbidden) if type(forbidden) is list else None
    g = Digraph.from_scopes(payload["scopes"])
    if distinct is None or not all(map(_is_list_of_lists, distinct)):
        raise ValueError("field 'forbidden' must hold, per vertex, a list of colour tuples")
    p = ColouringProblem(g, b, LocalRule.interned(forbidden, distinct), metadata=metadata)
    p.validate()
    return p
