"""Benchmark generators and problem (de)serialisation.

A problem file is one JSON object: `schema_version`, `b`, the graph, the
rule tables and `metadata`.  Two schema versions are read, into equal
problems; a file of any other version is refused.

- Schema 3, the one `save_problem` writes, holds each fact once.  `tables`
  lists the distinct rule tables in first-seen order, and `table_of` gives
  each vertex's index into them, as a list of n ints or as one int for every
  vertex.  The graph is either `scopes` (`graph.out_adj`, one strictly
  increasing list of vertex ids per vertex) or `"graph": {"torus": [w, h]}`,
  the torus `torus_graph` builds.
- Schema 2 mirrors the in-memory model vertex by vertex: `scopes` as above
  and `forbidden` (`rule.forbidden`, one list of sorted colour tuples per
  vertex).  It is read, never written.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain

from resample_forge.graph_core import Digraph, torus_rows
# unused here, but perfbench/tracing.py wraps the name instance_io.ball
from resample_forge.graph_core import ball  # noqa: F401
from resample_forge.rule_engine import ColouringProblem, LocalRule, lll_margin
from resample_forge.tape import GAMMA, MASK64, mix64_stream, require_ints

SCHEMA_VERSION = 3
# the torus table holds b constant 5-tuples, ~120 B per colour: 7.8 MB at this cap; a
# problem file writes the one shared table once, 2.4 MB at this cap whatever the torus's size
MAX_TORUS_B = 1 << 16
# 1024 x 1024 cells: a torus file names its sides in a few bytes, so this bounds what a
# ~60-byte file can make the loader build; gen_torus_nae(1000, 1000, 2) takes 0.65 s and
# peaks at 168 MB ru_maxrss (Python 3.11), and loading its file 0.77 s and the same 168 MB
MAX_TORUS_CELLS = 1 << 20
# clause-window cells gen_grid_ksat may copy, clauses x window cells; each costs ~50-110 ns (Python 3.11),
# 8.1 s for 400 x 400 cells at radius 15 (7.7 * 10^7), so ~15 s at this cap
MAX_WINDOW_CELLS = 1 << 27


def stamps(p: ColouringProblem) -> dict:
    """The degree, dependency degree and margin that `gen` records next to the generator's parameters."""
    return {"d": p.graph.maxdeg(), "Delta": p.graph.big_delta(), "margin": lll_margin(p)}


# ---------------------------------------------------------------------------
# generators


def torus_graph(w: int, h: int) -> Digraph:
    """The w x h torus on which each cell reads itself and its 4 neighbours, the one torus builder.

    Cell (i, j) is vertex i*w + j.  Both sides must be exact ints >= 3 and
    the torus at most `MAX_TORUS_CELLS` cells, checked before anything is
    built.  The scopes come from `graph_core.torus_rows`, the one torus row
    writer, at the five offsets (0, 0), (0, +-1) and (+-1, 0): each inner
    column's scope is a zipped slice of one cell list, already in
    increasing order, and only the two seam columns 0 and w-1, which wrap
    sideways, are sorted sets.  They go to the plain `Digraph` constructor
    as both `out_adj` and `in_adj`, not through `from_scopes`: with
    exact-int sides >= 3 the five cells of a scope are distinct, in range
    and sorted, and y reads x exactly when x reads y, so that constructor's
    checks and in-list table could only confirm it.
    `test_torus_graph_equals_the_checked_construction` pins the graph to the
    one the checked constructors build.  The graph's `torus` is (w, h), from
    which `partitioner.sparse_partition` colours it row by row and
    `graph_core.power_graph` writes down its rows.
    """
    require_ints(w=w, h=h)
    if w < 3 or h < 3:
        raise ValueError("torus needs both sides >= 3")
    if w * h > MAX_TORUS_CELLS:
        raise ValueError(f"torus needs at most {MAX_TORUS_CELLS} cells, not {w}x{h}")
    scopes = torus_rows(w, h, [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)])
    return Digraph(scopes, scopes, torus=(w, h))


def gen_torus_nae(w: int, h: int, b: int) -> ColouringProblem:
    """Torus of not-all-equal rules on `torus_graph(w, h)`.

    Forbidden tuples are the b constant assignments, so the violation margin
    is exactly b^-4 per clause.  b is at most `MAX_TORUS_B`, checked before
    anything is built, since the table grows with b; every cell shares the
    one table.
    """
    require_ints(b=b)
    if b < 2:
        raise ValueError("alphabet size must be >= 2")
    if b > MAX_TORUS_B:
        raise ValueError(f"alphabet size must be <= {MAX_TORUS_B}")
    g = torus_graph(w, h)
    constant = tuple((c,) * 5 for c in range(b))  # sorted and distinct: one table for every cell
    return ColouringProblem(
        g,
        b,
        LocalRule([constant] * g.n),
        metadata={"generator": "torus_nae", "w": w, "h": h, "b": b},
    )


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
    from the counter-based stream mix64(seed + c * GAMMA), c = 1, 2, ...,
    hashed in packed blocks by `mix64_stream`.  A cell's window, the L1
    diamond around it clipped at the grid edge, is written down, not
    searched for: each grid row i has one table of (first cell, reach) pairs,
    one per row in range, and the window of (i, j) is one C-level range per
    pair, in row-major order, which is the order draw() picks by index.  Two
    bounds are checked before anything is built: the w*h*(1 + clauses_per_cell)
    vertices are at most `MAX_TORUS_CELLS`, the torus's bound, and the
    window cells the clauses copy, w*h*clauses_per_cell times the diamond's
    size capped at w*h, at most `MAX_WINDOW_CELLS`, which bounds the time.
    """
    require_ints(
        w=w, h=h, k=k, clause_radius=clause_radius, clauses_per_cell=clauses_per_cell, seed=seed, b=b
    )
    if w < 1 or h < 1:
        raise ValueError("grid must be nonempty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if clause_radius < 1:
        raise ValueError("clause radius must be >= 1")
    if clauses_per_cell < 1:
        raise ValueError("need at least one clause per cell")
    if w * h * (1 + clauses_per_cell) > MAX_TORUS_CELLS:
        raise ValueError(
            f"grid k-SAT needs at most {MAX_TORUS_CELLS} vertices, not {w}x{h} cells "
            f"with {clauses_per_cell} clauses each"
        )
    if b < 2:
        raise ValueError("alphabet size must be >= 2")
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be in 0..{MASK64}")
    if w * h * clauses_per_cell * min(2 * clause_radius * (clause_radius + 1) + 1, w * h) > MAX_WINDOW_CELLS:
        raise ValueError(
            f"grid k-SAT copies at most {MAX_WINDOW_CELLS} window cells, not {w}x{h} cells "
            f"with {clauses_per_cell} clauses each at radius {clause_radius}"
        )
    num_vars = w * h
    stream = mix64_stream((seed + GAMMA) & MASK64, GAMMA)  # mix64(seed + c * GAMMA) for c = 1, 2, ...

    def draw(bound: int) -> int:
        return next(stream) % bound

    scopes: list = [[] for _ in range(num_vars)]
    rows: list = [[] for _ in range(num_vars)]
    for i in range(h):
        # per grid row in range, its first cell and how far the L1 diamond around row i reaches along it
        in_range = range(max(0, i - clause_radius), min(h, i + clause_radius + 1))
        reach = [(i2 * w, clause_radius - abs(i2 - i)) for i2 in in_range]
        for j in range(w):
            # the diamond around (i, j), clipped at the grid edge, row-major, as draw() picks by index
            nearby = list(chain.from_iterable(range(base + max(0, j - d), base + min(w, j + d + 1)) for base, d in reach))
            if len(nearby) < k:
                raise ValueError(
                    f"cell ({i},{j}) sees {len(nearby)} variables within "
                    f"radius {clause_radius}, fewer than k={k}"
                )
            for _ in range(clauses_per_cell):
                pool = nearby.copy()
                scope = sorted(pool.pop(draw(len(pool))) for _ in range(k))
                scopes.append(scope)
                rows.append([tuple(draw(b) for _ in scope)])
    g = Digraph.from_scopes(scopes)
    return ColouringProblem(
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


# ---------------------------------------------------------------------------
# problem files


def save_problem(p: ColouringProblem, path: str) -> None:
    """Write `p` as a schema-3 file: each distinct table once, and a torus by its sides.

    The graph is written as `{"torus": [w, h]}` only when `torus_graph`
    built it (its `torus` is set), and as its scope lists otherwise.  Equal
    tables are told apart as `LocalRule.share_equal` tells them, by their
    marshal bytes, once per table object, so a torus's one shared table is
    looked at once.
    """
    forbidden = p.rule.forbidden
    objects = list({id(rows): rows for rows in forbidden}.values())  # each table object once, first seen first
    merged = objects.copy()
    tables = LocalRule.share_equal(merged)
    index = {id(rows): i for i, rows in enumerate(tables)}
    index_of = {id(rows): index[id(first)] for rows, first in zip(objects, merged)}
    table_of = [index_of[id(rows)] for rows in forbidden]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "b": p.b,
        "tables": tables,
        "table_of": table_of[0] if len(tables) == 1 else table_of,
        "metadata": p.metadata,
    }
    if p.graph.torus is None:
        payload["scopes"] = p.graph.out_adj
    else:
        payload["graph"] = {"torus": p.graph.torus}
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


# per schema version, the fields a file must hold; a schema-3 file may hold no other field than these
_REQUIRED = {2: ("b", "scopes", "forbidden"), 3: ("b", "tables", "table_of")}
_SCHEMA_3_FIELDS = {"schema_version", "b", "tables", "table_of", "scopes", "graph", "metadata"}


def load_problem(path: str) -> ColouringProblem:
    """Read a schema-2 or schema-3 problem file; raises ValueError, naming the first fault, on a malformed one.

    Both schemas load into equal problems, through the same checks.  Scope
    lists go through `Digraph.from_scopes`; a schema-3 torus is built by
    `torus_graph` from its sides, which are checked, metadata unread.  The
    rule tables are kept as written: neither sorted nor deduplicated.
    Equal tables are made one object as soon as the file is parsed
    (`LocalRule.share_equal`), so each duplicate is freed before the graph
    is built and the list shape is checked once per distinct table.  Each
    reader then hands back the rule, every distinct table one shared tuple
    (`LocalRule.interned`), and `ColouringProblem.validate` checks the rows.
    """
    payload = load_json(path)
    if not isinstance(payload, dict):
        raise ValueError("problem file must hold a JSON object")
    version = payload.get("schema_version")
    # exact type test: JSON true/false load as bool, a subclass of int
    if type(version) is not int or version not in _REQUIRED:
        raise ValueError(f"unsupported schema_version {version!r}")
    for field_name in _REQUIRED[version]:
        if field_name not in payload:
            raise ValueError(f"missing field {field_name!r}")
    b = payload["b"]
    if type(b) is not int:
        raise ValueError("field 'b' must be an integer")
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError("field 'metadata' must be a JSON object")
    g, rule = (_schema_2 if version == 2 else _schema_3)(payload)
    p = ColouringProblem(g, b, rule, metadata=metadata)
    p.validate()
    return p


def _schema_2(payload: dict) -> tuple:
    """The graph and the rule of a schema-2 file, its per-vertex tables interned."""
    forbidden = payload["forbidden"]
    # sharing raises nothing, so a scope fault is still reported before a 'forbidden' one
    distinct = LocalRule.share_equal(forbidden) if type(forbidden) is list else None
    g = Digraph.from_scopes(payload["scopes"])
    if distinct is None or not all(map(_is_list_of_lists, distinct)):
        raise ValueError("field 'forbidden' must hold, per vertex, a list of colour tuples")
    return g, LocalRule.interned(forbidden, distinct)


def _schema_3(payload: dict) -> tuple:
    """The graph and the rule of a schema-3 file: its own `tables` interned, then indexed by `table_of`."""
    unknown = sorted(set(payload) - _SCHEMA_3_FIELDS)
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r}")
    if ("scopes" in payload) == ("graph" in payload):
        raise ValueError("need exactly one of the fields 'scopes' and 'graph'")
    tables = payload["tables"]
    # as in schema 2, sharing raises nothing, so a graph fault is reported before a table one
    distinct = LocalRule.share_equal(tables) if type(tables) is list else None
    g = Digraph.from_scopes(payload["scopes"]) if "scopes" in payload else _described_graph(payload["graph"])
    if distinct is None or not all(map(_is_list_of_lists, distinct)):
        raise ValueError("field 'tables' must be a list of tables, each a list of colour tuples")
    interned = LocalRule.interned(tables, distinct).forbidden
    table_of = payload["table_of"]
    count = len(tables)
    if type(table_of) is int:
        if not 0 <= table_of < count:
            raise ValueError(f"field 'table_of': index {table_of} out of range for {count} tables")
        return g, LocalRule([interned[table_of]] * g.n)
    if not (type(table_of) is list and {int}.issuperset(map(type, table_of))):
        raise ValueError("field 'table_of' must be an integer table index or a list of them")
    if len(table_of) != g.n:
        raise ValueError(f"field 'table_of' has {len(table_of)} entries for {g.n} vertices")
    if table_of and not (0 <= min(table_of) and max(table_of) < count):
        x, i = next((x, i) for x, i in enumerate(table_of) if not 0 <= i < count)
        raise ValueError(f"field 'table_of': vertex {x}: index {i} out of range for {count} tables")
    return g, LocalRule(list(map(interned.__getitem__, table_of)))


def _described_graph(graph) -> Digraph:
    """The graph a schema-3 `graph` field describes: `{"torus": [w, h]}` is its one form."""
    if not (isinstance(graph, dict) and list(graph) == ["torus"]):
        raise ValueError('field \'graph\' must be {"torus": [w, h]}')
    sides = graph["torus"]
    if not (type(sides) is list and len(sides) == 2):
        raise ValueError("field 'graph': torus must be a list of two sides [w, h]")
    try:
        return torus_graph(*sides)
    except ValueError as exc:
        raise ValueError(f"field 'graph': {exc}") from None
