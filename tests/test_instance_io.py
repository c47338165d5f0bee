"""Generators and problem files."""

import itertools
import json
import pathlib
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from resample_forge import instance_io
from resample_forge.graph_core import Digraph
from resample_forge.instance_io import (
    MAX_TORUS_B,
    MAX_TORUS_CELLS,
    gen_grid_ksat,
    gen_torus_nae,
    load_problem,
    save_problem,
    stamps,
)
from resample_forge.mta_runner import run
from resample_forge.partitioner import singleton_partition
from resample_forge.rule_engine import ColouringProblem, LocalRule, bad_set, lll_margin, satisfies
from resample_forge.tape import RandomTape

from tests.helpers import schema2_payload, schema3_payload, torus_graph
from tests.make_golden import GOLDEN_DIR


# ---------------------------------------------------------------------------
# torus generator


def test_torus_shape_and_margin():
    p = gen_torus_nae(4, 5, 2)
    assert p.n == 20
    for x in range(p.n):
        scope = p.graph.out_adj[x]
        assert len(scope) == 5 and x in scope
        assert len(p.rule.forbidden[x]) == 2
    assert lll_margin(p) == pytest.approx(1 / 16)
    assert holds_only_parameters(p)
    assert stamps(p)["d"] == 5
    assert stamps(p)["margin"] == pytest.approx(1 / 16)


def test_torus_constant_colouring_violates_everywhere():
    p = gen_torus_nae(4, 4, 3)
    assert bad_set(p, [1] * p.n) == list(range(p.n))
    # checkerboard satisfies on even-by-even tori
    chess = [(i + j) % 2 for i in range(4) for j in range(4)]
    assert satisfies(p, chess)


# the metadata keys of each generator, in the order it writes them; `gen` adds the stamps
PARAMETERS = {
    "torus_nae": ["generator", "w", "h", "b"],
    "grid_ksat": ["generator", "w", "h", "k", "clause_radius", "clauses_per_cell", "seed", "b", "num_variables"],
}


def holds_only_parameters(p):
    return list(p.metadata) == PARAMETERS[p.metadata["generator"]]


def reference_stamps(p):
    """d, Delta and margin from the scopes alone, by pairwise set unions and intersections."""
    scopes = [set(p.graph.out_adj[x]) for x in range(p.n)]
    readers = [set() for _ in range(p.n)]
    for x, scope in enumerate(scopes):
        for v in scope:
            readers[v].add(x)
    return {
        "d": max((len(scopes[x] | readers[x]) for x in range(p.n)), default=0),
        "Delta": max((sum(1 for y in range(p.n) if scopes[x] & scopes[y]) for x in range(p.n)), default=0),
        "margin": max(
            (len(p.rule.forbidden[x]) / p.b ** len(scopes[x]) for x in range(p.n) if p.rule.forbidden[x]),
            default=0.0,
        ),
    }


# wrap-around shrinks Delta below 13 on the narrow tori; the stamps must follow it
@pytest.mark.parametrize("side", range(3, 21))
def test_torus_stamps_match_the_reference(side):
    for w in {side, max(3, side - 5)}:
        p = gen_torus_nae(w, side, 2)
        assert p.metadata == {"generator": "torus_nae", "w": w, "h": side, "b": 2}
        assert stamps(p) == reference_stamps(p)


@pytest.mark.parametrize("make", [lambda: gen_torus_nae(12, 9, 3), lambda: gen_grid_ksat(6, 6, 5, 2, 2, seed=4)])
def test_generators_hold_no_dependency_rows(make):
    # Delta is streamed, so stamping a generated problem builds neither the whole graph nor any row
    p = make()
    assert holds_only_parameters(p)
    assert stamps(p)["Delta"] == p.graph.big_delta() == reference_stamps(p)["Delta"]
    assert p.graph._rel_rows is None


# the generator hands its scopes to the plain Digraph constructor; they must be what the checked path builds
@pytest.mark.parametrize("w, h", [*((w, h) for w in range(3, 10) for h in range(3, 10)), (3, 17), (25, 4)])
def test_torus_graph_equals_the_checked_construction(w, h):
    checked = torus_graph(w, h)
    for b in (2, 3):
        p = gen_torus_nae(w, h, b)
        assert holds_only_parameters(p)
        assert p.graph == checked
        assert p.graph.in_adj is p.graph.out_adj
        constant = tuple((c,) * 5 for c in range(b))
        assert stamps(p) == reference_stamps(ColouringProblem(checked, b, LocalRule([constant] * checked.n)))


def test_torus_generation_peak_is_what_the_problem_holds():
    # no per-cell table beyond what the problem keeps: the scopes go straight into the graph
    tracemalloc.start()
    try:
        p = gen_torus_nae(60, 60, 2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.n == 3600
    assert peak <= 1.1 * held


def test_torus_rejects_small_sides():
    with pytest.raises(ValueError):
        gen_torus_nae(2, 5, 2)
    with pytest.raises(ValueError):
        gen_torus_nae(4, 4, 1)


def test_torus_refuses_b_past_the_cap_before_building(monkeypatch):
    # the table holds one constant 5-tuple per colour, ~120 B each
    def no_graph(*args, **kwargs):
        raise AssertionError("a torus was built")

    monkeypatch.setattr(instance_io, "Digraph", no_graph)
    with pytest.raises(ValueError, match=f"^alphabet size must be <= {MAX_TORUS_B}$"):
        gen_torus_nae(3, 3, MAX_TORUS_B + 1)
    monkeypatch.undo()
    assert gen_torus_nae(3, 3, MAX_TORUS_B).rule.forbidden[0][-1] == (MAX_TORUS_B - 1,) * 5


def test_torus_solvable_by_runner():
    p = gen_torus_nae(4, 4, 2)
    pi = singleton_partition(p.n)
    trace = run(p, pi, RandomTape(7, p.b), max_steps=200)
    assert trace.succeeded
    assert satisfies(p, trace.final_colouring)


# ---------------------------------------------------------------------------
# k-SAT generator


def test_ksat_shape():
    p = gen_grid_ksat(4, 4, 3, 2, 2, seed=5)
    num_vars = 16
    assert p.n == num_vars + 16 * 2
    for v in range(num_vars):
        assert p.graph.out_adj[v] == []
        assert p.rule.forbidden[v] == ()
    for c in range(num_vars, p.n):
        scope = p.graph.out_adj[c]
        assert len(scope) == 3
        assert len(set(scope)) == 3
        assert len(p.rule.forbidden[c]) == 1
    assert lll_margin(p) == pytest.approx(2**-3)
    assert p.metadata["num_variables"] == num_vars


def test_ksat_respects_radius():
    w = h = 5
    radius = 1
    p = gen_grid_ksat(w, h, 2, radius, 1, seed=3)
    for idx, c in enumerate(range(w * h, p.n)):
        ci, cj = divmod(idx, w)
        for v in p.graph.out_adj[c]:
            vi, vj = divmod(v, w)
            assert abs(vi - ci) + abs(vj - cj) <= radius


def test_ksat_deterministic_and_seed_sensitive():
    a = gen_grid_ksat(3, 3, 3, 2, 1, seed=11)
    b = gen_grid_ksat(3, 3, 3, 2, 1, seed=11)
    c = gen_grid_ksat(3, 3, 3, 2, 1, seed=12)
    assert a.graph.out_adj == b.graph.out_adj
    assert a.rule.forbidden == b.rule.forbidden
    assert (a.graph.out_adj, a.rule.forbidden) != (c.graph.out_adj, c.rule.forbidden)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"w": 0}, "grid must be nonempty"),
        ({"h": 0}, "grid must be nonempty"),
        ({"k": 0}, "k must be >= 1"),
        ({"clause_radius": 0}, "clause radius must be >= 1"),
        ({"clauses_per_cell": 0}, "need at least one clause per cell"),
        ({"b": 1}, "alphabet size must be >= 2"),
    ],
)
def test_ksat_refuses_out_of_range_arguments(change, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        gen_grid_ksat(**{**KSAT_ARGS, **change})


def test_ksat_radius_too_tight():
    with pytest.raises(ValueError, match="fewer than k"):
        gen_grid_ksat(3, 3, 6, 1, 1, seed=0)


# a 10^5 x 10^5 grid used to start on 10^10 scope lists
def test_ksat_vertex_cap_is_checked_before_anything_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^grid k-SAT needs at most {MAX_TORUS_CELLS} vertices, not 100000x100000"):
            gen_grid_ksat(100_000, 100_000, 5, 2, 1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_ksat_vertex_cap_counts_variables_and_clauses(monkeypatch):
    # w * h variables and w * h * clauses_per_cell clauses, inclusive; checked here at 24 vertices
    monkeypatch.setattr(instance_io, "MAX_TORUS_CELLS", 24)
    assert gen_grid_ksat(3, 4, 2, 1, 1, seed=0).n == gen_grid_ksat(2, 4, 2, 1, 2, seed=0).n == 24
    for w, h, per_cell in [(5, 5, 1), (3, 3, 2), (2, 3, 4)]:
        with pytest.raises(ValueError, match=f"^grid k-SAT needs at most 24 vertices, not {w}x{h} cells"):
            gen_grid_ksat(w, h, 2, 1, per_cell, seed=0)


TORUS_ARGS = {"w": 4, "h": 4, "b": 2}
KSAT_ARGS = {"w": 4, "h": 4, "k": 3, "clause_radius": 1, "clauses_per_cell": 1, "seed": 1, "b": 2}


# the generators' own checks are what the trusted graph rests on: a bool, float or str is refused by name
@pytest.mark.parametrize(
    "gen, args, name",
    [(gen_torus_nae, TORUS_ARGS, name) for name in TORUS_ARGS] + [(gen_grid_ksat, KSAT_ARGS, name) for name in KSAT_ARGS],
)
@pytest.mark.parametrize("value", [True, 4.0, "4"])
def test_generators_refuse_non_int_arguments(gen, args, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, not {value!r}$"):
        gen(**{**args, name: value})


# a seed outside 64 bits used to be masked, so -1 and 2^64 - 1 made the same instance
@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_ksat_refuses_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed must be in 0.."):
        gen_grid_ksat(3, 3, 2, 1, 1, seed=seed)


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
def test_ksat_accepts_both_ends_of_64_bits(seed):
    p = gen_grid_ksat(3, 3, 2, 1, 1, seed=seed)
    assert p.metadata["seed"] == seed


@pytest.mark.parametrize("w, h, k, radius, seed", [(1, 1, 1, 1, 0), (3, 4, 3, 3, 0), (6, 6, 5, 2, 1), (8, 5, 3, 1, 2)])
def test_ksat_stamps_match_the_reference(w, h, k, radius, seed):
    p = gen_grid_ksat(w, h, k, radius, 1, seed)
    assert holds_only_parameters(p)
    assert stamps(p) == reference_stamps(p)


def test_ksat_variables_never_bad():
    p = gen_grid_ksat(3, 3, 3, 2, 2, seed=2)
    colouring = [x % 2 for x in range(p.n)]
    assert all(c >= 9 for c in bad_set(p, colouring))


# ---------------------------------------------------------------------------
# problem files


def write_json(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def saved_and_loaded(tmp_path, p):
    path = tmp_path / "saved.json"
    save_problem(p, str(path))
    return load_problem(str(path))


def torus_with_legacy_metadata():
    """A torus whose metadata also holds the growth certificate that older files carry."""
    p = gen_torus_nae(10, 10, 2)
    p.metadata["subexp"] = {"R": 5, "d": 5, "eps": 2.0}
    return p


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_torus_nae(4, 4, 2),
        lambda: gen_torus_nae(5, 3, 3),
        lambda: gen_grid_ksat(4, 4, 3, 2, 2, seed=5),
        lambda: gen_grid_ksat(3, 4, 3, 3, 1, seed=0),
        torus_with_legacy_metadata,
    ],
)
def test_round_trip_identity(tmp_path, make):
    # both generators, through the schema-3 file save writes and the schema-2 form of the same problem
    p = make()
    path = tmp_path / "problem.json"
    save_problem(p, str(path))
    q = load_problem(str(path))
    assert q.n == p.n and q.b == p.b
    assert q.graph.out_adj == p.graph.out_adj
    assert q.graph.in_adj == p.graph.in_adj
    assert q.rule.forbidden == p.rule.forbidden
    assert q.metadata == p.metadata
    assert q == p == load_problem(write_json(tmp_path, schema2_payload(p), "schema2.json"))
    # the loaded tables are shared exactly as the generated ones are
    assert len({id(rows) for rows in q.rule.forbidden}) == len({id(rows) for rows in p.rule.forbidden})


def test_file_holds_each_fact_once(tmp_path):
    # schema 3: one table and an index for every cell, and the torus by its sides
    p = gen_torus_nae(3, 3, 2)
    path = tmp_path / "torus.json"
    save_problem(p, str(path))
    text = path.read_text()
    assert "\n" not in text[:-1] and text.endswith("}\n")  # compact, one line
    payload = json.loads(text)
    assert sorted(payload) == ["b", "graph", "metadata", "schema_version", "table_of", "tables"]
    assert payload["schema_version"] == 3
    assert payload["graph"] == {"torus": [3, 3]}
    assert payload["tables"] == [[[0] * 5, [1] * 5]]
    assert payload["table_of"] == 0


def test_file_lists_scopes_and_indices_of_any_other_graph(tmp_path):
    p = gen_grid_ksat(4, 4, 3, 2, 2, seed=5)
    path = tmp_path / "ksat.json"
    save_problem(p, str(path))
    payload = json.loads(path.read_text())
    assert sorted(payload) == ["b", "metadata", "schema_version", "scopes", "table_of", "tables"]
    assert payload["scopes"] == p.graph.out_adj
    assert payload["tables"][0] == []  # the variables' empty table, first seen at vertex 0
    assert [payload["tables"][i] for i in payload["table_of"]] == [
        [list(t) for t in rows] for rows in p.rule.forbidden
    ]
    assert len(payload["tables"]) == len({id(rows) for rows in p.rule.forbidden})


def write_payload(tmp_path, **change):
    payload = {"schema_version": 2, "b": 2, "scopes": [[], [0]], "forbidden": [[], [[0]]], **change}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(ValueError, match="schema_version"):
        load_problem(str(path))
    path.write_text(json.dumps({"schema_version": 2, "b": 2, "scopes": []}))
    with pytest.raises(ValueError, match="forbidden"):
        load_problem(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "problem file must hold a JSON object"),
        (json.dumps({"schema_version": 2, "b": 2, "scopes": [], "forbidden": [], "metadata": []}),
         "field 'metadata' must be a JSON object"),
    ],
)
def test_load_refuses_a_file_that_is_not_an_object_or_metadata_that_is_not(tmp_path, text, message):
    path = tmp_path / "problem.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_problem(str(path))


def test_load_refuses_schema_1(tmp_path):
    path = tmp_path / "old.json"
    old = {"schema_version": 1, "b": 2, "num_vertices": 2, "edges": [[1, 0]], "forbidden": {"1": [[0]]}}
    path.write_text(json.dumps(old))
    with pytest.raises(ValueError, match="unsupported schema_version 1"):
        load_problem(str(path))


def test_load_names_vertex_on_bad_tuple(tmp_path):
    with pytest.raises(ValueError, match="vertex 1"):
        load_problem(write_payload(tmp_path, forbidden=[[], [[0, 1]]]))


@pytest.mark.parametrize("rows", [[[0], [0]], [[1], [0]]])
def test_load_rejects_duplicate_or_unsorted_rows(tmp_path, rows):
    # rows are kept as written: nothing is sorted or dropped on load
    with pytest.raises(ValueError, match="vertex 1: forbidden tuples are not strictly increasing"):
        load_problem(write_payload(tmp_path, forbidden=[[], rows]))


def test_load_shares_equal_tables(tmp_path):
    path = tmp_path / "torus.json"
    save_problem(gen_torus_nae(6, 5, 3), str(path))
    q = load_problem(str(path))
    assert len({id(rows) for rows in q.rule.forbidden}) == 1
    assert len({id(s) for s in q.forbidden_sets()}) == 1


@pytest.mark.parametrize(
    "scopes, forbidden, message",
    [
        # vertices 1 and 2 share one table; vertex 2's scope is one cell longer
        ([[0], [1], [1, 2]], [[], [[0]], [[0]]], "vertex 2: forbidden tuple (0,) has length 1, scope needs 2"),
        # equal under ==, but true is no colour: the tables are not merged
        ([[0], [1], [2]], [[[1]], [[1]], [[True]]], "vertex 2: colour True out of range 0..1"),
        ([[0], [1], [2]], [[[1]], [[1.0]], [[1]]], "vertex 1: colour 1.0 out of range 0..1"),
    ],
)
def test_load_checks_each_vertex_of_a_shared_table(tmp_path, scopes, forbidden, message):
    with pytest.raises(ValueError) as caught:
        load_problem(write_payload(tmp_path, scopes=scopes, forbidden=forbidden))
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "scopes, forbidden, message",
    [
        ([[], [1, 1]], [[], 7], "vertex 1: scope must be strictly increasing vertex ids in 0..1"),
        ([[], [1, 1]], 7, "vertex 1: scope must be strictly increasing vertex ids in 0..1"),
        ([[0], ["0"]], [[[0]], [0]], "vertex 1: scope must be a list of integer vertex ids"),
        ([[0], [0], [2, 3]], [[[0]], [[0]], [0]], "vertex 2: scope must be strictly increasing vertex ids in 0..2"),
    ],
)
def test_load_reports_a_bad_scope_before_a_bad_table(tmp_path, scopes, forbidden, message):
    # the tables are shared before the scopes are checked, but that step raises nothing
    with pytest.raises(ValueError) as caught:
        load_problem(write_payload(tmp_path, scopes=scopes, forbidden=forbidden))
    assert str(caught.value) == message


@pytest.mark.parametrize("odd", [5, [0], [[0], 0], {"0": [0]}, None])
def test_load_rejects_a_non_list_table_among_equal_tables(tmp_path, odd):
    # the list shape is checked once per distinct table, after equal tables are shared
    with pytest.raises(ValueError) as caught:
        load_problem(write_payload(tmp_path, scopes=[[0], [1], [2], [3]], forbidden=[[[0]], [[0]], odd, [[0]]]))
    assert str(caught.value) == "field 'forbidden' must hold, per vertex, a list of colour tuples"


@pytest.mark.parametrize("forbidden", [[[]], [[], [[0]], []]])
def test_load_rejects_rule_table_of_another_length(tmp_path, forbidden):
    with pytest.raises(ValueError, match="rule table size"):
        load_problem(write_payload(tmp_path, forbidden=forbidden))


# ---------------------------------------------------------------------------
# schema 3 against schema 2

# every problem input of the golden corpus but malformed.json, which no schema loads
GOLDEN_PROBLEMS = [
    "torus10",
    "ksat6",
    "single_clause",
    "unsat",
    "unsat_2x4",
    "unsat_3x9",
    "tiny1000",
    "torus10_schema3",
    "ksat6_schema3",
]


@pytest.mark.parametrize("name", GOLDEN_PROBLEMS)
def test_golden_problem_survives_a_schema_3_round_trip(tmp_path, name):
    p = load_problem(str(GOLDEN_DIR / f"{name}.json"))
    assert saved_and_loaded(tmp_path, p) == p
    assert load_problem(write_json(tmp_path, schema2_payload(p), "schema2.json")) == p


@pytest.mark.parametrize("name", ["torus10", "ksat6"])
def test_schema_3_golden_inputs_load_as_their_schema_2_forms(name):
    p2 = load_problem(str(GOLDEN_DIR / f"{name}.json"))
    p3 = load_problem(str(GOLDEN_DIR / f"{name}_schema3.json"))
    assert p3 == p2
    assert (p3.graph.torus, p2.graph.torus) == (((10, 10), None) if name == "torus10" else (None, None))


@pytest.mark.parametrize("w, h", [(3, 3), (3, 8), (10, 4), (17, 17)])
def test_described_torus_is_the_generated_and_the_checked_graph(tmp_path, w, h):
    p = gen_torus_nae(w, h, 2)
    q = saved_and_loaded(tmp_path, p)
    assert q.graph.torus == p.graph.torus == (w, h)
    assert q.graph == p.graph == torus_graph(w, h)
    assert q.graph == Digraph.from_scopes([list(scope) for scope in q.graph.out_adj])
    assert q.graph.in_adj is q.graph.out_adj


def test_only_the_builder_marks_a_torus(tmp_path):
    # the same graph from scope lists is written as scope lists; its sides are not guessed
    p = load_problem(str(GOLDEN_DIR / "torus10.json"))
    assert p.graph == instance_io.torus_graph(10, 10) and p.graph.torus is None
    path = tmp_path / "resaved.json"
    save_problem(p, str(path))
    payload = json.loads(path.read_text())
    assert "graph" not in payload and payload["scopes"] == p.graph.out_adj
    assert gen_torus_nae(10, 10, 2).graph.torus == (10, 10)
    assert gen_grid_ksat(3, 3, 2, 1, 1, seed=0).graph.torus is None


def test_metadata_never_shapes_the_graph(tmp_path):
    p = gen_torus_nae(5, 4, 2)
    q = saved_and_loaded(tmp_path, p)
    path = tmp_path / "saved.json"
    payload = json.loads(path.read_text())
    payload["metadata"].update(w=10, h=10, generator="grid_ksat")
    r = load_problem(write_json(tmp_path, payload, "lying.json"))
    assert r.graph == q.graph == torus_graph(5, 4) and r.n == 20
    assert r.metadata == payload["metadata"]


def test_equal_tables_in_the_file_become_one_tuple(tmp_path):
    tables = [[[0]], [[0]]]
    payload = {"schema_version": 3, "b": 2, "scopes": [[0], [1], [2]], "tables": tables, "table_of": [0, 1, 1]}
    q = load_problem(write_json(tmp_path, payload))
    assert q.rule.forbidden[0] is q.rule.forbidden[1] is q.rule.forbidden[2] == ((0,),)
    assert len({id(s) for s in q.forbidden_sets()}) == 1


def test_one_index_serves_every_vertex(tmp_path):
    payload = {"schema_version": 3, "b": 3, "scopes": [[0, 1], [0, 1]], "tables": [[], [[0, 2]]], "table_of": 1}
    q = load_problem(write_json(tmp_path, payload))
    assert q.rule.forbidden == [((0, 2),), ((0, 2),)]


@pytest.mark.parametrize(
    "make, one_index",
    [
        (lambda: gen_torus_nae(6, 5, 3), True),
        (lambda: gen_grid_ksat(4, 4, 3, 2, 2, seed=5), False),
        (lambda: gen_grid_ksat(3, 3, 1, 1, 3, seed=2, b=3), False),
    ],
)
def test_schema_3_tables_are_interned_once_and_indexed(tmp_path, monkeypatch, make, one_index):
    # the loader interns the file's T tables, not one table per vertex, and each vertex of one
    # table holds the same tuple; the file loads equal to its schema-2 form
    p = make()
    path = tmp_path / "problem.json"
    save_problem(p, str(path))
    payload = json.loads(path.read_text())
    assert (type(payload["table_of"]) is int) == one_index
    interned_sizes = []
    real = LocalRule.interned

    def spy(tables, distinct):
        interned_sizes.append(len(tables))
        return real(tables, distinct)

    monkeypatch.setattr(LocalRule, "interned", staticmethod(spy))
    q = load_problem(str(path))
    assert interned_sizes == [len(payload["tables"])]
    table_of = [payload["table_of"]] * q.n if one_index else payload["table_of"]
    first = {}
    for x, i in enumerate(table_of):
        assert q.rule.forbidden[x] is first.setdefault(i, q.rule.forbidden[x])
    assert len({id(rows) for rows in q.rule.forbidden}) == len(payload["tables"])
    assert q == load_problem(write_json(tmp_path, schema2_payload(p), "schema2.json")) == p


# tables of random valid problems: rows drawn per scope length, a table reused by
# several vertices, and the empty table, the one table valid at two scope lengths
@st.composite
def random_problems(draw):
    b = draw(st.integers(2, 3))
    n = draw(st.integers(1, 7))
    scopes = [sorted(draw(st.sets(st.integers(0, n - 1), max_size=3))) for _ in range(n)]
    scopes[0] = []  # the empty table is used at length 0 and, below, at another length
    made: dict[int, list] = {}  # scope length -> tables made for it so far
    rows_of = []
    for x, scope in enumerate(scopes):
        k = len(scope)
        earlier = made.setdefault(k, [()])
        if x > 0 and k > 0 and draw(st.booleans()):
            rows = draw(st.sampled_from(earlier))
        else:
            tuples = st.tuples(*[st.integers(0, b - 1)] * k)
            rows = tuple(sorted(draw(st.sets(tuples, max_size=min(4, b**k - 1))))) if k else ()
            earlier.append(rows)
        rows_of.append(rows)
    if any(scopes):
        rows_of[next(x for x, scope in enumerate(scopes) if scope)] = ()
    metadata = {"seed": draw(st.integers(0, 9))}
    p = ColouringProblem(Digraph.from_scopes(scopes), b, LocalRule(rows_of), metadata=metadata)
    p.validate()
    return p


@settings(max_examples=80, deadline=None)
@given(random_problems())
def test_random_problems_round_trip_through_schema_3(p):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        q = saved_and_loaded(tmp, p)
        assert q == p
        assert load_problem(write_json(tmp, schema2_payload(p))) == q
        # equal tables, shared or not in p, are one tuple in q
        for x, y in itertools.combinations(range(p.n), 2):
            assert (q.rule.forbidden[x] is q.rule.forbidden[y]) == (p.rule.forbidden[x] == p.rule.forbidden[y])


@pytest.mark.parametrize(
    "scopes, forbidden, message",
    [
        # vertices 1 and 2 share one table; vertex 2's scope is one cell longer
        ([[0], [1], [1, 2]], [[], [[0]], [[0]]], "vertex 2: forbidden tuple (0,) has length 1, scope needs 2"),
        # equal under ==, but true and 1.0 are no colours: their tables are not merged
        ([[0], [1], [2]], [[[1]], [[1]], [[True]]], "vertex 2: colour True out of range 0..1"),
        ([[0], [1], [2]], [[[1]], [[1.0]], [[1]]], "vertex 1: colour 1.0 out of range 0..1"),
        ([[0], [1], [2]], [[[1.0]], [[1]], [[1.0]]], "vertex 0: colour 1.0 out of range 0..1"),
        ([[0], [1], [2]], [[[0]], [[True]], [[True]]], "vertex 1: colour True out of range 0..1"),
    ],
)
def test_shared_table_faults_are_named_as_in_schema_2(tmp_path, scopes, forbidden, message):
    schema2 = {"schema_version": 2, "b": 2, "scopes": scopes, "forbidden": forbidden}
    for payload in (schema2, schema3_payload(schema2)):
        with pytest.raises(ValueError) as caught:
            load_problem(write_json(tmp_path, payload))
        assert str(caught.value) == message


def test_torus_cap_is_checked_before_anything_is_built(tmp_path):
    side = 1 << 20
    payload = {"schema_version": 3, "b": 2, "graph": {"torus": [side, side]}, "tables": [[]], "table_of": 0}
    path = write_json(tmp_path, payload)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^torus needs at most {MAX_TORUS_CELLS} cells, not {side}x{side}$"):
            gen_torus_nae(side, side, 2)
        with pytest.raises(ValueError, match=f"^field 'graph': torus needs at most {MAX_TORUS_CELLS} cells"):
            load_problem(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # a 1000 x 1000 torus fits, and so does the largest square the cap allows
    assert 1000 * 1000 <= 1024 * 1024 == MAX_TORUS_CELLS


def test_torus_cap_bounds_the_cell_count(monkeypatch):
    # the bound is on w * h, inclusive, whatever the shape; checked here at 12 cells
    monkeypatch.setattr(instance_io, "MAX_TORUS_CELLS", 12)
    assert instance_io.torus_graph(3, 4).n == instance_io.torus_graph(4, 3).n == 12
    for w, h in [(4, 4), (3, 5), (5, 3)]:
        with pytest.raises(ValueError, match=f"^torus needs at most 12 cells, not {w}x{h}$"):
            instance_io.torus_graph(w, h)
