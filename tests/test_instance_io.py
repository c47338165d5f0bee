"""Generators and problem files."""

import json

import pytest

from resample_forge.instance_io import (
    gen_grid_ksat,
    gen_torus_nae,
    load_problem,
    save_problem,
)
from resample_forge.mta_runner import run
from resample_forge.partitioner import singleton_partition
from resample_forge.rule_engine import bad_set, lll_margin, satisfies
from resample_forge.tape import RandomTape


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
    assert p.metadata["d"] == 5
    assert p.metadata["margin"] == pytest.approx(1 / 16)


def test_torus_constant_colouring_violates_everywhere():
    p = gen_torus_nae(4, 4, 3)
    assert bad_set(p, [1] * p.n) == list(range(p.n))
    # checkerboard satisfies on even-by-even tori
    chess = [(i + j) % 2 for i in range(4) for j in range(4)]
    assert satisfies(p, chess)


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
        assert p.metadata == {"generator": "torus_nae", "w": w, "h": side, "b": 2, **reference_stamps(p)}


@pytest.mark.parametrize("make", [lambda: gen_torus_nae(12, 9, 3), lambda: gen_grid_ksat(6, 6, 5, 2, 2, seed=4)])
def test_generators_hold_no_dependency_rows(make):
    # Delta is streamed, so a generated problem keeps neither the whole graph nor any row
    p = make()
    assert p._rel is None and p._rel_rows is None
    assert p.metadata["Delta"] == p.big_delta() == reference_stamps(p)["Delta"]


def test_torus_rejects_small_sides():
    with pytest.raises(ValueError):
        gen_torus_nae(2, 5, 2)
    with pytest.raises(ValueError):
        gen_torus_nae(4, 4, 1)


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


def test_ksat_radius_too_tight():
    with pytest.raises(ValueError, match="fewer than k"):
        gen_grid_ksat(3, 3, 6, 1, 1, seed=0)


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
    assert {key: p.metadata[key] for key in ("d", "Delta", "margin")} == reference_stamps(p)


def test_ksat_variables_never_bad():
    p = gen_grid_ksat(3, 3, 3, 2, 2, seed=2)
    colouring = [x % 2 for x in range(p.n)]
    assert all(c >= 9 for c in bad_set(p, colouring))


# ---------------------------------------------------------------------------
# problem files


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
        torus_with_legacy_metadata,
    ],
)
def test_round_trip_identity(tmp_path, make):
    p = make()
    path = tmp_path / "problem.json"
    save_problem(p, str(path))
    q = load_problem(str(path))
    assert q.n == p.n and q.b == p.b
    assert q.graph.out_adj == p.graph.out_adj
    assert q.graph.in_adj == p.graph.in_adj
    assert q.rule.forbidden == p.rule.forbidden
    assert q.metadata == p.metadata


def test_file_mirrors_the_model(tmp_path):
    p = gen_torus_nae(3, 3, 2)
    path = tmp_path / "torus.json"
    save_problem(p, str(path))
    text = path.read_text()
    assert "\n" not in text[:-1] and text.endswith("}\n")  # compact, one line
    payload = json.loads(text)
    assert sorted(payload) == ["b", "forbidden", "metadata", "schema_version", "scopes"]
    assert payload["schema_version"] == 2
    assert payload["scopes"] == p.graph.out_adj
    assert payload["forbidden"] == [[list(t) for t in rows] for rows in p.rule.forbidden]


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
