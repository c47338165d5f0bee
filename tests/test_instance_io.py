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
from tests.reference_partition import reference_check_subexp


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


def test_torus_subexp_certificate():
    p = gen_torus_nae(5, 5, 2)
    cert = p.metadata["subexp"]
    assert cert is not None
    from resample_forge.graph_core import check_subexp

    assert check_subexp(p.graph, cert["R"], cert["eps"], cert["d"])


def first_reference_certificate(g):
    """The first (R, eps), R = 1..5 then eps = 0.5, 1, 2, that the ball-per-vertex growth check accepts."""
    d = max(1, g.maxdeg())
    for big_r in range(1, 6):
        for eps in (0.5, 1.0, 2.0):
            if reference_check_subexp(g, big_r, eps, d):
                return {"R": big_r, "eps": eps, "d": d}
    return None


@pytest.mark.parametrize("side", range(3, 21))
def test_torus_certificate_is_the_first_the_reference_accepts(side):
    for w in {side, max(3, side - 5)}:
        p = gen_torus_nae(w, side, 2)
        assert p.metadata["subexp"] == first_reference_certificate(p.graph)


@pytest.mark.parametrize("w, h, k, radius, seed", [(1, 1, 1, 1, 0), (3, 4, 3, 3, 0), (6, 6, 5, 2, 1), (8, 5, 3, 1, 2)])
def test_ksat_certificate_is_the_first_the_reference_accepts(w, h, k, radius, seed):
    p = gen_grid_ksat(w, h, k, radius, 1, seed)
    assert p.metadata["subexp"] == first_reference_certificate(p.graph)


def test_certificate_absent_on_the_16x16_torus():
    assert gen_torus_nae(16, 16, 2).metadata["subexp"] is None


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


def test_ksat_variables_never_bad():
    p = gen_grid_ksat(3, 3, 3, 2, 2, seed=2)
    colouring = [x % 2 for x in range(p.n)]
    assert all(c >= 9 for c in bad_set(p, colouring))


# ---------------------------------------------------------------------------
# problem files


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_torus_nae(4, 4, 2),
        lambda: gen_torus_nae(5, 3, 3),
        lambda: gen_grid_ksat(4, 4, 3, 2, 2, seed=5),
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


@pytest.mark.parametrize("forbidden", [[[]], [[], [[0]], []]])
def test_load_rejects_rule_table_of_another_length(tmp_path, forbidden):
    with pytest.raises(ValueError, match="rule table size"):
        load_problem(write_payload(tmp_path, forbidden=forbidden))
