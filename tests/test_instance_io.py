"""Generators, problem files, and result persistence."""

import csv
import json

import pytest

from resample_forge import instance_io
from resample_forge.instance_io import (
    RESULTS_HEADER,
    ExperimentRecord,
    append_results,
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


def test_torus_subexp_certificate():
    p = gen_torus_nae(5, 5, 2)
    cert = p.metadata["subexp"]
    assert cert is not None
    from resample_forge.graph_core import check_subexp

    assert check_subexp(p.graph, cert["R"], cert["eps"], cert["d"])


def test_growth_certificate_is_checked(monkeypatch):
    # a real check, not an assert that vanishes under python -O
    monkeypatch.setattr(instance_io, "check_subexp", lambda *args: False)
    with pytest.raises(RuntimeError, match="check_subexp"):
        gen_torus_nae(5, 5, 2)


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


def test_round_trip_identity(tmp_path):
    p = gen_torus_nae(4, 4, 2)
    path = tmp_path / "torus.json"
    save_problem(p, str(path))
    q = load_problem(str(path))
    assert q.n == p.n and q.b == p.b
    assert q.graph.out_adj == p.graph.out_adj
    assert q.rule.forbidden == p.rule.forbidden
    assert q.metadata == p.metadata


def test_load_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(ValueError, match="schema_version"):
        load_problem(str(path))
    path.write_text(json.dumps({"schema_version": 1, "b": 2, "num_vertices": 2, "edges": []}))
    with pytest.raises(ValueError, match="forbidden"):
        load_problem(str(path))


def test_load_names_vertex_on_bad_tuple(tmp_path):
    path = tmp_path / "bad_tuple.json"
    payload = {
        "schema_version": 1,
        "b": 2,
        "num_vertices": 2,
        "edges": [[1, 0]],
        "forbidden": {"1": [[0, 1]]},
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="vertex 1"):
        load_problem(str(path))


def test_load_dedups_with_warning(tmp_path):
    path = tmp_path / "dup.json"
    payload = {
        "schema_version": 1,
        "b": 2,
        "num_vertices": 2,
        "edges": [[1, 0]],
        "forbidden": {"1": [[0], [0]]},
    }
    path.write_text(json.dumps(payload))
    with pytest.warns(UserWarning, match="duplicate"):
        p = load_problem(str(path))
    assert p.rule.forbidden[1] == ((0,),)


def test_load_rejects_unknown_vertex(tmp_path):
    path = tmp_path / "unknown.json"
    payload = {
        "schema_version": 1,
        "b": 2,
        "num_vertices": 2,
        "edges": [],
        "forbidden": {"7": []},
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unknown vertex 7"):
        load_problem(str(path))


# ---------------------------------------------------------------------------
# results persistence


def test_results_append_and_read(tmp_path):
    path = tmp_path / "results.csv"
    rec = ExperimentRecord("torus-4x4", 16, 7, 16, 3, 2, 20, 20.0, 1.25)
    append_results(str(path), [rec])
    append_results(str(path), [rec])
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == RESULTS_HEADER
    assert len(rows) == 3
    assert rows[1][0] == "torus-4x4"
    assert rows[1] == rows[2] == [str(v) for v in rec.row()]
