"""Non-grid differential tests: the partition and the engine on cycles, 3-D tori and random 4-regular graphs.

Every generated instance is a 2-D grid, so these families, built through
`Digraph.from_scopes` by `tests/reference_families.py`, are the only graphs
of other growth the partition and the engine meet in the suite.  The cycle's
length is not a multiple of 5, so its partition is not periodic by accident.
"""

import pytest

from resample_forge.mta_runner import run
from resample_forge.partitioner import singleton_partition, sparse_partition
from resample_forge.tape import RandomTape, symbols_consumed
from tests.reference_families import cycle, nae_tables, random_4_regular, random_tables, torus3d
from tests.reference_partition import reference_is_r_sparse, reference_sparse_partition
from tests.reference_runner import assert_same_trace, reference_run

TABLES = {"nae": lambda seed: nae_tables, "random": lambda seed: random_tables(seed=seed)}

# a few hundred cells each: enough that NAE tables are violated in some runs
MEMBERS = {
    "cycle": lambda seed, tables: cycle(203, tables),
    "torus3d": lambda seed, tables: torus3d(7, 8, 9, tables),
    "random_4_regular": lambda seed, tables: random_4_regular(203, seed, tables),
}

SCOPE_SIZES = {"cycle": {5}, "torus3d": {7}, "random_4_regular": {3, 4, 5}}


@pytest.mark.parametrize("family", list(MEMBERS))
def test_builders_give_symmetric_scopes_holding_their_own_cell(family):
    g = MEMBERS[family](0, nae_tables).graph
    assert g.out_adj is g.in_adj  # from_scopes shares the lists exactly when the scopes are symmetric
    assert all(x in scope for x, scope in enumerate(g.out_adj))
    assert set(map(len, g.out_adj)) <= SCOPE_SIZES[family]


@pytest.mark.parametrize("kind", list(TABLES))
def test_tables_forbid_their_stated_share(kind):
    p = MEMBERS["torus3d"](0, TABLES[kind](0))
    assert p.b == {"nae": 3, "random": 2}[kind]
    # NAE forbids the 3 constant tuples; random tables forbid 1/16 of the 2^7 tuples of a seven-cell scope
    assert set(map(len, p.rule.forbidden)) == {3 if kind == "nae" else 2**7 // 16}


@pytest.mark.parametrize("family", list(MEMBERS))
@pytest.mark.parametrize("r", [1, 2, 3])
def test_sparse_partition_is_r_sparse(family, r):
    for seed in range(2):
        g = MEMBERS[family](seed, nae_tables).graph
        pi = sparse_partition(g, r)
        assert reference_is_r_sparse(g, pi, r)
        assert pi == reference_sparse_partition(g, r)


@pytest.mark.parametrize("family", list(MEMBERS))
@pytest.mark.parametrize("kind", list(TABLES))
def test_run_matches_full_rescan(family, kind):
    rounds = 0
    for seed in range(5):
        p = MEMBERS[family](seed, TABLES[kind](seed))
        for pi in (singleton_partition(p.n), sparse_partition(p.graph, 1)):
            trace = run(p, pi, RandomTape(seed, p.b), max_steps=30)
            assert_same_trace(trace, reference_run(p, pi, RandomTape(seed, p.b), max_steps=30))
            assert symbols_consumed(trace, pi).count >= max(trace.h)
            rounds += trace.rounds
    assert rounds > 0  # some run resampled, so more than the fill was compared
