"""Seeded, stdlib-only builders of non-grid instance families, for differential tests.

Every instance the package generates is a 2-D grid; these three families are
not, and each graph goes through the checked constructor
`Digraph.from_scopes`.  Every scope holds its own cell, and every family is
symmetric (y reads x exactly when x reads y).

- `cycle(n, tables)`: cell x reads x-2..x+2 around a cycle of n >= 5 cells.
  A length that 5 does not divide keeps the greedy partition, and so every
  run, from being periodic by accident.
- `torus3d(a, b, c, tables)`: the a x b x c torus, each side >= 3, where a
  cell reads itself and its six axis neighbours, seven cells.
- `random_4_regular(n, seed, tables)`: cell x reads x, σ(x), σ⁻¹(x), τ(x)
  and τ⁻¹(x) for two seeded cyclic permutations σ and τ of the n >= 3 cells
  (each one cycle through all of them, so neither fixes a cell).  Its balls
  grow exponentially.  A cell where σ and τ meet reads fewer than five.

`tables` is `nae_tables`, b = 3 with the three constant tuples forbidden at
every cell, or `random_tables(share, seed)`, b = 2 with each cell forbidding
floor(share * 2^k) distinct tuples of its k-cell scope, drawn by a seeded
`random.Random`.
"""

import itertools
import math
import random
from fractions import Fraction

from resample_forge.graph_core import Digraph
from resample_forge.rule_engine import ColouringProblem, LocalRule


def nae_tables(scopes):
    """b = 3, and each cell forbids the three constant tuples over its scope."""
    return 3, [tuple((c,) * len(scope) for c in range(3)) for scope in scopes]


def random_tables(share=Fraction(1, 16), seed=0):
    """b = 2, and each cell forbids floor(share * 2^k) distinct random tuples of its k cells."""

    def tables(scopes):
        rng = random.Random(seed)
        rows = []
        for scope in scopes:
            space = list(itertools.product(range(2), repeat=len(scope)))
            rows.append(tuple(sorted(rng.sample(space, math.floor(share * len(space))))))
        return 2, rows

    return tables


def problem(scopes, tables) -> ColouringProblem:
    """The checked graph of `scopes` with the rule `tables(scopes)` gives it, validated."""
    g = Digraph.from_scopes(scopes)
    b, rows = tables(scopes)
    p = ColouringProblem(g, b, LocalRule(rows))
    p.validate()
    return p


def cycle(n, tables) -> ColouringProblem:
    if n < 5:
        raise ValueError("a cycle needs n >= 5 for five distinct cells per scope")
    return problem([sorted((x + d) % n for d in range(-2, 3)) for x in range(n)], tables)


def torus3d(a, b, c, tables) -> ColouringProblem:
    if min(a, b, c) < 3:
        raise ValueError("a 3-D torus needs every side >= 3 for seven distinct cells per scope")
    scopes = []
    for i, j, k in itertools.product(range(a), range(b), range(c)):
        near = [(i, j, k)]
        for d in (-1, 1):
            near += [((i + d) % a, j, k), (i, (j + d) % b, k), (i, j, (k + d) % c)]
        scopes.append(sorted((x * b + y) * c + z for x, y, z in near))
    return problem(scopes, tables)


def random_4_regular(n, seed, tables) -> ColouringProblem:
    if n < 3:
        raise ValueError("a random 4-regular graph needs n >= 3")
    rng = random.Random(seed)
    scopes = [{x} for x in range(n)]
    for _ in range(2):  # σ, then τ: each the cycle through one random order of the cells
        order = rng.sample(range(n), n)
        for x, y in zip(order, order[1:] + order[:1]):
            scopes[x].add(y)
            scopes[y].add(x)
    return problem([sorted(s) for s in scopes], tables)
