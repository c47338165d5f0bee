"""The grid k-SAT generator as it was before its clause windows were written down, kept as a differential oracle.

`reference_gen_grid_ksat` walks each cell's (2r+1)-square, clipped at the
grid edge, keeps the cells within L1 distance `clause_radius`, and draws
each clause's scope from a fresh copy of that window, one `nonlocal`
counter step per draw.  `instance_io.gen_grid_ksat` must build the same
problem from each grid row's reach table.
"""

from resample_forge.graph_core import Digraph
from resample_forge.instance_io import MAX_TORUS_CELLS
from resample_forge.rule_engine import ColouringProblem, LocalRule
from resample_forge.tape import GAMMA, MASK64, mix64, require_ints


def reference_gen_grid_ksat(
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
    from a counter-based deterministic stream.  The w*h*(1 + clauses_per_cell)
    vertices are at most `MAX_TORUS_CELLS`, the torus's bound, checked before
    anything is built.
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
