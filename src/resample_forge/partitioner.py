"""Distance-sparse vertex partitions.

A partition is r-sparse when distinct same-part vertices sit at undirected
distance greater than 2r; equivalently, every radius-r ball sees pairwise
distinct parts.  Such partitions are exactly the proper colourings of the
distance-2r power graph, and `sparse_partition` colours that graph greedily
without building it.  It rests on the midpoint identity: x and y are within
distance 2r exactly when some z lies within r of both, since a shortest
path of length k <= 2r splits at its midpoint into ceil(k/2) + floor(k/2)
steps, each at most r.  So the radius-r balls, read from the radius-r
power graph, carry all the colouring needs.  `graph_core.power_graph`
writes a torus's balls down with `graph_core.torus_rows`, as zipped slices
of one cell list clear of the side seams and sorted sets at them, and finds
those of every other graph by one reused-array BFS scan in `graph_core.balls`.
"""

from __future__ import annotations

from dataclasses import dataclass

from resample_forge.graph_core import Digraph, power_graph
# unused here, but perfbench/tracing.py wraps the name partitioner.ball
from resample_forge.graph_core import ball  # noqa: F401


@dataclass(frozen=True)
class SparsePartition:
    """Vertex partition given by part_of; part indices are dense 0..num_parts-1."""

    num_parts: int
    part_of: tuple[int, ...]


def singleton_partition(n: int) -> SparsePartition:
    """Every vertex its own part; r-sparse for every r."""
    return SparsePartition(n, tuple(range(n)))


def sparse_partition(g: Digraph, r: int) -> SparsePartition:
    """Greedy colouring of the distance-2r power graph, scanning vertices by index.

    Each vertex x takes the least colour unused among the already-coloured
    vertices within distance 2r of it, so the colour set comes out dense.
    Only the radius-r power graph is built.  `seen[z]` is a bitmask whose
    bit c is set once a vertex of colour c lies within r of z.  By the
    midpoint identity, the OR of `seen[z]` over the radius-r ball of x (x
    included) has bit c set exactly when a coloured vertex of colour c lies
    within 2r of x, so its lowest zero bit is the old least-absent colour.
    x then sets that bit in `seen[z]` for every z of its ball.
    """
    if r < 1:
        raise ValueError("sparsity radius must be >= 1")
    seen = [0] * g.n
    colour = []
    for x, near in enumerate(power_graph(g, r).out_adj):
        m = seen[x]
        for z in near:
            m |= seen[z]
        bit = ~m & (m + 1)  # lowest zero bit of m
        colour.append(bit.bit_length() - 1)
        seen[x] |= bit
        for z in near:
            seen[z] |= bit
    num_parts = max(colour) + 1 if g.n else 0
    return SparsePartition(num_parts, tuple(colour))


def is_pi_unique(pi: SparsePartition, subset) -> bool:
    """True iff the partition map is injective on `subset`: as many distinct parts as members.

    `subset` may be any iterable of vertices, read once.  A repeated vertex
    shares its part with itself, so a subset that repeats one is never
    injective.
    """
    parts = list(map(pi.part_of.__getitem__, subset))
    return len(set(parts)) == len(parts)
