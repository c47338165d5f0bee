"""Distance-sparse vertex partitions.

A partition is r-sparse when distinct same-part vertices sit at undirected
distance greater than 2r; equivalently, every radius-r ball sees pairwise
distinct parts.  Such partitions are exactly the proper colourings of the
distance-2r power graph, and `sparse_partition` colours that graph greedily
without building it.  It rests on the midpoint identity: x and y are within
distance 2r exactly when some z lies within r of both, since a shortest
path of length k <= 2r splits at its midpoint into ceil(k/2) + floor(k/2)
steps, each at most r.  So the radius-r balls carry all the colouring
needs, each read once.  On a torus that `instance_io.torus_graph` built
they are the rows of `graph_core.power_graph`, written down by
`graph_core.torus_rows` as zipped slices of one cell list clear of the side
seams and sorted sets at them.  On every other graph they come one at a
time from the reused-array BFS scan of `graph_core.balls`, and none is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from resample_forge.graph_core import Digraph, balls, power_graph
# unused here, but perfbench/tracing.py wraps the name partitioner.ball
from resample_forge.graph_core import ball  # noqa: F401


@dataclass(frozen=True)
class SparsePartition:
    """Vertex partition given by part_of; part indices are dense 0..num_parts-1."""

    num_parts: int
    part_of: tuple[int, ...]


def singleton_partition(n: int) -> SparsePartition:
    """Every vertex its own part; r-sparse for every r.  n must be a nonnegative exact int."""
    if type(n) is not int or n < 0:  # True would pass for 1, and -2 would make num_parts -2
        raise ValueError(f"vertex count must be a nonnegative integer, not {n!r}")
    return SparsePartition(n, tuple(range(n)))


def sparse_partition(g: Digraph, r: int) -> SparsePartition:
    """Greedy colouring of the distance-2r power graph, scanning vertices by index.

    Each vertex x takes the least colour unused among the already-coloured
    vertices within distance 2r of it, so the colour set comes out dense.
    The distance-2r power graph is never built.  Each radius-r ball is
    read in turn: when `g.torus` is set, from the rows `power_graph(g, r)`
    writes down, held for the scan; otherwise from `balls(g, r)`, one
    fresh list dropped once x is coloured.  `seen[z]` is a bitmask whose bit c is set once a vertex of
    colour c lies within r of z.  By the midpoint identity, the OR of
    `seen[z]` over the radius-r ball of x (x included) has bit c set
    exactly when a coloured vertex of colour c lies within 2r of x, so its
    lowest zero bit is the old least-absent colour.  x then sets that bit
    in `seen[z]` for every z of its ball.  Neither pass depends on the
    order within a ball, and a ball from `balls` holding x too only ORs
    and sets `seen[x]` twice, so both sources give the same colouring.
    """
    if type(r) is not int:  # before anything compares it: True would pass for 1
        raise ValueError(f"radius must be an integer, not {r!r}")
    if r < 1:
        raise ValueError("sparsity radius must be >= 1")
    near_of = power_graph(g, r).out_adj if g.torus is not None else balls(g, r)
    seen = [0] * g.n
    colour = []
    for x, near in enumerate(near_of):
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
