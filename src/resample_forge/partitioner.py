"""Distance-sparse vertex partitions.

A partition is r-sparse when distinct same-part vertices sit at undirected
distance greater than 2r; equivalently, every radius-r ball sees pairwise
distinct parts.  Such partitions are exactly the proper colourings of the
distance-2r power graph, and are built here by greedy colouring.  The power
graph's adjacency comes from one reused-array BFS scan (`graph_core.balls`),
not from one `ball()` call per vertex.
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
    sparsity_r: int

    def validate(self) -> None:
        if self.num_parts < 0:
            raise ValueError("negative part count")
        used = set(self.part_of)
        if used != set(range(self.num_parts)):
            raise ValueError("part indices are not dense 0..num_parts-1")


def singleton_partition(n: int) -> SparsePartition:
    """Every vertex its own part; r-sparse for every r."""
    return SparsePartition(n, tuple(range(n)), 0)


def sparse_partition(g: Digraph, r: int) -> SparsePartition:
    """Greedy colouring of the distance-2r power graph, scanning vertices by index.

    Each vertex takes the least colour unused among its already-coloured
    power-graph neighbours, so the colour set comes out dense.
    """
    if r < 1:
        raise ValueError("sparsity radius must be >= 1")
    padj = power_graph(g, 2 * r).out_adj
    colour = [-1] * g.n
    for x in range(g.n):
        taken = set(map(colour.__getitem__, padj[x]))  # -1 (uncoloured) is never chosen
        c = 0
        while c in taken:
            c += 1
        colour[x] = c
    num_parts = max(colour) + 1 if g.n else 0
    return SparsePartition(num_parts, tuple(colour), r)


def is_pi_unique(pi: SparsePartition, subset) -> bool:
    """True iff the partition map is injective on `subset`."""
    seen: set[int] = set()
    for x in subset:
        alpha = pi.part_of[x]
        if alpha in seen:
            return False
        seen.add(alpha)
    return True
