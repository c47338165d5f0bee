"""Distance-sparse vertex partitions.

A partition is r-sparse when distinct same-part vertices sit at undirected
distance greater than 2r; equivalently, every radius-r ball sees pairwise
distinct parts.  Such partitions are exactly the proper colourings of the
distance-2r power graph, and `sparse_partition` colours that graph greedily
without building it.  On a torus that `instance_io.torus_graph` built, the
distance between two cells is their wrapped L1 distance, so each grid row
is coloured from bit lists of the earlier rows, widened along the row.  On
every other graph it rests on the midpoint identity: x and y are within
distance 2r exactly when some z lies within r of both, since a shortest
path of length k <= 2r splits at its midpoint into ceil(k/2) + floor(k/2)
steps, each at most r.  So the radius-r balls carry all the colouring
needs, each read once, one at a time from the reused-array BFS scan of
`graph_core.balls`, and none is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from resample_forge.graph_core import Digraph, balls
# unused here, but perfbench/tracing.py wraps the names partitioner.ball and partitioner.power_graph
from resample_forge.graph_core import ball, power_graph  # noqa: F401


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
    The distance-2r power graph is never built.  When `g.torus` is set,
    `_torus_colours` finds those colours one grid row at a time.  Every
    other graph is read one radius-r ball at a time from `balls(g, r)`,
    one fresh list dropped once x is coloured.  `seen[z]` is a bitmask
    whose bit c is set once a vertex of colour c lies within r of z.  By
    the midpoint identity, the OR of `seen[z]` over the radius-r ball of x
    (x included) has bit c set exactly when a coloured vertex of colour c
    lies within 2r of x, so its lowest zero bit is the least-absent colour.
    x then sets that bit in `seen[z]` for every z of its ball.  Neither
    pass depends on the order within a ball, and a ball holding x too only
    ORs and sets `seen[x]` twice.
    """
    if type(r) is not int:  # before anything compares it: True would pass for 1
        raise ValueError(f"radius must be an integer, not {r!r}")
    if r < 1:
        raise ValueError("sparsity radius must be >= 1")
    if g.torus is not None:
        colour = _torus_colours(*g.torus, r)
        return SparsePartition(max(colour) + 1, tuple(colour))
    seen = [0] * g.n
    colour = []
    for x, near in enumerate(balls(g, r)):
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


def _torus_colours(w: int, h: int, r: int) -> list[int]:
    """The greedy colours of the w x h torus's cells (i, j) = i*w + j, in index order.

    Two cells lie within distance 2r exactly when their wrapped row and
    column distances sum to at most 2r; that reach is clamped to the
    diameter w//2 + h//2, as `graph_core.power_graph` clamps r.  A grid row
    is coloured left to right as a list of colour bits (1 << c).  A cell
    ORs its column's entry of the row's pending mask, which holds the bits
    of the earlier rows within reach, with the bits of the at most 2r
    earlier cells of its own row within reach, round the side seam too,
    and takes the lowest zero bit.  The finished row's bits are then
    widened one column at a time, each level a C-level `map(or_, ...)` of
    the level before rotated one column each way.  The level of half-width
    2r - dr (at most w//2) is ORed into the pending mask of each later row
    at wrapped row distance dr <= 2r: the next 2r rows, and the last 2r
    rows, onto which the first rows wrap.  So at most 4r masks are held,
    and each row's bits become colour numbers once the row is done, so that
    `colour` holds only small ints.
    """
    reach = min(2 * r, w // 2 + h // 2)
    across = min(reach, w // 2)  # a wrapped column distance is at most w//2
    pending = {}  # later row -> OR of its earlier rows' widened bits, per column
    colour = []
    for i in range(h):
        mask = pending.pop(i, None) or [0] * w
        bits = []
        for m in mask[: w - across]:
            m = reduce(or_, bits[-across:], m)
            bits.append(~m & (m + 1))  # lowest zero bit of m
        for k, m in enumerate(mask[w - across :], 1):  # the row's first k cells lie within reach round the seam
            m = reduce(or_, bits[-across:], reduce(or_, bits[:k], m))
            bits.append(~m & (m + 1))
        colour += [bit.bit_length() - 1 for bit in bits]
        later = {*range(i + 1, min(h, i + reach + 1)), *range(max(i + 1, h - reach + i), h)}
        widened = [bits]  # widened[k][j]: the OR of bits over the columns within k of j, wrapped
        strip = bits
        for k in range(1, min(reach - 1, w // 2) + 1):
            # the columns within k of j: those within k - 1 of j - 1 or of j + 1, and j itself at k = 1
            wider = map(or_, strip[1:] + strip[:1], strip[-1:] + strip[:-1])
            strip = list(map(or_, wider, bits) if k == 1 else wider)
            widened.append(strip)
        for t in later:
            strip = widened[min(reach - min(t - i, h - t + i), w // 2)]
            pending[t] = list(map(or_, pending[t], strip)) if t in pending else strip
    return colour


def is_pi_unique(pi: SparsePartition, subset) -> bool:
    """True iff the partition map is injective on `subset`: as many distinct parts as members.

    `subset` may be any iterable of vertices, read once.  A repeated vertex
    shares its part with itself, so a subset that repeats one is never
    injective.
    """
    parts = list(map(pi.part_of.__getitem__, subset))
    return len(set(parts)) == len(parts)
