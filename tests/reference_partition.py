"""Ball-per-vertex references for the BFS ball scans, kept as differential oracles.

Each function scans every vertex with its own `ball()` call (a fresh set and
deque per vertex), as the package did before `graph_core.balls`; the
adjacency check compares two sets of edge pairs.
"""

import math

from resample_forge.graph_core import Digraph, ball
from resample_forge.partitioner import SparsePartition


def reference_power_graph(g, r):
    if r < 0:
        raise ValueError("radius must be nonnegative")
    adj = []
    for x in range(g.n):
        near = ball(g, x, r)
        near.discard(x)
        adj.append(sorted(near))
    return Digraph(g.n, adj, [list(a) for a in adj])


def reference_sparse_partition(g, r):
    if r < 1:
        raise ValueError("sparsity radius must be >= 1")
    padj = reference_power_graph(g, 2 * r).out_adj
    colour = [-1] * g.n
    for x in range(g.n):
        taken = {colour[y] for y in padj[x] if colour[y] >= 0}
        c = 0
        while c in taken:
            c += 1
        colour[x] = c
    num_parts = max(colour) + 1 if g.n else 0
    return SparsePartition(num_parts, tuple(colour), r)


def reference_is_r_sparse(g, pi, r):
    if r < 0:
        raise ValueError("radius must be nonnegative")
    for x in range(g.n):
        seen = set()
        for y in ball(g, x, r):
            alpha = pi.part_of[y]
            if alpha in seen:
                return False
            seen.add(alpha)
    return True


def reference_check_subexp(g, big_r, eps, d):
    if big_r < 1:
        raise ValueError("R must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if d < 0:
        raise ValueError("d must be nonnegative")
    if g.maxdeg() > d:
        return False
    limit_log = big_r * math.log1p(eps) + 1e-9
    for x in range(g.n):
        if math.log(len(ball(g, x, 3 * big_r))) > limit_log:
            return False
    return True


def reference_validate(g):
    """`Digraph.validate` with the out/in check done on two sets of edge pairs."""
    if len(g.out_adj) != g.n or len(g.in_adj) != g.n:
        raise ValueError("adjacency list count does not match vertex count")
    for name, adj in (("out", g.out_adj), ("in", g.in_adj)):
        for x, lst in enumerate(adj):
            if lst != sorted(set(lst)):
                raise ValueError(f"{name}-adjacency of vertex {x} is not sorted and duplicate-free")
            for y in lst:
                if not (0 <= y < g.n):
                    raise ValueError(f"{name}-adjacency of vertex {x} mentions out-of-range vertex {y}")
    out_pairs = {(x, y) for x in range(g.n) for y in g.out_adj[x]}
    in_pairs = {(y, x) for x in range(g.n) for y in g.in_adj[x]}
    if out_pairs != in_pairs:
        raise ValueError("out- and in-adjacency disagree")
