"""Simple references for the graph builders and ball scans, kept as differential oracles.

The scans call `ball()` once per vertex (a fresh set and deque per vertex),
as the package did before `graph_core.balls`; `from_edges` and `build_rel`
fill one set per vertex and sort each, as the package did before its
key-sorted and union builders, and `reference_und_adj` unions an out-set
and an in-set per vertex: the undirected rows that `ball` and `balls` walk.
`reference_validate` is the graph check the package no longer makes on
graphs it builds itself.  `reference_from_scopes` types each scope in its
own loop step, as `Digraph.from_scopes` did before its two whole-list type
passes.  `reference_is_pi_unique` walks the subset and
stops at the first repeated part, as `is_pi_unique` did before it compared
set sizes.
"""

from resample_forge.graph_core import Digraph, ball
from resample_forge.partitioner import SparsePartition


def reference_is_pi_unique(pi, subset):
    seen = set()
    for x in subset:
        alpha = pi.part_of[x]
        if alpha in seen:
            return False
        seen.add(alpha)
    return True


def reference_from_edges(n, edges):
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    out_sets = [set() for _ in range(n)]
    in_sets = [set() for _ in range(n)]
    for src, dst in edges:
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"edge ({src}, {dst}) out of range for n={n}")
        out_sets[src].add(dst)
        in_sets[dst].add(src)
    return Digraph([sorted(s) for s in out_sets], [sorted(s) for s in in_sets])


def reference_from_scopes(scopes):
    if type(scopes) is not list:
        raise ValueError("scopes must be a list of vertex lists")
    n = len(scopes)
    for x, scope in enumerate(scopes):
        if not (type(scope) is list and all(type(v) is int for v in scope)):
            raise ValueError(f"vertex {x}: scope must be a list of integer vertex ids")
        if scope and not (0 <= scope[0] and scope[-1] < n and all(a < b for a, b in zip(scope, scope[1:]))):
            raise ValueError(f"vertex {x}: scope must be strictly increasing vertex ids in 0..{n - 1}")
    in_sets = [set() for _ in range(n)]
    for src, scope in enumerate(scopes):
        for dst in scope:
            in_sets[dst].add(src)
    in_adj = [sorted(s) for s in in_sets]
    return Digraph(scopes, scopes if in_adj == scopes else in_adj)


def reference_und_adj(g):
    und = []
    for x in range(g.n):
        s = set(g.out_adj[x]) | set(g.in_adj[x])
        s.discard(x)
        und.append(sorted(s))
    return und


def reference_build_rel(g):
    adj = [set() for _ in range(g.n)]
    for v in range(g.n):
        readers = g.in_adj[v]
        for x in readers:
            for y in readers:
                adj[x].add(y)
    sorted_adj = [sorted(s) for s in adj]
    return Digraph(sorted_adj, [list(a) for a in sorted_adj])


def reference_power_graph(g, r):
    if r < 0:
        raise ValueError("radius must be nonnegative")
    adj = []
    for x in range(g.n):
        near = ball(g, x, r)
        near.discard(x)
        adj.append(sorted(near))
    return Digraph(adj, [list(a) for a in adj])


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
    return SparsePartition(num_parts, tuple(colour))


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


def reference_validate(g):
    """The graph check: sorted, duplicate-free, in-range and consistent adjacency lists.

    The package builds graphs valid by construction and checks only outside
    graphs (`Digraph.from_scopes` and `Digraph.from_edges`), so this is the
    one copy of the whole check.
    The out/in check compares two sets of edge pairs.
    """
    if len(g.in_adj) != len(g.out_adj):
        raise ValueError("in-list count does not match out-list count")
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
