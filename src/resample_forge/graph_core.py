"""Digraph plumbing: adjacency, dependency graph, balls, greedy MIS, growth checks.

Vertices are dense integers 0..n-1.  Out-neighbours of a vertex are the cells
it reads (its scope), in-neighbours are the vertices whose scope contains it.
Self-loops are allowed, at most one per vertex.  Distances are measured in the
underlying undirected graph.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass, field


@dataclass
class Digraph:
    """Simple digraph with dense integer vertices and sorted adjacency lists.

    The adjacency lists are read-only once built.  A symmetric graph may share
    one list of lists as both `out_adj` and `in_adj`.
    """

    n: int
    out_adj: list[list[int]]
    in_adj: list[list[int]]
    _und_adj: list[list[int]] | None = field(default=None, repr=False, compare=False)
    _maxdeg: int | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def from_edges(n: int, edges) -> "Digraph":
        """Build a digraph from an iterable of (src, dst) pairs.

        Parallel edges collapse to one; vertex indices must lie in 0..n-1.
        """
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        keys: set[int] = set()  # one key src * n + dst per edge: sorts by src, then dst
        for src, dst in edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"edge ({src}, {dst}) out of range for n={n}")
            keys.add(src * n + dst)
        out_adj: list[list[int]] = [[] for _ in range(n)]
        in_adj: list[list[int]] = [[] for _ in range(n)]
        # src never decreases along the sorted keys, so the in-lists fill sorted too
        for src, dst in map(divmod, sorted(keys), itertools.repeat(n)):
            out_adj[src].append(dst)
            in_adj[dst].append(src)
        return Digraph(n, out_adj, in_adj)

    def deg(self, x: int) -> int:
        # a self-loop contributes 1, via set semantics
        return len(set(self.out_adj[x]).union(self.in_adj[x]))

    def maxdeg(self) -> int:
        """Largest deg(x), cached: annotation, the budget and the search each ask."""
        if self._maxdeg is None:
            self._maxdeg = max((self.deg(x) for x in range(self.n)), default=0)
        return self._maxdeg

    def edges(self):
        for x in range(self.n):
            for y in self.out_adj[x]:
                yield (x, y)

    def und_adj(self) -> list[list[int]]:
        """Undirected adjacency (out+in, self-loops dropped), cached."""
        if self._und_adj is None:
            und = []
            for x in range(self.n):
                s = set(self.out_adj[x]) | set(self.in_adj[x])
                s.discard(x)
                und.append(sorted(s))
            self._und_adj = und
        return self._und_adj

    def validate(self) -> None:
        """Check adjacency lists are sorted, in range, duplicate-free, and mutually consistent."""
        if len(self.out_adj) != self.n or len(self.in_adj) != self.n:
            raise ValueError("adjacency list count does not match vertex count")
        n = self.n
        for name, adj in (("out", self.out_adj), ("in", self.in_adj)):
            for x, lst in enumerate(adj):
                if not all(map(operator.lt, lst, lst[1:])):  # strictly increasing
                    raise ValueError(f"{name}-adjacency of vertex {x} is not sorted and duplicate-free")
                if lst and (lst[0] < 0 or lst[-1] >= n):  # sorted: only the ends can be out of range
                    y = next(y for y in lst if not (0 <= y < n))
                    raise ValueError(f"{name}-adjacency of vertex {x} mentions out-of-range vertex {y}")
        # every list is now sorted and duplicate-free, so the in-lists rebuilt
        # from out_adj in vertex order equal in_adj iff the edge sets agree
        expected_in: list[list[int]] = [[] for _ in range(n)]
        for x, lst in enumerate(self.out_adj):
            for y in lst:
                expected_in[y].append(x)
        if expected_in != self.in_adj:
            raise ValueError("out- and in-adjacency disagree")


def build_rel(g: Digraph) -> Digraph:
    """Dependency graph: edge (x, y) iff the scopes of x and y intersect.

    Symmetric, with a self-loop at every vertex whose scope is nonempty.
    """
    in_adj = g.in_adj  # in_adj[v]: every y with v in its scope
    adj = [sorted(set().union(*[in_adj[v] for v in scope])) for scope in g.out_adj]
    return Digraph(g.n, adj, adj)


def ball(g: Digraph, x: int, r: int) -> set[int]:
    """All vertices within undirected distance r of x (x included)."""
    if not (0 <= x < g.n):
        raise ValueError(f"vertex {x} out of range")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    und = g.und_adj()
    seen = {x}
    frontier = deque([(x, 0)])
    while frontier:
        v, d = frontier.popleft()
        if d == r:
            continue
        for w in und[v]:
            if w not in seen:
                seen.add(w)
                frontier.append((w, d + 1))
    return seen


def balls(g: Digraph, r: int):
    """Yield, for x = 0..n-1 in turn, the list of vertices within undirected distance r of x.

    Each list starts with x; the rest follow in BFS order, level by level.
    One `mark` list serves the whole scan (mark[w] == x means w is already
    in x's ball), so no per-vertex set, deque or sort is built.  Callers may
    keep the yielded lists.  A negative r raises ValueError once the scan
    starts.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    und = g.und_adj()
    mark = [-1] * g.n
    for x in range(g.n):
        mark[x] = x
        near = [x]
        start = 0
        for _ in range(r):
            end = len(near)
            for v in near[start:end]:
                for w in und[v]:
                    if mark[w] != x:
                        mark[w] = x
                        near.append(w)
            if len(near) == end:
                break
            start = end
        yield near


def power_graph(g: Digraph, r: int) -> Digraph:
    """Symmetric loopless digraph joining pairs at undirected distance 1..r."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    adj = [sorted(near[1:]) for near in balls(g, r)]
    return Digraph(g.n, adj, adj)


def greedy_mis(g_sym: Digraph, scan: list[int]) -> list[int]:
    """Greedy maximal independent subset of `scan`, a list of distinct vertices.

    Takes each vertex in list order unless an already chosen neighbour blocks
    it, and returns the chosen vertices in that order.  `g_sym` must be
    symmetric; self-loops are ignored for independence.
    """
    chosen: list[int] = []
    blocked: set[int] = set()  # neighbours of chosen vertices
    for x in scan:
        if x not in blocked:
            chosen.append(x)
            blocked.update(g_sym.out_adj[x])
    return chosen


def check_subexp(g: Digraph, big_r: int, eps: float, d: int) -> bool:
    """Degree and ball-growth check: maxdeg <= d and |ball(x, 3R)| <= (1+eps)^R for all x.

    The growth comparison runs in log space with a small slack toward acceptance,
    so e.g. |ball| = 16 against (1+1.0)^4 = 16 passes despite rounding.
    """
    if big_r < 1:
        raise ValueError("R must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if d < 0:
        raise ValueError("d must be nonnegative")
    if g.maxdeg() > d:
        return False
    limit_log = big_r * math.log1p(eps) + 1e-9
    return all(math.log(len(near)) <= limit_log for near in balls(g, 3 * big_r))
