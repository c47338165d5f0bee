"""Digraph plumbing: adjacency, dependency graph, balls, greedy MIS.

Vertices are dense integers 0..n-1.  Out-neighbours of a vertex are the cells
it reads (its scope), in-neighbours are the vertices whose scope contains it.
Self-loops are allowed, at most one per vertex.  Distances are measured in the
underlying undirected graph.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field


@dataclass
class Digraph:
    """Simple digraph with dense integer vertices and sorted adjacency lists.

    `from_scopes` and `from_edges` are the checked constructors; the plain
    constructor trusts its lists to be sorted, duplicate-free, in range and
    mutually consistent.  The lists are read-only once built.  A symmetric
    graph shares one list of lists as both `out_adj` and `in_adj`: every
    `build_rel` and `power_graph` result does, and so does every
    `from_scopes` graph whose scopes are symmetric, such as a torus.
    """

    n: int
    out_adj: list[list[int]]
    in_adj: list[list[int]]
    _und_adj: list[list[int]] | None = field(default=None, repr=False, compare=False)
    _maxdeg: int | None = field(default=None, repr=False, compare=False)
    _readers: list | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def from_scopes(scopes) -> "Digraph":
        """Build a digraph from one scope per vertex; the scope lists become `out_adj`, uncopied.

        Each scope must be a list of exact-int vertex ids in 0..n-1 (a bool is
        not an id), strictly increasing, which rules out duplicates and
        disorder in one test; n is the number of scopes.  When the in-lists
        equal the scopes (y reads x exactly when x reads y, as on a torus),
        the scopes serve as `in_adj` too and the in-lists are dropped.
        """
        if type(scopes) is not list:
            raise ValueError("scopes must be a list of vertex lists")
        n = len(scopes)
        for x, scope in enumerate(scopes):
            if not (type(scope) is list and {int}.issuperset(map(type, scope))):
                raise ValueError(f"vertex {x}: scope must be a list of integer vertex ids")
            if scope and not (0 <= scope[0] and scope[-1] < n and all(map(operator.lt, scope, scope[1:]))):
                raise ValueError(f"vertex {x}: scope must be strictly increasing vertex ids in 0..{n - 1}")
        in_adj: list[list[int]] = [[] for _ in scopes]
        for src, scope in enumerate(scopes):  # sources in increasing order, so each in-list fills sorted
            for dst in scope:
                in_adj[dst].append(src)
        if in_adj == scopes:
            in_adj = scopes
        return Digraph(n, scopes, in_adj)

    @staticmethod
    def from_edges(n: int, edges) -> "Digraph":
        """Build a digraph from an iterable of (src, dst) pairs, through `from_scopes`.

        Parallel edges collapse to one; vertex indices must be ints in 0..n-1.
        """
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        out_sets: list[set[int]] = [set() for _ in range(n)]
        for src, dst in edges:
            if type(src) is not int or type(dst) is not int:
                raise ValueError(f"edge ({src!r}, {dst!r}): vertex ids must be ints")
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"edge ({src}, {dst}) out of range for n={n}")
            out_sets[src].add(dst)
        return Digraph.from_scopes([sorted(s) for s in out_sets])

    def deg(self, x: int) -> int:
        # a self-loop contributes 1, via set semantics
        return len(set(self.out_adj[x]).union(self.in_adj[x]))

    def maxdeg(self) -> int:
        """Largest deg(x), cached: annotation, the budget and the search each ask.

        When `out_adj is in_adj` (every symmetric graph; see the class note),
        deg(x) is the length of the duplicate-free list; otherwise one set
        per vertex.
        """
        if self._maxdeg is None:
            if self.out_adj is self.in_adj:
                degs = map(len, self.out_adj)
            else:
                degs = (len({*out, *inn}) for out, inn in zip(self.out_adj, self.in_adj))
            self._maxdeg = max(degs, default=0)
        return self._maxdeg

    def und_adj(self) -> list[list[int]]:
        """Undirected adjacency (out+in, self-loops dropped), sorted, cached.

        Where `out_adj[x] == in_adj[x]` (every vertex of a symmetric graph,
        where the two are one list) the row is a copy of that list without x;
        elsewhere one set of both lists, sorted.
        """
        if self._und_adj is None:
            und = []
            for x, (out, inn) in enumerate(zip(self.out_adj, self.in_adj)):
                if out == inn:
                    near = out.copy()
                    if x in near:
                        near.remove(x)
                else:
                    near = {*out, *inn}
                    near.discard(x)
                    near = sorted(near)
                und.append(near)
            self._und_adj = und
        return self._und_adj

    def readers(self) -> list:
        """Per vertex, a function taking a colouring to the tuple of its scope's colours, cached.

        `operator.itemgetter` builds the tuple in C, but returns a bare value
        for one index, so a one-cell scope gets a 1-tuple wrapper; an empty
        scope reads ().  Cached here rather than per problem, because many
        problems can share one graph.
        """
        if self._readers is None:
            self._readers = [_scope_reader(scope) for scope in self.out_adj]
        return self._readers


def _read_nothing(f) -> tuple:
    return ()


def _scope_reader(scope: list[int]):
    if len(scope) > 1:
        return operator.itemgetter(*scope)
    if scope:
        (v,) = scope
        return lambda f: (f[v],)
    return _read_nothing


def rel_row(g: Digraph, x: int) -> list[int]:
    """Row x of `build_rel(g)`: every y whose scope meets the scope of x, sorted."""
    in_adj = g.in_adj  # in_adj[v]: every y with v in its scope
    return sorted(set().union(*[in_adj[v] for v in g.out_adj[x]]))


def rel_maxdeg(g: Digraph) -> int:
    """`build_rel(g).maxdeg()`, streamed: each row's length from its set, no row kept or sorted."""
    in_adj = g.in_adj
    return max((len(set().union(*[in_adj[v] for v in scope])) for scope in g.out_adj), default=0)


def build_rel(g: Digraph) -> Digraph:
    """Dependency graph: edge (x, y) iff the scopes of x and y intersect.

    Symmetric, with a self-loop at every vertex whose scope is nonempty.
    """
    adj = [rel_row(g, x) for x in range(g.n)]
    return Digraph(g.n, adj, adj)


def _check_radius(r) -> None:
    # an exact int: ball's `d == r` never holds for 1.5, and True would pass for 1
    if type(r) is not int:
        raise ValueError(f"radius must be an integer, not {r!r}")
    if r < 0:
        raise ValueError("radius must be nonnegative")


def ball(g: Digraph, x: int, r: int) -> set[int]:
    """All vertices within undirected distance r of x (x included); r must be an exact int."""
    if not (0 <= x < g.n):
        raise ValueError(f"vertex {x} out of range")
    _check_radius(r)
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
    keep the yielded lists.  An r that is negative or not an exact int
    raises ValueError once the scan starts.
    """
    _check_radius(r)
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
    """Symmetric loopless digraph joining pairs at undirected distance 1..r; `balls` checks r."""
    adj = []
    for near in balls(g, r):  # each ball is a fresh list, so it is trimmed and sorted in place
        del near[0]
        near.sort()
        adj.append(near)
    return Digraph(g.n, adj, adj)


def greedy_mis(adj: list, scan: list[int]) -> list[int]:
    """Greedy maximal independent subset of `scan`, a list of distinct vertices.

    Takes each vertex in list order unless an already chosen neighbour blocks
    it, and returns the chosen vertices in that order.  `adj` holds the rows
    of a symmetric graph; only the rows of `scan` are read, so the others may
    be missing (None).  Self-loops are ignored for independence.
    """
    chosen: list[int] = []
    blocked: set[int] = set()  # neighbours of chosen vertices
    for x in scan:
        if x not in blocked:
            chosen.append(x)
            blocked.update(adj[x])
    return chosen

