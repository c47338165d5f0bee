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
from itertools import chain


@dataclass
class Digraph:
    """Simple digraph with dense integer vertices and sorted adjacency lists.

    `from_scopes` and `from_edges` are the checked constructors; the plain
    constructor takes only the two lists and `torus`, and trusts its lists to
    be sorted, duplicate-free, in range and mutually consistent.  The vertex
    count `n` is `len(out_adj)`, never stored, so no graph holds a count that
    disagrees with its lists.  The lists are read-only once built.  A
    symmetric graph shares one list of lists as both `out_adj` and `in_adj`:
    every `build_rel` and `power_graph` result does, as does every torus that
    `instance_io.torus_graph` builds through the plain constructor, and every
    `from_scopes` graph whose scopes are symmetric, such as a torus loaded
    from its scope lists.

    The graph caches only what later runs reuse, shared by every problem on
    it and never a constructor argument: its `readers` and `rel_rows`.

    `torus` is (w, h) on a graph that `instance_io.torus_graph` built, and
    None on every other graph, an equal one from scope lists included.
    Three readers trust it: `save_problem` writes a graph by its sides only
    when it is set; `partitioner.sparse_partition` colours such a graph
    from its sides alone, by wrapped row and column distances; and
    `power_graph` writes its rows down from the torus's offsets with
    `torus_rows`, the writer that made the scopes, instead of searching for
    them.  It takes no part in ==.
    """

    out_adj: list[list[int]]
    in_adj: list[list[int]]
    torus: tuple[int, int] | None = field(default=None, compare=False)
    _readers: list | None = field(default=None, init=False, repr=False, compare=False)
    _rel_rows: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        """Vertex count: one out-list per vertex."""
        return len(self.out_adj)

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
        # two C-level passes type every scope; only when one fails does the loop type
        # each scope again, so the first offender is named as the loop meets it
        typed = {list}.issuperset(map(type, scopes)) and {int}.issuperset(map(type, chain.from_iterable(scopes)))
        for x, scope in enumerate(scopes):
            if not (typed or type(scope) is list and {int}.issuperset(map(type, scope))):
                raise ValueError(f"vertex {x}: scope must be a list of integer vertex ids")
            if scope and not (0 <= scope[0] and scope[-1] < n and all(map(operator.lt, scope, scope[1:]))):
                raise ValueError(f"vertex {x}: scope must be strictly increasing vertex ids in 0..{n - 1}")
        in_adj: list[list[int]] = [[] for _ in scopes]
        for src, scope in enumerate(scopes):  # sources in increasing order, so each in-list fills sorted
            for dst in scope:
                in_adj[dst].append(src)
        if in_adj == scopes:
            in_adj = scopes
        return Digraph(scopes, in_adj)

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

    def maxdeg(self) -> int:
        """Largest degree: a vertex's distinct out- and in-neighbours, a self-loop once.

        A row's length when `out_adj is in_adj` (see the class note), else one set per vertex.
        """
        if self.out_adj is self.in_adj:
            return max(map(len, self.out_adj), default=0)
        return max((len({*out, *inn}) for out, inn in zip(self.out_adj, self.in_adj)), default=0)

    def readers(self) -> list:
        """Per vertex, a function taking a colouring to the tuple of its scope's colours, cached."""
        if self._readers is None:
            self._readers = [tuple_reader(scope) for scope in self.out_adj]
        return self._readers

    def rel_rows(self, xs) -> list:
        """The dependency graph's row table with at least the rows of `xs` built.

        Row x equals `build_rel`'s row x.  A row is built the first time any
        problem on this graph asks for it and kept; one nobody has asked for
        yet is None.  A run asks only for the rules it visits: on a loaded
        120x120 torus, 537 to 2,247 of the 14,400 rows over ten seeds.  No
        table exists until the first call, and neither loading nor
        generating a problem makes one.
        """
        rows = self._rel_rows
        if rows is None:
            rows = self._rel_rows = [None] * self.n
        for x in xs:
            if rows[x] is None:
                rows[x] = rel_row(self, x)
        return rows

    def big_delta(self) -> int:
        """Delta, `build_rel(self).maxdeg()`, streamed: each row's length from its set, no row kept."""
        in_adj = self.in_adj  # in_adj[v]: every y with v in its scope
        return max((len(set().union(*[in_adj[v] for v in scope])) for scope in self.out_adj), default=0)


def _read_nothing(f) -> tuple:
    return ()


def tuple_reader(indices: list[int]):
    """A function taking a sequence to the tuple of its items at `indices`, in that order.

    `operator.itemgetter` builds the tuple in C, but returns a bare value
    for one index, so one index gets a 1-tuple wrapper; no index reads ().
    """
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    if indices:
        (i,) = indices
        return lambda f: (f[i],)
    return _read_nothing


def rel_row(g: Digraph, x: int) -> list[int]:
    """Row x of `build_rel(g)`: every y whose scope meets the scope of x, sorted."""
    in_adj = g.in_adj  # in_adj[v]: every y with v in its scope
    return sorted(set().union(*[in_adj[v] for v in g.out_adj[x]]))


def build_rel(g: Digraph) -> Digraph:
    """Dependency graph: edge (x, y) iff the scopes of x and y intersect.

    Symmetric, with a self-loop at every vertex whose scope is nonempty.
    """
    adj = [rel_row(g, x) for x in range(g.n)]
    return Digraph(adj, adj)


def _check_radius(r) -> None:
    # an exact int: ball's `d == r` never holds for 1.5, and True would pass for 1
    if type(r) is not int:
        raise ValueError(f"radius must be an integer, not {r!r}")
    if r < 0:
        raise ValueError("radius must be nonnegative")


def ball(g: Digraph, x: int, r: int) -> set[int]:
    """All vertices within undirected distance r of x (x included); x and r must be exact ints.

    A plain BFS over `out_adj[v]`, or over both of v's lists unless `out_adj is in_adj`.
    """
    if type(x) is not int:  # True would pass for vertex 1, and 1.0 would fail only at the first row lookup
        raise ValueError(f"vertex must be an integer, not {x!r}")
    if not (0 <= x < g.n):
        raise ValueError(f"vertex {x} out of range")
    _check_radius(r)
    out_adj, in_adj = g.out_adj, g.in_adj
    seen = {x}
    frontier = deque([(x, 0)])
    while frontier:
        v, d = frontier.popleft()
        if d == r:
            continue
        for w in out_adj[v] if out_adj is in_adj else {*out_adj[v], *in_adj[v]}:
            if w not in seen:
                seen.add(w)
                frontier.append((w, d + 1))
    return seen


def balls(g: Digraph, r: int):
    """Yield, for x = 0..n-1 in turn, the list of vertices within undirected distance r of x.

    Each list starts with x; the rest follow level by level, in no set
    order within a level.  One `mark` list serves the whole scan (mark[w]
    == x means w is already in x's ball, so self-loops are skipped), and
    no per-vertex set, deque or sort is built.  The scan reads `out_adj`,
    or unless `out_adj is in_adj` one undirected row per vertex built for
    it alone.  Callers may keep the yielded lists; `power_graph` keeps
    each one as a row, while `partitioner.sparse_partition` keeps none and
    drops each ball once it is read.  An r that is negative or not an
    exact int raises ValueError once the scan starts.
    """
    _check_radius(r)
    und = g.out_adj
    if und is not g.in_adj:
        und = [list({*out, *inn}) for out, inn in zip(und, g.in_adj)]
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


def torus_rows(w: int, h: int, offsets: list[tuple[int, int]]) -> list[list[int]]:
    """Per cell of the w x h torus, the cells at its distinct wrapped `offsets`, sorted: the one torus row writer.

    Cell (i, j) is vertex i*w + j, and an offset (di, dj) reaches cell
    ((i + di) % h, (j + dj) % w); a row holds its own cell exactly when
    (0, 0) is an offset.  With s the largest |dj|, each grid row sorts its
    offsets once by (wrapped row base, dj), the order of their cells at
    every column s <= j < w - s.  When such columns exist and no two of the
    offsets and the centre wrap to one cell there, those cells' rows are
    zipped slices of `cells`, one per offset, built at C level.  Every
    other cell (within s of a side seam, or every cell when a side is too
    small for that slab) gets its set of wrapped offsets, sorted.  Every
    entry is an int of the one `cells` list, so no row holds a fresh int.
    """
    if not offsets:
        return [[] for _ in range(w * h)]
    cells = list(range(w * h))
    s = max(abs(dj) for _, dj in offsets)
    span = {*offsets, (0, 0)}  # in the slab no two of these may wrap onto one cell
    slab = 2 * s < w and len({(di % h, dj) for di, dj in span}) == len(span)
    left, right = (s, w - s) if slab else (w, w)  # columns left..right-1 take the zipped slices
    loop = (0, 0) in offsets

    def wrapped(centre, ring, j):
        near = {cells[base + (j + dj) % w] for base, dj in ring}
        if not loop:
            near.discard(centre + j)
        return sorted(near)

    rows = []
    for i in range(h):
        ring = sorted((((i + di) % h) * w, dj) for di, dj in offsets)
        rows += [wrapped(i * w, ring, j) for j in range(left)]
        if slab:
            rows += map(list, zip(*[cells[base + dj + s : base + dj + w - s] for base, dj in ring]))
        rows += [wrapped(i * w, ring, j) for j in range(right, w)]
    return rows


def power_graph(g: Digraph, r: int) -> Digraph:
    """Symmetric loopless digraph joining pairs at undirected distance 1..r; r is checked first.

    On a torus that `instance_io.torus_graph` built (`g.torus` set) the rows
    are written down by `torus_rows` at the offsets 1 <= |di| + |dj| <= r,
    with r clamped to the diameter w//2 + h//2, past which a ball is the
    whole torus, so a huge r builds no more offsets than that.  On every
    other graph they are the `balls`, each trimmed of its centre and sorted.
    No program code calls it: the partition colours a described torus row
    by row and walks `balls` itself on every other graph.  Tests build it
    as the reference the partition's memory is measured against, and
    `partitioner` imports the name only so that the bench's tracer can
    wrap it there.
    """
    _check_radius(r)
    if g.torus is not None:
        w, h = g.torus
        r = min(r, w // 2 + h // 2)
        offsets = [(di, dj) for di in range(-r, r + 1) for dj in range(abs(di) - r, r - abs(di) + 1)]
        offsets.remove((0, 0))
        adj = torus_rows(w, h, offsets)
    else:
        adj = []
        for near in balls(g, r):  # each ball is a fresh list, so it is trimmed and sorted in place
            del near[0]
            near.sort()
            adj.append(near)
    return Digraph(adj, adj)


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

