"""Witness landscapes: level-graded forests that certify what a run consumed.

A forest node (x, i) records that rule vertex x was resampled going out of
round i; its decoration is the violating local assignment at that moment.
Together with the final colouring, the forest recovers exactly the tape
symbols the run consumed at every cell, which is what makes the counting
arguments (and the tail bound they imply) checkable on concrete runs.

Level conventions: edges go from level i to level i+1, every tree's root is
its unique minimal-level node, and a landscape is grounded when all roots sit
at level 0.  Each level's vertex set is independent in the dependency graph.

Construction, symbol recovery, validation, grounding and restriction each
take one pass over the nodes; a restriction maps every surviving vertex to
the positions of its scope that survive, once, and relabels from that map.

The counting oracles are exact: delta-ary trees by the Fuss-Catalan formula,
grounded forests by one level-by-level DP over independent sets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from resample_forge.graph_core import Digraph, build_rel
# unused here, but perfbench/tracing.py wraps the name landscape_lab.ball
from resample_forge.graph_core import ball  # noqa: F401
from resample_forge.partitioner import is_pi_unique, singleton_partition
from resample_forge.rule_engine import ColouringProblem, LocalRule

Node = tuple  # (vertex, level)


class GroundingError(RuntimeError):
    """The landscape cannot be grounded: two nodes of one empty-scope vertex would share level 0."""


@dataclass
class GForest:
    """Level-graded forest: node set plus a partial parent map (in-degree <= 1)."""

    nodes: set
    parent: dict

    def roots(self) -> list:
        return sorted(nd for nd in self.nodes if nd not in self.parent)


@dataclass
class FinalisedLandscape:
    forest: GForest
    viol: dict  # node -> violating local assignment over the node's scope
    fin: list  # the final colouring


def validate_landscape(p: ColouringProblem, fl: FinalisedLandscape, strict_viol: bool = True) -> None:
    """Structural checks; with strict_viol also demand every decoration is forbidden.

    Each edge and each level is checked against the dependency neighbours of
    its nodes.  Restricted landscapes relax strictness at the boundary, where
    decorations fall back to all-zero tuples over possibly-empty scopes.
    """
    rel_adj = p.rel().out_adj
    forest = fl.forest
    nodes = forest.nodes
    for nd in nodes:
        x, lvl = nd
        if not (0 <= x < p.n) or lvl < 0:
            raise ValueError(f"node {nd} out of range")
    for child, par in forest.parent.items():
        if child not in nodes or par not in nodes:
            raise ValueError("parent map mentions unknown node")
        (cx, clvl), (px, plvl) = child, par
        if plvl != clvl - 1:
            raise ValueError(f"edge {par}->{child} does not advance one level")
        if px not in rel_adj[cx]:
            raise ValueError(f"edge {par}->{child} joins independent rule vertices")
    for x, lvl in nodes:
        for y in rel_adj[x]:
            if y != x and (y, lvl) in nodes:
                raise ValueError(f"level {lvl} is not independent: {x}, {y}")
    if set(fl.viol.keys()) != nodes:
        raise ValueError("decoration keys do not match the node set")
    sets = p.forbidden_sets()
    for (x, lvl), t in fl.viol.items():
        if len(t) != len(p.graph.out_adj[x]):
            raise ValueError(f"decoration at ({x},{lvl}) has wrong arity")
        if strict_viol and t not in sets[x]:
            raise ValueError(f"decoration at ({x},{lvl}) is not forbidden")
    if len(fl.fin) != p.n:
        raise ValueError("final colouring has wrong length")


def build_landscape(p: ColouringProblem, pi, trace, k: int) -> FinalisedLandscape:
    """Witness landscape of the k-round prefix of a run.

    Collects one node per resampling event that occurred while producing the
    first k colourings and finalises with the k-th colouring itself (k=0 keeps
    just the initial fill).  Parents follow the lowest-index dependency
    neighbour among the previous round's resampled set; one always exists,
    because that set is maximal independent.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    rounds = trace.rounds
    if not trace.succeeded and k > rounds + 1:
        raise ValueError(f"k={k} exceeds trace length {rounds + 1}")
    rel_adj = p.rel().out_adj
    depth = min(k - 1, rounds) if k >= 1 else 0
    viol: dict = {}
    parent: dict = {}
    below: set = set()  # the previous round's resampled set
    for i in range(depth):
        for x in trace.ib_sets[i]:
            nd = (x, i)
            viol[nd] = trace.viol_snapshots[i][x]
            if i > 0:
                y = next((y for y in rel_adj[x] if y in below), None)
                if y is None:
                    raise RuntimeError(
                        f"no parent for node ({x},{i}): previous resampled set not maximal"
                    )
                parent[nd] = (y, i - 1)
        below = set(trace.ib_sets[i])
    return FinalisedLandscape(GForest(set(viol), parent), viol, trace.colouring_at(depth))


def used_of(p: ColouringProblem, fl: FinalisedLandscape) -> list:
    """Per-cell consumed-symbol sequences read off the landscape.

    Cell x collects the decoration values of nodes whose scope contains x,
    in level order, then the final colouring at x.  One pass over the nodes
    sorted by level; a cell read twice on one level raises ValueError.
    """
    scopes = p.graph.out_adj
    seqs: list = [[] for _ in range(p.n)]
    last: list = [None] * p.n  # cell -> level of the last node that read it
    for (y, lvl), t in sorted(fl.viol.items(), key=lambda item: item[0][1]):
        for idx, v in enumerate(scopes[y]):
            if last[v] == lvl:
                raise ValueError(f"cell {v} is read by two nodes on one level")
            last[v] = lvl
            seqs[v].append(t[idx])
    return [(*seq, fl.fin[x]) for x, seq in enumerate(seqs)]


def varcount(p: ColouringProblem, forest: GForest) -> int:
    """Total symbol budget of a forest: one per cell plus one per scope slot per node."""
    return p.n + sum(len(p.graph.out_adj[x]) for x, _ in forest.nodes)


# ---------------------------------------------------------------------------
# grounding


def ground(p: ColouringProblem, fl: FinalisedLandscape) -> FinalisedLandscape:
    """Drop every node to the lowest level its shared cells allow, in one pass.

    Visits the nodes in (level, vertex) order.  A node lands one level above
    the highest node already placed over a cell of its scope, or on level 0
    when no cell of its scope has one yet.  Nodes are dependent exactly when
    their scopes share a cell, so every cell keeps the order of the nodes
    over it: the node count and every cell's recovered symbol sequence are
    kept, and each level stays independent.  A node keeps its parent when
    that parent landed one level below it and shares a cell with it;
    otherwise it hangs from the lowest-index node one level below that shares
    a cell with it.  Raises GroundingError when two nodes of a vertex with an
    empty scope would both land on level 0.
    """
    scopes = p.graph.out_adj
    old_parent = fl.forest.parent
    top: list = [None] * p.n  # cell -> last node placed over it
    moved: dict = {}  # old node -> new node
    parent: dict = {}
    viol: dict = {}
    for nd in sorted(fl.forest.nodes, key=lambda nd: (nd[1], nd[0])):
        x = nd[0]
        below = [top[v] for v in scopes[x] if top[v] is not None]
        lvl = 1 + max((b[1] for b in below), default=-1)
        new = (x, lvl)
        if new in viol:  # only an empty scope lets a vertex land on itself
            raise GroundingError(f"two nodes of empty-scope vertex {x} would both land on level 0")
        if lvl:
            candidates = {b for b in below if b[1] == lvl - 1}
            kept = moved.get(old_parent.get(nd))
            parent[new] = kept if kept in candidates else min(candidates)
        for v in scopes[x]:
            top[v] = new
        moved[nd] = new
        viol[new] = fl.viol[nd]
    return FinalisedLandscape(GForest(set(viol), parent), viol, list(fl.fin))


# ---------------------------------------------------------------------------
# restriction


def _restriction(p: ColouringProblem, pi, subset) -> dict:
    """Map each vertex of a part-unique `subset` to its scope positions inside it.

    The positions are sorted by the part of the cell each names, which is the
    order of the quotient vertex's scope; the whole scope survives exactly
    when every position does.
    """
    u = set(subset)
    if not is_pi_unique(pi, u):
        raise ValueError("subset is not part-unique")
    part_of = pi.part_of
    return {
        x: [i for _, i in sorted((part_of[v], i) for i, v in enumerate(p.graph.out_adj[x]) if v in u)]
        for x in u
    }


def restrict_problem(p: ColouringProblem, pi, subset) -> tuple:
    """Quotient the instance onto part indices through a part-unique vertex set.

    The new graph lives on all part indices; edges are the image of the induced
    subgraph.  A part keeps its representative's rule only when that rule's
    whole scope survives; everything else becomes unconstrained.  The returned
    partition is the singleton one.
    """
    kept = _restriction(p, pi, subset)
    part_of, scopes = pi.part_of, p.graph.out_adj
    n_prime = pi.num_parts
    edges = [(part_of[x], part_of[scopes[x][i]]) for x, pos in kept.items() for i in pos]
    rows: list = [()] * n_prime
    for x, pos in kept.items():
        if len(pos) == len(scopes[x]):
            rows[part_of[x]] = tuple(sorted(tuple(t[i] for i in pos) for t in p.rule.forbidden[x]))
    g_prime = Digraph.from_edges(n_prime, edges)
    p_prime = ColouringProblem(g_prime, p.b, LocalRule(rows), metadata={"restricted": True})
    return p_prime, singleton_partition(n_prime)


def restrict_landscape(p: ColouringProblem, pi, fl: FinalisedLandscape, subset) -> FinalisedLandscape:
    """Image of a landscape under the part quotient over `subset`.

    Nodes and edges survive when their vertices do.  Decorations of nodes whose
    full scope survives are relabelled; boundary nodes fall back to all-zero
    tuples (the result can therefore violate strict decoration membership).
    Final colours of parts without a surviving representative default to 0.
    """
    kept = _restriction(p, pi, subset)
    part_of, scopes = pi.part_of, p.graph.out_adj
    viol: dict = {}
    for (x, lvl), t in fl.viol.items():
        pos = kept.get(x)
        if pos is not None:
            full = len(pos) == len(scopes[x])
            viol[(part_of[x], lvl)] = tuple(t[i] for i in pos) if full else (0,) * len(pos)
    parent = {
        (part_of[cx], clvl): (part_of[px], plvl)
        for (cx, clvl), (px, plvl) in fl.forest.parent.items()
        if cx in kept and px in kept
    }
    fin = [0] * pi.num_parts
    for x in kept:
        fin[part_of[x]] = fl.fin[x]
    return FinalisedLandscape(GForest(set(viol), parent), viol, fin)


# ---------------------------------------------------------------------------
# counting oracles

MAX_Q_DEGREE = 1365  # deg Q_5 at delta = 4
MAX_FOREST_VERTICES = 12


def count_delta_trees(delta: int, i: int) -> int:
    """Trees with out-edges labelled 0..delta-1 and i vertices: the Fuss-Catalan number.

    C(delta*i, i) / ((delta-1)*i + 1); see Graham, Knuth and Patashnik,
    Concrete Mathematics, section 7.5.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if i < 0:
        raise ValueError("size must be nonnegative")
    return math.comb(delta * i, i) // ((delta - 1) * i + 1)


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def q_poly(delta: int, i: int) -> list:
    """Coefficients of the i-th depth-truncated tree generating polynomial.

    Q_0 = 1 + X and Q_{j+1} = 1 + X * Q_j^delta; coefficient n of Q_j counts
    the delta-labelled trees with n vertices and depth at most j.  The degree,
    1 + delta * deg Q_j, is checked against MAX_Q_DEGREE before multiplying.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if i < 0:
        raise ValueError("iteration must be nonnegative")
    degree = 1
    for _ in range(i):
        degree = 1 + delta * degree
        if degree > MAX_Q_DEGREE:
            raise ValueError(f"polynomial budget exceeded: deg Q_{i} > MAX_Q_DEGREE = {MAX_Q_DEGREE}")
    q = [1, 1]
    for _ in range(i):
        power = [1]
        for _ in range(delta):
            power = _poly_mul(power, q)
        q = [1] + power
    return q


def q_value_at_rho(delta: int, i: int) -> Fraction:
    """Exact evaluation at rho = (delta-1)^(delta-1) / delta^delta (0^0 = 1)."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if i < 0:
        raise ValueError("iteration must be nonnegative")
    rho = Fraction((delta - 1) ** (delta - 1), delta**delta)
    val = Fraction(1) + rho
    for _ in range(i):
        val = 1 + rho * val**delta
    return val


def count_grounded_forests(g: Digraph, max_m: int) -> list:
    """Exact counts of grounded level-independent forests with m = 0..max_m nodes.

    Such a forest stacks nonempty independent sets of the dependency graph on
    levels 0, 1, ..., and every node above level 0 has one parent among its
    dependency neighbours one level below.  Counted level by level: the state
    is (the top level's set S, the nodes used so far), and stacking T on S
    weighs prod over x in T of |N(x) & S|, N(x) being x's neighbours in
    build_rel(g).  Sets are bitmasks; the cost grows with the number of
    independent sets, so the vertex count is capped, not max_m.
    """
    if max_m < 0:
        raise ValueError("node count must be nonnegative")
    if g.n > MAX_FOREST_VERTICES:
        raise ValueError(
            f"forest budget exceeded: {g.n} vertices > MAX_FOREST_VERTICES = {MAX_FOREST_VERTICES}"
        )
    nbr = [sum(1 << y for y in adj) for adj in build_rel(g).out_adj]

    def stacks(weights: list, room: int) -> list:
        """(T, |T|, product of T's weights) for each nonempty independent T of at most `room` vertices."""
        out = [(0, 0, 1)]
        for x, c in weights:
            out += [(t | 1 << x, k + 1, w * c) for t, k, w in out if k < room and not nbr[x] & t]
        return out[1:]

    totals = [1] + [0] * max_m
    # level 0 stacks on the ground, which every vertex reaches in one way
    level = {(t, k): w for t, k, w in stacks([(x, 1) for x in range(g.n)], max_m)}
    while level:
        above: dict = {}
        for (s, used), ways in level.items():
            totals[used] += ways
            weights = [(x, (nbr[x] & s).bit_count()) for x in range(g.n) if nbr[x] & s]
            for t, k, w in stacks(weights, max_m - used):
                above[t, used + k] = above.get((t, used + k), 0) + ways * w
        level = above
    return totals


def landscape_to_json(fl: FinalisedLandscape) -> str:
    payload = {
        "nodes": sorted([list(nd) for nd in fl.forest.nodes]),
        "edges": sorted([[list(par), list(child)] for child, par in fl.forest.parent.items()]),
        "viol": {f"{x},{lvl}": list(t) for (x, lvl), t in sorted(fl.viol.items())},
        "fin": list(fl.fin),
    }
    return json.dumps(payload, sort_keys=True, indent=1)
