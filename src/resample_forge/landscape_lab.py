"""Witness landscapes: level-graded forests that certify what a run consumed.

A forest node (x, i) records that rule vertex x was resampled going out of
round i; its decoration is the violating local assignment at that moment.
Together with the final colouring, the forest recovers exactly the tape
symbols the run consumed at every cell, which is what makes the counting
arguments (and the tail bound they imply) checkable on concrete runs.

Level conventions: edges go from level i to level i+1, every tree's root is
its unique minimal-level node, and a landscape is grounded when all roots sit
at level 0.  Each level's vertex set is independent in the dependency graph.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from resample_forge.graph_core import Digraph, ball, build_rel
from resample_forge.partitioner import SparsePartition, is_pi_unique, singleton_partition
from resample_forge.rule_engine import ColouringProblem, LocalRule

Node = tuple  # (vertex, level)


class GroundingError(RuntimeError):
    """The grounding move set cannot make progress on this landscape."""


@dataclass
class GForest:
    """Level-graded forest: node set plus a partial parent map (in-degree <= 1)."""

    nodes: set
    parent: dict

    def roots(self) -> list:
        return sorted(nd for nd in self.nodes if nd not in self.parent)

    def children_map(self) -> dict:
        kids: dict = {nd: [] for nd in self.nodes}
        for child, par in self.parent.items():
            kids[par].append(child)
        return kids

    def trees(self) -> list:
        """Connected components as (root, member set) pairs."""
        kids = self.children_map()
        out = []
        for root in self.roots():
            members = set()
            stack = [root]
            while stack:
                nd = stack.pop()
                members.add(nd)
                stack.extend(kids[nd])
            out.append((root, members))
        return out

    def max_level(self) -> int:
        return max((lvl for _, lvl in self.nodes), default=-1)


@dataclass
class FinalisedLandscape:
    forest: GForest
    viol: dict  # node -> violating local assignment over the node's scope
    fin: list  # the final colouring


def validate_landscape(p: ColouringProblem, fl: FinalisedLandscape, strict_viol: bool = True) -> None:
    """Structural checks; with strict_viol also demand every decoration is forbidden.

    Restricted landscapes relax strictness at the boundary, where decorations
    fall back to all-zero tuples over possibly-empty scopes.
    """
    rel = p.rel()
    rel_sets = [set(a) for a in rel.out_adj]
    forest = fl.forest
    for nd in forest.nodes:
        x, lvl = nd
        if not (0 <= x < p.n) or lvl < 0:
            raise ValueError(f"node {nd} out of range")
    for child, par in forest.parent.items():
        if child not in forest.nodes or par not in forest.nodes:
            raise ValueError("parent map mentions unknown node")
        (cx, clvl), (px, plvl) = child, par
        if plvl != clvl - 1:
            raise ValueError(f"edge {par}->{child} does not advance one level")
        if px not in rel_sets[cx]:
            raise ValueError(f"edge {par}->{child} joins independent rule vertices")
    by_level: dict = {}
    for x, lvl in forest.nodes:
        by_level.setdefault(lvl, []).append(x)
    for lvl, xs in by_level.items():
        if len(set(xs)) != len(xs):
            raise ValueError(f"level {lvl} repeats a vertex")
        for a, b_ in itertools.combinations(xs, 2):
            if b_ in rel_sets[a]:
                raise ValueError(f"level {lvl} is not independent: {a}, {b_}")
    if set(fl.viol.keys()) != forest.nodes:
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
    rel = p.rel()

    depth = min(k - 1, rounds) if k >= 1 else 0
    nodes: set = set()
    viol: dict = {}
    parent: dict = {}
    ib_sets = [set(s) for s in trace.ib_sets[:depth]]
    for i in range(depth):
        for x in trace.ib_sets[i]:
            nd = (x, i)
            nodes.add(nd)
            viol[nd] = trace.viol_snapshots[i][x]
            if i > 0:
                candidates = [y for y in rel.out_adj[x] if y in ib_sets[i - 1]]
                if not candidates:
                    raise RuntimeError(
                        f"no parent for node ({x},{i}): previous resampled set not maximal"
                    )
                parent[nd] = (min(candidates), i - 1)

    fin_round = min(k - 1, rounds) if k >= 1 else 0
    fin = trace.colouring_at(fin_round)
    return FinalisedLandscape(GForest(nodes, parent), viol, fin)


def used_of(p: ColouringProblem, fl: FinalisedLandscape) -> list:
    """Per-cell consumed-symbol sequences read off the landscape.

    Cell x collects the decoration values of nodes whose scope contains x,
    in level order, then the final colouring at x.
    """
    events: list = [[] for _ in range(p.n)]
    for (y, lvl), t in fl.viol.items():
        for idx, v in enumerate(p.graph.out_adj[y]):
            events[v].append((lvl, t[idx]))
    out = []
    for x in range(p.n):
        events[x].sort()
        levels = [lvl for lvl, _ in events[x]]
        if len(set(levels)) != len(levels):
            raise ValueError(f"cell {x} is read by two nodes on one level")
        out.append(tuple(val for _, val in events[x]) + (fl.fin[x],))
    return out


def varcount(p: ColouringProblem, forest: GForest) -> int:
    """Total symbol budget of a forest: one per cell plus one per scope slot per node."""
    return p.n + sum(len(p.graph.out_adj[x]) for x, _ in forest.nodes)


# ---------------------------------------------------------------------------
# grounding


def ground(
    p: ColouringProblem,
    fl: FinalisedLandscape,
    step_cap: int = 10**6,
) -> FinalisedLandscape:
    """Push and re-hang airborne trees until every root reaches level 0.

    Preserves the node count and every cell's recovered symbol sequence.  The
    move set: slide a whole tree down one level when nothing blocks it;
    otherwise re-hang at the lowest (level, index) blocking pair (re-rooting the tree
    there when the blocked node is its root).  Raises GroundingError past
    step_cap, or when an isolated node with an empty scope has nowhere to go.
    """
    rel_sets = [set(a) for a in p.rel().out_adj]
    nodes = set(fl.forest.nodes)
    parent = dict(fl.forest.parent)
    viol = dict(fl.viol)
    steps = 0

    def bump():
        nonlocal steps
        steps += 1
        if steps > step_cap:
            raise GroundingError(f"grounding exceeded {step_cap} moves")

    while True:
        forest = GForest(nodes, parent)
        airborne = [(root, members) for root, members in forest.trees() if root[1] > 0]
        if not airborne:
            break
        root, members = min(
            airborne, key=lambda rm: (len(rm[1]), rm[0][0], rm[0][1])
        )
        # slide the tree down while nothing one level below blocks it
        while root[1] > 0:
            blockers = []
            collision = False
            for (x, lvl) in members:
                for (y, ylvl) in nodes:
                    if ylvl != lvl - 1 or (y, ylvl) in members:
                        continue
                    if y in rel_sets[x]:
                        blockers.append((lvl, x, y))
                    elif y == x:
                        collision = True
            if blockers:
                break
            if collision:
                raise GroundingError(
                    "isolated empty-scope node stacked over its own slot cannot be grounded"
                )
            bump()
            moved = {nd: (nd[0], nd[1] - 1) for nd in members}
            nodes = {moved.get(nd, nd) for nd in nodes}
            new_parent = {}
            for child, par in parent.items():
                new_parent[moved.get(child, child)] = moved.get(par, par)
            parent = new_parent
            viol = {moved.get(nd, nd): t for nd, t in viol.items()}
            members = set(moved.values())
            root = (root[0], root[1] - 1)
        if root[1] == 0:
            continue
        lvl, x, y = min(blockers)
        child = (x, lvl)
        anchor = (y, lvl - 1)
        bump()
        # re-hang: non-root swaps its incoming edge, the root gains one
        parent[child] = anchor

    return FinalisedLandscape(GForest(nodes, parent), viol, list(fl.fin))


# ---------------------------------------------------------------------------
# restriction


def _scope_remap(p: ColouringProblem, pi, x: int, restricted_scope: list) -> list:
    """For tuple positions: restricted position j reads original position remap[j]."""
    scope = p.graph.out_adj[x]
    pos_of_vertex = {v: i for i, v in enumerate(scope)}
    part_rep = {pi.part_of[v]: v for v in scope}
    return [pos_of_vertex[part_rep[alpha]] for alpha in restricted_scope]


def restrict_problem(p: ColouringProblem, pi, subset) -> tuple:
    """Quotient the instance onto part indices through a part-unique vertex set.

    The new graph lives on all part indices; edges are the image of the induced
    subgraph.  A part keeps its representative's rule only when that rule's
    whole scope survives; everything else becomes unconstrained.  The returned
    partition is the singleton one.
    """
    u = set(subset)
    if not is_pi_unique(pi, u):
        raise ValueError("subset is not part-unique")
    rep = {pi.part_of[x]: x for x in u}
    n_prime = pi.num_parts
    edges = set()
    for x in u:
        ax = pi.part_of[x]
        for y in p.graph.out_adj[x]:
            if y in u:
                edges.add((ax, pi.part_of[y]))
    g_prime = Digraph.from_edges(n_prime, edges)
    rows: list = []
    for alpha in range(n_prime):
        x = rep.get(alpha)
        if x is None or not set(p.graph.out_adj[x]) <= u:
            rows.append(())
            continue
        remap = _scope_remap(p, pi, x, g_prime.out_adj[alpha])
        rows.append(tuple(sorted(tuple(t[i] for i in remap) for t in p.rule.forbidden[x])))
    p_prime = ColouringProblem(g_prime, p.b, LocalRule(rows), metadata={"restricted": True})
    return p_prime, singleton_partition(n_prime)


def restrict_landscape(p: ColouringProblem, pi, fl: FinalisedLandscape, subset) -> FinalisedLandscape:
    """Image of a landscape under the part quotient over `subset`.

    Nodes and edges survive when their vertices do.  Decorations of nodes whose
    full scope survives are relabelled; boundary nodes fall back to all-zero
    tuples (the result can therefore violate strict decoration membership).
    Final colours of parts without a surviving representative default to 0.
    """
    u = set(subset)
    p_prime, _ = restrict_problem(p, pi, u)
    rep = {pi.part_of[x]: x for x in u}
    nodes = set()
    viol: dict = {}
    parent: dict = {}
    for (x, lvl), t in fl.viol.items():
        if x not in u:
            continue
        alpha = pi.part_of[x]
        nd = (alpha, lvl)
        nodes.add(nd)
        restricted_scope = p_prime.graph.out_adj[alpha]
        if set(p.graph.out_adj[x]) <= u:
            remap = _scope_remap(p, pi, x, restricted_scope)
            viol[nd] = tuple(t[i] for i in remap)
        else:
            viol[nd] = (0,) * len(restricted_scope)
    for child, par in fl.forest.parent.items():
        if child[0] in u and par[0] in u:
            parent[(pi.part_of[child[0]], child[1])] = (pi.part_of[par[0]], par[1])
    fin = [fl.fin[rep[alpha]] if alpha in rep else 0 for alpha in range(pi.num_parts)]
    return FinalisedLandscape(GForest(nodes, parent), viol, fin)


# ---------------------------------------------------------------------------
# radius selection


def stable_radius(g: Digraph, h: list, y: int, big_r: int, eps: float) -> int:
    """Smallest r in 3..3R whose weighted ball grew at most (1+eps) over r-3.

    Guaranteed to exist when the graph satisfies the growth check and h peaks
    at y; raises ValueError otherwise.
    """
    if len(h) != g.n:
        raise ValueError("weight vector length mismatch")
    if big_r < 1:
        raise ValueError("R must be >= 1")
    for r in range(3, 3 * big_r + 1):
        inner = sum(h[x] for x in ball(g, y, r - 3))
        outer = sum(h[x] for x in ball(g, y, r))
        if outer <= (1.0 + eps) * inner * (1.0 + 1e-12):
            return r
    raise ValueError(f"no stable radius in 3..{3 * big_r} at vertex {y}")


# ---------------------------------------------------------------------------
# counting oracles

MAX_TREE_DELTA = 4
MAX_TREE_SIZE = 6
MAX_FOREST_VERTICES = 5
MAX_FOREST_NODES = 4


def _tree_shapes(delta: int, size: int, memo: dict) -> list:
    """All label-indexed tree shapes with `size` vertices; None is the empty shape."""
    if size == 0:
        return [None]
    key = (delta, size)
    if key not in memo:
        shapes = []
        for comp in _compositions(size - 1, delta):
            slot_choices = [_tree_shapes(delta, c, memo) for c in comp]
            for kids in itertools.product(*slot_choices):
                shapes.append(tuple(kids))
        memo[key] = shapes
    return memo[key]


def _compositions(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest


def count_delta_trees(delta: int, i: int, max_delta: int = MAX_TREE_DELTA, max_size: int = MAX_TREE_SIZE) -> int:
    """Exhaustively enumerate trees with out-edges labelled 0..delta-1, i vertices."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if i < 0:
        raise ValueError("size must be nonnegative")
    if delta > max_delta or i > max_size:
        raise ValueError(
            f"enumeration budget exceeded (delta<={max_delta}, size<={max_size}); "
            "raise the limits explicitly to go further"
        )
    return len(_tree_shapes(delta, i, {}))


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def q_poly(delta: int, i: int, max_delta: int = MAX_TREE_DELTA, max_iter: int = MAX_TREE_SIZE) -> list:
    """Coefficients of the i-th depth-truncated tree generating polynomial.

    Q_0 = 1 + X and Q_{j+1} = 1 + X * Q_j^delta; coefficient n of Q_j counts
    the delta-labelled trees with n vertices and depth at most j.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if i < 0:
        raise ValueError("iteration must be nonnegative")
    if delta > max_delta or i > max_iter:
        raise ValueError(
            f"polynomial budget exceeded (delta<={max_delta}, i<={max_iter}); "
            "raise the limits explicitly to go further"
        )
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
    rho = Fraction((delta - 1) ** (delta - 1), delta**delta)
    val = Fraction(1) + rho
    for _ in range(i):
        val = 1 + rho * val**delta
    return val


def enumerate_grounded_forests(
    g: Digraph,
    m: int,
    max_vertices: int = MAX_FOREST_VERTICES,
    max_nodes: int = MAX_FOREST_NODES,
) -> int:
    """Exact count of grounded level-independent forests with m nodes.

    Exhausts node placements on levels 0..m-1 and, per placement, multiplies
    the parent choices of each node above level 0 (roots may only sit at
    level 0, so everything higher needs exactly one parent below it).
    """
    if m < 0:
        raise ValueError("node count must be nonnegative")
    if g.n > max_vertices or m > max_nodes:
        raise ValueError(
            f"enumeration budget exceeded (vertices<={max_vertices}, nodes<={max_nodes}); "
            "raise the limits explicitly to go further"
        )
    if m == 0:
        return 1
    rel_sets = [set(a) for a in build_rel(g).out_adj]
    slots = [(x, lvl) for lvl in range(m) for x in range(g.n)]
    total = 0
    for combo in itertools.combinations(slots, m):
        by_level: dict = {}
        for x, lvl in combo:
            by_level.setdefault(lvl, []).append(x)
        ok = True
        for xs in by_level.values():
            for a, b_ in itertools.combinations(xs, 2):
                if b_ in rel_sets[a]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        ways = 1
        for x, lvl in combo:
            if lvl == 0:
                continue
            below = by_level.get(lvl - 1, [])
            ways *= sum(1 for y in below if y in rel_sets[x])
            if ways == 0:
                break
        total += ways
    return total


def landscape_to_json(fl: FinalisedLandscape) -> str:
    payload = {
        "nodes": sorted([list(nd) for nd in fl.forest.nodes]),
        "edges": sorted([[list(par), list(child)] for child, par in fl.forest.parent.items()]),
        "viol": {f"{x},{lvl}": list(t) for (x, lvl), t in sorted(fl.viol.items())},
        "fin": list(fl.fin),
    }
    return json.dumps(payload, sort_keys=True, indent=1)
