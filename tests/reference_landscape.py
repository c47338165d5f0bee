"""Earlier witness-path implementations, kept as differential oracles for `landscape_lab`.

`reference_ground` is the grounding move set behind `landscape_lab.ground`.
It pushes and re-hangs airborne trees until every root reaches level 0: a
whole tree slides down one level when nothing one level below blocks it;
otherwise it re-hangs at the lowest (level, index) blocking pair (re-rooting
the tree there when the blocked node is its root).  Every slide rebuilds the
node, parent and decoration maps, and the trees are walked again after every
move, as the package did before its single-pass `ground`.

`reference_restrict_problem`, `reference_restrict_landscape`,
`reference_used_of` and `reference_validate_landscape` are the multi-pass
versions of the restriction, recovery and validation: restriction rebuilds
the quotient problem and remaps every scope through its part
representatives, recovery sorts one event list per cell, and validation
compares every pair of nodes on each level.

`reference_build_landscape` builds the witness forest node by node from the
whole dependency graph of `reference_build_rel`: each parent is the
lowest-index neighbour in the previous round's resampled set.

`reference_grounded_forests` counts grounded forests by trying every
placement of m nodes on levels 0..m-1, the oracle for the level-by-level
`count_grounded_forests`.  `brute_labelled_trees` builds every canonical
delta-ary tree shape explicitly, the oracle for the closed-form
`count_delta_trees`.
"""

import itertools

from resample_forge.graph_core import Digraph, build_rel
from resample_forge.landscape_lab import FinalisedLandscape, GForest, GroundingError
from resample_forge.partitioner import singleton_partition
from resample_forge.rule_engine import ColouringProblem, LocalRule

from tests.reference_partition import reference_build_rel, reference_is_pi_unique


def _trees(nodes, parent):
    """Connected components as (root, member set) pairs."""
    kids = {nd: [] for nd in nodes}
    for child, par in parent.items():
        kids[par].append(child)
    out = []
    for root in sorted(nd for nd in nodes if nd not in parent):
        members = set()
        stack = [root]
        while stack:
            nd = stack.pop()
            members.add(nd)
            stack.extend(kids[nd])
        out.append((root, members))
    return out


def reference_ground(p, fl, step_cap=10**6):
    rel_sets = [set(a) for a in build_rel(p.graph).out_adj]
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
        airborne = [(root, members) for root, members in _trees(nodes, parent) if root[1] > 0]
        if not airborne:
            break
        root, members = min(airborne, key=lambda rm: (len(rm[1]), rm[0][0], rm[0][1]))
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
            parent = {moved.get(c, c): moved.get(q, q) for c, q in parent.items()}
            viol = {moved.get(nd, nd): t for nd, t in viol.items()}
            members = set(moved.values())
            root = (root[0], root[1] - 1)
        if root[1] == 0:
            continue
        lvl, x, y = min(blockers)
        bump()
        # re-hang: non-root swaps its incoming edge, the root gains one
        parent[(x, lvl)] = (y, lvl - 1)

    return FinalisedLandscape(GForest(nodes, parent), viol, list(fl.fin))


def reference_build_landscape(p, pi, trace, k):
    rel = reference_build_rel(p.graph).out_adj
    depth = trace.prefix_rounds(k)
    nodes, parent, viol = set(), {}, {}
    for i in range(depth):
        for x, t in trace.viol_snapshots[i].items():
            nodes.add((x, i))
            viol[(x, i)] = t
            if i == 0:
                continue
            below = [y for y in rel[x] if y in trace.viol_snapshots[i - 1]]
            if not below:
                raise RuntimeError(f"no parent for node ({x},{i}): previous resampled set not maximal")
            parent[(x, i)] = (min(below), i - 1)
    return FinalisedLandscape(GForest(nodes, parent), viol, trace.colouring_at(depth))


def reference_validate_landscape(p, fl, strict_viol=True):
    rel_sets = [set(a) for a in build_rel(p.graph).out_adj]
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
    by_level = {}
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
    sets = [frozenset(rows) for rows in p.rule.forbidden]
    for (x, lvl), t in fl.viol.items():
        if type(t) is not tuple:
            raise ValueError(f"decoration at ({x},{lvl}) is not a tuple")
        if len(t) != len(p.graph.out_adj[x]):
            raise ValueError(f"decoration at ({x},{lvl}) has wrong arity")
        if strict_viol and t not in sets[x]:
            raise ValueError(f"decoration at ({x},{lvl}) is not forbidden")
    if len(fl.fin) != p.n:
        raise ValueError("final colouring has wrong length")


def reference_used_of(p, fl):
    events = [[] for _ in range(p.n)]
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


def _scope_remap(p, pi, x, restricted_scope):
    """For tuple positions: restricted position j reads original position remap[j]."""
    scope = p.graph.out_adj[x]
    pos_of_vertex = {v: i for i, v in enumerate(scope)}
    part_rep = {pi.part_of[v]: v for v in scope}
    return [pos_of_vertex[part_rep[alpha]] for alpha in restricted_scope]


def reference_restrict_problem(p, pi, subset):
    u = set(subset)
    if not reference_is_pi_unique(pi, u):
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
    rows = []
    for alpha in range(n_prime):
        x = rep.get(alpha)
        if x is None or not set(p.graph.out_adj[x]) <= u:
            rows.append(())
            continue
        remap = _scope_remap(p, pi, x, g_prime.out_adj[alpha])
        rows.append(tuple(sorted(tuple(t[i] for i in remap) for t in p.rule.forbidden[x])))
    p_prime = ColouringProblem(g_prime, p.b, LocalRule(rows), metadata={"restricted": True})
    return p_prime, singleton_partition(n_prime)


def reference_restrict_landscape(p, pi, fl, subset):
    u = set(subset)
    p_prime, _ = reference_restrict_problem(p, pi, u)
    rep = {pi.part_of[x]: x for x in u}
    nodes = set()
    viol = {}
    parent = {}
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


def reference_grounded_forests(g: Digraph, m: int) -> int:
    """Exact count of grounded level-independent forests with m nodes.

    Exhausts node placements on levels 0..m-1 and, per placement, multiplies
    the parent choices of each node above level 0 (roots may only sit at
    level 0, so everything higher needs exactly one parent below it).
    """
    if m < 0:
        raise ValueError("node count must be nonnegative")
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


def brute_labelled_trees(delta: int, size: int) -> int:
    """Independent tree counter: build every canonical shape explicitly.

    A shape is a sorted tuple of (edge label, child shape); children carry
    distinct labels from {0..delta-1}.  Counts shapes with exactly `size`
    nodes, no closed form and no shared code with the library implementation.
    """

    def shapes(n: int) -> list:
        if n == 1:
            return [()]
        out = []
        for width in range(1, min(delta, n - 1) + 1):
            for labels in itertools.combinations(range(delta), width):
                for split in _compositions(n - 1, width):
                    for kids in itertools.product(*(shapes(s) for s in split)):
                        out.append(tuple(sorted(zip(labels, kids))))
        return list(dict.fromkeys(out))

    if size == 0:
        return 1
    return len(shapes(size))


def _compositions(total: int, parts: int) -> list:
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(1, total - parts + 2):
        out.extend((first,) + rest for rest in _compositions(total - first, parts - 1))
    return out
