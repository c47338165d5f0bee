"""The grounding move set, kept as a differential oracle for `landscape_lab.ground`.

It pushes and re-hangs airborne trees until every root reaches level 0: a
whole tree slides down one level when nothing one level below blocks it;
otherwise it re-hangs at the lowest (level, index) blocking pair (re-rooting
the tree there when the blocked node is its root).  Every slide rebuilds the
node, parent and decoration maps, and the trees are walked again after every
move, as the package did before its single-pass `ground`.
"""

from resample_forge.landscape_lab import FinalisedLandscape, GForest, GroundingError


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
