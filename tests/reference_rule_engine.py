"""Slow paths of `rule_engine`, kept as differential oracles.

`reference_validate_problem` is the rule-table check `ColouringProblem.validate`
made before its single strictly-increasing test.  It tests duplicates, order
and the row count against b^|scope| separately, and checks arity and colours
after them.  It checks the graph first, through `reference_validate`.

`reference_bad_set` is `bad_set` before the cached scope readers: it builds
each scope's tuple of colours and looks it up in a fresh set of the rows.

`reference_lll_margin` is `lll_margin` before it was keyed by table: one
fraction per vertex.
"""

from resample_forge.rule_engine import MalformedProblemError
from tests.reference_partition import reference_validate


def reference_validate_problem(p):
    reference_validate(p.graph)
    if p.b < 2:
        raise MalformedProblemError("colour count must be >= 2")
    if len(p.rule.forbidden) != p.n:
        raise MalformedProblemError("rule table size does not match vertex count")
    for x in range(p.n):
        scope = p.graph.out_adj[x]
        rows = p.rule.forbidden[x]
        for t in rows:
            if type(t) is not tuple:
                raise MalformedProblemError(f"vertex {x}: forbidden row {t!r} is not a tuple")
        if not scope and rows:
            raise MalformedProblemError(f"vertex {x} has empty scope but forbidden tuples")
        if len(set(rows)) != len(rows):
            raise MalformedProblemError(f"vertex {x} has duplicate forbidden tuples")
        if list(rows) != sorted(rows):
            raise MalformedProblemError(f"vertex {x} has unsorted forbidden tuples")
        if len(rows) > p.b ** len(scope):
            raise MalformedProblemError(f"vertex {x} forbids more tuples than exist")
        for t in rows:
            if len(t) != len(scope):
                raise MalformedProblemError(
                    f"vertex {x}: forbidden tuple of length {len(t)}, scope has {len(scope)}"
                )
            for c in t:
                if type(c) is not int or not (0 <= c < p.b):  # bool is not int here
                    raise MalformedProblemError(f"vertex {x}: colour {c!r} out of range 0..{p.b - 1}")


def reference_bad_set(p, f):
    """All violated vertices, sorted."""
    return [
        x
        for x in range(p.n)
        if tuple(f[v] for v in p.graph.out_adj[x]) in set(p.rule.forbidden[x])
    ]


def reference_lll_margin(p):
    worst = 0.0
    for x in range(p.n):
        rows = p.rule.forbidden[x]
        if rows:
            worst = max(worst, len(rows) / p.b ** len(p.graph.out_adj[x]))
    return worst
