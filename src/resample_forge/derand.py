"""Deterministic sequential solver: exhaustive finite-tape search.

The search enumerates every finite tape of m symbols per part and runs
`mta_runner.run` on each, one pass per round, every pass scanning the
violated clauses in the order the previous re-check found them.  A tape is
abandoned the moment a pass would read a symbol beyond index m-1; if some
tape reaches an empty violation list, its colouring is a verified solution.

The bound machinery (explicit_k_log, threshold_m) computes how large m must be
for success to be guaranteed.  Those values are astronomical outside toy
parameters, so the solver takes m directly and the planner merely reports the
guarantee alongside a feasibility verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# bound at import: perfbench/tracing.py wraps mta_runner.run in a per-call
# span, which the search must not open once per tape
from resample_forge.mta_runner import run
from resample_forge.rule_engine import ColouringProblem, satisfies
# unused here, but perfbench/tracing.py wraps the name derand.is_violated
from resample_forge.rule_engine import is_violated  # noqa: F401
from resample_forge.tape import FiniteTape

DEFAULT_TAPE_CAP = 2**24

SUCCESS = "success"
TAPE_EXHAUSTED = "tape_exhausted"


class InfeasibleError(RuntimeError):
    """The finite-tape space is too large to enumerate."""


class ExhaustedError(RuntimeError):
    """Every finite tape was tried and none produced a solution."""


# ---------------------------------------------------------------------------
# bound machinery


def _check_bound_args(b: int, delta: float, d: int, num_parts: int, big_delta: int) -> None:
    if b < 2:
        raise ValueError("alphabet size must be >= 2")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if d < 1:
        raise ValueError("degree bound must be >= 1")
    if num_parts < 1:
        raise ValueError("need at least one part")
    if big_delta < 1:
        raise ValueError("dependency degree must be >= 1")


def explicit_k_log(b: int, delta: float, d: int, num_parts: int, big_delta: int) -> float:
    """Natural log of the constant governing the tape-length guarantee.

    K = d * (|pi|^d * 2^(b^d + 1) * b)^|pi| * |pi|! / (1 - (e*Delta)^-delta)^|pi|,
    evaluated in log space because the middle factor explodes immediately.
    """
    _check_bound_args(b, delta, d, num_parts, big_delta)
    decay = math.exp(-delta * (1.0 + math.log(big_delta)))
    inner = d * math.log(num_parts) + (b**d + 1) * math.log(2.0) + math.log(b)
    return (
        math.log(d)
        + num_parts * inner
        + math.lgamma(num_parts + 1)
        - num_parts * math.log1p(-decay)
    )


def threshold_m(k_log: float, num_parts: int, big_delta: int, delta: float) -> int:
    """Smallest tape length making the union bound kick in, never below 1.

    Scans for the first m with log K + |pi|*log(m+1) < delta*m*log(e*Delta);
    the left side is logarithmic and the right side linear, so the scan ends.
    """
    if num_parts < 1:
        raise ValueError("need at least one part")
    if big_delta < 1:
        raise ValueError("dependency degree must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    rate = delta * (1.0 + math.log(big_delta))
    m = 1
    while k_log + num_parts * math.log(m + 1) - rate * m >= 0:
        m += 1
        if m > 10**7:
            raise RuntimeError("threshold scan failed to converge")
    return m


@dataclass
class DerandBudget:
    """Guaranteed tape length and the size of the search it implies.

    num_tapes is None when b^(|pi|*m) is too large to even materialise as an
    integer; such budgets are always infeasible.
    """

    m: int
    k_log: float
    num_tapes: int | None
    infeasible: bool

    @property
    def k(self) -> float:
        try:
            return math.exp(self.k_log)
        except OverflowError:
            return math.inf


def theoretical_budget(
    p: ColouringProblem,
    pi,
    delta: float,
    d: int | None = None,
    tape_cap: int = DEFAULT_TAPE_CAP,
) -> DerandBudget:
    """Budget for a guaranteed solve, flagged infeasible when unenumerable."""
    if d is None:
        d = max(1, p.graph.maxdeg())
    big_delta = max(1, p.rel().maxdeg())
    k_log = explicit_k_log(p.b, delta, d, pi.num_parts, big_delta)
    m = threshold_m(k_log, pi.num_parts, big_delta, delta)
    if pi.num_parts * m * math.log2(p.b) > 10_000:
        return DerandBudget(m, k_log, None, True)
    num_tapes = p.b ** (pi.num_parts * m)
    return DerandBudget(m, k_log, num_tapes, num_tapes > tape_cap)


# ---------------------------------------------------------------------------
# inner loop


@dataclass
class TapeAttempt:
    """Everything observable about running the inner loop against one tape."""

    tape_index: int
    outcome: str
    passes: int
    reevals: int
    m: int
    n: int
    d_bound: int
    colouring: list | None = None


def run_finite_tape(p: ColouringProblem, pi, tape: FiniteTape, tape_index: int = -1) -> TapeAttempt:
    """Run passes in found order until success or the tape runs out of symbols."""
    # every pass redraws a cell and a cell redraws at most m-1 times, so the
    # tape runs out or the run succeeds before n*m passes: no budget binds
    trace = run(p, pi, tape, max(1, p.n * tape.rounds), found_order=True)
    return TapeAttempt(
        tape_index,
        SUCCESS if trace.succeeded else TAPE_EXHAUSTED,
        trace.rounds,
        trace.clause_evals - len(p.active_clauses()),
        tape.rounds,
        p.n,
        max(1, p.graph.maxdeg()),
        trace.final_colouring if trace.succeeded else None,
    )


def work_counter(attempt: TapeAttempt) -> int:
    """Post-initialisation clause re-evaluations, checked against d^4*m*n."""
    bound = attempt.d_bound**4 * attempt.m * attempt.n
    if attempt.reevals > bound:
        raise RuntimeError(
            f"re-evaluation count {attempt.reevals} exceeds d^4*m*n = {bound}"
        )
    return attempt.reevals


# ---------------------------------------------------------------------------
# outer loop


def decode_tape(index: int, num_parts: int, rounds: int, b: int) -> FiniteTape:
    """Tape number -> explicit symbol table; cell (part, t) is digit t*|pi|+part."""
    digits = []
    rest = index
    for _ in range(num_parts * rounds):
        rest, digit = divmod(rest, b)
        digits.append(digit)
    if rest:
        raise ValueError("tape index out of range")
    return FiniteTape(num_parts, rounds, b, digits)


def derand_solve(
    p: ColouringProblem,
    pi,
    m: int,
    tape_cap: int = DEFAULT_TAPE_CAP,
    attempts: list | None = None,
):
    """Try every m-round tape in numeric order; return the first solution found.

    Deterministic by construction.  Raises InfeasibleError when b^(|pi|*m)
    exceeds tape_cap, ExhaustedError when the whole space fails.  When a list
    is passed as `attempts`, a TapeAttempt per tried tape is appended to it.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if pi.num_parts * m * math.log2(p.b) > 10_000:
        raise InfeasibleError(
            f"b^({pi.num_parts}*{m}) tapes cannot be enumerated; lower m"
        )
    num_tapes = p.b ** (pi.num_parts * m)
    if num_tapes > tape_cap:
        raise InfeasibleError(
            f"{num_tapes} tapes exceed the cap of {tape_cap}; lower m or raise the cap"
        )
    for index in range(num_tapes):
        tape = decode_tape(index, pi.num_parts, m, p.b)
        attempt = run_finite_tape(p, pi, tape, index)
        work_counter(attempt)
        if attempts is not None:
            attempts.append(attempt)
        if attempt.outcome == SUCCESS:
            if not satisfies(p, attempt.colouring):
                raise RuntimeError("inner loop reported success on a violated colouring")
            return attempt.colouring
    raise ExhaustedError(f"all {num_tapes} tapes failed within {m} rounds")

