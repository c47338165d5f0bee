"""Deterministic sequential solver: exhaustive finite-tape search.

A tape of m symbols per part runs through `mta_runner.run`, one pass per
round, every pass scanning the violated clauses in the order the previous
re-check found them.  A tape is abandoned the moment a pass would read a
symbol beyond index m-1; if some tape reaches an empty violation list, its
colouring is a verified solution.

The search answers as if it ran every tape in numeric order and stopped at
the first success, but it runs the engine once per read pattern.  A run
depends only on the (cell, digit) pairs it reads, so every tape that agrees
with a failed run on those cells fails the same way (the witness argument of
Moser and Tardos, "A constructive proof of the general Lovász Local Lemma",
J. ACM 2010).  A pattern counts only the digits an active rule can read: a
part none of whose cells lies in an active rule's scope is dead.  Its cells
are filled at t = 0 and never redrawn, and no rule tests their colours, so
its digit cannot change a run's passes, work or outcome: the search does
not branch on it, and the least tape of a pattern puts 0 there.  A heap holds the least tape of each
pattern not yet run; a failed run pushes the least tapes of the patterns its
live reads split off, so patterns are run in increasing order of their least
tape, and work and memory grow with the number of runs, not with the tape
space.

The bound machinery (explicit_k_log, threshold_m) computes how large m must be
for success to be guaranteed.  Those values are astronomical outside toy
parameters, so the solver takes m directly and the planner merely reports the
guarantee alongside a feasibility verdict.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass

# bound at import: perfbench/tracing.py wraps mta_runner.run in a per-call
# span, which the search must not open once per engine run
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

    def __init__(self, message: str, tapes_tried: int):
        super().__init__(message)
        self.tapes_tried = tapes_tried


# ---------------------------------------------------------------------------
# bound machinery


def _check_bound_args(b: int, delta: float, d: int, num_parts: int, big_delta: int) -> None:
    if b < 2:
        raise ValueError("alphabet size must be >= 2")
    if d < 1:
        raise ValueError("degree bound must be >= 1")
    _check_decay_args(num_parts, big_delta, delta)


def _check_decay_args(num_parts: int, big_delta: int, delta: float) -> None:
    """The arguments `explicit_k_log` and `threshold_m` share."""
    if num_parts < 1:
        raise ValueError("need at least one part")
    if big_delta < 1:
        raise ValueError("dependency degree must be >= 1")
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")


def _decay_rate(delta: float, big_delta: int) -> float:
    """delta * log(e*Delta); raises ValueError when (e*Delta)^-delta rounds to 1."""
    rate = delta * (1.0 + math.log(big_delta))
    if math.exp(-rate) == 1.0:
        raise ValueError(f"delta={delta} is too small: (e*Delta)^-delta rounds to 1")
    return rate


def explicit_k_log(b: int, delta: float, d: int, num_parts: int, big_delta: int) -> float:
    """Natural log of the constant governing the tape-length guarantee.

    K = d * (|pi|^d * 2^(b^d + 1) * b)^|pi| * |pi|! / (1 - (e*Delta)^-delta)^|pi|,
    evaluated in log space because the middle factor explodes immediately.
    Raises ValueError when delta is so small that (e*Delta)^-delta rounds to 1,
    and when ln K itself overflows a float.
    """
    _check_bound_args(b, delta, d, num_parts, big_delta)
    decay = math.exp(-_decay_rate(delta, big_delta))
    too_big = f"ln K overflows a float (b={b}, d={d}, |pi|={num_parts})"
    # b^d + 1 must fit in a float; b^d has at least d*(bits(b)-1) + 1 bits, so
    # that test rejects a huge d before b**d is built
    if d * (b.bit_length() - 1) >= 1024 or b**d + 1 > sys.float_info.max:
        raise ValueError(too_big)
    inner = d * math.log(num_parts) + (b**d + 1) * math.log(2.0) + math.log(b)
    k_log = (
        math.log(d)
        + num_parts * inner
        + math.lgamma(num_parts + 1)
        - num_parts * math.log1p(-decay)
    )
    if not math.isfinite(k_log):
        raise ValueError(too_big)
    return k_log


def threshold_m(k_log: float, num_parts: int, big_delta: int, delta: float) -> int:
    """Smallest tape length making the union bound kick in, never below 1.

    Finds the first m with log K + |pi|*log(m+1) < delta*m*log(e*Delta).  The
    gap between the two sides is concave in m, so once it is >= 0 at m = 1 it
    stays >= 0 up to the answer and < 0 after it: doubling brackets the
    answer and bisection narrows the bracket to it.  Raises ValueError when
    k_log is not finite, when delta is so small that (e*Delta)^-delta rounds
    to 1, and when the answer is 2^1024 or more, past what a float can hold.
    """
    if not math.isfinite(k_log):
        raise ValueError("k_log must be finite")
    _check_decay_args(num_parts, big_delta, delta)
    rate = _decay_rate(delta, big_delta)

    def covered(m: int) -> bool:
        return k_log + num_parts * math.log(m + 1) - rate * m < 0

    lo, hi = 0, 1  # the answer lies in (lo, hi]: hi is covered, lo is 0 or not covered
    while not covered(hi):
        if hi.bit_length() > 1023:  # covered(2 * hi) would convert 2^1024 to a float
            raise ValueError(f"no tape length below 2^1024 is guaranteed at ln K = {k_log:.6g}, delta={delta}")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if covered(mid):
            hi = mid
        else:
            lo = mid
    return hi


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


def _tape_count(b: int, num_parts: int, m: int) -> int | None:
    """Number of m-round tapes, b^(|pi|*m); None past 10,000 bits, which no search enumerates."""
    if num_parts * m > 10_000 / math.log2(b):  # an exact int-float comparison: m may pass the float range
        return None
    return b ** (num_parts * m)


def theoretical_budget(p: ColouringProblem, pi, delta: float, tape_cap: int = DEFAULT_TAPE_CAP) -> DerandBudget:
    """Budget for a guaranteed solve at the instance's own d and Delta, flagged infeasible when unenumerable."""
    d = max(1, p.graph.maxdeg())
    big_delta = max(1, p.graph.big_delta())
    k_log = explicit_k_log(p.b, delta, d, pi.num_parts, big_delta)
    m = threshold_m(k_log, pi.num_parts, big_delta, delta)
    num_tapes = _tape_count(p.b, pi.num_parts, m)
    return DerandBudget(m, k_log, num_tapes, num_tapes is None or num_tapes > tape_cap)


# ---------------------------------------------------------------------------
# inner loop


@dataclass
class TapeAttempt:
    """Everything observable about running the inner loop against one tape."""

    tape_index: int
    passes: int
    reevals: int
    colouring: list | None = None

    @property
    def outcome(self) -> str:
        """SUCCESS exactly when the run left a colouring, else TAPE_EXHAUSTED."""
        return TAPE_EXHAUSTED if self.colouring is None else SUCCESS


def run_finite_tape(p: ColouringProblem, pi, tape: FiniteTape, tape_index: int = -1) -> TapeAttempt:
    """Run passes in found order until success or the tape runs out of symbols."""
    # every pass redraws a cell and a cell redraws at most m-1 times, so the
    # tape runs out or the run succeeds before n*m passes: no budget binds
    trace = run(p, pi, tape, max(1, p.n * tape.rounds), found_order=True)
    return TapeAttempt(
        tape_index,
        trace.rounds,
        trace.clause_evals - len(p.active_clauses()),
        trace.final_colouring if trace.succeeded else None,
    )


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
) -> TapeAttempt:
    """The first m-round tape in numeric order that succeeds, running one tape per live read pattern.

    Deterministic by construction.  The winner's colouring is verified.
    Raises InfeasibleError when b^(|pi|*m) exceeds tape_cap, ExhaustedError
    (carrying the number of tapes, all of them failed) when the whole space
    fails, and RuntimeError when an attempt's post-initialisation rule
    re-evaluations exceed d^4*m*n.  When a list is passed as `attempts`, the
    TapeAttempt of each engine run is appended to it, in increasing
    tape_index.

    Invariant: the heap holds one entry (x, k) per pattern not yet run, x
    its least tape and k the number of its live reads that are fixed; x's
    other digits are 0.  The live reads of a run are its reads less the
    digits of dead parts, those with no cell in an active rule's scope; a
    dead part is read only by the fill, so its one digit is the flat index
    equal to its part number, and no digit of it changes the run.  The
    patterns run and the patterns on the heap partition the tape space.  A
    failed run of x splits its pattern at each live read j >= k: the tapes
    that agree with x on live reads 0..j-1 and put digit v != 0 at live
    read j form a pattern whose least tape is x + v*b^reads[j], with j + 1
    reads fixed.  Those tapes all exceed x, so patterns are run in
    increasing order of their least tape, every tape below the one run lies
    in a pattern already run, and the first success or over-bound attempt
    is the one the numeric-order loop would meet first.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    num_tapes = _tape_count(p.b, pi.num_parts, m)
    if num_tapes is None:
        raise InfeasibleError(
            f"b^({pi.num_parts}*{m}) tapes cannot be enumerated; lower m"
        )
    if num_tapes > tape_cap:
        raise InfeasibleError(
            f"{num_tapes} tapes exceed the cap of {tape_cap}; lower m or raise the cap"
        )
    bound = max(1, p.graph.maxdeg()) ** 4 * m * p.n
    powers = [p.b**i for i in range(pi.num_parts * m)]
    live = {pi.part_of[v] for x in p.active_clauses() for v in p.graph.out_adj[x]}
    dead = set(range(pi.num_parts)) - live
    heap = [(0, 0)]
    while heap:
        index, fixed = heapq.heappop(heap)
        tape = decode_tape(index, pi.num_parts, m, p.b)
        attempt = run_finite_tape(p, pi, tape, index)
        if attempt.reevals > bound:
            raise RuntimeError(
                f"re-evaluation count {attempt.reevals} exceeds d^4*m*n = {bound}"
            )
        if attempts is not None:
            attempts.append(attempt)
        if attempt.outcome == SUCCESS:
            if not satisfies(p, attempt.colouring):
                raise RuntimeError("inner loop reported success on a violated colouring")
            return attempt
        reads = [i for i in tape.reads if i not in dead]
        for j in range(fixed, len(reads)):
            step = powers[reads[j]]
            for digit in range(1, p.b):
                heapq.heappush(heap, (index + digit * step, j + 1))
    raise ExhaustedError(f"all {num_tapes} tapes failed within {m} rounds", num_tapes)
