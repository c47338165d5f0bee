"""Reference exhaustive search for `derand.derand_solve`, kept as a differential oracle.

`reference_derand_solve` is the search as it stood before it ran the engine
once per read pattern: it decodes and runs every tape in numeric order, one
engine run per tape, and stops at the first success, the first attempt over
the re-evaluation bound, or the end of the tape space.  It raises the same
errors with the same messages and appends one TapeAttempt per tape tried.

It calls `derand.decode_tape` and `derand.run_finite_tape` through the
module, so a test that patches either patches both searches.
"""

from resample_forge import derand
from resample_forge.derand import (
    DEFAULT_TAPE_CAP,
    SUCCESS,
    ExhaustedError,
    InfeasibleError,
    _tape_count,
)
from resample_forge.rule_engine import satisfies


def reference_derand_solve(p, pi, m, tape_cap=DEFAULT_TAPE_CAP, attempts=None):
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
    for index in range(num_tapes):
        tape = derand.decode_tape(index, pi.num_parts, m, p.b)
        attempt = derand.run_finite_tape(p, pi, tape, index)
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
    raise ExhaustedError(f"all {num_tapes} tapes failed within {m} rounds", num_tapes)
