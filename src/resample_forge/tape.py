"""Counter-based shared random tape with a bit-exact output contract.

Every part of the vertex partition owns an unbounded symbol sequence; the
symbol at round-index t is a pure function of (seed, part, t), so runs are
reproducible and independent of access order.  The candidate stream is

    v_j = mix64(seed + (part * 2^32 + t + 1) * GAMMA + j * SALT)    mod 2^64

with mix64 the SplitMix64 finaliser, and the returned symbol is v_j mod b for
the first candidate below floor(2^64 / b) * b (rejection sampling, so symbols
are exactly uniform on range(b)).

A run's initial fill needs the t = 0 symbol of every part at once, and
`RandomTape.fill` evaluates the same stream for a whole block of parts in one
pass: `mix64_lanes` packs the lanes into one int, 128 bits per lane, and runs
each step of mix64 once over it.  A lane at or past the acceptance limit
falls back to `symbol`, so the bulk path is bit-identical to the scalar one,
rejections included.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

MASK64 = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15
SALT = 0xD1B54A32D192ED03

_LIMIT32 = 1 << 32

LANES = 1024  # lanes in one packed block, which is then a 16 KiB int


def _pack(lanes) -> int:
    """64-bit lanes as one int, lane i at bits 128*i .. 128*i+63, the upper 64 bits zero."""
    return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in lanes), "little")


_ONES = _pack([1] * LANES)
_IOTA = _pack(range(LANES))


class TapeDepleted(Exception):
    """A finite tape was asked for a round index at or past its horizon."""

    def __init__(self, part: int, t: int):
        super().__init__(f"finite tape depleted at part={part}, t={t}")
        self.part = part
        self.t = t


def require_ints(**args) -> None:
    """Refuse any argument that is not an exact int: a bool or a float is not a seed, size or count."""
    # a float b hands out float symbols, and a bool seed runs as 0 or 1
    for name, v in args.items():
        if type(v) is not int:
            raise ValueError(f"{name} must be an integer, not {v!r}")


def mix64(z: int) -> int:
    """SplitMix64 finaliser on 64-bit lanes."""
    z &= MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return z


def mix64_lanes(first: int, step: int, count: int, mask: int = MASK64) -> list[int]:
    """[mix64((first + i * step) & MASK64) & mask for i in range(count)], for count <= LANES.

    One pass over a packed int: a lane's products fit its 128 bits, so each
    xor-shift and multiply runs once over all lanes, masked to 64 bits per
    lane before the next multiply.  `first`, `step` and `mask` are in 0..2^64-1.
    """
    if not 0 <= count <= LANES:
        raise ValueError(f"a block holds 0..{LANES} lanes, not {count}")
    top = (1 << 128 * count) - 1
    ones = _ONES & top
    m = ones * MASK64
    z = ((_IOTA & top) * step + ones * first) & m
    z ^= z >> 30
    z = (z & m) * 0xBF58476D1CE4E5B9 & m
    z ^= z >> 27
    z = (z & m) * 0x94D049BB133111EB & m
    z ^= z >> 31
    # each lane's low 8 bytes, little-endian, skipping the 8 zero bytes above it
    return list(struct.unpack("<" + "Q8x" * count, (z & ones * mask).to_bytes(16 * count, "little")))


def mix64_stream(first: int, step: int):
    """mix64((first + i * step) & MASK64) for i = 0, 1, 2, ..., made lazily in blocks of up to LANES."""
    size = 64  # a short stream pays for a small block only
    while True:
        yield from mix64_lanes(first, step, size)
        first = (first + size * step) & MASK64
        size = min(2 * size, LANES)


@dataclass
class RandomTape:
    """Seeded infinite tape over all (part, t) cells."""

    seed: int
    b: int

    def __post_init__(self):
        require_ints(seed=self.seed, b=self.b)
        if not (0 <= self.seed <= MASK64):
            raise ValueError("seed must fit in 64 bits")
        if not (1 <= self.b <= 1 << 64):
            raise ValueError("symbol range must be in 1..2^64")
        self._accept_limit = ((1 << 64) // self.b) * self.b

    def symbol(self, part: int, t: int) -> int:
        if not (0 <= part < _LIMIT32):
            raise ValueError(f"part index {part} outside 32-bit range")
        if not (0 <= t < _LIMIT32):
            raise ValueError(f"round index {t} outside 32-bit range")
        base = (self.seed + ((part << 32) + t + 1) * GAMMA) & MASK64
        j = 0
        while True:
            v = mix64((base + j * SALT) & MASK64)
            if v < self._accept_limit:
                return v % self.b
            j += 1

    def fill(self, num_parts: int) -> list[int]:
        """[symbol(a, 0) for a in range(num_parts)], LANES parts per `mix64_lanes` pass."""
        if num_parts > _LIMIT32:
            raise ValueError(f"part index {num_parts - 1} outside 32-bit range")
        out: list[int] = []
        for lo in range(0, num_parts, LANES):
            out += self._fill_block(lo, min(LANES, num_parts - lo))
        return out

    def _fill_block(self, lo: int, count: int) -> list[int]:
        """[symbol(a, 0) for a in range(lo, lo + count)] in one `mix64_lanes` pass, count <= LANES.

        A power-of-two b never rejects, and its `% b` is the lane mask
        b - 1; otherwise any lane at or past the acceptance limit is redrawn
        by `symbol`.
        """
        b, limit = self.b, self._accept_limit
        pow2 = b & (b - 1) == 0
        step = (GAMMA << 32) & MASK64  # part a's lane is seed + GAMMA + a * step
        first = (self.seed + GAMMA + lo * step) & MASK64
        lanes = mix64_lanes(first, step, count, b - 1 if pow2 else MASK64)
        if pow2:
            return lanes
        return [v % b if v < limit else self.symbol(a, 0) for a, v in enumerate(lanes, lo)]


@dataclass
class FiniteTape:
    """Explicit symbol table over parts x rounds; depletes past its horizon.

    Cell (part, t) lives at flat index t * num_parts + part, matching the
    enumeration order used by the derandomized solver.  `reads` lists the
    flat index of every symbol handed out, in the order asked; a run reads
    each cell once, so for one run it is the first-read order.
    """

    num_parts: int
    rounds: int
    b: int
    digits: list[int]
    reads: list[int] = field(default_factory=list, init=False)

    def __post_init__(self):
        require_ints(num_parts=self.num_parts, rounds=self.rounds, b=self.b)
        if len(self.digits) != self.num_parts * self.rounds:
            raise ValueError("digit table size must be num_parts * rounds")

    def symbol(self, part: int, t: int) -> int:
        if not (0 <= part < self.num_parts):
            raise ValueError(f"part index {part} out of range")
        if t < 0:
            raise ValueError("round index must be nonnegative")
        if t >= self.rounds:
            raise TapeDepleted(part, t)
        i = t * self.num_parts + part
        self.reads.append(i)
        return self.digits[i]

    def fill(self, num_parts: int) -> list[int]:
        """[symbol(a, 0) for a in range(num_parts)]: each read is recorded, as a scalar read is."""
        return [self.symbol(a, 0) for a in range(num_parts)]

    @property
    def max_index_touched(self) -> dict[int, int]:
        """Largest round index read so far, per part read."""
        # ascending flat indices run t-major, so each part's last entry is its largest t
        return {i % self.num_parts: i // self.num_parts for i in sorted(self.reads)}


class ConsumptionReport(NamedTuple):
    count: int
    bits: float


def _check_fits(trace, pi) -> None:
    # zip would truncate a partition of another instance and give a silently wrong answer
    if len(pi.part_of) != len(trace.h) or pi.num_parts != trace.num_parts:
        raise ValueError(
            f"partition of {len(pi.part_of)} vertices in {pi.num_parts} parts does not fit"
            f" a trace of {len(trace.h)} vertices in {trace.num_parts} parts"
        )


def used_unused(trace, pi, tape, k: int):
    """Split each vertex's first k tape symbols into consumed and untouched.

    The consumed prefix has length h^k(x): one initial sample plus one per
    resampling of x during the first k rounds.  Returns (used, unused) as
    per-vertex lists of tuples; their concatenation always has length k.
    A partition whose vertex or part count differs from the trace's raises
    ValueError.
    """
    _check_fits(trace, pi)
    depth = trace.prefix_rounds(k)
    n = len(trace.h)
    h_k = [0] * n if k == 0 else [1] * n
    for redrawn in trace.resampled_sets[:depth]:
        for x in redrawn:
            h_k[x] += 1
    used = []
    unused = []
    for x in range(n):
        alpha = pi.part_of[x]
        used.append(tuple(tape.symbol(alpha, t) for t in range(h_k[x])))
        unused.append(tuple(tape.symbol(alpha, t) for t in range(h_k[x], k)))
    return used, unused


def symbols_consumed(trace, pi) -> ConsumptionReport:
    """Total distinct tape cells consumed: per part, the largest counter wins.

    For a run that exhausted its budget the count is only a lower bound.
    A partition whose vertex or part count differs from the trace's raises
    ValueError.
    """
    _check_fits(trace, pi)
    top = [0] * pi.num_parts
    for alpha, hx in zip(pi.part_of, trace.h):
        if hx > top[alpha]:
            top[alpha] = hx
    count = sum(top)
    bits = count * math.log2(trace.b) if trace.b > 1 else 0.0
    return ConsumptionReport(count, bits)
