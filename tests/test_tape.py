"""Tape contract tests: golden vectors, uniformity plumbing, depletion."""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from resample_forge.tape import (
    GAMMA,
    LANES,
    MASK64,
    FiniteTape,
    RandomTape,
    TapeDepleted,
    mix64,
    mix64_lanes,
    mix64_stream,
)
from tests.reference_mix64 import ref_candidate, ref_mix64, ref_symbol, splitmix64_stream

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent.parent / "tape_vectors.json"


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


class TestMix64:
    def test_against_reference_pipeline(self):
        for z in [0, 1, GAMMA, MASK64, 0x123456789ABCDEF0]:
            assert mix64(z) == ref_mix64(z)

    def test_splitmix64_published_vector(self):
        # first outputs of SplitMix64 seeded with 1234567: the stream equals
        # mix64(seed + i*GAMMA), which is our candidate stream at part=0, t=i, j=0
        stream = splitmix64_stream(1234567, 3)
        assert stream[0] == 6457827717110365317
        for i, want in enumerate(stream):
            assert mix64((1234567 + (i + 1) * GAMMA) & MASK64) == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, MASK64))
    def test_matches_reference_everywhere(self, z):
        assert mix64(z) == ref_mix64(z)


class TestGoldenVectors:
    def test_every_record(self):
        records = load_golden()
        assert len(records) >= 50
        for rec in records:
            tape = RandomTape(rec["seed"], rec["b"])
            assert tape.symbol(rec["part"], rec["t"]) == rec["symbol"], rec

    def test_rejection_cases_present(self):
        # the golden file must pin the rejection branch, not just the fast path
        records = load_golden()
        assert sum(1 for r in records if r["rejections"] >= 1) >= 4
        assert any(r["rejections"] >= 3 for r in records)

    def test_every_first_round_record_through_fill(self):
        # the bulk fill is held to the same frozen contract as symbol(): a record's
        # part is hashed by the one-block pass that fill makes for the block holding it
        records = [rec for rec in load_golden() if rec["t"] == 0]
        assert len(records) >= 10 and max(rec["part"] for rec in records) == (1 << 32) - 1
        for rec in records:
            tape = RandomTape(rec["seed"], rec["b"])
            assert tape._fill_block(rec["part"], 1) == [rec["symbol"]], rec
            if rec["part"] < 4 * LANES:
                assert tape.fill(rec["part"] + 1)[-1] == rec["symbol"], rec

    def test_golden_file_matches_reference(self):
        for rec in load_golden():
            assert ref_symbol(rec["seed"], rec["part"], rec["t"], rec["b"]) == rec["symbol"]


class TestRandomTape:
    def test_deterministic_and_order_independent(self):
        a = RandomTape(99, 5)
        b = RandomTape(99, 5)
        fwd = [a.symbol(2, t) for t in range(10)]
        rev = [b.symbol(2, t) for t in reversed(range(10))]
        assert fwd == list(reversed(rev))

    def test_parts_get_distinct_streams(self):
        tape = RandomTape(7, 1000)
        s0 = [tape.symbol(0, t) for t in range(20)]
        s1 = [tape.symbol(1, t) for t in range(20)]
        assert s0 != s1

    def test_b_one_always_zero(self):
        tape = RandomTape(3, 1)
        assert [tape.symbol(0, t) for t in range(5)] == [0] * 5

    def test_symbol_range(self):
        tape = RandomTape(11, 6)
        for t in range(200):
            assert 0 <= tape.symbol(0, t) < 6

    def test_index_overflow_rejected(self):
        tape = RandomTape(0, 2)
        with pytest.raises(ValueError):
            tape.symbol(1 << 32, 0)
        with pytest.raises(ValueError):
            tape.symbol(0, 1 << 32)
        with pytest.raises(ValueError):
            tape.symbol(-1, 0)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomTape(1 << 64, 2)
        with pytest.raises(ValueError):
            RandomTape(-1, 2)
        with pytest.raises(ValueError):
            RandomTape(0, 0)

    # a float b used to hand out float symbols (0.0), and a bool seed ran as 0 or 1
    @pytest.mark.parametrize("name", ["seed", "b"])
    @pytest.mark.parametrize("value", [True, False, 2.0, "2", None])
    def test_non_int_argument_rejected(self, name, value):
        args = {"seed": 5, "b": 2, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not {value!r}$"):
            RandomTape(**args)

    def test_symbol_range_above_two_to_64_rejected(self):
        # past 2^64 no 64-bit candidate is accepted, so symbol() would never return
        with pytest.raises(ValueError):
            RandomTape(0, 2**64 + 1)
        assert 0 <= RandomTape(0, 2**64).symbol(0, 0) < 2**64

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, MASK64), st.integers(0, 100), st.integers(0, 100), st.integers(2, 16))
    def test_matches_reference(self, seed, part, t, b):
        assert RandomTape(seed, b).symbol(part, t) == ref_symbol(seed, part, t, b)

    def test_rough_uniformity(self):
        # not a statistical suite; just guards against gross modulo bias bugs
        tape = RandomTape(5, 3)
        counts = [0, 0, 0]
        for t in range(3000):
            counts[tape.symbol(0, t)] += 1
        for c in counts:
            assert 850 < c < 1150


class TestFill:
    """The bulk fill against the scalar stream it replaces."""

    @pytest.mark.parametrize("b", [1, 2, 3, 6, 2**63 + 1, 2**64 - 1, 2**64])
    @pytest.mark.parametrize("seed", [0, MASK64])
    def test_equals_scalar_symbols(self, seed, b):
        tape = RandomTape(seed, b)
        scalar = [tape.symbol(a, 0) for a in range(LANES + 1)]
        for k in (0, 1, LANES - 1, LANES, LANES + 1):
            assert tape.fill(k) == scalar[:k]
        assert tape._fill_block(LANES - 2, 3) == scalar[LANES - 2 :]

    def test_rejected_lanes_fall_back_to_symbol(self):
        # at b = 2^63 + 1 about half the candidates are rejected, some of them twice
        b = 2**63 + 1
        limit = ((1 << 64) // b) * b
        rejected = [a for a in range(LANES + 1) if ref_candidate(0, a, 0, 0) >= limit]
        assert len(rejected) > LANES // 4
        assert any(ref_candidate(0, a, 0, 1) >= limit for a in rejected)
        assert RandomTape(0, b).fill(LANES + 1) == [ref_symbol(0, a, 0, b) for a in range(LANES + 1)]

    def test_parts_outside_32_bits_rejected(self):
        tape = RandomTape(0, 2)
        with pytest.raises(ValueError):
            tape.fill((1 << 32) + 1)
        assert tape._fill_block((1 << 32) - 2, 2) == [tape.symbol((1 << 32) - a, 0) for a in (2, 1)]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, MASK64), st.integers(0, MASK64), st.integers(0, 300), st.integers(0, MASK64))
    def test_lanes_are_mix64_of_a_progression(self, first, step, count, mask):
        want = [mix64((first + i * step) & MASK64) for i in range(count)]
        assert mix64_lanes(first, step, count) == want
        assert mix64_lanes(first, step, count, mask) == [v & mask for v in want]

    def test_block_past_its_lanes_rejected(self):
        assert len(mix64_lanes(1, GAMMA, LANES)) == LANES
        with pytest.raises(ValueError):
            mix64_lanes(1, GAMMA, LANES + 1)

    def test_stream_runs_on_past_its_blocks(self):
        stream = mix64_stream(MASK64, GAMMA)
        got = [next(stream) for _ in range(2 * LANES + 200)]
        assert got == [mix64((MASK64 + i * GAMMA) & MASK64) for i in range(len(got))]

    def test_finite_fill_reads_each_part_in_order(self):
        digits = [1, 0, 2, 2, 1, 0]
        tape = FiniteTape(3, 2, 3, digits)
        assert tape.fill(3) == [1, 0, 2]
        assert tape.reads == [0, 1, 2]
        with pytest.raises(TapeDepleted):
            FiniteTape(2, 0, 2, []).fill(2)


class TestFiniteTape:
    def test_lookup_layout(self):
        # cell (part, t) sits at flat index t * num_parts + part
        tape = FiniteTape(2, 3, 2, [0, 1, 1, 0, 1, 1])
        assert tape.symbol(0, 0) == 0
        assert tape.symbol(1, 0) == 1
        assert tape.symbol(0, 1) == 1
        assert tape.symbol(1, 2) == 1

    def test_depletion(self):
        tape = FiniteTape(1, 2, 2, [0, 1])
        tape.symbol(0, 1)
        with pytest.raises(TapeDepleted) as exc:
            tape.symbol(0, 2)
        assert exc.value.part == 0
        assert exc.value.t == 2

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FiniteTape(2, 2, 2, [0, 1, 0])

    def test_part_out_of_range(self):
        tape = FiniteTape(1, 1, 2, [1])
        with pytest.raises(ValueError):
            tape.symbol(1, 0)

    def test_negative_round_rejected(self):
        tape = FiniteTape(1, 1, 2, [1])
        with pytest.raises(ValueError, match="^round index must be nonnegative$"):
            tape.symbol(0, -1)
        assert tape.reads == []

    def test_reads_is_no_constructor_argument(self):
        # the record starts empty on every tape; no caller hands one in
        with pytest.raises(TypeError, match="reads"):
            FiniteTape(1, 1, 2, [1], reads=[0])
        assert FiniteTape(1, 1, 2, [1]).reads == []

    @pytest.mark.parametrize("name", ["num_parts", "rounds", "b"])
    @pytest.mark.parametrize("value", [True, 1.0, "1", None])
    def test_non_int_argument_rejected(self, name, value):
        args = {"num_parts": 1, "rounds": 1, "b": 2, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not {value!r}$"):
            FiniteTape(digits=[0], **args)
