"""Tape contract tests: golden vectors, uniformity plumbing, depletion."""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from resample_forge.tape import GAMMA, MASK64, FiniteTape, RandomTape, TapeDepleted, mix64
from tests.reference_mix64 import ref_mix64, ref_symbol, splitmix64_stream

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
