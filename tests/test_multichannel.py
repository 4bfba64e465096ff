import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpncodec.errors import (
    BitAlignmentError,
    ClassOverflowError,
    CorruptStreamError,
    InfeasibleMultiplicitiesError,
    MalformedFlagError,
    UnknownCodewordError,
)
from gpncodec.gpn import combo_rank
from gpncodec.multichannel import (
    MultiRoundOutput,
    build_binomial_codebook,
    build_clone_codebook,
    build_mv2_codebook,
    channel_stats,
    decode_round,
    encode_round,
    flag_decode,
    flag_encode,
    inverse_transform,
    transform,
)

from helpers import random_feasible_multiplicities

bitstrings = st.text(alphabet="01", max_size=260)


class TestFlags:
    def test_encode_goldens(self):
        assert flag_encode([1, 1, 1, 1, 2, 2], 2) == "1010101011"
        assert flag_encode([2, 2, 2, 2], 2) == "1111"
        assert flag_encode([1, 1, 1, 1], 2) == "10101010"

    def test_decode_goldens(self):
        assert flag_decode("1010101011", 2) == [1, 1, 1, 1, 2, 2]
        assert flag_decode("", 2) == []
        assert flag_decode("10101010", 2) == [1, 1, 1, 1]

    def test_class_zero(self):
        assert flag_encode([0], 2) == "100"
        assert flag_decode("100", 2) == [0]

    def test_decode_rejects_leading_zero(self):
        with pytest.raises(MalformedFlagError):
            flag_decode("0101", 2)

    def test_decode_rejects_long_zero_run(self):
        with pytest.raises(MalformedFlagError):
            flag_decode("1000", 2)

    @pytest.mark.parametrize("bits", ["1a1bb", "10 ", "1" + "0" * 40 + "2", "1é"])
    def test_decode_rejects_non_bit_characters(self, bits):
        with pytest.raises(MalformedFlagError, match="is not a clean bit string"):
            flag_decode(bits, 3)

    def test_encode_rejects_out_of_range_class(self):
        with pytest.raises(ValueError):
            flag_encode([3], 2)
        with pytest.raises(ValueError):
            flag_encode([-1], 2)

    @given(st.integers(2, 8), st.lists(st.integers(0, 8), max_size=60))
    def test_roundtrip(self, n, classes):
        classes = [k % (n + 1) for k in classes]
        assert flag_decode(flag_encode(classes, n), n) == classes

    @given(st.integers(1, 8), st.lists(st.integers(0, 8), min_size=1, max_size=40))
    def test_stream_splits_before_each_one(self, n, classes):
        classes = [k % (n + 1) for k in classes]
        stream = flag_encode(classes, n)
        assert stream.count("1") == len(classes)
        assert stream[0] == "1"


class TestMv2Codebook:
    def test_canonical_two_bit_table(self):
        cb = build_mv2_codebook(2, 0)
        assert {s: c for s, (c, _) in cb.encode_map.items()} == {
            "00": "0", "01": "00", "10": "11", "11": "1"}

    def test_three_bit_class_sizes(self):
        cb = build_mv2_codebook(3, 0)
        assert cb.multiplicities == {1: 2, 2: 4, 3: 2}
        assert len(cb.encode_map) == 8

    def test_class_split_identity(self):
        for n in range(2, 17):
            assert sum(2 ** k for k in range(1, n)) + 2 == 2 ** n
            cb = build_mv2_codebook(n, 0)
            assert sum(cb.multiplicities.values()) == 2 ** n

    def test_seeded_book_is_permutation(self):
        base = build_mv2_codebook(2, 0)
        keyed = build_mv2_codebook(2, 42)
        assert keyed.multiplicities == base.multiplicities
        assert sorted(c for c, _ in keyed.encode_map.values()) == \
            sorted(c for c, _ in base.encode_map.values())
        assert len(keyed.decode_map) == 4

    def test_seeds_reach_different_maps(self):
        rng = random.Random(2024)
        pairs = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(100)]
        pairs = [(a, b) for a, b in pairs if a != b]
        for a, b in pairs:
            # a pair must differ at some width; widths >= 3 have enough
            # arrangements that each must differ on its own
            differs = []
            for n in range(2, 9):
                differs.append(build_mv2_codebook(n, a).encode_map
                               != build_mv2_codebook(n, b).encode_map)
            assert any(differs)
            assert all(differs[1:])

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            build_mv2_codebook(1, 0)
        with pytest.raises(ValueError):
            build_mv2_codebook(17, 0)

    def test_codes_unique_within_class(self):
        for seed in (0, 7, 99):
            cb = build_mv2_codebook(4, seed)
            by_class = {}
            for code, k in cb.encode_map.values():
                assert len(code) == k
                by_class.setdefault(k, set()).add(code)
            assert {k: len(v) for k, v in by_class.items()} == cb.multiplicities


class TestCloneCodebook:
    def test_mv2_shape_is_degenerate_clone(self):
        for seed in (0, 5):
            cb = build_clone_codebook(2, [2, 2], seed)
            assert cb.multiplicities == {1: 2, 2: 2}
            assert len(cb.decode_map) == 4

    def test_uneven_split(self):
        cb = build_clone_codebook(2, [1, 3], 0)
        assert cb.multiplicities == {1: 1, 2: 3}
        lengths = sorted(len(c) for c, _ in cb.encode_map.values())
        assert lengths == [1, 2, 2, 2]

    def test_class_overflow(self):
        with pytest.raises(ClassOverflowError):
            build_clone_codebook(2, [3, 1], 0)

    @pytest.mark.parametrize("mults", [[1, 3.9, 4.2], [1, 3, 4.0], ["1", "3", "4"], None])
    def test_non_integer_multiplicities(self, mults):
        # int() would truncate 3.9 and 4.2 to the feasible book 1, 3, 4
        with pytest.raises(InfeasibleMultiplicitiesError,
                           match="multiplicities must be integers"):
            build_clone_codebook(3, mults, 0)

    def test_infeasible_sum(self):
        with pytest.raises(InfeasibleMultiplicitiesError):
            build_clone_codebook(2, [1, 2], 0)
        with pytest.raises(InfeasibleMultiplicitiesError):
            build_clone_codebook(2, [2, 2, 0], 0)
        with pytest.raises(InfeasibleMultiplicitiesError):
            build_clone_codebook(2, [-1, 5], 0)

    def test_random_feasible_vectors_build(self):
        rng = random.Random(7)
        for n in range(1, 9):
            for _ in range(20):
                mults = random_feasible_multiplicities(n, rng)
                cb = build_clone_codebook(n, mults, rng.getrandbits(64))
                assert sum(cb.multiplicities.values()) == 2 ** n
                assert len(cb.encode_map) == 2 ** n
                assert len(cb.decode_map) == 2 ** n


class TestBinomialCodebook:
    def test_class_sizes_follow_binomials(self):
        cb = build_binomial_codebook(4)
        assert cb.multiplicities == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
        assert sum(cb.multiplicities.values()) == 16

    def test_code_is_fixed_width_rank(self):
        cb = build_binomial_codebook(4)
        assert cb.encode_map["1100"] == ("101", 2)
        assert combo_rank("1100") == 5
        assert cb.encode_map["0000"] == ("", 0)
        assert cb.encode_map["1111"] == ("", 4)

    def test_bijective_for_all_symbols(self):
        for n in range(1, 11):
            cb = build_binomial_codebook(n)
            seen = set()
            for sym, (code, k) in cb.encode_map.items():
                assert len(code) == cb.class_width[k]
                assert len(code) <= n  # never expands a symbol
                assert cb.decode_map[(k, code)] == sym
                seen.add((k, code))
            assert len(seen) == 2 ** n


class TestCodebookTables:
    SEEDS = (0, 1, (1 << 64) - 1)
    CLONES = ((2,), (1, 3, 4), (0, 2, 6), (2, 4, 8, 16, 32, 64, 128, 2))

    def books(self):
        for n in range(2, 17):
            for seed in self.SEEDS:
                yield build_mv2_codebook(n, seed)
        for mults in self.CLONES:
            for seed in self.SEEDS:
                yield build_clone_codebook(len(mults), mults, seed)
        for n in range(1, 17):
            yield build_binomial_codebook(n)

    def test_every_table_digest(self):
        # pins every symbol's code and class, keyed tables included
        digest = hashlib.sha256()
        count = 0
        for cb in self.books():
            for sym in sorted(cb.encode_map):
                code, k = cb.encode_map[sym]
                digest.update(f"{sym}\t{code}\t{k}\n".encode())
            digest.update(f"{sorted(cb.class_width.items())}|"
                          f"{sorted(cb.multiplicities.items())}|{cb.seed}\n".encode())
            count += 1
        assert count == 73
        assert digest.hexdigest() == (
            "e1792f885d8f1b40f3dd1bc71f16fe58fba14f46f3dcb984ecfee025c48e80d9")


class TestRounds:
    def test_encode_round_goldens(self):
        cb = build_mv2_codebook(2, 0)
        out = encode_round("000011110101", cb)
        assert out.core == "00110000"
        assert out.flags == "1010101011"
        out2 = encode_round(out.core, cb)
        assert out2.core == "0100"
        assert out2.flags == "10101010"
        out3 = encode_round("00", cb)
        assert (out3.core, out3.flags) == ("0", "10")

    def test_decode_round_goldens(self):
        cb = build_mv2_codebook(2, 0)
        assert decode_round("0100", "10101010", cb) == "00110000"
        assert decode_round("", "", cb) == ""

    def test_alignment_error(self):
        cb = build_mv2_codebook(2, 0)
        with pytest.raises(BitAlignmentError):
            encode_round("000", cb)

    def test_corrupt_stream(self):
        cb = build_mv2_codebook(2, 0)
        with pytest.raises(CorruptStreamError):
            decode_round("0", "11", cb)

    def test_unknown_codeword(self):
        # with classes 0 or unpopulated, lookups must fail loudly
        cb = build_clone_codebook(2, [0, 4], 0)
        with pytest.raises(UnknownCodewordError):
            decode_round("0", "10", cb)
        mv2 = build_mv2_codebook(2, 0)
        with pytest.raises(UnknownCodewordError):
            decode_round("00", "100", mv2)

    def test_core_never_longer_than_input(self):
        rng = random.Random(3)
        for n in (2, 3, 5):
            cb = build_mv2_codebook(n, 11)
            for _ in range(20):
                bits = "".join(rng.choice("01") for _ in range(n * rng.randint(0, 40)))
                assert len(encode_round(bits, cb).core) <= len(bits)


class TestTransform:
    def test_two_round_walkthrough(self):
        cb = build_mv2_codebook(2, 0)
        out = transform("000011110101", cb, 2)
        assert out.rounds_executed == 2
        assert out.core == "0100"
        assert out.flags == ["1010101011", "10101010"]
        assert out.input_bit_lengths == [12, 8]
        assert inverse_transform(out, cb) == "000011110101"

    def test_single_round_equivalent(self):
        cb = build_mv2_codebook(2, 0)
        bits = "0100100111"
        out = transform(bits, cb, 1)
        one = encode_round(bits + "0" * (-len(bits) % 2), cb)
        assert out.core == one.core
        assert out.flags == [one.flags]

    def test_empty_input(self):
        cb = build_mv2_codebook(2, 0)
        out = transform("", cb, 3)
        assert out.rounds_executed == 1
        assert out.core == ""
        assert inverse_transform(out, cb) == ""

    def test_early_stop_on_empty_core(self):
        # width-1 binomial codes are all empty: the flag channel carries
        # everything and iteration must stop after one round
        cb = build_binomial_codebook(1)
        out = transform("0110", cb, 5)
        assert out.rounds_executed == 1
        assert out.core == ""
        assert out.flags == ["101110"]
        assert inverse_transform(out, cb) == "0110"

    def test_padding_recorded_not_guessed(self):
        cb = build_mv2_codebook(3, 0)
        bits = "1011"  # pads to 6
        out = transform(bits, cb, 2)
        assert out.input_bit_lengths[0] == 4
        assert inverse_transform(out, cb) == bits

    def test_rejects_zero_rounds(self):
        cb = build_mv2_codebook(2, 0)
        with pytest.raises(ValueError):
            transform("00", cb, 0)

    def test_inverse_rejects_inconsistent_bundle(self):
        cb = build_mv2_codebook(2, 0)
        out = transform("000011110101", cb, 2)
        bad = MultiRoundOutput(2, out.flags[:1], out.core, out.input_bit_lengths)
        with pytest.raises(CorruptStreamError):
            inverse_transform(bad, cb)
        wrong_len = MultiRoundOutput(2, out.flags, out.core, [11, 8])
        with pytest.raises(CorruptStreamError):
            inverse_transform(wrong_len, cb)

    @settings(max_examples=120, deadline=None)
    @given(bitstrings, st.integers(2, 5), st.integers(0, 2 ** 64 - 1),
           st.integers(1, 8))
    def test_mv2_roundtrip(self, bits, n, seed, rounds):
        cb = build_mv2_codebook(n, seed)
        out = transform(bits, cb, rounds)
        assert inverse_transform(out, cb) == bits

    @settings(max_examples=60, deadline=None)
    @given(bitstrings, st.integers(1, 8), st.integers(0, 2 ** 64 - 1),
           st.integers(1, 4), st.integers(0, 2 ** 32))
    def test_clone_roundtrip(self, bits, n, seed, rounds, mult_seed):
        mults = random_feasible_multiplicities(n, random.Random(mult_seed))
        cb = build_clone_codebook(n, mults, seed)
        out = transform(bits, cb, rounds)
        assert inverse_transform(out, cb) == bits

    @settings(max_examples=60, deadline=None)
    @given(bitstrings, st.integers(1, 10), st.integers(1, 4))
    def test_binomial_roundtrip(self, bits, n, rounds):
        cb = build_binomial_codebook(n)
        out = transform(bits, cb, rounds)
        assert inverse_transform(out, cb) == bits


class TestChannelStats:
    def test_walkthrough_round_one(self):
        cb = build_mv2_codebook(2, 0)
        out = transform("000011110101", cb, 1)
        stats = channel_stats(out, 12)
        assert stats.core_bits == 8
        assert stats.input_bits == 12
        assert stats.core_bits < stats.input_bits
        assert stats.flag_bits == 10

    def test_all_zero_input_halves(self):
        cb = build_mv2_codebook(2, 0)
        bits = "00" * 64
        out = transform(bits, cb, 1)
        stats = channel_stats(out, len(bits))
        assert stats.core_bits == len(bits) // 2
        assert stats.core_zero_fraction == 1.0
        assert stats.core_entropy == 0.0

    def test_balanced_core_entropy_is_one(self):
        cb = build_mv2_codebook(2, 0)
        out = transform("0011" * 8, cb, 1)
        stats = channel_stats(out, 32)
        assert stats.core_zero_fraction == 0.5
        assert stats.core_entropy == pytest.approx(1.0)

    def test_empty_channels(self):
        cb = build_binomial_codebook(1)
        out = transform("01", cb, 1)
        stats = channel_stats(out, 2)
        assert stats.core_bits == 0
        assert stats.core_entropy == 0.0
        assert stats.flag_bits == len(out.flags[0])
