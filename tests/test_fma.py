import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpncodec import fma, gpn
from gpncodec.errors import (
    BitAlignmentError,
    CorruptStreamError,
    InvalidChunkError,
    NotRepresentableError,
)
from gpncodec.fma import (
    FIBONACCI,
    FmaConfig,
    FmaStream,
    fma_decode,
    fma_decode_chunk,
    fma_encode,
    fma_encode_chunk,
    min_width,
    representation_count,
)
from gpncodec.gpn import WeightSystem, evaluate, representations

bitstrings = st.text(alphabet="01", max_size=240)


class TestMinWidth:
    def test_goldens(self):
        assert min_width(3, FIBONACCI) == 4
        assert min_width(1, FIBONACCI) == 1
        assert min_width(8, FIBONACCI) == 12

    def test_expands_for_fibonacci(self):
        for n in range(1, 17):
            assert min_width(n, FIBONACCI) >= n

    def test_binary_needs_no_expansion(self):
        for n in range(1, 17):
            assert min_width(n, WeightSystem.b_radix(2)) == n

    def test_covers_all_chunk_values(self):
        for n in range(1, 13):
            m = min_width(n, FIBONACCI)
            assert FIBONACCI.max_value(m) >= 2 ** n - 1
            if m > 1:
                assert FIBONACCI.max_value(m - 1) < 2 ** n - 1


class TestConfig:
    def test_defaults_to_min_width(self):
        cfg = FmaConfig(chunk_width=3)
        assert cfg.target_width == 4
        assert cfg.policy == "canonical"

    def test_wider_is_allowed(self):
        cfg = FmaConfig(chunk_width=3, target_width=6)
        assert cfg.target_width == 6

    def test_rejects_uncovering_width(self):
        with pytest.raises(ValueError):
            FmaConfig(chunk_width=4, target_width=4)  # fib max at 4 is 7 < 15

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            FmaConfig(chunk_width=3, policy="random")

    def test_rejects_widths_the_container_cannot_hold(self):
        # N 1-16 and M 1-255 bound the count table a chunk is unranked from
        with pytest.raises(ValueError, match=r"chunk_width must be in \[1, 16\]"):
            FmaConfig(chunk_width=17)
        with pytest.raises(ValueError, match=r"target width must be in \[1, 255\]"):
            FmaConfig(chunk_width=3, target_width=256)
        with pytest.raises(ValueError, match=r"target width must be in \[1, 255\]"):
            FmaConfig(chunk_width=9,  # all ones: minimal width 511
                      weight_system=WeightSystem.deformed_fibonacci((1,)))


class TestChunks:
    def test_canonical_goldens(self):
        cfg = FmaConfig(chunk_width=3, target_width=4)
        assert fma_encode_chunk(7, cfg) == "1111"
        assert fma_encode_chunk(0, cfg) == "0000"
        assert fma_encode_chunk(3, cfg) in {"0101", "0110", "1000"}

    def test_keyed_picks_valid_representation(self):
        cfg = FmaConfig(chunk_width=3, target_width=4, policy="keyed", seed=9)
        for value in range(8):
            word = fma_encode_chunk(value, cfg, chunk_index=5)
            assert word in representations(value, 4, FIBONACCI)

    def test_keyed_is_deterministic(self):
        cfg = FmaConfig(chunk_width=3, target_width=4, policy="keyed", seed=9)
        again = FmaConfig(chunk_width=3, target_width=4, policy="keyed", seed=9)
        for idx in range(40):
            assert fma_encode_chunk(3, cfg, idx) == fma_encode_chunk(3, again, idx)

    def test_decode_goldens(self):
        cfg = FmaConfig(chunk_width=3, target_width=4)
        assert fma_decode_chunk("1010", cfg) == 4
        assert fma_decode_chunk("0000", cfg) == 0

    def test_decode_rejects_out_of_alphabet_value(self):
        cfg = FmaConfig(chunk_width=2, target_width=4)
        with pytest.raises(InvalidChunkError):
            fma_decode_chunk("1111", cfg)  # value 7 needs 3 chunk bits

    def test_decode_rejects_wrong_width(self):
        cfg = FmaConfig(chunk_width=3, target_width=4)
        with pytest.raises(InvalidChunkError):
            fma_decode_chunk("111", cfg)

    def test_encode_rejects_out_of_range_value(self):
        cfg = FmaConfig(chunk_width=3, target_width=4)
        with pytest.raises(ValueError):
            fma_encode_chunk(8, cfg)
        with pytest.raises(ValueError):
            fma_encode_chunk(-1, cfg)

    def test_decode_independent_of_choice(self):
        cfg = FmaConfig(chunk_width=3, target_width=4)
        for value in range(8):
            for word in representations(value, 4, FIBONACCI):
                assert fma_decode_chunk(word, cfg) == value

    def test_every_word_decodes_or_rejects(self):
        # exhaustive guard at several widths: accepted words evaluate low,
        # every word above the chunk range raises
        for n, m in [(2, 4), (3, 4), (3, 6), (4, 8), (8, 12)]:
            cfg = FmaConfig(chunk_width=n, target_width=m)
            for i in range(1 << m):
                word = format(i, f"0{m}b")
                value = evaluate(word, FIBONACCI)
                if value < 2 ** n:
                    assert fma_decode_chunk(word, cfg) == value
                else:
                    with pytest.raises(InvalidChunkError):
                        fma_decode_chunk(word, cfg)


class TestKeyedCost:
    """A chunk of either policy costs a table of counts per position and
    value, not an enumeration of every word: N=16 stays cheap at any
    width."""

    @pytest.mark.parametrize("m, policy", [  # m = 0: the minimal width, 23
        pytest.param(0, "keyed", id="0"),
        pytest.param(255, "keyed", id="255"),
        pytest.param(0, "canonical", id="0-canonical"),
        pytest.param(255, "canonical", id="255-canonical"),
    ])
    def test_first_n16_chunk_meets_budget(self, m, policy):
        cfg = FmaConfig(chunk_width=16, target_width=m, policy=policy, seed=1)
        assert cfg.target_width == (m or 23)
        bits = "1011001110001111"
        gpn._ranking.cache_clear()
        start = time.perf_counter()
        stream = fma_encode(bits, cfg)
        elapsed = time.perf_counter() - start
        assert fma_decode(stream, cfg) == bits
        assert elapsed < 2.0

    @pytest.mark.parametrize("policy", ["canonical", "keyed"])
    @pytest.mark.parametrize("extra", [0, 10])
    def test_slow_weights_skip_the_chunk_table(self, policy, extra):
        # all-ones weights give value v C(M, v) words: at N=5 and M=31 the
        # words of value below 32 number 2^31, so 128 chunks (enough keys
        # for a 2^5-entry table) are unranked one at a time instead; the
        # table is stubbed to fail fast rather than exhaust memory
        ones = WeightSystem.deformed_fibonacci((1,))
        cfg = FmaConfig(chunk_width=5, target_width=min_width(5, ones) + extra,
                        weight_system=ones, policy=policy, seed=1)
        bits = format(random.Random(extra).getrandbits(640), "0640b")
        gpn._ranking.cache_clear()
        start = time.perf_counter()
        with mock.patch.object(fma, "_chunk_table",
                               side_effect=AssertionError("chunk table built")):
            stream = fma_encode(bits, cfg)
        elapsed = time.perf_counter() - start
        assert fma_decode(stream, cfg) == bits
        assert elapsed < 2.0


class TestRepresentationCount:
    def test_table_multiplicities(self):
        expected = {0: 1, 1: 2, 2: 2, 3: 3, 4: 3, 5: 2, 6: 2, 7: 1}
        for value, count in expected.items():
            assert representation_count(value, 4, FIBONACCI) == count


class TestStreams:
    def test_expansion_ratio(self):
        cfg = FmaConfig(chunk_width=3, target_width=4)
        stream = fma_encode("0" * 12, cfg)
        assert len(stream.payload) == 4 * 4  # four 4-bit words

    def test_empty_input(self):
        cfg = FmaConfig(chunk_width=3)
        stream = fma_encode("", cfg)
        assert stream.payload == ""
        assert fma_decode(stream, cfg) == ""

    def test_padding_stripped(self):
        cfg = FmaConfig(chunk_width=3, target_width=4, policy="keyed", seed=5)
        rng = random.Random(5)
        bits = "".join(rng.choice("01") for _ in range(999))
        stream = fma_encode(bits, cfg)
        assert stream.original_bit_length == 999
        assert fma_decode(stream, cfg) == bits

    @pytest.mark.parametrize("policy", ["canonical", "keyed"])
    @pytest.mark.parametrize("bits", ["1_01", " 101", "0101\n", "0110" * 100 + "1_01"],
                             ids=["underscore", "blank", "newline", "table-sized"])
    def test_encode_rejects_non_bit_characters(self, bits, policy):
        # int(chunk, 2) reads "1_01" and " 101" as 0101, which would
        # decode to bits other than the input; the last case is long
        # enough for the chunk table, which misses and falls back
        with pytest.raises(ValueError, match="not a clean bit string"):
            fma_encode(bits, FmaConfig(chunk_width=4, policy=policy, seed=3))

    def test_decode_rejects_misaligned_payload(self):
        cfg = FmaConfig(chunk_width=3, target_width=4)
        with pytest.raises(BitAlignmentError):
            fma_decode(FmaStream("10101", 3), cfg)

    def test_decode_rejects_inconsistent_length(self):
        cfg = FmaConfig(chunk_width=3, target_width=4)
        stream = fma_encode("10110101", cfg)
        too_short = FmaStream(stream.payload, 2)
        with pytest.raises(CorruptStreamError):
            fma_decode(too_short, cfg)

    def test_decode_rejects_nonzero_padding(self):
        cfg = FmaConfig(chunk_width=3, target_width=4)
        stream = fma_encode("1", cfg)  # pads 1 -> 100
        tampered = FmaStream(fma_encode("101", cfg).payload,
                             stream.original_bit_length)
        with pytest.raises(CorruptStreamError):
            fma_decode(tampered, cfg)

    def test_different_seeds_diverge(self):
        bits = "011010111001" * 20  # plenty of plural-representation chunks
        base = fma_encode(bits, FmaConfig(3, 4, policy="keyed", seed=0))
        rng = random.Random(99)
        for _ in range(100):
            seed = rng.getrandbits(64)
            if seed == 0:
                continue
            other = fma_encode(bits, FmaConfig(3, 4, policy="keyed", seed=seed))
            assert other.payload != base.payload
            assert fma_decode(other, FmaConfig(3, 4, policy="keyed", seed=seed)) == bits

    def test_keyed_chunks_in_any_order_join_into_payload(self):
        # each chunk's choice depends on the seed and its index only
        rng = random.Random(8)
        bits = format(rng.getrandbits(32000), "032000b")
        cfg = FmaConfig(chunk_width=3, policy="keyed", seed=5)
        order = list(range(len(bits) // 3 + 1))
        rng.shuffle(order)
        padded = bits + "0"
        words = {i: fma_encode_chunk(int(padded[3 * i:3 * i + 3], 2), cfg, i)
                 for i in order}
        assert "".join(words[i] for i in sorted(words)) == fma_encode(bits, cfg).payload

    @settings(max_examples=100, deadline=None)
    @given(bitstrings, st.sampled_from([2, 3, 4, 8]),
           st.sampled_from(["canonical", "keyed"]), st.integers(0, 2 ** 64 - 1))
    def test_roundtrip(self, bits, n, policy, seed):
        cfg = FmaConfig(chunk_width=n, policy=policy, seed=seed)
        assert fma_decode(fma_encode(bits, cfg), cfg) == bits

    @settings(max_examples=40, deadline=None)
    @given(bitstrings, st.integers(2, 4), st.integers(1, 4))
    def test_roundtrip_with_extra_width(self, bits, n, extra):
        cfg = FmaConfig(chunk_width=n, target_width=min_width(n) + extra,
                        policy="keyed", seed=3)
        assert fma_decode(fma_encode(bits, cfg), cfg) == bits


def test_wider_target_never_shrinks_choice():
    base = FmaConfig(chunk_width=3, target_width=4)
    wide = FmaConfig(chunk_width=3, target_width=6)
    for value in range(8):
        assert representation_count(value, wide.target_width, FIBONACCI) >= \
            representation_count(value, base.target_width, FIBONACCI)


def test_forbidden_value_inside_covered_range():
    # base-3 weights {1, 3} cover 0..4 but skip 2: both policies must flag
    # the gap instead of emitting a wrong word
    sparse = WeightSystem.b_radix(3)
    for policy in ("canonical", "keyed"):
        cfg = FmaConfig(chunk_width=2, target_width=2,
                        weight_system=sparse, policy=policy)
        assert fma_decode_chunk(fma_encode_chunk(3, cfg), cfg) == 3
        with pytest.raises(NotRepresentableError):
            fma_encode_chunk(2, cfg)
