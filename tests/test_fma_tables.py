"""The fma chunk and word tables against the per-chunk path.

`fma_encode` and `fma_decode` take their table path when a call has at
least four chunks (or words) per table entry; the per-chunk functions are
the reference. Each test runs the call as the library picks its path, and
again with `_table_pays` patched to refuse every table, and requires the
same stream or bits, or the same exception class and message.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpncodec import fma
from gpncodec.errors import (
    BitAlignmentError,
    CorruptStreamError,
    InvalidChunkError,
    NotRepresentableError,
)
from gpncodec.fma import FIBONACCI, FmaConfig, FmaStream, fma_decode, fma_encode
from gpncodec.gpn import WeightSystem, evaluate, representation_count

SYSTEMS = [
    FIBONACCI,
    WeightSystem.deformed_fibonacci((1, 2)),
    WeightSystem.deformed_fibonacci((2, 1)),  # weights 1, 2, 5, 12: 4 is forbidden
    WeightSystem.b_radix(3),                  # weights 1, 3, 9: 2 is forbidden
]
SEEDS = [0, 1, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 12345, 2 ** 80 + 7]
TABLE_CACHES = (fma._canonical_table, fma._keyed_table, fma._word_table)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared below, class and message
        return type(exc), str(exc)


def per_chunk(fn, *args):
    with mock.patch.object(fma, "_table_pays", return_value=False):
        return outcome(fn, *args)


def lookups(cache) -> int:
    info = cache.cache_info()
    return info.hits + info.misses


def encode_both(bits, cfg):
    """(table-eligible outcome, per-chunk outcome, whether a table ran)."""
    cache = fma._canonical_table if cfg.policy == "canonical" else fma._keyed_table
    before = lookups(cache)
    got = outcome(fma_encode, bits, cfg)
    return got, per_chunk(fma_encode, bits, cfg), lookups(cache) > before


def decode_both(stream, cfg):
    before = lookups(fma._word_table)
    got = outcome(fma_decode, stream, cfg)
    return got, per_chunk(fma_decode, stream, cfg), lookups(fma._word_table) > before


def encodable_values(cfg):
    return [v for v in range(1 << cfg.chunk_width)
            if representation_count(v, cfg.target_width, cfg.weight_system)]


def chunk_bits(rng, values, count, n):
    return "".join(format(rng.choice(values), f"0{n}b") for _ in range(count))


@st.composite
def configs(draw):
    ws = draw(st.sampled_from(SYSTEMS))
    n = draw(st.integers(1, 5))
    m = fma.min_width(n, ws) + draw(st.integers(0, 2))
    policy = draw(st.sampled_from(["canonical", "keyed"]))
    seed = draw(st.sampled_from(SEEDS) | st.integers(0, 2 ** 64 - 1))
    return FmaConfig(chunk_width=n, target_width=m, weight_system=ws,
                     policy=policy, seed=seed)


@settings(max_examples=80)
@given(configs(), st.data())
def test_tables_match_per_chunk_path(cfg, data):
    n, m = cfg.chunk_width, cfg.target_width
    # chunk counts on both sides of the encode and the decode thresholds
    enc_at, dec_at = 4 << n, 4 << m
    count = data.draw(st.sampled_from(
        [0, 1, enc_at - 1, enc_at, enc_at + 3, dec_at - 1, dec_at]))
    tail = data.draw(st.integers(0, n - 1)) if count else 0
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    values = encodable_values(cfg)
    if data.draw(st.booleans()):
        values = list(range(1 << n))  # forbidden values allowed in
    bits = chunk_bits(rng, values, count, n)
    bits = bits[:len(bits) - tail]

    got, ref, tabled = encode_both(bits, cfg)
    assert got == ref
    assert tabled == (count >= enc_at)
    if got[0] != "ok":
        return
    stream = got[1]
    got, ref, tabled = decode_both(stream, cfg)
    assert got == ref == ("ok", bits)
    assert tabled == (count >= dec_at and m <= 12)


@settings(max_examples=60)
@given(st.sampled_from(SYSTEMS), st.integers(1, 4), st.integers(0, 2),
       st.integers(0, 2 ** 32), st.integers(-8, 8))
def test_decode_of_arbitrary_words_matches(ws, n, extra, seed, length_shift):
    # any m-bit words, values at or above 2^n included, and recorded
    # lengths off by a few bits
    m = fma.min_width(n, ws) + extra
    cfg = FmaConfig(chunk_width=n, target_width=m, weight_system=ws)
    rng = random.Random(seed)
    words = 4 << m
    payload = format(rng.getrandbits(words * m), f"0{words * m}b")
    stream = FmaStream(payload, max(0, words * n + length_shift))
    got, ref, tabled = decode_both(stream, cfg)
    assert got == ref
    assert tabled


def table_sized_stream(cfg):
    """A valid stream long enough for the word table, and its input."""
    rng = random.Random(cfg.target_width)
    bits = chunk_bits(rng, encodable_values(cfg), 4 << cfg.target_width,
                      cfg.chunk_width)
    return fma_encode(bits, cfg), bits


class TestErrorParity:
    """Corrupt input through both paths: same class, same message."""

    def test_word_above_chunk_range(self):
        cfg = FmaConfig(chunk_width=3, target_width=5)  # max word value 12
        stream, _ = table_sized_stream(cfg)
        bad = "11000"
        assert evaluate(bad, FIBONACCI) >= 8
        mid = len(stream.payload) // 2 // 5 * 5
        payload = stream.payload[:mid] + bad + stream.payload[mid + 5:]
        got, ref, tabled = decode_both(
            FmaStream(payload, stream.original_bit_length), cfg)
        assert got == ref
        assert got[0] is InvalidChunkError and tabled

    def test_misaligned_payload(self):
        cfg = FmaConfig(chunk_width=3, target_width=5)
        stream, _ = table_sized_stream(cfg)
        short = FmaStream(stream.payload[:-1], stream.original_bit_length)
        got, ref, _ = decode_both(short, cfg)
        assert got == ref
        assert got[0] is BitAlignmentError

    def test_nonzero_padding(self):
        cfg = FmaConfig(chunk_width=3, target_width=5)
        stream, bits = table_sized_stream(cfg)
        padded = bits[:-2] + "11"
        tampered = FmaStream(fma_encode(padded, cfg).payload, len(bits) - 2)
        got, ref, tabled = decode_both(tampered, cfg)
        assert got == ref
        assert got[0] is CorruptStreamError and tabled

    @pytest.mark.parametrize("policy", ["canonical", "keyed"])
    def test_forbidden_value(self, policy):
        # b_radix(3) at width 2 covers 0..4 but has no word for 2 ("10")
        cfg = FmaConfig(chunk_width=2, target_width=2,
                        weight_system=WeightSystem.b_radix(3), policy=policy)
        bits = "0011" * 40 + "10" + "0011" * 40
        got, ref, tabled = encode_both(bits, cfg)
        assert got == ref
        assert got[0] is NotRepresentableError and tabled

    @pytest.mark.parametrize("policy", ["canonical", "keyed"])
    @pytest.mark.parametrize("junk", ["2", "_", " "])
    def test_non_bit_character(self, policy, junk):
        cfg = FmaConfig(chunk_width=4, policy=policy, seed=9)
        bits = "0110" * 100 + "1" + junk + "01" + "1001" * 100
        got, ref, tabled = encode_both(bits, cfg)
        assert got == ref and tabled
        payload = fma_encode("0110" * 300, cfg).payload
        tampered = FmaStream(payload[:60] + junk + payload[61:], 1200)
        got, ref, tabled = decode_both(tampered, cfg)
        assert got == ref and tabled


def test_wide_one_chunk_call_builds_no_table():
    # a single keyed N=13 chunk: the representation table is needed, but
    # neither a 2^13-entry chunk table nor a word table
    cfg = FmaConfig(chunk_width=13, policy="keyed", seed=1)
    before = [cache.cache_info() for cache in TABLE_CACHES]
    assert fma_decode(fma_encode("1" * 13, cfg), cfg) == "1" * 13
    assert [cache.cache_info() for cache in TABLE_CACHES] == before
