"""The fma chunk table and the decode lanes against the per-chunk path.

`fma_encode` takes its table path when a call has at least four chunks
per table entry; `fma_decode` takes the lane kernel, in lanes wide enough
that none can carry into the next, up to the first block it refuses. The
per-chunk functions are the reference. Each test runs the call as the
library picks its path, and again with `_table_pays` patched to refuse
every table and `_decode_lanes` to decode no word, and requires the same
stream or bits, or the same exception class and message.
"""

import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpncodec import fma, gpn, multichannel
from gpncodec.errors import (
    BitAlignmentError,
    CorruptStreamError,
    InvalidChunkError,
    NotRepresentableError,
)
from gpncodec.fma import FIBONACCI, FmaConfig, FmaStream, fma_decode, fma_encode
from gpncodec.gpn import WeightSystem, canonical_encode, evaluate, representation_count

SYSTEMS = [
    FIBONACCI,
    WeightSystem.deformed_fibonacci((1, 2)),
    WeightSystem.deformed_fibonacci((2, 1)),  # weights 1, 2, 5, 12: 4 is forbidden
    WeightSystem.b_radix(3),                  # weights 1, 3, 9: 2 is forbidden
]
DEFORMED_21 = SYSTEMS[2]
SEEDS = [0, 1, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 12345, 2 ** 80 + 7]
TABLE_CACHES = (fma._chunk_table,)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared below, class and message
        return type(exc), str(exc)


def per_chunk(fn, *args):
    with mock.patch.object(fma, "_table_pays", return_value=False), \
            mock.patch.object(fma, "_decode_lanes", return_value=("", 0)):
        return outcome(fn, *args)


def lookups(cache) -> int:
    info = cache.cache_info()
    return info.hits + info.misses


def encode_both(bits, cfg):
    """(table-eligible outcome, per-chunk outcome, whether a table ran)."""
    before = lookups(fma._chunk_table)
    got = outcome(fma_encode, bits, cfg)
    return got, per_chunk(fma_encode, bits, cfg), lookups(fma._chunk_table) > before


def decode_both(stream, cfg):
    """(library outcome, per-chunk outcome, the first decode path the
    library entered: "lanes", "per-chunk", or None when it rejected the
    stream before decoding any word)."""
    with mock.patch.object(fma, "_decode_lanes", wraps=fma._decode_lanes) as lanes, \
            mock.patch.object(fma, "fma_decode_chunk",
                              wraps=fma.fma_decode_chunk) as chunk:
        got = outcome(fma_decode, stream, cfg)
    path = "lanes" if lanes.called else "per-chunk" if chunk.called else None
    return got, per_chunk(fma_decode, stream, cfg), path


def lane_words(payload, cfg):
    """Words the lane kernel decodes before it hands the rest of `payload`
    to the per-chunk path."""
    n, m = cfg.chunk_width, cfg.target_width
    lanes = fma._lane_weights(cfg.weight_system, m, n)
    return fma._decode_lanes(payload, m, n, *lanes)[1]


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
    # chunk counts on both sides of the encode threshold, and long calls
    enc_at, many = 4 << n, 4 << m
    count = data.draw(st.sampled_from(
        [0, 1, enc_at - 1, enc_at, enc_at + 3, many - 1, many]))
    tail = data.draw(st.integers(0, n - 1)) if count else 0
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    values = encodable_values(cfg)
    if data.draw(st.booleans()):
        values = list(range(1 << n))  # forbidden values allowed in
    bits = chunk_bits(rng, values, count, n)
    bits = bits[:len(bits) - tail]
    # blocks of a few characters: the chunk index, and so the keyed
    # selector, carries on across block edges on both paths
    block = data.draw(st.sampled_from([24, 40, 1 << 16]), label="block")

    with mock.patch.object(multichannel, "_BLOCK_BITS", block):
        got, ref, tabled = encode_both(bits, cfg)
        assert got == ref
        assert tabled == (count >= enc_at)
        if got[0] != "ok":
            return
        got, ref, path = decode_both(got[1], cfg)
    assert got == ref == ("ok", bits) and path == "lanes"


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
    original = max(0, words * n + length_shift)
    got, ref, path = decode_both(FmaStream(payload, original), cfg)
    assert got == ref
    # a recorded length the word count cannot give is rejected first
    assert path == ("lanes" if original <= words * n < original + n else None)


CANONICAL_SYSTEMS = SYSTEMS + [
    WeightSystem.factorial(),                 # weights 1, 2, 6, 24: 4 is forbidden
    WeightSystem.deformed_fibonacci((1, 3)),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CANONICAL_SYSTEMS), st.integers(1, 6),
       st.sampled_from([0, 1, 3]), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32))
def test_canonical_policy_is_canonical_encode(ws, n, extra, tabled,
                                              encodable_only, seed):
    # the canonical policy takes the last sorted word; it must be the word
    # canonical_encode picks, or raise its exception, chunk by chunk and
    # over whole streams on either path
    m = fma.min_width(n, ws) + extra
    cfg = FmaConfig(chunk_width=n, target_width=m, weight_system=ws)
    expected = [outcome(canonical_encode, v, m, ws) for v in range(1 << n)]
    assert [outcome(fma.fma_encode_chunk, v, cfg)
            for v in range(1 << n)] == expected

    rng = random.Random(seed)
    values = [v for v in range(1 << n)
              if expected[v][0] == "ok" or not encodable_only]
    chunks = [rng.choice(values) for _ in range(4 << n if tabled else 3)]
    bits = "".join(format(v, f"0{n}b") for v in chunks)
    errors = [expected[v] for v in chunks if expected[v][0] != "ok"]
    want = errors[0] if errors else (
        "ok", FmaStream("".join(expected[v][1] for v in chunks), len(bits)))
    got, ref, used_table = encode_both(bits, cfg)
    assert got == ref == want
    assert used_table == tabled


def table_sized_stream(cfg):
    """A valid stream long enough for the chunk table, and its input."""
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
        got, ref, path = decode_both(
            FmaStream(payload, stream.original_bit_length), cfg)
        assert got == ref
        assert got[0] is InvalidChunkError and path == "lanes"

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
        got, ref, path = decode_both(tampered, cfg)
        assert got == ref
        assert got[0] is CorruptStreamError and path == "lanes"

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
        got, ref, path = decode_both(tampered, cfg)
        assert got == ref and path == "lanes"

    def test_forbidden_value_unranks_one_block(self):
        # three blocks of 64 chunks, long enough for the chunk table, with
        # the one forbidden value (4 under deformed (2, 1) at width 4) in
        # the last: only that block's values are unranked, not the call's
        cfg = FmaConfig(chunk_width=4, weight_system=DEFORMED_21)
        bits = chunk_bits(random.Random(7), encodable_values(cfg), 3 * 64, 4)
        bits = bits[:-8] + "0100" + bits[-4:]
        with mock.patch.object(multichannel, "_BLOCK_BITS", 4 * 64):
            got, ref, tabled = encode_both(bits, cfg)
            with mock.patch.object(gpn._Ranking, "count", autospec=True,
                                   side_effect=gpn._Ranking.count) as count:
                outcome(fma_encode, bits, cfg)
        assert got == ref == (NotRepresentableError,
                              "value 4 is a forbidden combination at width 4")
        assert tabled
        # the 2^4 counts of the table's size check, and one block at most
        assert count.call_count <= 16 + 64

    @pytest.mark.parametrize("policy", ["canonical", "keyed"])
    @pytest.mark.parametrize("chunks", [40, 192], ids=["per-chunk", "tabled"])
    @pytest.mark.parametrize("forbidden, junk, error", [
        (3, 16 * 4 + 9, NotRepresentableError),  # an earlier block
        (3, 9 * 4 + 1, ValueError),              # the same block, later
        (20, 9 * 4 + 1, ValueError),             # a later block
    ], ids=["forbidden-first", "same-block", "junk-first"])
    def test_first_faulty_block_reports(self, policy, chunks, forbidden, junk,
                                        error):
        # blocks of 16 chunks: the first block that holds a fault reports
        # it, and within a block a non-bit character comes before a
        # forbidden value, on both paths
        cfg = FmaConfig(chunk_width=4, weight_system=DEFORMED_21,
                        policy=policy, seed=5)
        bits = chunk_bits(random.Random(chunks), encodable_values(cfg), chunks, 4)
        bits = bits[:4 * forbidden] + "0100" + bits[4 * forbidden + 4:]
        bits = bits[:junk] + "2" + bits[junk + 1:]
        with mock.patch.object(multichannel, "_BLOCK_BITS", 64):
            got, ref, tabled = encode_both(bits, cfg)
        assert got == ref and got[0] is error
        assert tabled == (chunks == 192)


def test_wide_one_chunk_call_builds_no_table():
    # a single keyed N=13 chunk is unranked from a count table: no
    # 2^13-entry chunk table is built
    cfg = FmaConfig(chunk_width=13, policy="keyed", seed=1)
    before = [cache.cache_info() for cache in TABLE_CACHES]
    assert fma_decode(fma_encode("1" * 13, cfg), cfg) == "1" * 13
    assert [cache.cache_info() for cache in TABLE_CACHES] == before


def canonical_stream(cfg, count, seed=0):
    """A stream of `count` canonical words of random encodable values, and
    its input, by greedy encoding: no table is built at wide widths."""
    n, m, ws = cfg.chunk_width, cfg.target_width, cfg.weight_system
    rng = random.Random(seed)
    words, chunks = [], []
    while len(words) < count:
        value = rng.getrandbits(n)
        try:
            words.append(canonical_encode(value, m, ws))
        except NotRepresentableError:
            continue
        chunks.append(format(value, f"0{n}b"))
    return FmaStream("".join(words), count * n), "".join(chunks)


def wide_cases():
    for ws in SYSTEMS:
        for n in (3, 8, 13):
            low = fma.min_width(n, ws)
            for m in sorted({low, 12, 13, 24, 25, 255}):
                if m >= low:
                    yield pytest.param(ws, n, m, id=f"{ws!r}-n{n}-m{m}")
    # lanes wider than M (b_radix(3) N=8 M=6, with 9-bit lanes, is above),
    # and M < N
    for ws, n, m in [(WeightSystem.deformed_fibonacci((2, 1)), 4, 4),
                     (WeightSystem.factorial(), 12, 10)]:
        yield pytest.param(ws, n, m, id=f"{ws!r}-n{n}-m{m}")


@pytest.mark.parametrize("ws, n, m", wide_cases())
def test_lanes_match_per_chunk_path(ws, n, m):
    # valid words, random words, valid words with a blank at the last and
    # at the first character of a seven-word block, and valid words with
    # one word of value >= 2^n, in blocks of seven words and in one block;
    # every outcome equals the per-chunk path's, bits or exception class
    # and message
    cfg = FmaConfig(chunk_width=n, target_width=m, weight_system=ws)
    rng = random.Random(f"{ws!r}/{n}/{m}")
    valid = canonical_stream(cfg, 40, n * m)[0].payload
    words = [valid[i:i + m] for i in range(0, len(valid), m)]
    payloads = [valid, format(rng.getrandbits(40 * m), f"0{40 * m}b")]
    payloads += [valid[:at] + " " + valid[at + 1:] for at in (7 * m - 1, 7 * m)]
    big = next((w for w in (format(rng.getrandbits(m), f"0{m}b") for _ in range(1000))
                if evaluate(w, ws) >= 1 << n), None)
    if big:  # none at the minimal width of some systems
        spot = rng.randrange(40)
        payloads.append("".join(words[:spot] + [big] + words[spot + 1:]))
    for block in (7 * m, 1 << 16):
        with mock.patch.object(multichannel, "_BLOCK_BITS", block):
            assert lane_words(valid, cfg) == 40
            outcomes = []
            for payload in payloads:
                got, ref, path = decode_both(FmaStream(payload, 40 * n), cfg)
                assert got == ref and path == "lanes"
                outcomes.append(got[0])
        assert outcomes[:1] + outcomes[2:4] == ["ok", ValueError, ValueError]
        assert outcomes[4:] in ([], [InvalidChunkError])


class TestLaneMisses:
    """Words the lane kernel hands back: the call reruns per chunk from
    the block that holds them and raises what the per-chunk path raises."""

    @pytest.mark.parametrize("lane", ["first", "middle", "last"])
    @pytest.mark.parametrize("per_block", [5, (1 << 16) // 19])
    def test_word_above_chunk_range(self, lane, per_block):
        # N=13 M=19 uses no weight of 2^13 or more: "1" * 19 is 10,945
        cfg = FmaConfig(chunk_width=13)
        stream, bits = canonical_stream(cfg, 2 * per_block + 3)
        at = per_block + {"first": 0, "middle": per_block // 2,
                          "last": per_block - 1}[lane]
        payload = stream.payload[:19 * at] + "1" * 19 + stream.payload[19 * at + 19:]
        bad = FmaStream(payload, stream.original_bit_length)
        with mock.patch.object(multichannel, "_BLOCK_BITS", 19 * per_block):
            assert decode_both(stream, cfg) == (("ok", bits), ("ok", bits), "lanes")
            got, ref, path = decode_both(bad, cfg)
            with mock.patch.object(fma, "fma_decode_chunk",
                                   wraps=fma.fma_decode_chunk) as chunk:
                outcome(fma_decode, bad, cfg)
        assert got == ref
        assert got[0] is InvalidChunkError and path == "lanes"
        # per chunk only from the first word of the second block
        assert chunk.call_count == at - per_block + 1 <= per_block

    @pytest.mark.parametrize("m, bad", [
        (5, "11000"),   # 3 + 5 = 8 from weights below 2^3
        (6, "100000"),  # R_6 = 8: a forbidden position, outside the lane sum
    ])
    def test_word_above_chunk_range_short_call(self, m, bad):
        cfg = FmaConfig(chunk_width=3, target_width=m)
        stream, _ = canonical_stream(cfg, 30)
        payload = stream.payload[:10 * m] + bad + stream.payload[11 * m:]
        got, ref, path = decode_both(
            FmaStream(payload, stream.original_bit_length), cfg)
        assert got == ref
        assert got[0] is InvalidChunkError and path == "lanes"

    @pytest.mark.parametrize("junk", ["2", "_", " "])
    @pytest.mark.parametrize("at", [24, 30, 47, 0, 239])
    def test_non_bit_character(self, junk, at):
        # N=4 M=6 in blocks of four words: the junk at a block's first,
        # middle and last character, and at the payload's ends
        cfg = FmaConfig(chunk_width=4)
        stream, _ = canonical_stream(cfg, 40)
        tampered = FmaStream(stream.payload[:at] + junk + stream.payload[at + 1:],
                             stream.original_bit_length)
        with mock.patch.object(multichannel, "_BLOCK_BITS", 24):
            got, ref, path = decode_both(tampered, cfg)
        assert got == ref
        assert got[0] is ValueError and path == "lanes"

    @pytest.mark.parametrize("ws, n, m, lane", [
        (WeightSystem.b_radix(3), 2, 2, 3),     # 1 + 3 = 4
        (WeightSystem.b_radix(3), 8, 6, 9),     # 1 + ... + 243 = 364
        (WeightSystem.factorial(), 3, 3, 4),    # 1 + 2 + 6 = 9
        (WeightSystem.factorial(), 4, 5, 5),    # 1 + 2 + 6 = 9, below 2^5
        (WeightSystem.factorial(), 12, 10, 12),  # 873 < 2^10, but 12-bit chunks
    ])
    def test_lanes_widen_until_none_can_carry(self, ws, n, m, lane):
        # an m-bit lane could carry, or could not hold a chunk, at all but
        # N=4 M=5: these decode on lanes of the width each needs
        cfg = FmaConfig(chunk_width=n, target_width=m, weight_system=ws)
        assert fma._lane_weights(ws, m, n)[0] == lane
        stream, bits = canonical_stream(cfg, 12)
        assert decode_both(stream, cfg) == (("ok", bits), ("ok", bits), "lanes")
        assert lane_words(stream.payload, cfg) == 12
        payload = "1" * m + stream.payload[m:]
        got, ref, path = decode_both(
            FmaStream(payload, stream.original_bit_length), cfg)
        assert got == ref and path == "lanes"
        assert got[0] is InvalidChunkError


def test_decode_keeps_nothing_but_its_output():
    # two decodes of different lengths, each one block of lanes: once a
    # decode returns, no object sized by its block stays alive
    cfg = FmaConfig(chunk_width=4, policy="keyed", seed=3)
    rng = random.Random(4)
    streams = [fma_encode(format(rng.getrandbits(k), f"0{k}b"), cfg)
               for k in (4000, 32000, 20000)]
    fma_decode(streams[0], cfg)  # the per-system tables, built once
    tracemalloc.start()
    try:
        outputs = [fma_decode(stream, cfg) for stream in streams[1:]]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held - sum(map(sys.getsizeof, outputs)) < 64 << 10


@pytest.mark.parametrize("shift", [-5, 5])
def test_bad_length_is_rejected_before_any_word(shift):
    # 1 MiB of payload bits at N=4 M=16: a recorded length off by N + 1
    # is refused from the word count, without evaluating a word, even
    # though the first word's value (2,583) is out of range too
    cfg = FmaConfig(chunk_width=4, target_width=16)
    stream = FmaStream("1" * 16 + "0" * ((8 << 20) - 16), (8 << 20) // 16 * 4 + shift)
    with mock.patch.object(fma, "evaluate", side_effect=AssertionError), \
            mock.patch.object(fma, "_decode_lanes", side_effect=AssertionError):
        with pytest.raises(CorruptStreamError, match="payload decodes to 2097152 bits"):
            fma_decode(stream, cfg)
