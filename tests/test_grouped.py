"""Grouped-symbol tables against the per-symbol reference path.

Rounds on long inputs look symbols up g at a time; the per-symbol loops
`_encode_symbols`/`_decode_symbols` stay as the reference. Every test
here compares the two, on valid channels and on damaged ones.
"""

import random
import tracemalloc
from functools import cache
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpncodec import multichannel
from gpncodec.errors import CorruptStreamError, GpnError, MalformedFlagError
from gpncodec.multichannel import (
    _KEY_BITS,
    _TABLE_SHARE,
    _decode_groups,
    _decode_symbols,
    _encode_groups,
    _encode_symbols,
    _group_size,
    build_binomial_codebook,
    build_clone_codebook,
    build_codebook,
    build_mv2_codebook,
    decode_round,
    encode_round,
    inverse_transform,
    transform,
)

from helpers import random_bits, random_feasible_multiplicities

# decode windows of at least this many flag bits always hold a whole
# group: 12 codewords of at most 2 bits (binomial N=1) is the widest group
_MIN_WINDOW = 24


@st.composite
def books(draw):
    """mv2 N=2..12 with and without a key, clone N=1..12, binomial N=1..12
    (whose singleton classes have width 0)."""
    family = draw(st.sampled_from(["mv2", "mv2-keyed", "clone", "binomial"]))
    if family == "binomial":
        return build_binomial_codebook(draw(st.integers(1, 12)))
    if family == "clone":
        n = draw(st.integers(1, 12))
        mults = random_feasible_multiplicities(
            n, random.Random(draw(st.integers(0, 2 ** 32))))
        return build_clone_codebook(n, mults, draw(st.integers(0, 2 ** 64 - 1)))
    seed = draw(st.integers(1, 2 ** 64 - 1)) if family == "mv2-keyed" else 0
    return build_mv2_codebook(draw(st.integers(2, 12)), seed)


@cache
def wide_book(family, n):
    """The N=13..16 books that `books()` leaves out; rounds at these widths
    use the g = 1 tables only, and mv2 N=16 cuts "16s" tokens."""
    if family == "binomial":
        return build_binomial_codebook(n)
    if family == "clone":
        mults = random_feasible_multiplicities(n, random.Random(n))
        return build_clone_codebook(n, mults, 0x5EED + n)
    return build_mv2_codebook(n, 0x9E3779B97F4A7C15 if family == "mv2-keyed" else 0)


wide_books = st.builds(wide_book, st.sampled_from(["mv2", "mv2-keyed", "clone", "binomial"]),
                       st.integers(13, 16))


def per_symbol():
    """Context in which every round takes the per-symbol path."""
    return mock.patch.multiple(multichannel, _encode_groups=lambda *args: None,
                               _decode_groups=lambda *args: None)


def outcome(fn, *args):
    """The result of a call, or the class and message of its error."""
    try:
        return fn(*args)
    except (GpnError, ValueError) as exc:
        return type(exc), str(exc)


def damage(rng, bits):
    """A flipped bit, a truncation or an extension of a channel."""
    kind = rng.choice(["flip", "truncate", "extend"])
    if kind == "flip" and bits:
        i = rng.randrange(len(bits))
        return bits[:i] + "10"[int(bits[i])] + bits[i + 1:]
    if kind == "truncate" and bits:
        return bits[:rng.randrange(len(bits))]
    return bits + random_bits(rng, rng.randint(1, 12))


class TestGroupSize:
    def test_thresholds(self):
        assert _group_size(2, _TABLE_SHARE << 12) == 6
        assert _group_size(2, (_TABLE_SHARE << 12) - 1) == 5
        assert _group_size(8, _TABLE_SHARE << 8) == 1
        assert _group_size(8, (_TABLE_SHARE << 8) - 1) == 1
        assert _group_size(6, 1 << 30) == 2
        assert _group_size(13, 1 << 30) == 1
        assert _group_size(1, 0) == 1

    def test_keys_stay_within_limit(self):
        # g = 1 (the per-symbol pairs and runs) at every width, even where
        # one symbol is wider than _KEY_BITS
        for n in range(1, 17):
            g = _group_size(n, 1 << 40)
            assert g * n <= max(_KEY_BITS, n)
            assert g == max(1, _KEY_BITS // n)
            assert _group_size(n, 0) == 1


class TestGroupedMatchesPerSymbol:
    @settings(max_examples=150)
    @given(books(), st.data(), st.integers(0, 2 ** 32),
           st.sampled_from([_MIN_WINDOW, 40, 100, 1 << 16]))
    def test_every_group_size_and_tail(self, cb, data, content_seed, block):
        n = cb.symbol_width
        g = data.draw(st.integers(1, _KEY_BITS // n), label="g")
        groups = data.draw(st.integers(0, 40), label="groups")
        tail = data.draw(st.integers(0, g - 1), label="tail")
        bits = random_bits(random.Random(content_seed), n * (g * groups + tail))
        core, flags = _encode_symbols(bits, cb)
        with mock.patch.object(multichannel, "_BLOCK_BITS", block):
            assert _encode_groups(bits, cb, g) == (core, flags)
            assert _decode_groups(core, flags, cb, g) == bits
        assert _decode_symbols(core, flags, cb) == bits

    @settings(max_examples=40)
    @given(books(), st.data(), st.integers(0, 2 ** 32))
    def test_rounds_on_both_sides_of_each_threshold(self, cb, data, content_seed):
        n = cb.symbol_width
        g = data.draw(st.integers(1, _KEY_BITS // n), label="g")
        symbols = (_TABLE_SHARE << (g * n)) + data.draw(st.integers(-g, g))
        bits = random_bits(random.Random(content_seed), n * max(0, symbols))
        out = encode_round(bits, cb)
        assert (out.core, out.flags) == _encode_symbols(bits, cb)
        assert decode_round(out.core, out.flags, cb) == bits

    @settings(max_examples=40)
    @given(books(), st.integers(0, 40_000), st.integers(1, 4),
           st.integers(0, 2 ** 32))
    def test_multi_round_transform(self, cb, length, rounds, content_seed):
        bits = random_bits(random.Random(content_seed), length)
        out = transform(bits, cb, rounds)
        with per_symbol():
            reference = transform(bits, cb, rounds)
            assert inverse_transform(out, cb) == bits
        assert out == reference
        assert inverse_transform(out, cb) == bits

    @settings(max_examples=200)
    @given(st.one_of(books(), wide_books), st.integers(0, 1), st.integers(0, 80),
           st.integers(0, 2 ** 32), st.sampled_from([_MIN_WINDOW, 40, 100, 1 << 16]))
    def test_window_kernel(self, cb, g, symbols, content_seed, block):
        bits = random_bits(random.Random(content_seed), cb.symbol_width * symbols)
        core, flags = _encode_symbols(bits, cb)
        with mock.patch.object(multichannel, "_BLOCK_BITS", block):
            assert _encode_groups(bits, cb, 1) == (core, flags)
            assert _decode_groups(core, flags, cb, g) == bits
        assert _decode_symbols(core, flags, cb) == bits

    def test_widest_token(self):
        assert wide_book("mv2", 16)._decode_table(1)[""] == (
            "16s", {b"0" * 16: "1" * 15 + "0", b"0" * 15 + b"1": "1" * 16})

    @settings(max_examples=60)
    @given(st.integers(1, 12), st.integers(0, 2 ** 32), st.sampled_from([24, 40]))
    def test_binomial_width_zero_at_window_edges(self, n, content_seed, block):
        # all-zero and all-one symbols (classes 0 and N) have empty codes;
        # long runs of them start, end and fill whole windows
        cb = build_binomial_codebook(n)
        rng = random.Random(content_seed)
        bits = "".join(rng.choice(["0" * n, "1" * n]) * rng.randint(1, 30)
                       if rng.random() < 0.6 else random_bits(rng, n)
                       for _ in range(40))
        core, flags = _encode_symbols(bits, cb)
        with mock.patch.object(multichannel, "_BLOCK_BITS", block):
            for g in range(_KEY_BITS // n + 1):
                assert _decode_groups(core, flags, cb, g) == bits

    @pytest.mark.parametrize("cb", [build_mv2_codebook(2), build_binomial_codebook(1)])
    def test_empty_input(self, cb):
        assert _encode_groups("", cb, _KEY_BITS // cb.symbol_width) == ("", "")
        for g in range(_KEY_BITS // cb.symbol_width + 1):
            assert _decode_groups("", "", cb, g) == ""
        assert transform("", cb, 3) == transform("", cb, 1)


class TestErrorParity:
    @settings(max_examples=150)
    @given(books(), st.data(), st.integers(0, 2 ** 32), st.randoms())
    def test_damaged_channels(self, cb, data, content_seed, rng):
        n = cb.symbol_width
        # g = 2 tables at N = 9..12 hold 2^18..2^24 rows; no round uses them
        top = max(2, _KEY_BITS // n) if n <= 8 else 1
        g = data.draw(st.integers(0, top), label="g")
        bits = random_bits(random.Random(content_seed),
                           n * data.draw(st.integers(0, 300), label="symbols"))
        core, flags = _encode_symbols(bits, cb)
        if data.draw(st.booleans(), label="damage flags"):
            flags = damage(rng, flags)
        else:
            core = damage(rng, core)
        expected = outcome(_decode_symbols, core, flags, cb)
        grouped = _decode_groups(core, flags, cb, g)
        if grouped is not None:
            assert grouped == expected
        with mock.patch.object(multichannel, "_group_size", lambda n, s: g):
            assert outcome(decode_round, core, flags, cb) == expected

    @settings(max_examples=40)
    @given(books(), st.integers(2_000, 20_000), st.integers(1, 3),
           st.integers(0, 2 ** 32), st.randoms())
    def test_damaged_multi_round_bundle(self, cb, length, rounds, content_seed, rng):
        out = transform(random_bits(random.Random(content_seed), length), cb, rounds)
        i = rng.randrange(out.rounds_executed)
        flags = list(out.flags)
        flags[i] = damage(rng, flags[i])
        bad = multichannel.MultiRoundOutput(out.rounds_executed, flags, out.core,
                                            out.input_bit_lengths)
        with per_symbol():
            expected = outcome(inverse_transform, bad, cb)
        assert outcome(inverse_transform, bad, cb) == expected

    @pytest.mark.parametrize("g", [0, 1, 2, 3])
    def test_flags_must_start_with_one(self, g):
        # all ones is binomial's width-0 class, so only the flags show the damage
        cb = build_binomial_codebook(4)
        core, flags = _encode_symbols("1111" + "0110" * 50, cb)
        flags = "0" + flags[1:]
        assert _decode_groups(core, flags, cb, g) is None
        with mock.patch.object(multichannel, "_group_size", lambda n, s: g):
            assert outcome(decode_round, core, flags, cb) == (
                MalformedFlagError, "flag stream must start with '1'")

    @staticmethod
    def channels(cb, data, content_seed):
        """A g that a round could use and valid channels of up to 300 symbols."""
        n = cb.symbol_width
        g = data.draw(st.integers(0, _KEY_BITS // n), label="g")
        bits = random_bits(random.Random(content_seed),
                           n * data.draw(st.integers(0, 300), label="symbols"))
        return g, *_encode_symbols(bits, cb)

    def assert_reference_error(self, core, flags, cb, g, block=1 << 16):
        """The window path misses and the round raises the reference error;
        returns that error's class."""
        expected = outcome(_decode_symbols, core, flags, cb)
        assert isinstance(expected, tuple)
        with mock.patch.object(multichannel, "_BLOCK_BITS", block):
            assert _decode_groups(core, flags, cb, g) is None
            with mock.patch.object(multichannel, "_group_size", lambda n, s: g):
                assert outcome(decode_round, core, flags, cb) == expected
        return expected[0]

    @settings(max_examples=100)
    @given(books(), st.data(), st.integers(0, 2 ** 32), st.sampled_from(["2", "é"]))
    def test_non_bit_core_character(self, cb, data, content_seed, char):
        g, core, flags = self.channels(cb, data, content_seed)
        i = data.draw(st.integers(0, len(core)), label="at")
        core = core[:i] + char + core[i + 1:]
        self.assert_reference_error(core, flags, cb, g)

    @settings(max_examples=100)
    @given(books(), st.data(), st.integers(0, 2 ** 32),
           st.sampled_from(["2", "a", " ", "é"]))
    def test_non_bit_flag_character(self, cb, data, content_seed, char):
        g, core, flags = self.channels(cb, data, content_seed)
        i = data.draw(st.integers(0, len(flags)), label="at")
        flags = flags[:i] + char + flags[i + 1:]
        assert self.assert_reference_error(core, flags, cb, g) is MalformedFlagError

    @settings(max_examples=100)
    @given(books(), st.data(), st.integers(0, 2 ** 32), st.integers(1, 40),
           st.booleans(), st.sampled_from([_MIN_WINDOW, 40, 1 << 16]))
    def test_short_and_long_core(self, cb, data, content_seed, by, short, block):
        # a short core fails the last window's unpack, a long one the end check
        g, core, flags = self.channels(cb, data, content_seed)
        if short:
            assume(len(core) >= by)
            core = core[:-by]
        else:
            core += random_bits(random.Random(by), by)
        assert self.assert_reference_error(core, flags, cb, g, block) is CorruptStreamError

    def test_non_bit_flag_character_example(self):
        with pytest.raises(MalformedFlagError,
                           match="flag codeword '12' is not a clean bit string"):
            decode_round("0", "12", build_mv2_codebook(2))

    def test_non_bit_character(self):
        cb = build_mv2_codebook(2)
        bits = "01" * 20_000 + "0x" + "10" * 10
        with pytest.raises(ValueError, match="input is not a clean bit string: '0x'"):
            encode_round(bits, cb)
        assert _encode_groups(bits, cb, 6) is None


class TestDecodeMemory:
    @pytest.mark.parametrize("algorithm, n", [
        ("mv2", 7), ("mv2", 8), ("mv2", 16), ("binomial", 8), ("binomial", 12)])
    def test_peak_is_a_small_multiple_of_the_output(self, algorithm, n):
        cb = build_codebook(algorithm, n, 0x9E3779B97F4A7C15 if algorithm == "mv2" else 0)
        bits = random_bits(random.Random(n), (1 << 20) // n * n)  # 128 KiB
        out = encode_round(bits, cb)
        assert decode_round(out.core, out.flags, cb) == bits  # warms the tables
        tracemalloc.start()
        try:
            decoded = decode_round(out.core, out.flags, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decoded == bits
        assert peak <= 5 * len(decoded)
