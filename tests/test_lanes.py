"""The one reader of fixed-width bit pieces, `multichannel._lanes`.

Round encode, fma encode (through `_pieces`, the values of 16-bit lanes)
and fma decode all cut their input with it. Each block must hold exactly
the pieces `int(piece, 2)` reads, and a block with any character but '0'
and '1' must be refused, including what `int(_, 2)` alone would accept.
"""

import random
from unittest import mock

import pytest

from gpncodec import multichannel
from gpncodec.multichannel import _lanes, _pieces

from helpers import random_bits

CLEAN = "input is not a clean bit string"
# blocks of 40 characters hold 40 // width pieces, at least one
SMALL_BLOCK = 40


def lane_values(p, lane, count):
    """The `count` lane-bit lanes of p, the top lane first."""
    return [p >> lane * (count - 1 - i) & (1 << lane) - 1 for i in range(count)]


def pieces_of(text, width):
    return [int(text[i:i + width], 2) for i in range(0, len(text), width)]


def lengths(width, block):
    """Piece counts on both sides of one and of two whole blocks."""
    per_block = max(1, block // width)
    return sorted({1, per_block - 1, per_block, per_block + 1,
                   2 * per_block, 2 * per_block + 1} - {0})


@pytest.mark.parametrize("block", [SMALL_BLOCK, 1 << 16])
@pytest.mark.parametrize("width", range(1, 17))
def test_pieces_are_piece_values(width, block):
    rng = random.Random(width * block)
    with mock.patch.object(multichannel, "_BLOCK_BITS", block):
        for count in lengths(width, block):
            text = random_bits(rng, width * count)
            values = list(_pieces(text + "1" * width, width, len(text)))
            assert [v for block_values in values for v in block_values] == (
                pieces_of(text, width))
            assert len(values) == -(-count // max(1, block // width))


@pytest.mark.parametrize("width", [1, 3, 7, 12, 16, 19])
def test_lanes_widen_each_piece(width):
    # every lane at least as wide as the piece: the piece's value in it
    rng = random.Random(width)
    count = 2 * (SMALL_BLOCK // width) + 1
    text = random_bits(rng, width * count)
    for lane in sorted({width, width + 1, width + 5, 32}):
        with mock.patch.object(multichannel, "_BLOCK_BITS", SMALL_BLOCK):
            got = [v for p, k in _lanes(text, width, lane, len(text))
                   for v in lane_values(p, lane, k)]
        assert got == pieces_of(text, width)


def refusal_cases():
    for junk in ["_", " ", "+", "2", "\n", "\u0661"]:  # \u0661: Arabic-Indic one
        for width, lane in [(1, 16), (4, 16), (5, 7), (16, 16)]:
            per_block = SMALL_BLOCK // width * width
            # the second block's first, middle and last character
            for at in (per_block, per_block + per_block // 2, 2 * per_block - 1):
                yield pytest.param(junk, width, lane, at,
                                   id=f"{junk!r}-w{width}-l{lane}-{at}")


@pytest.mark.parametrize("junk, width, lane, at", refusal_cases())
def test_non_bit_character_is_refused_at_its_block(junk, width, lane, at):
    rng = random.Random(at)
    text = random_bits(rng, 3 * (SMALL_BLOCK // width) * width)
    text = text[:at] + junk + text[at + 1:]
    blocks = []
    with mock.patch.object(multichannel, "_BLOCK_BITS", SMALL_BLOCK):
        with pytest.raises(ValueError) as info:
            for p, count in _lanes(text, width, lane, len(text)):
                blocks.append(p)
    assert str(info.value) == CLEAN
    assert len(blocks) == 1  # the first block, before the junk


@pytest.mark.parametrize("prefix", ["0b", "0B"])
def test_prefix_at_a_block_start_is_refused_at_width_16(prefix):
    # 16-bit pieces in 16-bit lanes: the block goes to int() as it is,
    # and int(_, 2) reads "0b..." as a number
    text = "0110" * 8 + prefix + "01" * 15
    assert int(text[32:], 2) == int(text[34:], 2)
    with mock.patch.object(multichannel, "_BLOCK_BITS", 32):
        with pytest.raises(ValueError, match=CLEAN):
            list(_pieces(text, 16, len(text)))
