from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpncodec import prng
from gpncodec.prng import SplitMix64, indexed_draws, keyed_shuffle, splitmix64

LANES = prng._LANES
# seeds beyond 64 bits, and negative ones, act modulo 2^64
SEEDS = [0, 1, 2 ** 64 - 1, 2 ** 64 + 3, -1, -(2 ** 70), 2 ** 200 + 7]
WRAP = -prng._GAMMA % 2 ** 64


def test_reference_vectors_seed_zero():
    # first outputs of the reference implementation for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_stateless_mix_matches_first_output():
    for seed in (0, 1, 42, 2 ** 64 - 1):
        assert splitmix64(seed) == SplitMix64(seed).next_u64()


def test_indexed_draws_match_per_index_streams():
    for seed in (0, 5, 2 ** 64 - 1, 2 ** 64 + 3, 2 ** 90 + 1, -1, 2 ** 200 + 7):
        assert indexed_draws(seed, 1000, 50) == [
            SplitMix64(seed ^ splitmix64(i)).next_u64() for i in range(1000, 1050)]


def test_outputs_stay_in_64_bits():
    rng = SplitMix64(2 ** 64 - 1)
    for _ in range(1000):
        assert 0 <= rng.next_u64() < 2 ** 64


def test_shuffle_is_a_permutation():
    items = list(range(100))
    shuffled = keyed_shuffle(items, 7)
    assert sorted(shuffled) == items
    assert items == list(range(100))  # input untouched


def test_shuffle_reproducible_and_seed_sensitive():
    items = list("abcdefgh")
    assert keyed_shuffle(items, 5) == keyed_shuffle(items, 5)
    assert keyed_shuffle(items, 5) != keyed_shuffle(items, 6)


def test_shuffle_spreads_positions():
    # crude uniformity: over many seeds, element 0 should visit every slot
    landing = Counter(keyed_shuffle(range(8), seed)[0] for seed in range(400))
    assert set(landing) == set(range(8))


def per_draw_shuffle(items, seed):
    """Fisher-Yates with one generator call per swap, as the README states it."""
    out = list(items)
    rng = SplitMix64(seed)
    for i in range(len(out) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def edge_counts(block):
    return [0, 1, block - 1, block, block + 1, 2 * block + 1]


# A short block makes one call span many blocks and lane edges; the real
# block length covers the constants as built.
@settings(max_examples=150)
@given(st.data())
def test_lanes_match_per_index_streams(data):
    block = data.draw(st.sampled_from([1, 2, 5, 8, LANES]), label="block")
    seed = data.draw(st.sampled_from(SEEDS) | st.integers(0, 2 ** 64 - 1),
                     label="seed")
    count = data.draw(st.sampled_from(edge_counts(block)), label="count")
    # i + gamma wraps past 2^64 inside the block from WRAP on
    first = data.draw(st.sampled_from([0, 1000, 2 ** 64 - 3, 2 ** 64 - block,
                                       WRAP - block // 2, WRAP - 1])
                      | st.integers(0, 2 ** 66), label="first")
    with mock.patch.object(prng, "_LANES", block):
        got = indexed_draws(seed, first, count)
    assert got == [SplitMix64(seed ^ splitmix64(i)).next_u64()
                   for i in range(first, first + count)]


def test_indices_wrap_at_two_to_the_64():
    # index 2^64 + k draws as index k, as the scalar (i + gamma) mod 2^64 does
    assert indexed_draws(9, 2 ** 64 - 3, 7) == (
        indexed_draws(9, 2 ** 64 - 3, 3) + indexed_draws(9, 0, 4))


@settings(max_examples=100)
@given(st.data())
def test_shuffle_matches_per_draw_loop(data):
    block = data.draw(st.sampled_from([1, 2, 5, 8, LANES]), label="block")
    seed = data.draw(st.sampled_from(SEEDS) | st.integers(0, 2 ** 64 - 1),
                     label="seed")
    # n items take n - 1 draws
    n = data.draw(st.sampled_from([0, 1, 2] + [c + 1 for c in edge_counts(block)]),
                  label="n")
    with mock.patch.object(prng, "_LANES", block):
        got = keyed_shuffle(range(n), seed)
    assert got == per_draw_shuffle(range(n), seed)


@pytest.mark.parametrize("seed", [5, 2 ** 64 - 1, -(2 ** 70), 2 ** 200 + 7])
def test_long_shuffle_matches_per_draw_loop(seed):
    items = list(range(65536))
    assert keyed_shuffle(items, seed) == per_draw_shuffle(items, seed)


def test_shuffle_golden():
    assert keyed_shuffle(range(16), 0xDEADBEEF) == [
        10, 13, 2, 8, 4, 12, 6, 5, 9, 7, 3, 0, 1, 15, 14, 11]
