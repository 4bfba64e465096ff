from collections import Counter

from gpncodec.prng import SplitMix64, indexed_draws, keyed_shuffle, splitmix64


def test_reference_vectors_seed_zero():
    # first outputs of the reference implementation for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_stateless_mix_matches_first_output():
    for seed in (0, 1, 42, 2 ** 64 - 1):
        assert splitmix64(seed) == SplitMix64(seed).next_u64()


def test_indexed_draws_match_per_index_streams():
    for seed in (0, 5, 2 ** 64 - 1, 2 ** 64 + 3, 2 ** 90 + 1):
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
