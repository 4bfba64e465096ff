import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpncodec import gpn
from gpncodec.errors import NotRepresentableError
from gpncodec.gpn import (
    WeightSystem,
    canonical_encode,
    combo_rank,
    combo_unrank,
    evaluate,
    max_value,
    representation_count,
    representations,
    weights,
)

FIB = WeightSystem.fibonacci()
BIN = WeightSystem.b_radix(2)
FACT = WeightSystem.factorial()

# value columns of the width-4/3/2/1 Fibonacci word table, words in
# ascending binary order
FIB_VALUES_W4 = [0, 1, 1, 2, 2, 3, 3, 4, 3, 4, 4, 5, 5, 6, 6, 7]
FIB_VALUES_W3 = [0, 1, 1, 2, 2, 3, 3, 4]
FIB_VALUES_W2 = [0, 1, 1, 2]
FIB_VALUES_W1 = [0, 1]

SYSTEMS = [
    BIN,
    WeightSystem.b_radix(3),
    FACT,
    FIB,
    WeightSystem.deformed_fibonacci([1, 2]),
    WeightSystem.deformed_fibonacci([2, 1, 1]),
]


def oracle_value(word, weight_list):
    return sum(w for w, ch in zip(weight_list, reversed(word)) if ch == "1")


def oracle_weight_k_words(n, k):
    """All n-bit words of weight k in ascending lexicographic order."""
    words = []
    for ones in itertools.combinations(range(n), k):
        bits = ["0"] * n
        for pos in ones:
            bits[pos] = "1"
        words.append("".join(bits))
    return sorted(words)


class TestWeights:
    def test_fibonacci(self):
        assert weights(FIB, 4) == [1, 1, 2, 3]
        assert weights(FIB, 10) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_binary(self):
        assert weights(BIN, 4) == [1, 2, 4, 8]

    def test_factorial(self):
        assert weights(FACT, 4) == [1, 2, 6, 24]

    def test_deformed(self):
        assert weights(WeightSystem.deformed_fibonacci([1, 2]), 5) == [1, 1, 3, 5, 11]

    def test_deformed_unit_pair_is_fibonacci(self):
        deformed = WeightSystem.deformed_fibonacci([1, 1])
        assert weights(deformed, 64) == weights(FIB, 64)

    def test_deformed_single_coefficient_is_b_radix(self):
        for b in range(2, 12):
            deformed = WeightSystem.deformed_fibonacci((b,))
            assert weights(WeightSystem.b_radix(b), 80) == weights(deformed, 80)
            assert weights(deformed, 80) == [b ** k for k in range(80)]

    def test_fibonacci_recurrence(self):
        w = weights(FIB, 40)
        for k in range(2, 40):
            assert w[k] == w[k - 1] + w[k - 2]

    def test_positive_and_nondecreasing(self):
        for ws in SYSTEMS:
            w = weights(ws, 32)
            assert all(x >= 1 for x in w)
            assert all(a <= b for a, b in zip(w, w[1:]))

    def test_memo_returns_consistent_prefixes(self):
        ws = WeightSystem.fibonacci()
        long = ws.weights(20)
        assert ws.weights(5) == long[:5]

    def test_memo_safe_under_concurrent_readers(self):
        import threading

        ws = WeightSystem.deformed_fibonacci([1, 2])
        expected = WeightSystem.deformed_fibonacci([1, 2]).weights(50)
        failures = []

        def reader():
            for m in list(range(1, 51)) * 20:
                if ws.weights(m) != expected[:m]:
                    failures.append(m)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    @pytest.mark.parametrize("build", [
        lambda: WeightSystem.b_radix(1),
        lambda: WeightSystem.deformed_fibonacci([]),
        lambda: WeightSystem.deformed_fibonacci([1, 0]),
        lambda: WeightSystem("binomial"),
    ])
    def test_invalid_construction(self, build):
        with pytest.raises(ValueError):
            build()

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            weights(FIB, 0)

    def test_value_equality(self):
        assert WeightSystem.b_radix(2) == WeightSystem.b_radix(2)
        assert WeightSystem.b_radix(2) != WeightSystem.b_radix(3)
        assert hash(WeightSystem.fibonacci()) == hash(WeightSystem.fibonacci())


class TestEvaluate:
    def test_table_goldens(self):
        assert evaluate("1011", FIB) == 5
        assert evaluate("111", FIB) == 4
        assert evaluate("0000", FIB) == 0
        assert evaluate("0101", FACT) == 7

    def test_full_fibonacci_tables(self):
        for width, expected in [(4, FIB_VALUES_W4), (3, FIB_VALUES_W3),
                                (2, FIB_VALUES_W2), (1, FIB_VALUES_W1)]:
            got = [evaluate(format(i, f"0{width}b"), FIB) for i in range(1 << width)]
            assert got == expected

    def test_binary_matches_int(self):
        for i in range(64):
            assert evaluate(format(i, "06b"), BIN) == i

    def test_rejects_bad_words(self):
        with pytest.raises(ValueError):
            evaluate("", FIB)
        with pytest.raises(ValueError):
            evaluate("0120", FIB)


class TestMaxValue:
    def test_goldens(self):
        assert max_value(FIB, 4) == 7
        assert max_value(FIB, 3) == 4
        assert max_value(BIN, 5) == 31

    def test_is_all_ones_word(self):
        for ws in SYSTEMS:
            for width in (1, 3, 7):
                assert max_value(ws, width) == evaluate("1" * width, ws)


class TestRepresentations:
    def test_fibonacci_goldens(self):
        assert representations(4, 4, FIB) == {"0111", "1001", "1010"}
        assert representations(3, 4, FIB) == {"0101", "0110", "1000"}
        assert representations(7, 3, FIB) == set()
        for ws in SYSTEMS:
            assert representations(0, 6, ws) == {"000000"}

    def test_matches_exhaustive_enumeration(self):
        for ws in SYSTEMS:
            for width in range(1, 11):
                wl = weights(ws, width)
                by_value = {}
                for i in range(1 << width):
                    word = format(i, f"0{width}b")
                    by_value.setdefault(oracle_value(word, wl), set()).add(word)
                for value, expected in by_value.items():
                    assert representations(value, width, ws) == expected
                # and a value beyond the maximum is forbidden
                assert representations(sum(wl) + 1, width, ws) == set()

    def test_count_agrees_with_set(self):
        # every achievable value, plus a band of gaps and the out-of-range edge
        for ws in SYSTEMS:
            for width in (1, 4, 9):
                wl = weights(ws, width)
                achievable = {oracle_value(format(i, f"0{width}b"), wl)
                              for i in range(1 << width)}
                probe = achievable | set(range(min(sum(wl) + 2, 300)))
                probe.add(sum(wl) + 1)
                for value in probe:
                    assert representation_count(value, width, ws) == \
                        len(representations(value, width, ws))

    def test_count_handles_wide_words(self):
        # counting must not materialize: all-ones weights give C(40, 5) words
        flat = WeightSystem.deformed_fibonacci([1])
        assert weights(flat, 5) == [1, 1, 1, 1, 1]
        assert representation_count(5, 40, flat) == math.comb(40, 5)

    def test_binary_is_unique_fibonacci_is_plural(self):
        for width in range(3, 9):
            counts = [representation_count(v, width, BIN) for v in range(1 << width)]
            assert counts == [1] * (1 << width)
            plural = [v for v in range(max_value(FIB, width) + 1)
                      if representation_count(v, width, FIB) >= 2]
            assert plural

    def test_width_limit(self):
        with pytest.raises(ValueError):
            representations(1, 65, FIB)
        # counting has no width limit: only R_1 = R_2 = 1 reach the value 1
        assert representation_count(1, 65, FIB) == 2
        assert representation_count(1, 255, FIB) == 2

    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            representations(-1, 4, FIB)


class TestCanonicalEncode:
    def test_goldens(self):
        assert canonical_encode(4, 4, FIB) == "1010"
        assert canonical_encode(7, 4, FIB) == "1111"
        assert canonical_encode(5, 3, BIN) == "101"

    def test_roundtrip_exhaustive(self):
        # all achievable values plus a low band of gaps per system and width
        for ws in SYSTEMS:
            for width in range(1, 11):
                wl = weights(ws, width)
                achievable = {oracle_value(format(i, f"0{width}b"), wl)
                              for i in range(1 << width)}
                for value in achievable | set(range(min(sum(wl) + 1, 250))):
                    if value not in achievable:
                        with pytest.raises(NotRepresentableError):
                            canonical_encode(value, width, ws)
                        continue
                    word = canonical_encode(value, width, ws)
                    assert len(word) == width
                    assert evaluate(word, ws) == value
                    assert word in representations(value, width, ws)

    def test_over_max_raises(self):
        with pytest.raises(NotRepresentableError):
            canonical_encode(8, 4, FIB)

    def test_forbidden_in_range_raises(self):
        sparse = WeightSystem.b_radix(3)  # weights 1, 3, 9: value 2 unreachable
        with pytest.raises(NotRepresentableError):
            canonical_encode(2, 3, sparse)

    def test_stranded_value_above_counting_limit_raises(self):
        # b_radix(3) strands on the digit 2: below and past 2^16 that is a
        # missing word, found by the scan alone with no count table built
        sparse = WeightSystem.b_radix(3)
        before = gpn._ranking.cache_info()
        with pytest.raises(NotRepresentableError):
            canonical_encode(3 ** 10 + 2, 12, sparse)
        with pytest.raises(NotRepresentableError):
            canonical_encode(3 ** 11 + 2, 40, sparse)
        with pytest.raises(NotRepresentableError):
            canonical_encode(3 ** 40 + 2, 45, sparse)
        assert gpn._ranking.cache_info() == before


def oracle_canonical(value, width, ws):
    """The largest representation, or None when there is none."""
    return max(representations(value, width, ws), default=None)


@settings(max_examples=60)
@given(st.sampled_from(SYSTEMS), st.integers(1, 10), st.data())
def test_canonical_encode_matches_largest_representation_oracle(ws, width, data):
    top = max_value(ws, width)
    values = data.draw(st.lists(st.integers(0, top + 1), min_size=1, max_size=40))
    for value in values:
        expected = oracle_canonical(value, width, ws)
        if expected is None:
            with pytest.raises(NotRepresentableError):
                canonical_encode(value, width, ws)
        else:
            assert canonical_encode(value, width, ws) == expected
    # the canonical fma pick, last of the count order, is the largest word
    limit = 2 ** 16 - 1
    ranking = gpn._ranking(ws, width, min(top, limit))
    for value in values:
        if value > limit:
            continue
        reps = representations(value, width, ws) if value <= top else set()
        assert ranking.count(value) == len(reps)
        if reps:
            assert ranking.unrank(value, len(reps) - 1) == max(reps)


class TestCombinadics:
    def test_rank_goldens(self):
        assert combo_rank("0011") == 0
        assert combo_rank("1100") == 5
        assert combo_rank("0101") == 1

    def test_unrank_goldens(self):
        assert combo_unrank(4, 2, 0) == "0011"
        assert combo_unrank(4, 2, 5) == "1100"
        assert combo_unrank(4, 2, 3) == "1001"

    def test_rank_is_lexicographic_index(self):
        for n in range(1, 11):
            for k in range(n + 1):
                for idx, word in enumerate(oracle_weight_k_words(n, k)):
                    assert combo_rank(word) == idx

    def test_unrank_inverts_rank(self):
        for n in range(1, 13):
            for k in range(n + 1):
                total = math.comb(n, k)
                seen = set()
                for rank in range(total):
                    word = combo_unrank(n, k, rank)
                    assert len(word) == n
                    assert word.count("1") == k
                    assert combo_rank(word) == rank
                    seen.add(word)
                assert len(seen) == total

    def test_unrank_out_of_range(self):
        with pytest.raises(ValueError):
            combo_unrank(4, 2, 6)
        with pytest.raises(ValueError):
            combo_unrank(4, 5, 0)

    def test_rank_ignores_leading_zeros(self):
        assert combo_rank("0101") == combo_rank("00000101")


@given(st.integers(1, 12), st.data())
def test_combo_roundtrip_random(n, data):
    word = "".join(data.draw(st.sampled_from("01")) for _ in range(n))
    k = word.count("1")
    assert combo_unrank(n, k, combo_rank(word)) == word


@settings(max_examples=60)
@given(st.sampled_from(SYSTEMS), st.integers(1, 12), st.integers(0, 10_000))
def test_canonical_encode_random(ws, width, value):
    top = max_value(ws, width)
    value = value % (top + 1)
    if representation_count(value, width, ws):
        assert evaluate(canonical_encode(value, width, ws), ws) == value


def test_binomial_identity_up_to_twenty():
    for n in range(21):
        assert sum(math.comb(n, k) for k in range(n + 1)) == 2 ** n
