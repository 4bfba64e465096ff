"""The count table, the unrank and the ordered pass against the
enumeration oracle.

`gpn._Ranking` picks word `index` of a value from a table of counts, and
`gpn._words_by_value` lists every word of each value in one ordered pass;
fma takes its words from both, under either policy. Each must agree with
`sorted(representations(v, M, ws))` for every chunk value.
"""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from gpncodec import gpn
from gpncodec.fma import FIBONACCI, FmaConfig, fma_encode_chunk, min_width
from gpncodec.gpn import WeightSystem, evaluate, representation_count, representations
from gpncodec.prng import SplitMix64, splitmix64

SYSTEMS = [
    FIBONACCI,
    WeightSystem.deformed_fibonacci((1, 2)),
    WeightSystem.deformed_fibonacci((2, 1, 1)),
    WeightSystem.b_radix(3),
]
# all-ones weights: C(M, v) words per value, so the oracle stays small
# only at N <= 3
ONES = WeightSystem.deformed_fibonacci((1,))


@st.composite
def chunk_params(draw):
    """(ws, N, M) with M at the minimal width, one above, or three above."""
    ws = draw(st.sampled_from(SYSTEMS + [ONES]))
    n = draw(st.integers(1, 3 if ws == ONES else 10))
    m = min_width(n, ws) + draw(st.sampled_from([0, 1, 3]))
    return ws, n, m


# 129 (ws, N, M) triples in all: the example budget covers every one
@settings(max_examples=150, deadline=None)
@given(chunk_params())
def test_unrank_and_ordered_pass_match_sorted_representations(params):
    ws, n, m = params
    cap = (1 << n) - 1
    ranking = gpn._Ranking(ws, m, cap)
    buckets = gpn._words_by_value(ws.weights(m), cap)
    for v in range(1 << n):
        expected = sorted(representations(v, m, ws))
        assert ranking.count(v) == representation_count(v, m, ws) == len(expected)
        assert [ranking.unrank(v, i) for i in range(len(expected))] == expected
        assert (buckets[v] if v < len(buckets) else []) == expected
    assert len(buckets) <= 1 << n


@settings(max_examples=30, deadline=None)
@given(chunk_params(), st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 20))
def test_keyed_chunk_is_selector_modulo_count(params, seed, index):
    # the determinism contract: chunk i takes the sorted representation
    # list at SplitMix64(seed ^ splitmix64(i)).next_u64() % count
    ws, n, m = params
    cfg = FmaConfig(chunk_width=n, target_width=m, weight_system=ws,
                    policy="keyed", seed=seed)
    selector = SplitMix64(seed ^ splitmix64(index)).next_u64()
    for v in range(min(1 << n, 64)):
        reps = sorted(representations(v, m, ws))
        if reps:
            assert fma_encode_chunk(v, cfg, index) == reps[selector % len(reps)]


def test_count_table_does_not_recurse_per_position():
    # width 255 must not depend on the recursion limit: build and unrank
    # with only a few dozen frames to spare
    depth = 0
    frame = sys._getframe()
    while frame:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        ranking = gpn._Ranking(FIBONACCI, 255, (1 << 16) - 1)
        words = [ranking.unrank(v, ranking.count(v) - 1) for v in (0, 40_000, 65_535)]
    finally:
        sys.setrecursionlimit(limit)
    assert [evaluate(word, FIBONACCI) for word in words] == [0, 40_000, 65_535]
    assert all(len(word) == 255 for word in words)
