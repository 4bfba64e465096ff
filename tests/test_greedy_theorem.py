"""Greedy highest-weight-first never strands a value that has a word.

The README ("Notes") proves this for every weight system `WeightSystem`
builds, which is why `canonical_encode` is the greedy scan alone. These
tests check the claim by machine over many systems, and check the lemma
on the excess sequence E_k = R_k - (R_1 + ... + R_(k-1)) that the proof
rests on.
"""

import itertools
from operator import mul

from gpncodec.gpn import WeightSystem

WIDTH = 32
SUM_LIMIT = 1 << 20
TERMS = 200

# every deformation of length <= 5 with coefficients 1-5: 3,905 lists
DEFORMATIONS = [c for length in range(1, 6)
                for c in itertools.product(range(1, 6), repeat=length)]
RADIX_BASES = range(2, 9)


def greedy_exact(weights) -> bool:
    """Whether greedy finds a word for every value that has one, at every
    width up to len(weights).

    `mask` holds the subset sums of R_1..R_(k-1), bit s for the sum s.
    At position k greedy takes R_k for any remainder >= R_k; it strands
    exactly when some subset sum s >= R_k leaves s - R_k, which is not one.
    """
    mask = 1
    for wt in weights:
        if (mask >> wt) & ~mask:
            return False
        mask |= mask << wt
    return True


def small_weights(ws: WeightSystem) -> list[int]:
    """R_1, R_2, ... up to width 32, while their sum stays below 2^20."""
    out, total = [], 0
    for wt in ws.weights(WIDTH):
        total += wt
        if total >= SUM_LIMIT:
            break
        out.append(wt)
    return out


def excess(coefficients, terms: int) -> list[int]:
    """E_1..E_terms by the recurrence E_1 = 1, E_k = sum_i c_i E_(k-i) - 1,
    with E_j = 0 for j <= 0."""
    e: list[int] = []
    while len(e) < terms:
        e.append(sum(map(mul, coefficients, reversed(e))) - 1 if e else 1)
    return e


def excess_from_weights(weights) -> list[int]:
    e, total = [], 0
    for wt in weights:
        e.append(wt - total)
        total += wt
    return e


def all_systems():
    yield from (WeightSystem.deformed_fibonacci(c) for c in DEFORMATIONS)
    yield from (WeightSystem.b_radix(b) for b in RADIX_BASES)
    yield WeightSystem.fibonacci()
    yield WeightSystem.factorial()


def test_checker_catches_a_stranding_system():
    # weights 2, 3, 4: greedy takes 4 from 5 and strands 1, though 5 = 2 + 3
    assert not greedy_exact([2, 3, 4])
    assert greedy_exact([1, 2, 3, 4])


def test_greedy_never_strands_a_representable_value():
    assert len(DEFORMATIONS) == 3905
    failures = [ws for ws in all_systems() if not greedy_exact(small_weights(ws))]
    assert failures == []


def test_excess_recurrence_matches_the_weights():
    for c in DEFORMATIONS:
        ws = WeightSystem.deformed_fibonacci(c)
        assert excess(c, WIDTH) == excess_from_weights(ws.weights(WIDTH))
    for b in RADIX_BASES:
        assert excess((b,), WIDTH) == \
            excess_from_weights(WeightSystem.b_radix(b).weights(WIDTH))


def test_excess_stays_positive_after_it_reaches_two():
    # the proof's lemma: once some E_k >= 2, every later E_j >= 1; a
    # negative E never turns back; with c = (1,) E never reaches 2
    for c in DEFORMATIONS + [(b,) for b in RADIX_BASES]:
        e = excess(c, TERMS)
        first_two = next((k for k, x in enumerate(e) if x >= 2), TERMS)
        assert all(x >= 1 for x in e[first_two:]), c
        assert all(x >= 0 for x in e[:first_two]) or first_two == TERMS, c
        negative = next((k for k, x in enumerate(e) if x < 0), TERMS)
        assert all(x < 0 for x in e[negative:]), c
    assert max(excess((1,), TERMS)) == 1
    # factorial is super-increasing: every E_k >= 1
    assert min(excess_from_weights(WeightSystem.factorial().weights(TERMS))) >= 1
