"""Container bytes of all four algorithms, pinned by one SHA-256 per case.

Every fast path is checked against an in-package reference that shares
its lower layers, so a change to the ranking tables, the keyed chunk
index or the padding would move both sides at once. These digests pin the
bytes themselves. Inputs come from `hashlib.shake_256` of the case label,
not from the package's own generator, so they cannot drift with the code
under test. Each case is one line of `data/fma_container_digests.txt`
(fma) or `data/core_container_digests.txt` (mv2, binomial and clone), so
a failure names the case; every container must also decode back to its
input, through whichever path decode picks.

Run this file as a script to print the digest lines of the current tree:
`python tests/test_container_digest.py fma` (the default) or `... core`.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from gpncodec import codec
from gpncodec.fma import min_width

DIGESTS = Path(__file__).parent / "data" / "fma_container_digests.txt"
POLICIES = [("canonical", 0), ("keyed", 1), ("keyed", 2 ** 64 - 1)]
LENGTHS = [0, 1, 7, 64, 1001]


def grid(n):
    """(label, encode parameters, input length) for every case at width n."""
    for policy, seed in POLICIES:
        for m in (min_width(n), min_width(n) + 3):
            for length in LENGTHS:
                yield (f"fma n={n} m={m} {policy} seed={seed} bits={length}",
                       dict(algorithm="fma", n=n, m=m, policy=policy, seed=seed),
                       length)


# lane blocks of 65,536 payload bits at N=12 and N=16 end mid-call; more
# than 1,024 keyed chunks cross a block of keyed draws
EDGES = [
    ("fma n=12 m=17 canonical seed=0 bits=65539",
     dict(algorithm="fma", n=12, m=17, policy="canonical", seed=0), 65539),
    ("fma n=16 m=23 canonical seed=0 bits=65539",
     dict(algorithm="fma", n=16, m=23, policy="canonical", seed=0), 65539),
    ("fma n=4 m=6 keyed seed=18446744073709551615 bits=4101",
     dict(algorithm="fma", n=4, m=6, policy="keyed", seed=2 ** 64 - 1), 4101),
]


CORE_DIGESTS = Path(__file__).parent / "data" / "core_container_digests.txt"
CORE_WIDTHS = {"mv2": range(2, 17), "binomial": range(1, 17), "clone": range(1, 6)}
CORE_SEEDS = {"mv2": [0, 1, 2 ** 64 - 1], "binomial": [0], "clone": [0, 1]}
CLONE_MULTS = {1: (2,), 2: (1, 3), 3: (2, 2, 4), 4: (1, 3, 4, 8), 5: (2, 4, 8, 8, 10)}


def core_grid(algorithm, n):
    """(label, encode parameters, input length) for every core+flag case
    of one algorithm at width n. Each encode and each decode builds its
    codebook, which costs up to 40 ms at N = 16: above N = 12 a case runs
    at rounds 1 and 3 on 1,001 bits only."""
    mults = CLONE_MULTS[n] if algorithm == "clone" else None
    rounds, lengths = ((1, 2, 3), LENGTHS) if n <= 12 else ((1, 3), [1001])
    name = f"{algorithm} n={n}"
    if mults:
        name += f" mults={','.join(map(str, mults))}"
    for seed in CORE_SEEDS[algorithm]:
        label = name if algorithm == "binomial" else f"{name} seed={seed}"
        for r in rounds:
            for length in lengths:
                yield (f"{label} rounds={r} bits={length}",
                       dict(algorithm=algorithm, n=n, seed=seed, rounds=r,
                            multiplicities=mults), length)


CORE_CASES = [(algorithm, n) for algorithm, widths in CORE_WIDTHS.items()
              for n in widths]


# a round input of 65,536 + 3 bits is cut into more than one block
CORE_EDGES = [
    ("mv2 n=2 seed=1 rounds=2 bits=65539",
     dict(algorithm="mv2", n=2, seed=1, rounds=2), 65539),
]


def source_bits(label, length):
    data = hashlib.shake_256(label.encode()).digest((length + 7) // 8)
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")[:length]


def digest_lines(cases):
    for label, params, length in cases:
        bits = source_bits(label, length)
        container = codec.encode_to_container(bits, **params)
        assert codec.decode_from_container(container) == bits, label
        yield f"{label} {hashlib.sha256(container).hexdigest()}"


def pinned(path=DIGESTS):
    return dict(line.rsplit(" ", 1) for line in path.read_text().splitlines())


def mismatches(cases, path=DIGESTS):
    """Label -> digest of each case whose container differs from its pin."""
    want = pinned(path)
    got = dict(line.rsplit(" ", 1) for line in digest_lines(cases))
    return {label: digest for label, digest in got.items() if want.get(label) != digest}


@pytest.mark.parametrize("n", range(1, 17))
def test_fma_grid(n):
    assert mismatches(grid(n)) == {}


def test_block_edges():
    assert mismatches(EDGES) == {}


def test_every_pinned_case_runs():
    cases = [label for n in range(1, 17) for label, _, _ in grid(n)]
    cases += [label for label, _, _ in EDGES]
    assert len(cases) == len(set(cases)) == 16 * 30 + 3
    assert sorted(pinned()) == sorted(cases)


@pytest.mark.parametrize("algorithm, n", CORE_CASES)
def test_core_grid(algorithm, n):
    assert mismatches(core_grid(algorithm, n), CORE_DIGESTS) == {}


def test_core_block_edge():
    assert mismatches(CORE_EDGES, CORE_DIGESTS) == {}


def test_every_pinned_core_case_runs():
    cases = [label for case in CORE_CASES for label, _, _ in core_grid(*case)]
    cases += [label for label, _, _ in CORE_EDGES]
    # 15 cases per seed at N <= 12, 2 above: mv2 3 x 173, binomial 188,
    # clone 2 x 75, one block edge
    assert len(cases) == len(set(cases)) == 858
    assert sorted(pinned(CORE_DIGESTS)) == sorted(cases)


if __name__ == "__main__":
    if sys.argv[1:] == ["core"]:
        for case in CORE_CASES:
            print("\n".join(digest_lines(core_grid(*case))))
        print("\n".join(digest_lines(CORE_EDGES)))
    else:
        for n in range(1, 17):
            print("\n".join(digest_lines(grid(n))))
        print("\n".join(digest_lines(EDGES)))
