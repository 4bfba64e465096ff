"""Fma container bytes, pinned by one SHA-256 per case.

Every fast path is checked against an in-package reference that shares
its lower layers, so a change to the ranking tables, the keyed chunk
index or the padding would move both sides at once. These digests pin the
bytes themselves. Inputs come from `hashlib.shake_256` of the case label,
not from the package's own generator, so they cannot drift with the code
under test. Each case is one line of `data/fma_container_digests.txt`,
so a failure names the case; every container must also decode back to
its input, through whichever path decode picks.

Run this file as a script to print the digest lines of the current tree.
"""

import hashlib
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


def source_bits(label, length):
    data = hashlib.shake_256(label.encode()).digest((length + 7) // 8)
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")[:length]


def digest_lines(cases):
    for label, params, length in cases:
        bits = source_bits(label, length)
        container = codec.encode_to_container(bits, **params)
        assert codec.decode_from_container(container) == bits, label
        yield f"{label} {hashlib.sha256(container).hexdigest()}"


def pinned():
    return dict(line.rsplit(" ", 1) for line in DIGESTS.read_text().splitlines())


@pytest.mark.parametrize("n", range(1, 17))
def test_fma_grid(n):
    want = pinned()
    got = dict(line.rsplit(" ", 1) for line in digest_lines(grid(n)))
    assert {label: digest for label, digest in got.items()
            if want.get(label) != digest} == {}


def test_block_edges():
    want = pinned()
    got = dict(line.rsplit(" ", 1) for line in digest_lines(EDGES))
    assert {label: digest for label, digest in got.items()
            if want.get(label) != digest} == {}


def test_every_pinned_case_runs():
    cases = [label for n in range(1, 17) for label, _, _ in grid(n)]
    cases += [label for label, _, _ in EDGES]
    assert len(cases) == len(set(cases)) == 16 * 30 + 3
    assert sorted(pinned()) == sorted(cases)


if __name__ == "__main__":
    for n in range(1, 17):
        print("\n".join(digest_lines(grid(n))))
    print("\n".join(digest_lines(EDGES)))
