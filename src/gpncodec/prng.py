"""SplitMix64 generator and the keyed shuffle built on it.

Keyed codebooks and keyed chunk encoding must be reproducible bit for bit
across implementations, so the generator and the shuffle are pinned here
instead of delegating to ``random``:

* SplitMix64: state advances by 0x9E3779B97F4A7C15 per draw; the output mix
  is ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` in 64-bit arithmetic. Output
  k >= 1 of ``SplitMix64(seed)`` is therefore mix((seed + k*gamma) mod 2^64).
* Shuffle: Fisher-Yates from the highest index down, with the swap target
  chosen as ``next_u64() % (i + 1)`` (modulo reduction, accepted bias).

``SplitMix64`` and ``splitmix64`` are the reference. ``indexed_draws`` and
``keyed_shuffle`` take their draws in bulk with the same outputs: up to
``_LANES`` 64-bit values packed into one int, one per 128-bit slot, so each
add, xor-shift and multiply of the mix is one big-int operation over every
lane. A 64x64-bit product fits in its slot; the one rule is to mask every
lane back to 64 bits after each add and each xor-shift, before the next
multiply, because a right shift pulls the next lane's low bits into the
slot's high half.
"""

import sys
from array import array
from operator import mod

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# Lanes per block, and the block constants at that length: one bit per
# lane (a multiplier that copies a 64-bit value into every lane), the
# 64-bit lane mask, and lane k holding k. Shorter blocks cut them by mask.
_LANES = 1024
_ONES = int.from_bytes(b"".join(
    (1).to_bytes(16, "little") for _ in range(_LANES)), "little")
_LANE_MASK = _MASK64 * _ONES
_RAMP = int.from_bytes(b"".join(
    k.to_bytes(16, "little") for k in range(_LANES)), "little")
_BIG_ENDIAN = sys.byteorder == "big"


class SplitMix64:
    """Deterministic 64-bit generator; one instance per consumer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
        return z ^ (z >> 31)


def splitmix64(x: int) -> int:
    """First output of a SplitMix64 stream seeded with ``x`` (stateless mix)."""
    return SplitMix64(x).next_u64()


def _mix_lanes(z: int, mask: int) -> int:
    """The SplitMix64 output mix on every lane of ``z`` (each below 2^64).

    The mixed lanes come back in the low halves of their slots; the last
    shift leaves bits of the next lane in bits 97-127, which callers drop
    with their own mask or when they unpack."""
    z = ((z ^ (z >> 30)) & mask) * _MUL1 & mask
    z = ((z ^ (z >> 27)) & mask) * _MUL2 & mask
    return z ^ (z >> 31)


def _blocks(start: int, step: int, count: int):
    """(packed values, one bit per lane, lane mask, lane count) per block of
    the values (start + k*step) mod 2^64, k in [0, count)."""
    for done in range(0, count, _LANES):
        lanes = min(_LANES, count - done)
        cut = (1 << 128 * lanes) - 1
        ones, mask = _ONES & cut, _LANE_MASK & cut
        z = ((start + done * step) & _MASK64) * ones + step * (_RAMP & cut)
        yield z & mask, ones, mask, lanes


def _unpack(z: int, code: str, count: int) -> array:
    """The lowest ``count`` lanes of ``z``, each as wide as an item of
    ``array(code)``, lowest first: the one reader of the host byte order."""
    words = array(code, z.to_bytes(count * array(code).itemsize, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def indexed_draws(seed: int, first: int, count: int) -> list[int]:
    """``SplitMix64(seed ^ splitmix64(i)).next_u64()`` for i in
    [first, first + count), one block of indices at a time."""
    out = []
    for z, ones, mask, lanes in _blocks(first + _GAMMA, 1, count):
        z = (_mix_lanes(z, mask) ^ (seed & _MASK64) * ones) + _GAMMA * ones
        out += _unpack(_mix_lanes(z & mask, mask), "Q", 2 * lanes)[::2]
    return out


def keyed_shuffle(items, seed: int) -> list:
    """Return a seed-determined permutation of ``items``."""
    out = list(items)
    n = len(out)
    draws = []
    for z, _, mask, lanes in _blocks(seed + _GAMMA, _GAMMA, n - 1):
        draws += _unpack(_mix_lanes(z, mask), "Q", 2 * lanes)[::2]
    for i, j in zip(range(n - 1, 0, -1), map(mod, draws, range(n, 1, -1))):
        out[i], out[j] = out[j], out[i]
    return out
