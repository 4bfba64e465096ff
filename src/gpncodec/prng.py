"""SplitMix64 generator and the keyed shuffle built on it.

Keyed codebooks and keyed chunk encoding must be reproducible bit for bit
across implementations, so the generator and the shuffle are pinned here
instead of delegating to ``random``:

* SplitMix64: state advances by 0x9E3779B97F4A7C15 per draw; the output mix
  is ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` in 64-bit arithmetic.
* Shuffle: Fisher-Yates from the highest index down, with the swap target
  chosen as ``next_u64() % (i + 1)`` (modulo reduction, accepted bias).
"""

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


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


def indexed_draws(seed: int, first: int, count: int) -> list[int]:
    """``SplitMix64(seed ^ splitmix64(i)).next_u64()`` for i in
    [first, first + count), with both mixes inlined: one draw per index
    without building a generator object."""
    out = []
    append = out.append
    for i in range(first, first + count):
        z = (i + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
        z = ((seed ^ z ^ (z >> 31)) + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
        append(z ^ (z >> 31))
    return out


def keyed_shuffle(items, seed: int) -> list:
    """Return a seed-determined permutation of ``items``."""
    out = list(items)
    rng = SplitMix64(seed)
    for i in range(len(out) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out
