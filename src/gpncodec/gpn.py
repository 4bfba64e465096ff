"""Generalized positional numeration over the binary digit alphabet.

A weight system fixes a sequence of positive weights R_1, R_2, ... and a
word ``a_m ... a_2 a_1`` of bits then denotes the value ``sum a_k * R_k``.
Word strings are written highest index first, i.e. the rightmost character
is a_1 and carries weight R_1; for the base-2 radix that coincides with
ordinary binary notation.

Unlike base-b positions, general weights make the numeral map non-bijective
at a fixed width: some values gain several words (plural representation),
others none at all (forbidden combinations). ``representations`` enumerates
the full preimage of a value. The expanding multichannel transform keys its
diffusion on the same preimage in ascending order, but picks its words by
unranking (``_ranking``) rather than enumerating them.

The binomial (combinadic) system does not have fixed per-position weights;
its numerical function is ``combo_rank`` / ``combo_unrank`` at the bottom of
this module.
"""

import math
import threading
from functools import lru_cache
from operator import add, index, mul

from .errors import NotRepresentableError

_ENUM_WIDTH_LIMIT = 64


class WeightSystem:
    """A rule generating the weights R_1..R_m, with a memoized cache.

    Construct via the factory classmethods. Instances are immutable value
    objects; the weight cache grows on demand and is swapped in whole so
    concurrent readers never observe a partially built list.
    """

    _KINDS = ("b_radix", "factorial", "fibonacci", "deformed_fibonacci")

    def __init__(self, kind: str, *, b: int = 0, deformation: tuple[int, ...] = ()):
        if kind not in self._KINDS:
            raise ValueError(f"unknown weight system kind {kind!r}")
        try:
            b, deformation = index(b), tuple(map(index, deformation))
        except TypeError:
            raise ValueError(
                "weight system parameters must be integers, got "
                f"b={b!r}, deformation={deformation!r}") from None
        if kind == "b_radix" and b < 2:
            raise ValueError(f"radix base must be >= 2, got {b}")
        if kind == "deformed_fibonacci":
            if not deformation:
                raise ValueError("deformation list must be nonempty")
            if any(c < 1 for c in deformation):
                raise ValueError(f"deformation coefficients must be >= 1, got {deformation}")
        self.kind = kind
        self.b = b
        self.deformation = tuple(deformation)
        self._weights: list[int] = []
        self._lock = threading.Lock()

    @classmethod
    def b_radix(cls, b: int) -> "WeightSystem":
        """Weights b^(k-1); b=2 is ordinary binary."""
        return cls("b_radix", b=b)

    @classmethod
    def factorial(cls) -> "WeightSystem":
        """Weights k!."""
        return cls("factorial")

    @classmethod
    def fibonacci(cls) -> "WeightSystem":
        """Weights F(k) with F(1) = F(2) = 1."""
        return cls("fibonacci")

    @classmethod
    def deformed_fibonacci(cls, coefficients) -> "WeightSystem":
        """Weights from R_k = sum_i c_i * R_{k-i}, seeded R_1 = 1, R_j = 0
        for j <= 0. Coefficients (1, 1) reproduce the Fibonacci weights."""
        return cls("deformed_fibonacci", deformation=tuple(coefficients))

    def _key(self):
        return (self.kind, self.b, self.deformation)

    def __eq__(self, other):
        return isinstance(other, WeightSystem) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.kind == "b_radix":
            return f"WeightSystem.b_radix({self.b})"
        if self.kind == "deformed_fibonacci":
            return f"WeightSystem.deformed_fibonacci({list(self.deformation)})"
        return f"WeightSystem.{self.kind}()"

    def _extend(self, cur: list[int], upto: int) -> None:
        if self.kind == "factorial":
            cur.extend(map(math.factorial, range(len(cur) + 1, upto + 1)))
            return
        # R_1 = 1, R_k = sum_i c_i * R_{k-i}: b_radix is the recurrence
        # with coefficients (b,), fibonacci with (1, 1)
        coefficients = {"b_radix": (self.b,), "fibonacci": (1, 1)}.get(
            self.kind, self.deformation)
        while len(cur) < upto:
            cur.append(sum(map(mul, coefficients, reversed(cur)))
                       if cur else 1)

    def weights(self, m: int) -> list[int]:
        """The weights R_1..R_m as a fresh list."""
        if m < 1:
            raise ValueError(f"m must be positive, got {m}")
        if len(self._weights) < m:
            with self._lock:
                cur = list(self._weights)
                self._extend(cur, m)
                self._weights = cur
        return self._weights[:m]

    def max_value(self, width: int) -> int:
        """Largest representable value at `width`: the all-ones word."""
        return sum(self.weights(width))


def weights(ws: WeightSystem, m: int) -> list[int]:
    return ws.weights(m)


def _check_word(word: str) -> None:
    if not word:
        raise ValueError("word must be nonempty")
    if word.strip("01"):
        raise ValueError(f"word must contain only '0'/'1', got {word!r}")


def evaluate(word: str, ws: WeightSystem) -> int:
    """Numerical value of `word`: sum of the weights at its one-bits."""
    _check_word(word)
    w = ws.weights(len(word))
    return sum(wt for wt, ch in zip(w, reversed(word)) if ch == "1")


def max_value(ws: WeightSystem, width: int) -> int:
    return ws.max_value(width)


def representations(value: int, width: int, ws: WeightSystem) -> set[str]:
    """Every width-bit word whose value is `value`; empty if forbidden.

    Depth-first over positions from the highest weight down, pruned by the
    running prefix-sum bound, so cost tracks the size of the result rather
    than 2**width. Width is capped at 64.
    """
    if value < 0:
        raise ValueError(f"value must be nonnegative, got {value}")
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    if width > _ENUM_WIDTH_LIMIT:
        raise ValueError(f"width {width} above enumeration limit {_ENUM_WIDTH_LIMIT}")
    w = ws.weights(width)
    reach = [0] * (width + 1)  # reach[k] = R_1 + ... + R_k
    for k in range(1, width + 1):
        reach[k] = reach[k - 1] + w[k - 1]

    found: set[str] = set()
    acc: list[str] = []

    def descend(k: int, remaining: int) -> None:
        if remaining < 0 or remaining > reach[k]:
            return
        if k == 0:
            found.add("".join(acc))
            return
        acc.append("1")
        descend(k - 1, remaining - w[k - 1])
        acc.pop()
        acc.append("0")
        descend(k - 1, remaining)
        acc.pop()

    descend(width, value)
    return found


def representation_count(value: int, width: int, ws: WeightSystem) -> int:
    """|representations(value, width, ws)| without materializing the set.

    Position by position from the highest weight down, over the remainders
    still reachable by the positions below, each with its number of
    prefixes; there is no width limit.
    """
    if value < 0:
        raise ValueError(f"value must be nonnegative, got {value}")
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    w = ws.weights(width)
    reach = sum(w)
    counts = {value: 1}
    for wt in reversed(w):
        reach -= wt  # R_1 + ... + R_(k-1) once position k is placed
        below = {}
        for remaining, count in counts.items():
            for rest in (remaining, remaining - wt):
                if 0 <= rest <= reach:
                    below[rest] = below.get(rest, 0) + count
        counts = below
    return counts.get(0, 0)


# Lowest positions an unrank finishes with one lookup: 2^12 words at most.
_TAIL_BITS = 12


def _ordered_words(w: list[int], cap: int) -> tuple[list[str], list[int]]:
    """The len(w)-bit words of value <= cap in ascending order, and their
    values.

    One pass from the lowest position up: every word so far gains a '0'
    and, while its value stays within cap, a '1' in front, the '0' words
    first, so the list stays sorted with no sort. A position heavier than
    cap only ever holds '0'.
    """
    words, values = [""], [0]
    zeros = ""  # heavy positions not yet written
    for wt in w:
        if wt > cap:
            zeros += "0"
            continue
        fit = cap - wt
        zero, one = "0" + zeros, "1" + zeros
        words = ([zero + s for s in words]
                 + [one + s for s, v in zip(words, values) if v <= fit])
        values = values + [v + wt for v in values if v <= fit]
        zeros = ""
    if zeros:
        words = [zeros + s for s in words]
    return words, values


def _words_by_value(w: list[int], cap: int) -> list[list[str]]:
    """For each value v <= min(cap, sum(w)), the len(w)-bit words of value
    v in ascending order.

    The lowest _TAIL_BITS positions are bucketed from one ordered pass;
    each higher part, in ascending order, is then joined to the tails that
    keep the value within cap. Every word is built once, and each bucket
    fills in ascending order.
    """
    tail = min(_TAIL_BITS, len(w))
    words, values = _ordered_words(w[:tail], cap)
    low = [[] for _ in range(min(cap, sum(w[:tail])) + 1)]
    for s, v in zip(words, values):
        low[v].append(s)
    if tail == len(w):
        return low
    buckets = [[] for _ in range(min(cap, sum(w)) + 1)]
    for high, hv in zip(*_ordered_words(w[tail:], cap)):
        for lv in range(min(len(low), cap - hv + 1)):
            buckets[hv + lv] += [high + s for s in low[lv]]
    return buckets


def _count_rows(w: list[int], cap: int) -> list[list[int]]:
    """rows[k][r]: the number of k-bit words (weights w[:k]) of value r, for
    r <= min(cap, w[0] + ... + w[k-1]); an entry past the end counts 0.

    Built bottom-up. A position heavier than cap adds no word of value
    <= cap, so its row is the row below it, shared rather than copied.
    """
    rows = [[1]]
    for wt in w:
        below = rows[-1]
        if wt > cap:
            rows.append(below)
            continue
        size = min(cap + 1, len(below) + wt)
        rows.append(list(map(add, below + [0] * (size - len(below)),
                             [0] * wt + below[:size - wt])))
    return rows


class _Ranking:
    """Counts and unranks the width-bit words of each value up to cap.

    Word `index` of a value is the index-th of its words in ascending
    order, as `sorted(representations(value, width, ws))[index]` (the
    ranking of Nijenhuis & Wilf, Combinatorial Algorithms, and Knuth,
    TAOCP 4A 7.2.1.3, over a count table instead of binomials).
    """

    def __init__(self, ws: WeightSystem, width: int, cap: int):
        w = ws.weights(width)
        self._rows = _count_rows(w, cap)
        tail = min(_TAIL_BITS, width)
        self._low = _words_by_value(w[:tail], cap)
        top = width
        while top > tail and w[top - 1] > cap:
            top -= 1
        self._lead = "0" * (width - top)
        self._steps = [(self._rows[k - 1], len(self._rows[k - 1]), w[k - 1])
                       for k in range(top, tail, -1)]

    def count(self, value: int) -> int:
        row = self._rows[-1]
        return row[value] if value < len(row) else 0

    def unrank(self, value: int, index: int) -> str:
        """Word `index` of `value`; needs 0 <= index < count(value)."""
        word = self._lead
        for below, size, wt in self._steps:
            zeros = below[value] if value < size else 0
            if index < zeros:
                word += "0"
            else:
                index -= zeros
                value -= wt
                word += "1"
        return word + self._low[value][index]


@lru_cache(maxsize=64)
def _ranking(ws: WeightSystem, width: int, cap: int) -> _Ranking:
    return _Ranking(ws, width, cap)


def canonical_encode(value: int, width: int, ws: WeightSystem) -> str:
    """The lexicographically largest representation of `value`: the last
    of its words in ascending order, which the canonical fma policy picks.

    Greedy highest-weight-first; for every `WeightSystem` that scan finds
    that word whenever one exists (proof in the README, "Notes"). Raises
    NotRepresentableError when no representation exists at this width.
    """
    if value < 0:
        raise ValueError(f"value must be nonnegative, got {value}")
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    w = ws.weights(width)
    if value > sum(w):
        raise NotRepresentableError(
            f"value {value} exceeds max {sum(w)} at width {width}")
    bits = []
    remaining = value
    for k in range(width, 0, -1):
        if w[k - 1] <= remaining:
            bits.append("1")
            remaining -= w[k - 1]
        else:
            bits.append("0")
    if remaining:
        raise NotRepresentableError(
            f"value {value} is a forbidden combination at width {width}")
    return "".join(bits)


def combo_rank(word: str) -> int:
    """Lexicographic rank of `word` among equal-width words of its weight.

    With one-bits at positions p_1 < ... < p_K (position 0 = rightmost
    character), the rank is sum_i C(p_i, i). The all-low word 0..011..1
    ranks 0 and the all-high word ranks C(n, K) - 1.
    """
    _check_word(word)
    rank = 0
    ones = 0
    for pos, ch in enumerate(reversed(word)):
        if ch == "1":
            ones += 1
            rank += math.comb(pos, ones)
    return rank


def combo_unrank(n: int, k: int, rank: int) -> str:
    """Inverse of combo_rank: the rank-th weight-k word of width n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    if not 0 <= rank < math.comb(n, k):
        raise ValueError(f"rank must be in [0, {math.comb(n, k)}), got {rank}")
    bits = ["0"] * n
    remaining = rank
    pos = n - 1
    for i in range(k, 0, -1):
        while math.comb(pos, i) > remaining:
            pos -= 1
        bits[n - 1 - pos] = "1"
        remaining -= math.comb(pos, i)
        pos -= 1
    return "".join(bits)
