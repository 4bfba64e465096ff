"""Expanding multichannel transform over Fibonacci-type weights.

Where the core+flag rounds compress (codewords no longer than the symbol),
this transform expands: each N-bit chunk value is re-expressed as an M-bit
word of a slowly growing weight system, M >= N. Slow weight growth buys
plural representation, and the keyed policy picks among a value's words
with a per-chunk generator, so the same input encodes differently under
different keys while decoding stays choice-independent.

Both policies follow one rule: chunk i takes word `selector % count` of its
value's words in ascending order. The keyed selector is chunk i's draw,
taken for a whole block of chunks at once (`prng.indexed_draws`, which
evaluates SplitMix64 over packed 64-bit lanes); the canonical selector is
-1, the last word: the lexicographically largest, which is the greedy
highest-weight-first word `gpn.canonical_encode` returns. One chunk at a
time, that word is unranked from a table of word counts per position and
value (`gpn._ranking`), built once per weight system, width and N: at most
2^N counts for each position whose weight is below 2^N, however many words
there are. N and M are held to the container's limits, 1-16 and 1-255,
which bounds that table.

Whole-stream encode reads the chunk values a block at a time through the
lane reader of the core+flag rounds (`multichannel._pieces`), and runs one
loop over them. When the call is long enough to pay for it, by the rounds'
rule (`multichannel._table_pays`): keys at most 12 bits wide and at least
four lookups per table entry, each value's words come from a chunk table.
The table must also hold at most four words per chunk encoded, since
slowly growing weights give a value very many words. It lists each N-bit
value's sorted words, indexed by the value, from one ordered pass over
the words of value below 2^N (`gpn._words_by_value`). A forbidden value's
list is empty, so its `selector % 0` hands that block's values to the
unranking loop, which names the value.

Decode checks the word count against the recorded length first. It then
reads the payload through the same reader (`multichannel._lanes`), each
word in its own lane of one int per block, and sums each word's value in
its lane (`_decode_lanes`), over the positions whose weight is below 2^N;
a mask of the other positions finds words that use them. Lanes are
L = max(M, N, bits of the sum of those weights) wide: no lane's value
reaches 2^L, so none carries into the next, and every chunk fits in its
lane. One helper, `multichannel._relane`, moves characters between lane
widths by one strided copy per kept column: the reader widens each word
to L bits with zeros where L > M, and decode cuts the low N bits of each
lane out of the sum. The per-chunk functions stay the reference path:
from the first block the lanes refuse (a non-bit character, a forbidden
position, a value of 2^N or more) decode runs one word at a time through
them, so every output bit and every error is the same as theirs.
"""

from dataclasses import dataclass
from functools import lru_cache

from .bitio import MAX_SYMBOL_WIDTH, POLICY_IDS, check_target_width
from .errors import (
    BitAlignmentError,
    CorruptStreamError,
    InvalidChunkError,
    NotRepresentableError,
)
from .gpn import (
    WeightSystem,
    _ranking,
    _words_by_value,
    evaluate,
    representation_count,
)
from .multichannel import _TABLE_SHARE, _lanes, _pieces, _relane, _table_pays
from .prng import indexed_draws

__all__ = [
    "FIBONACCI",
    "FmaConfig",
    "FmaStream",
    "min_width",
    "fma_encode_chunk",
    "fma_decode_chunk",
    "fma_encode",
    "fma_decode",
    "representation_count",
]

FIBONACCI = WeightSystem.fibonacci()


def min_width(n: int, ws: WeightSystem = FIBONACCI) -> int:
    """Smallest width whose maximum value covers every n-bit chunk."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    target = (1 << n) - 1
    m = 1
    while ws.max_value(m) < target:
        m += 1
    return m


@dataclass(frozen=True)
class FmaConfig:
    """Parameters of the expanding transform.

    chunk_width is 1-16. target_width defaults to the minimal covering
    width; any larger width up to 255 is valid and yields more
    representations per value. The keyed policy draws its per-chunk
    selector from seed and chunk index only, so chunks may be encoded in
    parallel without changing the output.
    """

    chunk_width: int
    target_width: int = 0
    weight_system: WeightSystem = FIBONACCI
    policy: str = "canonical"
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.chunk_width <= MAX_SYMBOL_WIDTH:
            raise ValueError(f"chunk_width must be in [1, {MAX_SYMBOL_WIDTH}], "
                             f"got {self.chunk_width}")
        if self.policy not in POLICY_IDS:
            raise ValueError(
                f"policy must be one of {tuple(POLICY_IDS)}, got {self.policy!r}")
        if self.target_width == 0:
            object.__setattr__(self, "target_width",
                               min_width(self.chunk_width, self.weight_system))
        check_target_width(self.target_width)
        if self.weight_system.max_value(self.target_width) < (1 << self.chunk_width) - 1:
            raise ValueError(
                f"width {self.target_width} cannot represent every "
                f"{self.chunk_width}-bit value")


@dataclass(frozen=True)
class FmaStream:
    """Concatenated fixed-width payload plus the true input length."""

    payload: str
    original_bit_length: int


@lru_cache(maxsize=64)
def _chunk_table(ws: WeightSystem, m: int, n: int) -> list[list[str]]:
    """Each N-bit value's sorted representations, indexed by the value;
    a forbidden value's list is empty."""
    return _words_by_value(ws.weights(m), (1 << n) - 1)


def _chunk_table_pays(cfg: FmaConfig, chunks: int) -> bool:
    """Whether encoding `chunks` chunks justifies the chunk table: its 2^N
    keys pay (`_table_pays`) and it holds at most _TABLE_SHARE words per
    chunk, so it is never larger than four payloads."""
    n = cfg.chunk_width
    if not _table_pays(n, chunks):
        return False
    ranking = _ranking(cfg.weight_system, cfg.target_width, (1 << n) - 1)
    return sum(map(ranking.count, range(1 << n))) <= _TABLE_SHARE * chunks


def _selectors(cfg: FmaConfig, first: int, count: int):
    """Word selectors of `count` consecutive chunks from chunk index `first`:
    each chunk takes word `selector % count` of its value's sorted words,
    so canonical's -1 is the last word."""
    if cfg.policy == "canonical":
        return [-1] * count
    return indexed_draws(cfg.seed, first, count)


def _encode_values(values: list[int], cfg: FmaConfig, first: int,
                   table: list[list[str]] | None = None) -> list[str]:
    """Words of consecutive chunk values, the first at chunk index `first`:
    word `selector % count` of each value's sorted words, looked up in
    `table` when given, else unranked, which names a forbidden value."""
    selectors = _selectors(cfg, first, len(values))
    if table is not None:
        try:
            return [reps[sel % len(reps)]
                    for reps, sel in zip(map(table.__getitem__, values), selectors)]
        except ZeroDivisionError:
            pass  # a forbidden value's empty list: unranking names it
    m = cfg.target_width
    ranking = _ranking(cfg.weight_system, m, (1 << cfg.chunk_width) - 1)
    words = []
    for value, selector in zip(values, selectors):
        count = ranking.count(value)
        if not count:
            raise NotRepresentableError(
                f"value {value} is a forbidden combination at width {m}")
        words.append(ranking.unrank(value, selector % count))
    return words


def _lane_ones(width: int, count: int) -> int:
    """One bit at the bottom of each of `count` width-bit lanes."""
    return ((1 << width * count) - 1) // ((1 << width) - 1)


@lru_cache(maxsize=64)
def _lane_weights(ws: WeightSystem, m: int, n: int):
    """(lane width, (bit, weight) below 2^n, mask of the other bits). The
    lanes hold an n-bit chunk and the sum of those weights, so no lane can
    carry into the next."""
    low = tuple((k, r) for k, r in enumerate(ws.weights(m)) if r < 1 << n)
    lane = max(m, n, sum(r for _, r in low).bit_length())
    return lane, low, (1 << m) - 1 - sum(1 << k for k, _ in low)


def _decode_lanes(payload: str, m: int, n: int, lane: int, low, forbidden: int):
    """(chunks, words decoded) of the blocks of m-bit words before the first
    that holds a non-bit character, a forbidden bit or a value >= 2^n, each
    word's value summed in its own lane-bit lane, the first in the top lane."""
    high = (1 << lane) - (1 << n)  # lane bits n..lane-1
    parts, words = [], 0
    try:
        for p, count in _lanes(payload, m, lane, len(payload)):
            ones = _lane_ones(lane, count)
            if p & forbidden * ones:
                break
            acc = sum([(p >> k & ones) * r for k, r in low])
            if acc & high * ones:
                break
            parts.append(_relane(format(acc, f"0{lane * count}b").encode(),
                                 lane, n, count))
            words += count
    except ValueError:
        pass  # a non-bit character: the rest reruns per chunk
    return b"".join(parts).decode(), words


def fma_encode_chunk(value: int, cfg: FmaConfig, chunk_index: int = 0) -> str:
    """Encode one chunk value as a target-width word."""
    if not 0 <= value < 1 << cfg.chunk_width:
        raise ValueError(
            f"value {value} outside [0, 2^{cfg.chunk_width})")
    return _encode_values([value], cfg, chunk_index)[0]


def fma_decode_chunk(word: str, cfg: FmaConfig) -> int:
    """Value of one payload word, whichever representation was chosen."""
    if len(word) != cfg.target_width:
        raise InvalidChunkError(
            f"word width {len(word)}, expected {cfg.target_width}")
    value = evaluate(word, cfg.weight_system)
    if value >= 1 << cfg.chunk_width:
        raise InvalidChunkError(
            f"word value {value} cannot come from a {cfg.chunk_width}-bit chunk")
    return value


def fma_encode(bits: str, cfg: FmaConfig) -> FmaStream:
    """Encode a bit string chunk by chunk, zero-padding the tail chunk."""
    n = cfg.chunk_width
    padded = bits + "0" * (-len(bits) % n)
    table = None
    if _chunk_table_pays(cfg, len(padded) // n):
        table = _chunk_table(cfg.weight_system, cfg.target_width, n)
    parts, first = [], 0
    for values in _pieces(padded, n, len(padded)):
        parts.append("".join(_encode_values(values, cfg, first, table)))
        first += len(values)
    return FmaStream(payload="".join(parts), original_bit_length=len(bits))


def fma_decode(stream: FmaStream, cfg: FmaConfig) -> str:
    """Invert fma_encode, stripping the recorded padding."""
    n, m = cfg.chunk_width, cfg.target_width
    payload = stream.payload
    if len(payload) % m:
        raise BitAlignmentError(
            f"payload length {len(payload)} is not a multiple of {m}")
    words, original = len(payload) // m, stream.original_bit_length
    if not original <= words * n < original + n:
        raise CorruptStreamError(
            f"payload decodes to {words * n} bits, recorded length {original}")
    bits, done = _decode_lanes(payload, m, n, *_lane_weights(cfg.weight_system, m, n))
    bits += "".join([format(fma_decode_chunk(payload[i:i + m], cfg), f"0{n}b")
                     for i in range(done * m, len(payload), m)])
    if bits[original:].strip("0"):
        raise CorruptStreamError("padding bits are not zero")
    return bits[:original]
