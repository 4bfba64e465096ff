"""Expanding multichannel transform over Fibonacci-type weights.

Where the core+flag rounds compress (codewords no longer than the symbol),
this transform expands: each N-bit chunk value is re-expressed as an M-bit
word of a slowly growing weight system, M >= N. Slow weight growth buys
plural representation, and the keyed policy picks among a value's words
with a per-chunk generator, so the same input encodes differently under
different keys while decoding stays choice-independent.

Both policies follow one rule: chunk i takes word `selector % count` of its
value's words in ascending order. The keyed selector is chunk i's draw
(`prng.indexed_draws`); the canonical selector is -1, the last word: the
lexicographically largest, which is the greedy highest-weight-first word
`gpn.canonical_encode` returns. One chunk at a time, that word is unranked
from a table of word counts per position and value (`gpn._ranking`), built
once per weight system, width and N: at most 2^N counts for each position
whose weight is below 2^N, however many words there are. N and M are held
to the container's limits, 1-16 and 1-255, which bounds that table.

Whole-stream calls look chunks and words up in tables when the call is
long enough to pay for them, by the rule the core+flag rounds use
(`multichannel._table_pays`): keys at most 12 bits wide and at least four
lookups per table entry. The chunk table must also hold at most four words
per chunk encoded, since slowly growing weights give a value very many
words. Encode maps each N-bit chunk string to its sorted words; decode
maps each M-bit word of value below 2^N to its chunk string.
Both tables come from one ordered pass over the words of value below 2^N
(`gpn._words_by_value`). The per-chunk functions stay the reference path:
short calls use them, and any table miss reruns the whole call through
them, so every output bit and every error is the same on both paths.
"""

import re
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
from .multichannel import _TABLE_SHARE, _table_pays
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

# Chunks or words split per block on the table paths; bounds the key
# strings alive at once.
_BLOCK_KEYS = 1 << 10


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
def _chunk_table(ws: WeightSystem, m: int, n: int) -> dict[str, tuple[str, ...]]:
    """Chunk string -> sorted representations, forbidden values left out."""
    return {format(v, f"0{n}b"): tuple(reps)
            for v, reps in enumerate(_words_by_value(ws.weights(m), (1 << n) - 1))
            if reps}


@lru_cache(maxsize=64)
def _word_table(ws: WeightSystem, m: int, n: int) -> dict[str, str]:
    """Word -> chunk string for every m-bit word of value below 2^n."""
    return {word: chunk for chunk, reps in _chunk_table(ws, m, n).items()
            for word in reps}


def _chunk_table_pays(cfg: FmaConfig, chunks: int) -> bool:
    """Whether encoding `chunks` chunks justifies the chunk table: its 2^N
    keys pay (`_table_pays`) and it holds at most _TABLE_SHARE words per
    chunk, so it is never larger than four payloads."""
    n = cfg.chunk_width
    if not _table_pays(n, chunks):
        return False
    ranking = _ranking(cfg.weight_system, cfg.target_width, (1 << n) - 1)
    return sum(map(ranking.count, range(1 << n))) <= _TABLE_SHARE * chunks


def _pieces(text: str, width: int):
    """Consecutive width-char pieces of `text`, whose length is a multiple
    of width, in lists of at most _BLOCK_KEYS."""
    split = re.compile(f"(?s).{{{width}}}").findall
    step = _BLOCK_KEYS * width
    for lo in range(0, len(text), step):
        yield split(text, lo, lo + step)


def _selectors(cfg: FmaConfig, first: int, count: int):
    """Word selectors of `count` consecutive chunks from chunk index `first`:
    each chunk takes word `selector % count` of its value's sorted words,
    so canonical's -1 is the last word."""
    if cfg.policy == "canonical":
        return [-1] * count
    return indexed_draws(cfg.seed, first, count)


def _encode_table(padded: str, cfg: FmaConfig) -> str:
    """Table encode of a padded bit string; KeyError on any chunk the
    per-chunk path would reject or read differently."""
    table = _chunk_table(cfg.weight_system, cfg.target_width, cfg.chunk_width)
    parts = []
    first = 0
    for keys in _pieces(padded, cfg.chunk_width):
        parts.append("".join([reps[sel % len(reps)] for reps, sel in zip(
            map(table.__getitem__, keys), _selectors(cfg, first, len(keys)))]))
        first += len(keys)
    return "".join(parts)


def _encode_values(values: list[int], cfg: FmaConfig, first: int) -> list[str]:
    """Words of consecutive chunk values, the first at chunk index `first`:
    each value's words unranked at its selector modulo their count."""
    m = cfg.target_width
    ranking = _ranking(cfg.weight_system, m, (1 << cfg.chunk_width) - 1)
    words = []
    for value, selector in zip(values, _selectors(cfg, first, len(values))):
        count = ranking.count(value)
        if not count:
            raise NotRepresentableError(
                f"value {value} is a forbidden combination at width {m}")
        words.append(ranking.unrank(value, selector % count))
    return words


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
    payload = None
    if _chunk_table_pays(cfg, len(padded) // n):
        try:
            payload = _encode_table(padded, cfg)
        except KeyError:
            pass  # the per-chunk path below raises the matching error
    if payload is None:
        if padded.strip("01"):  # int(chunk, 2) would read "_" and blanks
            raise ValueError("input is not a clean bit string")
        words = []
        for keys in _pieces(padded, n):
            words += _encode_values([int(key, 2) for key in keys], cfg, len(words))
        payload = "".join(words)
    return FmaStream(payload=payload, original_bit_length=len(bits))


def fma_decode(stream: FmaStream, cfg: FmaConfig) -> str:
    """Invert fma_encode, stripping the recorded padding."""
    n, m = cfg.chunk_width, cfg.target_width
    payload = stream.payload
    if len(payload) % m:
        raise BitAlignmentError(
            f"payload length {len(payload)} is not a multiple of {m}")
    bits = None
    if _table_pays(m, len(payload) // m):
        table = _word_table(cfg.weight_system, m, n)
        try:
            bits = "".join(["".join(map(table.__getitem__, words))
                            for words in _pieces(payload, m)])
        except KeyError:
            pass  # the per-chunk path below raises the matching error
    if bits is None:
        bits = "".join([format(fma_decode_chunk(payload[i:i + m], cfg), f"0{n}b")
                        for i in range(0, len(payload), m)])
    original = stream.original_bit_length
    if not original <= len(bits) < original + n:
        raise CorruptStreamError(
            f"payload decodes to {len(bits)} bits, recorded length {original}")
    if bits[original:].strip("0"):
        raise CorruptStreamError("padding bits are not zero")
    return bits[:original]
