"""Expanding multichannel transform over Fibonacci-type weights.

Where the core+flag rounds compress (codewords no longer than the symbol),
this transform expands: each N-bit chunk value is re-expressed as an M-bit
word of a slowly growing weight system, M >= N. Slow weight growth buys
plural representation, and the keyed policy picks among a value's words
with a per-chunk generator, so the same input encodes differently under
different keys while decoding stays choice-independent.

Whole-stream calls look chunks and words up in tables when the call is
long enough to pay for them, by the rule the core+flag rounds use
(`multichannel._table_pays`): keys at most 12 bits wide and at least four
lookups per table entry. Encode maps each N-bit chunk string to its
canonical word, or to its sorted representations for the keyed policy;
decode maps each M-bit word of value below 2^N to its chunk string. The
per-chunk functions stay the reference path: short calls use them, and
any table miss reruns the whole call through them, so every output bit
and every error is the same on both paths.
"""

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    BitAlignmentError,
    CorruptStreamError,
    InvalidChunkError,
    NotRepresentableError,
)
from .gpn import (
    WeightSystem,
    canonical_encode,
    evaluate,
    representation_count,
    representations,
)
from .multichannel import _table_pays
from .prng import SplitMix64, indexed_draws, splitmix64

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

_POLICIES = ("canonical", "keyed")

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

    target_width defaults to the minimal covering width; any larger width
    is valid and yields more representations per value. The keyed policy
    draws its per-chunk selector from seed and chunk index only, so chunks
    may be encoded in parallel without changing the output.
    """

    chunk_width: int
    target_width: int = 0
    weight_system: WeightSystem = FIBONACCI
    policy: str = "canonical"
    seed: int = 0

    def __post_init__(self):
        if self.chunk_width < 1:
            raise ValueError(f"chunk_width must be positive, got {self.chunk_width}")
        if self.policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}, got {self.policy!r}")
        if self.target_width == 0:
            object.__setattr__(self, "target_width",
                               min_width(self.chunk_width, self.weight_system))
        if self.target_width < 1:
            raise ValueError(f"target_width must be positive, got {self.target_width}")
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
def _representation_table(ws: WeightSystem, m: int, n: int) -> tuple[tuple[str, ...], ...]:
    """Sorted representation lists for every n-bit chunk value."""
    return tuple(tuple(sorted(representations(v, m, ws)))
                 for v in range(1 << n))


@lru_cache(maxsize=64)
def _canonical_table(ws: WeightSystem, m: int, n: int) -> dict[str, str]:
    """Chunk string -> canonical word, for every encodable n-bit chunk."""
    table = {}
    for v in range(1 << n):
        try:
            table[format(v, f"0{n}b")] = canonical_encode(v, m, ws)
        except ValueError:
            pass  # forbidden (or past the enumeration limit): a table miss
    return table


@lru_cache(maxsize=64)
def _keyed_table(ws: WeightSystem, m: int, n: int) -> dict[str, tuple[str, ...]]:
    """Chunk string -> sorted representations, forbidden values left out."""
    return {format(v, f"0{n}b"): reps
            for v, reps in enumerate(_representation_table(ws, m, n)) if reps}


@lru_cache(maxsize=64)
def _word_table(ws: WeightSystem, m: int, n: int) -> dict[str, str]:
    """Word -> chunk string for every m-bit word of value below 2^n."""
    return {word: format(v, f"0{n}b")
            for v, reps in enumerate(_representation_table(ws, m, n))
            for word in reps}


def _pieces(text: str, width: int):
    """Consecutive width-char pieces of `text`, whose length is a multiple
    of width, in lists of at most _BLOCK_KEYS."""
    split = re.compile(f"(?s).{{{width}}}").findall
    step = _BLOCK_KEYS * width
    for lo in range(0, len(text), step):
        yield split(text, lo, lo + step)


def _encode_table(padded: str, cfg: FmaConfig) -> str:
    """Table encode of a padded bit string; KeyError on any chunk the
    per-chunk path would reject or read differently."""
    n, m, ws = cfg.chunk_width, cfg.target_width, cfg.weight_system
    if cfg.policy == "canonical":
        table = _canonical_table(ws, m, n)
        return "".join(["".join(map(table.__getitem__, keys))
                        for keys in _pieces(padded, n)])
    table = _keyed_table(ws, m, n)
    parts = []
    first = 0
    for keys in _pieces(padded, n):
        draws = indexed_draws(cfg.seed, first, len(keys))
        parts.append("".join([reps[d % len(reps)] for reps, d
                              in zip(map(table.__getitem__, keys), draws)]))
        first += len(keys)
    return "".join(parts)


def _chunk_selector(seed: int, chunk_index: int) -> int:
    # per-chunk stream seeded with seed XOR splitmix64(chunk_index)
    return SplitMix64(seed ^ splitmix64(chunk_index)).next_u64()


def fma_encode_chunk(value: int, cfg: FmaConfig, chunk_index: int = 0) -> str:
    """Encode one chunk value as a target-width word."""
    if not 0 <= value < 1 << cfg.chunk_width:
        raise ValueError(
            f"value {value} outside [0, 2^{cfg.chunk_width})")
    if cfg.policy == "canonical":
        return canonical_encode(value, cfg.target_width, cfg.weight_system)
    reps = _representation_table(cfg.weight_system, cfg.target_width,
                                 cfg.chunk_width)[value]
    if not reps:
        raise NotRepresentableError(
            f"value {value} is a forbidden combination at width {cfg.target_width}")
    return reps[_chunk_selector(cfg.seed, chunk_index) % len(reps)]


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
    if _table_pays(n, len(padded) // n):
        try:
            payload = _encode_table(padded, cfg)
        except KeyError:
            pass  # the per-chunk path below raises the matching error
    if payload is None:
        if padded.strip("01"):  # int(chunk, 2) would read "_" and blanks
            raise ValueError("input is not a clean bit string")
        payload = "".join([
            fma_encode_chunk(int(padded[i:i + n], 2), cfg, chunk_index=i // n)
            for i in range(0, len(padded), n)])
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
