"""Bit-level IO and the on-disk container.

Bit order is MSB-first within a byte: the first bit written lands in bit 7
of byte 0, and a final partial byte is zero-padded on the right. Multi-byte
integers in the container are little-endian. Both choices are load-bearing:
two independent implementations of this format must interoperate
byte for byte.

Container layout (all offsets in bytes)::

    0   magic "GPNC" (47 50 4E 43)
    4   version, currently 01
    5   algorithm id: 0 = mv2, 1 = clone, 2 = binomial, 3 = fma
    6   symbol width N
    7   seed, 8 bytes LE
    then, per algorithm:
      mv2 / binomial:
        rounds (1 byte, >= 1), then rounds x true input bit length (8 LE)
      clone:
        multiplicity count (1 byte, = N), count x multiplicity (4 LE),
        then rounds and true lengths as above
      fma:
        target width M (1 byte), policy (1 byte: 0 canonical, 1 keyed),
        original input bit length (8 LE)
    sections, in order: one flag section per round (none for fma),
    then the core/payload section. Every section is
        bit length (8 LE) followed by ceil(bits / 8) payload bytes.

A reader must consume the byte stream exactly: short data raises
TruncatedSectionError, declared bit lengths that cannot fit raise
LengthOverflowError, and trailing bytes are rejected.
"""

import struct
from dataclasses import dataclass

from .errors import (
    BadMagicError,
    BadVersionError,
    ContainerFormatError,
    LengthOverflowError,
    TruncatedSectionError,
)

MAGIC = b"GPNC"
VERSION = 1

ALGORITHM_IDS = {"mv2": 0, "clone": 1, "binomial": 2, "fma": 3}
_ALGORITHM_NAMES = {v: k for k, v in ALGORITHM_IDS.items()}
POLICY_IDS = {"canonical": 0, "keyed": 1}
_POLICY_NAMES = {v: k for k, v in POLICY_IDS.items()}

# both travel in one header byte
MAX_ROUNDS = 255
MAX_TARGET_WIDTH = 255
# the widest symbol (core+flag) or chunk (fma) any codec takes
MAX_SYMBOL_WIDTH = 16

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


def _int_lenient(bits: str) -> bool:
    """Whether nonempty `bits` holds what int(_, 2) reads leniently:
    non-ASCII digits, "_", blanks and signs at either end, a "0b" prefix.
    One fast pass; int raises ValueError on any other stray character."""
    return (not bits.isascii() or "_" in bits or bits[0] not in "01"
            or bits[-1] not in "01" or bits[1:2] in ("b", "B"))


def pack_bits(bits: str) -> bytes:
    """Pack a bit string MSB-first, zero-padding the final byte."""
    if not bits:
        return b""
    if _int_lenient(bits):
        raise ValueError("input is not a clean bit string")
    nbytes = (len(bits) + 7) // 8
    return int(bits.ljust(nbytes * 8, "0"), 2).to_bytes(nbytes, "big")


def unpack_bits(data: bytes, bit_length: int | None = None) -> str:
    """Inverse of pack_bits; `bit_length` trims the padding."""
    bits = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b") if data else ""
    if bit_length is None:
        return bits
    if bit_length < 0:
        raise ValueError(f"bit length must be nonnegative, got {bit_length}")
    if bit_length > len(bits):
        raise LengthOverflowError(
            f"declared {bit_length} bits, buffer holds {len(bits)}")
    return bits[:bit_length]


@dataclass(frozen=True)
class ContainerMeta:
    """Header fields of a container; which ones apply depends on `algorithm`."""

    algorithm: str
    n: int
    seed: int = 0
    rounds: int = 0
    round_input_lengths: tuple[int, ...] = ()
    multiplicities: tuple[int, ...] = ()
    m: int = 0
    policy: str = "canonical"
    original_bit_length: int = 0


def check_rounds(rounds: int) -> None:
    if not 1 <= rounds <= MAX_ROUNDS:
        raise ValueError(f"rounds must be in [1, {MAX_ROUNDS}], got {rounds}")


def check_seed(seed: int) -> None:
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must fit in 64 bits")


def check_target_width(m: int) -> None:
    if not 1 <= m <= MAX_TARGET_WIDTH:
        raise ValueError(
            f"target width must be in [1, {MAX_TARGET_WIDTH}], got {m}")


def _validate_meta(meta: ContainerMeta, flag_count: int) -> None:
    if meta.algorithm not in ALGORITHM_IDS:
        raise ValueError(f"unknown algorithm {meta.algorithm!r}")
    if not 1 <= meta.n <= MAX_SYMBOL_WIDTH:
        raise ValueError(
            f"symbol width must be in [1, {MAX_SYMBOL_WIDTH}], got {meta.n}")
    if meta.algorithm == "mv2" and meta.n < 2:
        raise ValueError("mv2 needs a symbol width of at least 2")
    check_seed(meta.seed)
    if meta.algorithm == "fma":
        if flag_count:
            raise ValueError("fma containers carry no flag sections")
        check_target_width(meta.m)
        if meta.policy not in POLICY_IDS:
            raise ValueError(f"unknown policy {meta.policy!r}")
        if not 0 <= meta.original_bit_length < 1 << 64:
            raise ValueError(
                "original bit length must be nonnegative and fit in 64 bits")
    else:
        check_rounds(meta.rounds)
        if flag_count != meta.rounds:
            raise ValueError(
                f"{meta.rounds} rounds but {flag_count} flag sections")
        if len(meta.round_input_lengths) != meta.rounds:
            raise ValueError(
                f"{meta.rounds} rounds but "
                f"{len(meta.round_input_lengths)} recorded lengths")
        if any(not 0 <= x < 1 << 64 for x in meta.round_input_lengths):
            raise ValueError("round lengths must be nonnegative and fit in 64 bits")
        if meta.algorithm == "clone":
            if len(meta.multiplicities) != meta.n:
                raise ValueError(
                    f"clone needs {meta.n} multiplicities, "
                    f"got {len(meta.multiplicities)}")
            if any(not 0 <= x < 1 << 32 for x in meta.multiplicities):
                raise ValueError("multiplicities must fit in 32 bits")


def _section(bits: str) -> bytes:
    return _U64.pack(len(bits)) + pack_bits(bits)


def write_container(meta: ContainerMeta, flag_streams, payload: str) -> bytes:
    """Serialize metadata plus channels; raises ValueError on inconsistency."""
    flag_streams = list(flag_streams)
    _validate_meta(meta, len(flag_streams))
    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out.append(ALGORITHM_IDS[meta.algorithm])
    out.append(meta.n)
    out += _U64.pack(meta.seed)
    if meta.algorithm == "fma":
        out.append(meta.m)
        out.append(POLICY_IDS[meta.policy])
        out += _U64.pack(meta.original_bit_length)
    else:
        if meta.algorithm == "clone":
            out.append(len(meta.multiplicities))
            for mult in meta.multiplicities:
                out += _U32.pack(mult)
        out.append(meta.rounds)
        for length in meta.round_input_lengths:
            out += _U64.pack(length)
    for stream in flag_streams:
        out += _section(stream)
    out += _section(payload)
    return bytes(out)


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.data):
            raise TruncatedSectionError(
                f"container ended inside {what} "
                f"(need {count} bytes at offset {self.pos})", what, self.pos)
        piece = self.data[self.pos:self.pos + count]
        self.pos += count
        return piece

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return _U64.unpack(self.take(8, what))[0]

    def section(self, what: str) -> str:
        bit_length = self.u64(f"{what} length")
        nbytes = (bit_length + 7) // 8
        if self.pos + nbytes > len(self.data):
            available = 8 * (len(self.data) - self.pos)
            raise LengthOverflowError(
                f"{what} declares {bit_length} bits, {available} available",
                what, self.pos)
        raw = self.take(nbytes, what)
        bits = unpack_bits(raw, bit_length)
        if bit_length % 8 and raw[-1] & ((1 << (8 - bit_length % 8)) - 1):
            raise ContainerFormatError(f"{what} padding bits are not zero",
                                       what, self.pos - 1)
        return bits


def read_container(data: bytes) -> tuple[ContainerMeta, list[str], str]:
    """Parse a container back into (meta, flag streams, core/payload).

    The header is checked by the rules write_container applies, before
    any section is read.
    """
    cur = _Cursor(data)
    if cur.take(4, "magic") != MAGIC:
        raise BadMagicError("not a GPNC container", "magic", 0)
    version = cur.u8("version")
    if version != VERSION:
        raise BadVersionError(f"unsupported container version {version}",
                              "version", 4)
    algo_id = cur.u8("algorithm id")
    algorithm = _ALGORITHM_NAMES.get(algo_id)
    if algorithm is None:
        raise ContainerFormatError(f"unknown algorithm id {algo_id}",
                                   "algorithm id", 5)
    n = cur.u8("symbol width")
    seed = cur.u64("seed")
    if algorithm == "fma":
        m = cur.u8("target width")
        policy_id = cur.u8("policy")
        policy = _POLICY_NAMES.get(policy_id)
        if policy is None:
            raise ContainerFormatError(f"unknown policy id {policy_id}",
                                       "policy", cur.pos - 1)
        original = cur.u64("original bit length")
        meta = ContainerMeta(algorithm=algorithm, n=n, seed=seed, m=m,
                             policy=policy, original_bit_length=original)
    else:
        multiplicities: tuple[int, ...] = ()
        if algorithm == "clone":
            count = cur.u8("multiplicity count")
            multiplicities = tuple(cur.u32(f"multiplicity {k}")
                                   for k in range(count))
        rounds = cur.u8("round count")
        round_lengths = tuple(cur.u64(f"round {i + 1} length")
                              for i in range(rounds))
        meta = ContainerMeta(algorithm=algorithm, n=n, seed=seed, rounds=rounds,
                             round_input_lengths=round_lengths,
                             multiplicities=multiplicities)
    try:
        _validate_meta(meta, meta.rounds)
    except ValueError as exc:
        raise ContainerFormatError(f"container header rejected: {exc}",
                                   "header", cur.pos) from exc
    flag_streams = [cur.section(f"flag section {i + 1}") for i in range(meta.rounds)]
    payload = cur.section("core section" if algorithm != "fma" else "payload section")
    if cur.pos != len(data):
        raise ContainerFormatError(
            f"{len(data) - cur.pos} trailing bytes after final section",
            "trailing bytes", cur.pos)
    return meta, flag_streams, payload
