"""Core+flag multichannel recoding over N-bit symbols.

One round rewrites each N-bit symbol of the input as a variable-length
codeword. The concatenated codewords form the *core*; a parallel *flag*
stream records each symbol's length class K so the core can be re-split.
Neither channel alone recovers the input. Because every codeword is at
most N bits the core never grows, and the whole procedure can be fed its
own core again for further rounds.

Every codebook decomposes 2^N into class sizes M_K and follows one rule
(`_codebook`): class K takes the first M_K words of its code width in
lexicographic order, classes ascending, and the symbols, keyed-shuffled
when the seed is not 0, are paired with that code list by position.
Three families choose the sizes, widths and symbol order:

* clones: any sizes M_1..M_N with sum M_K = 2^N and M_K <= 2^K, class K
  of width K, symbols in ascending order.
* MV2: the clone of sizes 2, 4, ..., 2^(N-1), 2, i.e. 2^N = 2 + sum 2^K;
  at N=2 class 2 holds 00 and 11, and seed 0 is a fixed preset table.
* binomial: sizes C(N, K) for K = 0..N (2^N = sum C(N, K)), width
  ceil(log2 C(N, K)), symbols in popcount order. A symbol joins class
  popcount(s) and its codeword is its combinadic rank, so singleton
  classes emit nothing and the flag alone carries them.

The flag codeword for class K is '1' followed by (N - K) zeros, which is
uniquely decodable forward by splitting before each '1'.
"""

import math
import re
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, islice
from operator import getitem, index, itemgetter

from .bitio import MAX_SYMBOL_WIDTH, _int_lenient
from .errors import (
    BitAlignmentError,
    ClassOverflowError,
    CorruptStreamError,
    InfeasibleMultiplicitiesError,
    MalformedFlagError,
    UnknownCodewordError,
)
from .prng import _unpack, keyed_shuffle

# Rounds look symbols up g at a time through tables of 2^(g*N) entries:
# keys are at most _KEY_BITS wide, and a round uses g only when it has at
# least _TABLE_SHARE times as many symbols as the table has entries, so
# building the table costs a small share of the round.
_KEY_BITS = 12
_TABLE_SHARE = 4
# Characters handled per block: input bits (round and fma encode), flag
# bits (round decode) or payload bits (fma decode); bounds the lane ints
# (`_lanes`), and the per-symbol decode lists, alive at once.
_BLOCK_BITS = 1 << 16
# the two halves of a table entry
_first, _second = itemgetter(0), itemgetter(1)


def _relane(text: bytes, width: int, lane: int, count: int) -> bytes:
    """Each of `count` width-character pieces of `text` at the low end of a
    lane-character lane, zero-filled above (cut to its low `lane`
    characters if lane < width): one strided copy per kept column."""
    if lane == width:
        return text
    out = bytearray(b"0" * (lane * count))
    for j in range(1, min(width, lane) + 1):
        out[lane - j::lane] = text[width - j::width]
    return out


def _lanes(text: str, width: int, lane: int, end: int):
    """(P, count) for each block of text[:end], where end is a multiple of
    width, of at most _BLOCK_BITS characters (one piece when width is
    wider): P holds the block's `count` width-bit pieces, each in its own
    lane-bit lane (lane >= width), the first piece in the top lane.
    ValueError at the first block that holds a non-bit character."""
    step = max(1, _BLOCK_BITS // width) * width
    for lo in range(0, end, step):
        block = text[lo:min(lo + step, end)]
        count = len(block) // width
        try:
            if _int_lenient(block):
                raise ValueError
            p = int(_relane(block.encode(), width, lane, count), 2)
        except ValueError:
            raise ValueError("input is not a clean bit string") from None
        yield p, count


def _pieces(text: str, width: int, end: int):
    """The values of the consecutive width-bit pieces of text[:end], where
    end is a multiple of width and width <= 16: a list per block of
    `_lanes`, read from its 16-bit lanes."""
    for p, count in _lanes(text, width, 16, end):
        yield _unpack(p, "H", count)[::-1].tolist()  # first piece on top


def flag_codeword(k: int, n: int) -> str:
    """Flag codeword for class `k` at symbol width `n`."""
    if not 0 <= k <= n:
        raise ValueError(f"class must be in [0, {n}], got {k}")
    return "1" + "0" * (n - k)


def flag_encode(classes, n: int) -> str:
    """Concatenated flag codewords for a sequence of classes."""
    return "".join(flag_codeword(k, n) for k in classes)


def flag_decode(bits: str, n: int) -> list[int]:
    """Split a flag stream back into classes; exact inverse of flag_encode."""
    if not bits:
        return []
    runs = bits.split("1")
    if runs[0]:
        raise MalformedFlagError("flag stream must start with '1'")
    classes = []
    for zeros in runs[1:]:
        if zeros.strip("0"):
            raise MalformedFlagError(
                f"flag codeword {'1' + zeros!r} is not a clean bit string")
        if len(zeros) > n:
            raise MalformedFlagError(
                f"flag codeword has {len(zeros)} trailing zeros, max {n}")
        classes.append(n - len(zeros))
    return classes


@dataclass(frozen=True)
class Codebook:
    """Immutable bijection from N-bit symbols to (codeword, class) pairs.

    `class_width` maps each class to its codeword bit length: the class
    value itself for mv2/clone books, ceil(log2 C(N, K)) for binomial.
    Treat all mappings as read-only; the derived lookup tables are built
    once on first use.

    A round reads the bijection through one table per direction and g,
    the number of symbols it looks up at a time (see `_group_size`).
    `_encode_table(g)` lists the core and flags of every sequence of g
    symbols, indexed by the sequence's g*N-bit value, as the lane reader
    (`_pieces`) reads it; the reference path reads `encode_map` and
    `flag_codeword` instead. `_decode_table(g)` maps a flag key to a
    core width token such as "3s" and to {core bytes: symbols}, so decode
    can cut each window's core with one `struct.Struct`. A key is a flag
    run (the zeros after a '1', one per class) or, when g >= 2, a group of
    g flag codewords, which starts with '1' where a run does not.
    """

    symbol_width: int
    encode_map: dict[str, tuple[str, int]]
    class_width: dict[int, int]
    multiplicities: dict[int, int]
    seed: int = 0

    @cached_property
    def decode_map(self) -> dict[tuple[int, str], str]:
        return {(k, code): sym for sym, (code, k) in self.encode_map.items()}

    @cached_property
    def _tables(self) -> dict:
        # ("encode" or "decode", g) -> table
        return {}

    def _encode_table(self, g: int) -> list[tuple[str, str]]:
        """(core, flags) of every sequence of g symbols, indexed by the
        sequence's g*N-bit value."""
        table = self._tables.get(("encode", g))
        if table is None:
            n = self.symbol_width
            if g == 1:
                flag = {k: flag_codeword(k, n) for k in self.class_width}
                symbols = chain.from_iterable(_pieces(
                    "".join(self.encode_map), n, n * len(self.encode_map)))
                table = [None] * (1 << n)
                for value, (code, k) in zip(symbols, self.encode_map.values()):
                    table[value] = code, flag[k]
            else:
                one, table = self._encode_table(1), [("", "")]
                for _ in range(g):
                    table = [(c + d, f + e) for c, f in table for d, e in one]
            self._tables["encode", g] = table
        return table

    def _decode_table(self, g: int) -> dict[str, tuple[str, dict[bytes, str]]]:
        """Flag key -> (core width token, {core bytes: symbols}): every flag
        run, and every group of g flag codewords when g >= 2. A class
        without codes has an empty dict; a group holding one is absent."""
        table = self._tables.get(("decode", g))
        if table is None:
            n = self.symbol_width
            run = {k: "0" * (n - k) for k in self.class_width}
            table = {run[k]: (f"{w}s", {}) for k, w in self.class_width.items()}
            for sym, (code, k) in self.encode_map.items():
                table[run[k]][1][code.encode("ascii")] = sym
            if g > 1:
                for s, (c, f) in zip(_all_words(g * n), self._encode_table(g)):
                    if f not in table:
                        table[f] = (f"{len(c)}s", {})
                    table[f][1][c.encode("ascii")] = s
            self._tables["decode", g] = table
        return table


def _check_n(n: int, minimum: int) -> None:
    if not minimum <= n <= MAX_SYMBOL_WIDTH:
        raise ValueError(
            f"symbol width must be in [{minimum}, {MAX_SYMBOL_WIDTH}], got {n}")


@lru_cache(maxsize=MAX_SYMBOL_WIDTH + 1)
def _all_words(width: int) -> tuple[str, ...]:
    """All width-bit words in ascending (lexicographic) order; width 0 has
    the one empty word."""
    if not width:
        return ("",)
    return tuple(format(i, f"0{width}b") for i in range(1 << width))


# room for every mv2 and every binomial code list at once
@lru_cache(maxsize=2 * MAX_SYMBOL_WIDTH)
def _code_list(sizes: tuple[tuple[int, int], ...],
               widths: tuple[int, ...]) -> tuple[tuple[str, int], ...]:
    """(code, class) pairs: for each (class K, size M_K) in order, the
    first M_K words of K's width in lexicographic order."""
    return tuple((code, k) for (k, m), w in zip(sizes, widths)
                 for code in _all_words(w)[:m])


def _codebook(n: int, sizes: dict[int, int], widths: dict[int, int],
              symbols, seed: int = 0, codes=None) -> Codebook:
    """The one core+flag codebook rule: `symbols`, keyed-shuffled when
    seed != 0, paired by position with the code list of `sizes` and
    `widths` (`_code_list`), or with `codes` when given."""
    if codes is None:
        codes = _code_list(tuple(sizes.items()), tuple(widths.values()))
    if seed:
        symbols = keyed_shuffle(symbols, seed)
    return Codebook(n, dict(zip(symbols, codes)), widths, sizes, seed)


def build_mv2_codebook(n: int, seed: int = 0) -> Codebook:
    """MV2 codebook: the clone book of class sizes 2, 4, ..., 2^(n-1), 2,
    keyed by `seed`.

    One exception: at n=2, class 2 holds the codes 00 and 11, and seed 0
    is the preset table 00->0, 01->00, 10->11, 11->1 (the symbol order
    00, 11, 01, 10). Wider books at seed 0 pair the symbols in order.
    """
    _check_n(n, 2)
    sizes = {k: 1 << k for k in range(1, n)}
    sizes[n] = 2
    symbols, codes = _all_words(n), None
    if n == 2:
        codes = (("0", 1), ("1", 1), ("00", 2), ("11", 2))
        if not seed:
            symbols = ("00", "11", "01", "10")
    return _codebook(n, sizes, {k: k for k in range(1, n + 1)}, symbols,
                     seed, codes)


def build_clone_codebook(n: int, multiplicities, seed: int = 0) -> Codebook:
    """Clone codebook with `multiplicities[k-1]` codes of each length k.

    Feasibility: the multiplicities must be integers that sum to 2^n, and
    no class may hold more than 2^k codes. Class k takes its
    lexicographically first multiplicities[k-1] words; the symbols in
    ascending order, shuffled when seed != 0, are paired with those codes
    by position.
    """
    _check_n(n, 1)
    try:
        mults = [index(m) for m in multiplicities]
    except TypeError:
        raise InfeasibleMultiplicitiesError(
            f"multiplicities must be integers, got {multiplicities!r}") from None
    if len(mults) != n:
        raise InfeasibleMultiplicitiesError(
            f"expected {n} multiplicities, got {len(mults)}")
    if any(m < 0 for m in mults):
        raise InfeasibleMultiplicitiesError(f"negative multiplicity in {mults}")
    if sum(mults) != 1 << n:
        raise InfeasibleMultiplicitiesError(
            f"multiplicities sum to {sum(mults)}, need {1 << n}")
    for k, m in enumerate(mults, start=1):
        if m > 1 << k:
            raise ClassOverflowError(
                f"class {k} holds {m} codes, only {1 << k} {k}-bit words exist")
    return _codebook(n, dict(enumerate(mults, start=1)),
                     {k: k for k in range(1, n + 1)}, _all_words(n), seed)


def build_binomial_codebook(n: int) -> Codebook:
    """Binomial codebook: class = popcount, code = fixed-width combinadic
    rank, so singleton classes emit nothing.

    Class K holds C(n, K) codes of ceil(log2 C(n, K)) bits. The symbols go
    in popcount order; the sort is stable, so a symbol's place in its
    class is its combinadic rank.
    """
    _check_n(n, 1)
    sizes = {k: math.comb(n, k) for k in range(n + 1)}
    widths = {k: (m - 1).bit_length() for k, m in sizes.items()}
    symbols = sorted(_all_words(n), key=lambda sym: sym.count("1"))
    return _codebook(n, sizes, widths, symbols)


def build_codebook(algorithm: str, n: int, seed: int = 0,
                   multiplicities=None) -> Codebook:
    """The codebook of a core+flag algorithm: "mv2", "clone" (which needs
    `multiplicities`) or "binomial" (which takes no seed)."""
    # the builders are looked up by name at each call, so a wrapper put in
    # this module's namespace (bench/tracer.py) sees calls made through here
    if algorithm == "mv2":
        return build_mv2_codebook(n, seed)
    if algorithm == "clone":
        if multiplicities is None:
            raise ValueError(
                "clone codebooks need class multiplicities (--mults M1,...,MN)")
        return build_clone_codebook(n, multiplicities, seed)
    if algorithm == "binomial":
        return build_binomial_codebook(n)
    raise ValueError(f"no codebook for algorithm {algorithm!r}")


@dataclass(frozen=True)
class RoundOutput:
    """Core and flag channels of one recoding round."""

    core: str
    flags: str
    input_bit_length: int


@dataclass(frozen=True)
class MultiRoundOutput:
    """Result of iterated rounds: all flag streams plus the last core.

    `input_bit_lengths[i]` is the true (pre-padding) bit length fed to
    round i, which is exactly what inversion needs to strip pad bits.
    """

    rounds_executed: int
    flags: list[str]
    core: str
    input_bit_lengths: list[int]


def _table_pays(key_bits: int, keys: int) -> bool:
    """Whether `keys` lookups justify a table of 2^key_bits entries: keys
    at most _KEY_BITS wide and at least _TABLE_SHARE lookups per entry.
    The fma chunk table follows the same rule."""
    return key_bits <= _KEY_BITS and _TABLE_SHARE << key_bits <= keys


def _group_size(n: int, symbols: int) -> int:
    """Symbols per table key for a round of `symbols` N-bit symbols: the
    largest g whose g*N-bit table pays (`_table_pays`); 1 when none does,
    since the g = 1 tables are the per-symbol pairs and runs."""
    g = max(1, _KEY_BITS // n)
    while g > 1 and not _table_pays(g * n, symbols):
        g -= 1
    return g


def _encode_symbols(bits: str, cb: Codebook) -> tuple[str, str]:
    """Per-symbol encode, the reference path; KeyError names a bad symbol."""
    n = cb.symbol_width
    encoded = [cb.encode_map[bits[i:i + n]] for i in range(0, len(bits), n)]
    return ("".join(code for code, _ in encoded),
            "".join(flag_codeword(k, n) for _, k in encoded))


def _encode_groups(bits: str, cb: Codebook, g: int) -> tuple[str, str] | None:
    """Table encode of whole g-symbol keys and the tail per symbol: the
    one encode loop at every g. None on a non-bit character."""
    table = cb._encode_table(g)
    key_bits = g * cb.symbol_width
    full = len(bits) - len(bits) % key_bits
    cores, flags = [], []
    try:
        for values in _pieces(bits, key_bits, full):
            pairs = list(map(table.__getitem__, values))
            cores.append("".join(map(_first, pairs)))
            flags.append("".join(map(_second, pairs)))
        tail = _encode_symbols(bits[full:], cb)
    except (ValueError, KeyError):
        return None
    cores.append(tail[0])
    flags.append(tail[1])
    return "".join(cores), "".join(flags)


def encode_round(bits: str, cb: Codebook) -> RoundOutput:
    """Recode one round: `bits` must already be a multiple of the width."""
    n = cb.symbol_width
    if len(bits) % n:
        raise BitAlignmentError(
            f"input length {len(bits)} is not a multiple of {n}")
    channels = _encode_groups(bits, cb, _group_size(n, len(bits) // n))
    if channels is None:
        try:
            channels = _encode_symbols(bits, cb)
        except KeyError as exc:
            raise ValueError(f"input is not a clean bit string: {exc}") from None
    return RoundOutput(core=channels[0], flags=channels[1],
                       input_bit_length=len(bits))


def _decode_symbols(core: str, flags: str, cb: Codebook) -> str:
    """Per-symbol decode, the reference path and the source of every
    decode error."""
    n = cb.symbol_width
    classes = flag_decode(flags, n)
    widths = []
    for k in classes:
        w = cb.class_width.get(k)
        if w is None:
            raise UnknownCodewordError(f"class {k} not present in this codebook")
        widths.append(w)
    if sum(widths) != len(core):
        raise CorruptStreamError(
            f"flags demand {sum(widths)} core bits, core has {len(core)}")
    symbols = []
    pos = 0
    decode_map = cb.decode_map
    for k, w in zip(classes, widths):
        code = core[pos:pos + w]
        pos += w
        sym = decode_map.get((k, code))
        if sym is None:
            raise UnknownCodewordError(f"no symbol for code {code!r} in class {k}")
        symbols.append(sym)
    return "".join(symbols)


def _cut_window(core: str, pos: int, keys: list[str],
                table: dict[str, tuple[str, dict[bytes, str]]]) -> tuple[str, int]:
    """(symbols of a window's `keys`, core position after their codes).

    One `struct.Struct` of the keys' width tokens cuts the core from
    `pos`. Only the window's slice is encoded, and the Struct, 32 bytes
    per key, is dropped before the lookups; the caller's decode loop
    holds none of this between windows.
    """
    entries = list(map(table.__getitem__, keys))
    cut = struct.Struct("".join(map(_first, entries)))
    end = pos + cut.size
    codes = cut.unpack(core[pos:end].encode("ascii"))
    del cut
    return "".join(map(getitem, map(_second, entries), codes)), end


def _decode_groups(core: str, flags: str, cb: Codebook, g: int) -> str | None:
    """Window decode: the one decode loop at every g.

    The flag stream is cut into windows of about _BLOCK_BITS bits that end
    before a '1', so each holds whole codewords. A window's keys are its
    whole groups of g codewords when g >= 2, then its flag runs;
    `_cut_window` cuts the window's core with one struct unpack. None when
    a window does not parse, a lookup misses, the core is too short or not
    ASCII, or core bits are left over; the caller then reruns the round
    per symbol.
    """
    table = cb._decode_table(g)
    if g > 1:
        find_groups = re.compile(f"(?:10{{0,{cb.symbol_width}}}){{{g}}}").findall
    out = []
    start = pos = 0
    try:
        while start < len(flags):
            end = flags.find("1", start + _BLOCK_BITS)
            if end < 0:
                end = len(flags)
            keys = []
            if g > 1:
                keys = find_groups(flags, start, end)
                matched = "".join(keys)
                if not flags.startswith(matched, start):
                    return None
                start += len(matched)
            runs = flags[start:end].split("1")
            if runs[0]:
                return None
            keys += islice(runs, 1, None)
            del runs  # would hold this window's run strings into the next
            symbols, pos = _cut_window(core, pos, keys, table)
            out.append(symbols)
            start = end
    except (KeyError, struct.error, UnicodeEncodeError):
        return None
    return "".join(out) if pos == len(core) else None


def decode_round(core: str, flags: str, cb: Codebook) -> str:
    """Invert one round from its two channels."""
    g = _group_size(cb.symbol_width, flags.count("1"))
    symbols = _decode_groups(core, flags, cb, g)
    if symbols is None:
        symbols = _decode_symbols(core, flags, cb)
    return symbols


def transform(bits: str, cb: Codebook, rounds: int) -> MultiRoundOutput:
    """Run up to `rounds` rounds, each feeding the previous core.

    Inputs are zero-padded on the right to a symbol boundary before every
    round, with the true length recorded; iteration stops early once a
    core comes out empty.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    n = cb.symbol_width
    flag_streams = []
    true_lengths = []
    current = bits
    for _ in range(rounds):
        true_lengths.append(len(current))
        padded = current + "0" * (-len(current) % n)
        out = encode_round(padded, cb)
        flag_streams.append(out.flags)
        current = out.core
        if not current:
            break
    return MultiRoundOutput(rounds_executed=len(flag_streams),
                            flags=flag_streams,
                            core=current,
                            input_bit_lengths=true_lengths)


def inverse_transform(out: MultiRoundOutput, cb: Codebook) -> str:
    """Recover the exact original bit string from a transform output."""
    r = out.rounds_executed
    if r < 1:
        raise ValueError(f"rounds_executed must be >= 1, got {r}")
    if len(out.flags) != r or len(out.input_bit_lengths) != r:
        raise CorruptStreamError(
            f"expected {r} flag streams and lengths, got "
            f"{len(out.flags)} and {len(out.input_bit_lengths)}")
    current = out.core
    for i in range(r - 1, -1, -1):
        padded = decode_round(current, out.flags[i], cb)
        true_len = out.input_bit_lengths[i]
        if not true_len <= len(padded) < true_len + cb.symbol_width:
            raise CorruptStreamError(
                f"round {i + 1} decodes to {len(padded)} bits, "
                f"recorded true length {true_len}")
        if padded[true_len:].strip("0"):
            raise CorruptStreamError(f"round {i + 1} padding bits are not zero")
        current = padded[:true_len]
    return current


@dataclass(frozen=True)
class ChannelStats:
    """Bit-level statistics of the two channels of a transform output."""

    input_bits: int
    core_bits: int
    flag_bits: int
    core_zero_fraction: float
    core_one_fraction: float
    flag_zero_fraction: float
    flag_one_fraction: float
    core_entropy: float
    flag_entropy: float


def _bit_profile(bits: str) -> tuple[float, float, float]:
    if not bits:
        return 0.0, 0.0, 0.0
    zeros = bits.count("0")
    p0 = zeros / len(bits)
    p1 = 1.0 - p0
    entropy = 0.0
    for p in (p0, p1):
        if p > 0.0:
            entropy -= p * math.log2(p)
    return p0, p1, entropy


def channel_stats(out: MultiRoundOutput, input_bit_length: int) -> ChannelStats:
    """First-order 0/1 statistics of the final core and all flags combined."""
    all_flags = "".join(out.flags)
    core0, core1, core_h = _bit_profile(out.core)
    flag0, flag1, flag_h = _bit_profile(all_flags)
    return ChannelStats(
        input_bits=input_bit_length,
        core_bits=len(out.core),
        flag_bits=len(all_flags),
        core_zero_fraction=core0,
        core_one_fraction=core1,
        flag_zero_fraction=flag0,
        flag_one_fraction=flag1,
        core_entropy=core_h,
        flag_entropy=flag_h,
    )
