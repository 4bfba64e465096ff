"""Correctness checks that do not trust gpncodec's own output.

Everything here is written from the README: the container field table,
the SplitMix64 constants, the Fibonacci weights and the flag codeword
rule. Nothing is imported from the package, so a fault in the codec
cannot hide in a shared helper.
"""

import math
import struct

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_ALGO_IDS = {"mv2": 0, "clone": 1, "binomial": 2, "fma": 3}
_MASK64 = (1 << 64) - 1

# The README's two-round walkthrough container, field by field.
WALKTHROUGH_BITS = "000011110101"
WALKTHROUGH_PARAMS = {"algorithm": "mv2", "n": 2, "rounds": 2}
WALKTHROUGH_CONTAINER = bytes.fromhex(
    "47504e43" "01" "00" "02" "0000000000000000" "02"
    "0c00000000000000" "0800000000000000"
    "0a00000000000000" "aac0"
    "0800000000000000" "aa"
    "0400000000000000" "40")

# How many keyed fma chunks per item are compared with the brute-force list.
KEYED_SAMPLE = 64


class CheckFailed(Exception):
    """An output of the codec is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def splitmix64(state: int):
    """SplitMix64 stream from the README's constants."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def chunk_selector(seed: int, index: int) -> int:
    return next(splitmix64(seed ^ next(splitmix64(index))))


def fibonacci_weights(m: int) -> list[int]:
    w = [1, 1]
    while len(w) < m:
        w.append(w[-1] + w[-2])
    return w[:m]


def fma_width(n: int) -> int:
    """Smallest Fibonacci width whose all-ones word reaches 2^n - 1."""
    m = 1
    while sum(fibonacci_weights(m)) < (1 << n) - 1:
        m += 1
    return m


def bits_of(data: bytes) -> str:
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b") if data else ""


class Container:
    """A container parsed with struct from the README's field table."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0
        require(self._take(4) == b"GPNC", "bad magic")
        require(self._u8() == 1, "bad version")
        algo_id = self._u8()
        names = {v: k for k, v in _ALGO_IDS.items()}
        require(algo_id in names, f"unknown algorithm id {algo_id}")
        self.algorithm = names[algo_id]
        self.n = self._u8()
        self.seed = _U64.unpack(self._take(8))[0]
        self.multiplicities = ()
        self.rounds = 0
        self.round_lengths = []
        if self.algorithm == "fma":
            self.m = self._u8()
            self.policy = {0: "canonical", 1: "keyed"}.get(self._u8())
            require(self.policy is not None, "unknown policy id")
            self.original = _U64.unpack(self._take(8))[0]
        else:
            if self.algorithm == "clone":
                count = self._u8()
                self.multiplicities = tuple(_U32.unpack(self._take(4))[0]
                                            for _ in range(count))
            self.rounds = self._u8()
            self.round_lengths = [_U64.unpack(self._take(8))[0]
                                  for _ in range(self.rounds)]
        self.header_len = self.pos
        self.raw_sections = []
        self.sections = []
        for _ in range(self.rounds + 1):
            start = self.pos
            bit_length = _U64.unpack(self._take(8))[0]
            payload = self._take((bit_length + 7) // 8)
            bits = bits_of(payload)
            require(not bits[bit_length:].strip("0"), "nonzero section padding")
            self.raw_sections.append(blob[start:self.pos])
            self.sections.append(bits[:bit_length])
        require(self.pos == len(blob), "trailing bytes after the last section")

    def _take(self, count: int) -> bytes:
        require(self.pos + count <= len(self.blob), "container is truncated")
        piece = self.blob[self.pos:self.pos + count]
        self.pos += count
        return piece

    def _u8(self) -> int:
        return self._take(1)[0]

    def split(self) -> tuple[bytes, bytes]:
        """The core-only and flags-only containers of a two-channel split."""
        header = self.blob[:self.header_len]
        empty = _U64.pack(0)
        core = header + empty * self.rounds + self.raw_sections[-1]
        flags = header + b"".join(self.raw_sections[:-1]) + empty
        return core, flags


class Checker:
    """Checks one item's container against the parameters asked for."""

    def __init__(self):
        self._fma_tables = {}

    def check_container(self, blob: bytes, data: bytes, params: dict) -> None:
        c = Container(blob)
        algo = params["algorithm"]
        require(c.algorithm == algo, f"algorithm {c.algorithm}, asked {algo}")
        require(c.n == params["n"], f"width {c.n}, asked {params['n']}")
        require(c.seed == params.get("seed", 0), "seed differs from the one asked")
        if algo == "fma":
            self._check_fma(c, data, params)
        else:
            self._check_rounds(c, data, params)

    def _check_rounds(self, c: Container, data: bytes, params: dict) -> None:
        n = c.n
        if c.algorithm == "clone":
            require(c.multiplicities == tuple(params["multiplicities"]),
                    "clone multiplicities differ")
        require(1 <= c.rounds <= params.get("rounds", 1), "round count out of range")
        require(c.round_lengths[0] == 8 * len(data), "round 1 length is not the input")
        cores = c.round_lengths[1:] + [len(c.sections[-1])]
        for i, (true_len, core_len) in enumerate(zip(c.round_lengths, cores)):
            padded = true_len + (-true_len % n)
            require(core_len <= padded, f"round {i + 1} core longer than its input")
        if c.rounds < params.get("rounds", 1):
            require(not cores[-1], "rounds stopped early with a nonempty core")
        flags = c.sections[0]
        symbols = -(-8 * len(data) // n)
        require(flags.count("1") == symbols, "round 1 flags: not one codeword per symbol")
        require(not flags or flags[0] == "1", "round 1 flags do not start with '1'")
        max_zeros = n if c.algorithm == "binomial" else n - 1
        require("0" * (max_zeros + 1) not in flags, "round 1 flags hold a bad codeword")
        if c.algorithm == "binomial":
            classes = _popcounts(data, n)
            words = ["1" + "0" * (n - k) for k in range(n + 1)]
            require(flags == "".join(map(words.__getitem__, classes)),
                    "round 1 binomial classes are not the symbol popcounts")
            widths = [(math.comb(n, k) - 1).bit_length() for k in range(n + 1)]
            require(cores[0] == sum(map(widths.__getitem__, classes)),
                    "round 1 core length disagrees with the binomial classes")
        else:
            class_sum = symbols * (n + 1) - len(flags)
            require(cores[0] == class_sum, "round 1 core length disagrees with its flags")

    def _check_fma(self, c: Container, data: bytes, params: dict) -> None:
        n = c.n
        m = params.get("m") or fma_width(n)
        policy = params.get("policy", "canonical")
        require(c.m == m, f"target width {c.m}, expected {m}")
        require(c.policy == policy, f"policy {c.policy}, asked {policy}")
        require(c.original == 8 * len(data), "original length is not the input")
        bits = bits_of(data)
        bits += "0" * (-len(bits) % n)
        chunks = len(bits) // n
        payload = c.sections[0]
        require(len(payload) == chunks * m, "payload is not one word per chunk")
        word_chunk, reps = self._fma_table(n, m)
        words = [payload[i:i + m] for i in range(0, len(payload), m)]
        try:
            decoded = "".join(map(word_chunk.__getitem__, words))
        except KeyError as exc:
            raise CheckFailed(f"payload word {exc} is no {n}-bit chunk value") from None
        require(decoded == bits, "payload words do not evaluate to their chunks")
        if policy == "keyed":
            step = max(1, chunks // KEYED_SAMPLE)
            for i in range(0, chunks, step):
                options = reps[int(bits[i * n:(i + 1) * n], 2)]
                want = options[chunk_selector(c.seed, i) % len(options)]
                require(words[i] == want, f"keyed chunk {i} is not the selected word")

    def _fma_table(self, n: int, m: int):
        """Word -> chunk bits, and value -> sorted words, by brute force."""
        key = (n, m)
        if key not in self._fma_tables:
            weights = fibonacci_weights(m)[::-1]
            word_chunk = {}
            reps = [[] for _ in range(1 << n)]
            for x in range(1 << m):
                word = format(x, f"0{m}b")
                value = sum(w for w, ch in zip(weights, word) if ch == "1")
                if value < 1 << n:
                    word_chunk[word] = format(value, f"0{n}b")
                    reps[value].append(word)
            self._fma_tables[key] = (word_chunk, reps)
        return self._fma_tables[key]


def _popcounts(data: bytes, n: int) -> list[int]:
    if n == 8:
        return [b.bit_count() for b in data]
    bits = bits_of(data)
    bits += "0" * (-len(bits) % n)
    return [bits.count("1", i, i + n) for i in range(0, len(bits), n)]
