import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpncodec import codec
from gpncodec.bitio import (
    ContainerMeta,
    pack_bits,
    read_container,
    unpack_bits,
    write_container,
)
from gpncodec.errors import (
    BadMagicError,
    BadVersionError,
    ContainerError,
    ContainerFormatError,
    LengthOverflowError,
    TruncatedSectionError,
)

# the two-round width-2 walkthrough, serialized; every byte verified by hand
WALKTHROUGH_META = ContainerMeta(algorithm="mv2", n=2, seed=0, rounds=2,
                                 round_input_lengths=(12, 8))
WALKTHROUGH_FLAGS = ["1010101011", "10101010"]
WALKTHROUGH_CORE = "0100"
WALKTHROUGH_HEX = (
    "47504e43" "01" "00" "02" "0000000000000000" "02"
    "0c00000000000000"
    "0800000000000000"
    "0a00000000000000" "aac0"
    "0800000000000000" "aa"
    "0400000000000000" "40"
)


def random_bits(rng, max_len=200):
    return "".join(rng.choice("01") for _ in range(rng.randint(0, max_len)))


class TestBitOrder:
    def test_msb_first_golden(self):
        assert pack_bits("10110000") == b"\xb0"

    def test_partial_byte_zero_padded(self):
        assert pack_bits("101") == b"\xa0"

    def test_reader_matches_writer(self):
        assert unpack_bits(b"\xb0") == "10110000"

    def test_reader_respects_declared_length(self):
        assert unpack_bits(b"\xa0", 3) == "101"
        assert unpack_bits(b"\xa0", 0) == ""

    def test_reader_rejects_overdeclared_length(self):
        with pytest.raises(LengthOverflowError):
            unpack_bits(b"\xff", 9)
        with pytest.raises(LengthOverflowError):
            unpack_bits(b"", 1)

    def test_writer_reader_roundtrip(self):
        rng = random.Random(7)
        for _ in range(200):
            bits = random_bits(rng)
            data = pack_bits(bits)
            assert len(data) == (len(bits) + 7) // 8
            assert unpack_bits(data, len(bits)) == bits

    def test_pack_golden(self):
        assert pack_bits("10110000") == b"\xb0"
        assert pack_bits("") == b""
        assert unpack_bits(b"") == unpack_bits(b"", 0) == ""
        assert unpack_bits(b"\xb0") == "10110000"
        assert unpack_bits(b"\xb0", 4) == "1011"

    @given(st.text(alphabet="01", max_size=400))
    def test_pack_unpack_roundtrip(self, bits):
        assert unpack_bits(pack_bits(bits), len(bits)) == bits

    @pytest.mark.parametrize(
        "bits", ["0b1", "0B1", " 1", "1_01", "+1", "1111111 ", "\u0661"])
    def test_writer_rejects_what_int_reads_leniently(self, bits):
        # int(_, 2) reads each of these, "0b1" as 1 and so as the byte b" "
        with pytest.raises(ValueError, match="input is not a clean bit string"):
            pack_bits(bits)

    def test_reader_rejects_negative_length(self):
        with pytest.raises(ValueError, match="nonnegative"):
            unpack_bits(b"\xff", -1)

    @given(st.binary(max_size=64), st.integers(0, 3), st.data())
    def test_unpack_matches_per_byte_reference(self, data, zeros, draw):
        # leading zero bytes must keep their eight bits each
        data = bytes(zeros) + data
        bits = "".join(format(byte, "08b") for byte in data)
        assert unpack_bits(data) == bits
        length = draw.draw(st.integers(0, len(bits)), label="bit_length")
        assert unpack_bits(data, length) == bits[:length]


class TestContainerGolden:
    def test_serializes_to_frozen_bytes(self):
        data = write_container(WALKTHROUGH_META, WALKTHROUGH_FLAGS, WALKTHROUGH_CORE)
        assert data.hex() == WALKTHROUGH_HEX

    def test_parses_back(self):
        meta, flags, core = read_container(bytes.fromhex(WALKTHROUGH_HEX))
        assert meta == WALKTHROUGH_META
        assert flags == WALKTHROUGH_FLAGS
        assert core == WALKTHROUGH_CORE


class TestContainerRoundtrip:
    def test_mv2_family_fuzz(self):
        rng = random.Random(1234)
        for _ in range(200):
            algorithm = rng.choice(["mv2", "clone", "binomial"])
            n = rng.randint(2 if algorithm == "mv2" else 1, 16)
            rounds = rng.randint(1, 6)
            meta = ContainerMeta(
                algorithm=algorithm, n=n, seed=rng.getrandbits(64), rounds=rounds,
                round_input_lengths=tuple(rng.randint(0, 10 ** 9)
                                          for _ in range(rounds)),
                multiplicities=tuple(rng.randint(0, 2 ** 32 - 1) for _ in range(n))
                if algorithm == "clone" else (),
            )
            flags = [random_bits(rng) for _ in range(rounds)]
            core = random_bits(rng)
            meta2, flags2, core2 = read_container(write_container(meta, flags, core))
            assert (meta2, flags2, core2) == (meta, flags, core)

    def test_fma_fuzz(self):
        rng = random.Random(4321)
        for _ in range(200):
            meta = ContainerMeta(
                algorithm="fma", n=rng.randint(1, 16), seed=rng.getrandbits(64),
                m=rng.randint(1, 255), policy=rng.choice(["canonical", "keyed"]),
                original_bit_length=rng.randint(0, 10 ** 12))
            payload = random_bits(rng)
            meta2, flags2, payload2 = read_container(write_container(meta, [], payload))
            assert (meta2, flags2, payload2) == (meta, [], payload)

    def test_mebibyte_payload_byte_exact(self):
        rng = random.Random(5)
        nbits = 8 * (1 << 20)
        payload = format(rng.getrandbits(nbits), f"0{nbits}b")
        meta = ContainerMeta(algorithm="binomial", n=4, rounds=1,
                             round_input_lengths=(nbits,))
        data = write_container(meta, [random_bits(rng)], payload)
        assert read_container(data)[2] == payload


class TestWriteValidation:
    def test_rejects_zero_rounds(self):
        meta = ContainerMeta(algorithm="mv2", n=2, rounds=0)
        with pytest.raises(ValueError):
            write_container(meta, [], "")

    def test_rejects_flag_count_mismatch(self):
        meta = ContainerMeta(algorithm="mv2", n=2, rounds=2,
                             round_input_lengths=(4, 2))
        with pytest.raises(ValueError):
            write_container(meta, ["10"], "0")

    def test_rejects_length_count_mismatch(self):
        meta = ContainerMeta(algorithm="mv2", n=2, rounds=2,
                             round_input_lengths=(4,))
        with pytest.raises(ValueError):
            write_container(meta, ["10", "1"], "0")

    def test_rejects_clone_without_mults(self):
        meta = ContainerMeta(algorithm="clone", n=2, rounds=1,
                             round_input_lengths=(2,))
        with pytest.raises(ValueError):
            write_container(meta, ["1"], "0")

    def test_rejects_fma_with_flags(self):
        meta = ContainerMeta(algorithm="fma", n=2, m=3)
        with pytest.raises(ValueError):
            write_container(meta, ["1"], "0")

    @pytest.mark.parametrize("flags, payload", [(["0b1"], "0"), (["1"], "0b1")])
    def test_rejects_lenient_bit_strings(self, flags, payload):
        # a "0b1" flag section would otherwise read back as "001"
        meta = ContainerMeta(algorithm="mv2", n=2, rounds=1,
                             round_input_lengths=(2,))
        with pytest.raises(ValueError, match="input is not a clean bit string"):
            write_container(meta, flags, payload)

    @pytest.mark.parametrize("meta, message", [
        (ContainerMeta(algorithm="mv2", n=2, seed=1 << 64, rounds=1,
                       round_input_lengths=(2,)), "seed must fit in 64 bits"),
        (ContainerMeta(algorithm="mv2", n=2, seed=-1, rounds=1,
                       round_input_lengths=(2,)), "seed must fit in 64 bits"),
        (ContainerMeta(algorithm="fma", n=2, m=3, policy="random"),
         "unknown policy 'random'"),
        (ContainerMeta(algorithm="fma", n=2, m=3, original_bit_length=-1),
         "original bit length must be nonnegative"),
        (ContainerMeta(algorithm="mv2", n=2, rounds=1, round_input_lengths=(-2,)),
         "round lengths must be nonnegative"),
        (ContainerMeta(algorithm="clone", n=2, rounds=1, round_input_lengths=(2,),
                       multiplicities=(1, 1 << 32)), "multiplicities must fit in 32 bits"),
        (ContainerMeta(algorithm="clone", n=2, rounds=1, round_input_lengths=(2,),
                       multiplicities=(-1, 5)), "multiplicities must fit in 32 bits"),
        (ContainerMeta(algorithm="fma", n=2, m=3, original_bit_length=1 << 64),
         "original bit length must be nonnegative and fit in 64 bits"),
        (ContainerMeta(algorithm="mv2", n=2, rounds=1, round_input_lengths=(1 << 64,)),
         "round lengths must be nonnegative and fit in 64 bits"),
    ])
    def test_rejects_fields_out_of_range(self, meta, message):
        flags = [] if meta.algorithm == "fma" else ["1"]
        with pytest.raises(ValueError, match=message):
            write_container(meta, flags, "0")

    def test_rejects_unknown_algorithm(self):
        meta = ContainerMeta(algorithm="zip", n=2, rounds=1,
                             round_input_lengths=(2,))
        with pytest.raises(ValueError):
            write_container(meta, ["1"], "0")


class TestReadRejection:
    def golden(self):
        return bytearray(bytes.fromhex(WALKTHROUGH_HEX))

    def test_every_truncation_rejected(self):
        data = self.golden()
        for cut in range(len(data)):
            with pytest.raises(ContainerError):
                read_container(bytes(data[:cut]))

    def test_bad_magic(self):
        data = self.golden()
        data[0] ^= 0xFF
        with pytest.raises(BadMagicError):
            read_container(bytes(data))

    def test_bad_version(self):
        data = self.golden()
        data[4] = 9
        with pytest.raises(BadVersionError):
            read_container(bytes(data))

    def test_bad_algorithm_id(self):
        data = self.golden()
        data[5] = 200
        with pytest.raises(ContainerFormatError):
            read_container(bytes(data))

    def test_bad_width(self):
        data = self.golden()
        data[6] = 0
        with pytest.raises(ContainerFormatError):
            read_container(bytes(data))
        data[6] = 1  # too small for mv2
        with pytest.raises(ContainerFormatError):
            read_container(bytes(data))

    def test_zero_rounds(self):
        data = self.golden()
        data[15] = 0
        with pytest.raises(ContainerFormatError):
            read_container(bytes(data))

    def test_section_length_overflow(self):
        data = self.golden()
        data[32 + 7] = 0xFF  # top byte of the first flag section bit length
        with pytest.raises(LengthOverflowError):
            read_container(bytes(data))

    def test_nonzero_section_padding(self):
        data = self.golden()
        data[-1] |= 0x01  # core "0100" + junk in the pad bits
        with pytest.raises(ContainerFormatError):
            read_container(bytes(data))

    def test_trailing_bytes(self):
        with pytest.raises(ContainerFormatError):
            read_container(bytes(self.golden()) + b"\x00")

    def test_empty_input(self):
        with pytest.raises(TruncatedSectionError):
            read_container(b"")

    @pytest.mark.parametrize("meta, offset, field, value", [
        (WALKTHROUGH_META, 6, "n", 17),
        # three multiplicities follow the count byte at offset 15
        (ContainerMeta(algorithm="clone", n=3, rounds=1, round_input_lengths=(3,),
                       multiplicities=(2, 2, 4)), 6, "n", 2),
        (ContainerMeta(algorithm="fma", n=4, m=6), 15, "m", 0),
    ], ids=["width-17", "clone-count-not-n", "fma-width-0"])
    def test_header_rules_shared_with_writer(self, meta, offset, field, value):
        flags = ["1"] * meta.rounds
        data = bytearray(write_container(meta, flags, "0"))
        data[offset] = value
        with pytest.raises(ContainerFormatError):
            read_container(bytes(data))
        with pytest.raises(ValueError):
            write_container(replace(meta, **{field: value}), flags, "0")

    def test_unknown_policy_id(self):
        data = bytearray(write_container(
            ContainerMeta(algorithm="fma", n=4, m=6, policy="keyed"), [], "0"))
        assert data[16] == 1
        data[16] = 2
        with pytest.raises(ContainerFormatError):
            read_container(bytes(data))


# the six base containers of acceptance criterion 10
FUZZ_BASES = [
    dict(algorithm="mv2", n=2, seed=0, rounds=2),
    dict(algorithm="mv2", n=5, seed=123, rounds=3),
    dict(algorithm="clone", n=3, seed=9, rounds=2, multiplicities=(1, 3, 4)),
    dict(algorithm="binomial", n=4, rounds=2),
    dict(algorithm="fma", n=3, seed=0),
    dict(algorithm="fma", n=4, m=8, policy="keyed", seed=77),
]


class TestErrorLocation:
    def located(self, data):
        """(field, offset) of read_container's error on `data`, or None."""
        try:
            read_container(data)
        except ContainerError as exc:
            assert isinstance(exc.field, str)
            assert 0 <= exc.offset <= len(data)
            return exc.field, exc.offset
        return None

    @pytest.mark.parametrize("params", FUZZ_BASES,
                             ids=[f"{p['algorithm']}-{p['n']}" for p in FUZZ_BASES])
    def test_every_truncation_and_byte_flip(self, params):
        rng = random.Random(0xF00D)
        data = codec.encode_to_container(random_bits(rng, 256), **params)
        located = 0
        for cut in range(len(data)):
            assert self.located(data[:cut]) is not None
        for i in range(len(data)):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(data)
                damaged[i] ^= mask
                located += self.located(bytes(damaged)) is not None
        assert located

    def test_named_fields(self):
        data = bytes.fromhex(WALKTHROUGH_HEX)
        assert self.located(b"") == ("magic", 0)
        assert self.located(b"XPNC" + data[4:]) == ("magic", 0)
        assert self.located(data[:4] + b"\x09" + data[5:]) == ("version", 4)
        assert self.located(data[:5] + b"\xc8" + data[6:]) == ("algorithm id", 5)
        assert self.located(data[:15] + b"\x00" + data[16:]) == ("header", 16)
        assert self.located(data[:20]) == ("round 1 length", 16)
        assert self.located(data + b"\x00") == ("trailing bytes", len(data))
        assert self.located(data[:-1] + b"\x41") == ("core section", len(data) - 1)

    def test_errors_outside_the_reader_carry_no_location(self):
        with pytest.raises(LengthOverflowError) as info:
            unpack_bits(b"\x00", 9)
        assert (info.value.field, info.value.offset) == (None, None)
        assert str(info.value) == "declared 9 bits, buffer holds 8"
