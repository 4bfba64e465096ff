import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert unpack_bits(b"\xb0") == "10110000"
        assert unpack_bits(b"\xb0", 4) == "1011"

    @given(st.text(alphabet="01", max_size=400))
    def test_pack_unpack_roundtrip(self, bits):
        assert unpack_bits(pack_bits(bits), len(bits)) == bits


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
