import pytest

from gpncodec import bitio, codec, fma, multichannel
from gpncodec.errors import ContainerFormatError


def _must_not_run(*args, **kwargs):
    raise AssertionError("encoding started before the parameters were checked")


class TestContainerLimits:
    @pytest.mark.parametrize("params, message", [
        ({"algorithm": "fma", "n": 4, "m": bitio.MAX_TARGET_WIDTH + 1},
         "target width must be in"),
        ({"algorithm": "mv2", "n": 2, "rounds": bitio.MAX_ROUNDS + 1},
         "rounds must be in"),
        ({"algorithm": "binomial", "n": 8, "rounds": bitio.MAX_ROUNDS + 1},
         "rounds must be in"),
        ({"algorithm": "clone", "n": 3, "multiplicities": [1, 3, 4.5]},
         "multiplicities must be integers"),
        ({"algorithm": "clone", "n": 3, "multiplicities": ["1", "3", "4"]},
         "multiplicities must be integers"),
        ({"algorithm": "fma", "n": 4, "seed": -1, "policy": "keyed"},
         "seed must fit in 64 bits"),
        ({"algorithm": "fma", "n": 4, "seed": 1 << 64, "policy": "keyed"},
         "seed must fit in 64 bits"),
        ({"algorithm": "mv2", "n": 2, "seed": -1, "rounds": 2},
         "seed must fit in 64 bits"),
        ({"algorithm": "mv2", "n": 2, "seed": 1 << 64, "rounds": 2},
         "seed must fit in 64 bits"),
    ])
    def test_rejected_before_encoding(self, monkeypatch, params, message):
        monkeypatch.setattr(fma, "fma_encode", _must_not_run)
        monkeypatch.setattr(multichannel, "transform", _must_not_run)
        with pytest.raises(ValueError, match=message):
            codec.encode_parts("01" * 64, **params)

    def test_limits_themselves_are_accepted(self):
        bits = "0110" * 8
        for params in ({"algorithm": "fma", "n": 4, "m": bitio.MAX_TARGET_WIDTH},
                       {"algorithm": "mv2", "n": 2, "rounds": bitio.MAX_ROUNDS}):
            blob = codec.encode_to_container(bits, **params)
            assert codec.decode_from_container(blob) == bits


class _Four:
    def __index__(self):
        return 4


class TestCloneMultiplicities:
    @pytest.mark.parametrize("mults", [
        (1, 3, _Four()), (m for m in (1, 3, 4)), [True, 3, 4]])
    def test_container_records_the_validated_ints(self, mults):
        meta, flags, core = codec.encode_parts("01" * 30, algorithm="clone", n=3,
                                               multiplicities=mults)
        assert meta.multiplicities == (1, 3, 4)
        assert all(type(m) is int for m in meta.multiplicities)
        blob = bitio.write_container(meta, flags, core)
        assert codec.decode_from_container(blob) == "01" * 30


class TestDecodeRejection:
    @pytest.mark.parametrize("meta, flags, message", [
        (bitio.ContainerMeta(algorithm="clone", n=3, rounds=1,
                             round_input_lengths=(0,), multiplicities=(1, 1, 1)),
         [""], "multiplicities sum to 3, need 8"),
        (bitio.ContainerMeta(algorithm="fma", n=8, m=3), [],
         "width 3 cannot represent every 8-bit value"),
    ])
    def test_parameters_a_coder_rejects(self, meta, flags, message):
        blob = bitio.write_container(meta, flags, "")
        with pytest.raises(ContainerFormatError, match=message):
            codec.decode_from_container(blob)
