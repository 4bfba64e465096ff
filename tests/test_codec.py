import pytest

from gpncodec import bitio, codec, fma, multichannel


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
