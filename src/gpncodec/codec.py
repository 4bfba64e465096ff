"""Bit string <-> container pipelines shared by the CLI and tests.

Every parameter a decoder needs travels inside the container, so decoding
takes nothing but bytes. Parameter values that fail codebook or config
validation on the way back in are reported as container errors: at that
point they describe untrusted data, not caller arguments.
"""

from . import bitio, fma, multichannel
from .errors import ContainerFormatError


def _coder(algorithm: str, n: int, seed: int, multiplicities, m: int,
           policy: str):
    """The FmaConfig for fma, else the algorithm's Codebook; m = 0 picks
    the minimal fma target width."""
    if algorithm == "fma":
        return fma.FmaConfig(chunk_width=n, target_width=m, policy=policy,
                             seed=seed)
    return multichannel.build_codebook(algorithm, n, seed, multiplicities)


def encode_parts(bits: str, *, algorithm: str, n: int, seed: int = 0,
                 rounds: int = 1, multiplicities=None, m: int = 0,
                 policy: str = "canonical"):
    """Encode to (meta, flag streams, core/payload), ready for serialization.

    Parameters the container cannot hold are rejected before any encoding.
    """
    coder = _coder(algorithm, n, seed, multiplicities, m, policy)
    if algorithm == "fma":
        bitio.check_target_width(coder.target_width)
        stream = fma.fma_encode(bits, coder)
        meta = bitio.ContainerMeta(
            algorithm="fma", n=n, seed=seed, m=coder.target_width, policy=policy,
            original_bit_length=stream.original_bit_length)
        return meta, [], stream.payload
    bitio.check_rounds(rounds)
    out = multichannel.transform(bits, coder, rounds)
    meta = bitio.ContainerMeta(
        algorithm=algorithm, n=n, seed=seed, rounds=out.rounds_executed,
        round_input_lengths=tuple(out.input_bit_lengths),
        multiplicities=tuple(multiplicities) if algorithm == "clone" else ())
    return meta, out.flags, out.core


def encode_to_container(bits: str, **params) -> bytes:
    meta, flag_streams, payload = encode_parts(bits, **params)
    return bitio.write_container(meta, flag_streams, payload)


def decode_parts(meta: bitio.ContainerMeta, flag_streams, payload: str) -> str:
    """Invert encode_parts using only what the container carries."""
    try:
        coder = _coder(meta.algorithm, meta.n, meta.seed, meta.multiplicities,
                       meta.m, meta.policy)
    except ValueError as exc:
        raise ContainerFormatError(f"container parameters rejected: {exc}") from exc
    if meta.algorithm == "fma":
        return fma.fma_decode(
            fma.FmaStream(payload, meta.original_bit_length), coder)
    out = multichannel.MultiRoundOutput(
        rounds_executed=meta.rounds,
        flags=list(flag_streams),
        core=payload,
        input_bit_lengths=list(meta.round_input_lengths))
    return multichannel.inverse_transform(out, coder)


def decode_from_container(data: bytes) -> str:
    meta, flag_streams, payload = bitio.read_container(data)
    return decode_parts(meta, flag_streams, payload)
