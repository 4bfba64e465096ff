"""Bit string <-> container pipelines shared by the CLI and tests.

Every parameter a decoder needs travels inside the container, so decoding
takes nothing but bytes. Parameter values that fail codebook or config
validation on the way back in are reported as container errors: at that
point they describe untrusted data, not caller arguments.
"""

from . import bitio, fma, multichannel
from .errors import ContainerFormatError


def encode_parts(bits: str, *, algorithm: str, n: int, seed: int = 0,
                 rounds: int = 1, multiplicities=None, m: int = 0,
                 policy: str = "canonical"):
    """Encode to (meta, flag streams, core/payload), ready for serialization.

    Parameters the container cannot hold are rejected before any encoding.
    """
    if algorithm == "fma":
        target = m if m else fma.min_width(n)
        cfg = fma.FmaConfig(chunk_width=n, target_width=target,
                            policy=policy, seed=seed)
        bitio.check_target_width(cfg.target_width)
        stream = fma.fma_encode(bits, cfg)
        meta = bitio.ContainerMeta(
            algorithm="fma", n=n, seed=seed, m=cfg.target_width, policy=policy,
            original_bit_length=stream.original_bit_length)
        return meta, [], stream.payload
    if algorithm == "mv2":
        cb = multichannel.build_mv2_codebook(n, seed)
    elif algorithm == "clone":
        if multiplicities is None:
            raise ValueError("clone encoding needs class multiplicities")
        cb = multichannel.build_clone_codebook(n, multiplicities, seed)
    elif algorithm == "binomial":
        cb = multichannel.build_binomial_codebook(n)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    bitio.check_rounds(rounds)
    out = multichannel.transform(bits, cb, rounds)
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
        if meta.algorithm == "fma":
            cfg = fma.FmaConfig(chunk_width=meta.n, target_width=meta.m,
                                policy=meta.policy, seed=meta.seed)
        elif meta.algorithm == "mv2":
            cb = multichannel.build_mv2_codebook(meta.n, meta.seed)
        elif meta.algorithm == "clone":
            cb = multichannel.build_clone_codebook(
                meta.n, meta.multiplicities, meta.seed)
        else:
            cb = multichannel.build_binomial_codebook(meta.n)
    except ValueError as exc:
        raise ContainerFormatError(f"container parameters rejected: {exc}") from exc
    if meta.algorithm == "fma":
        stream = fma.FmaStream(chunks_encoded=len(payload) // meta.m,
                               payload=payload,
                               original_bit_length=meta.original_bit_length)
        return fma.fma_decode(stream, cfg)
    out = multichannel.MultiRoundOutput(
        rounds_executed=meta.rounds,
        flags=list(flag_streams),
        core=payload,
        input_bit_lengths=list(meta.round_input_lengths))
    return multichannel.inverse_transform(out, cb)


def decode_from_container(data: bytes) -> str:
    meta, flag_streams, payload = bitio.read_container(data)
    return decode_parts(meta, flag_streams, payload)
