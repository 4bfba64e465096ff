"""Generalized positional numeration systems and multichannel bit recoding.

The package splits into:

* :mod:`gpncodec.compositions` -- integer decompositions and the
  max-product criterion that ranks weight systems.
* :mod:`gpncodec.gpn` -- weight systems, word evaluation, plural
  representation enumeration, combinadic rank/unrank.
* :mod:`gpncodec.multichannel` -- MV2/clone/binomial codebooks and the
  core+flag round machinery.
* :mod:`gpncodec.fma` -- the expanding Fibonacci-weight transform.
* :mod:`gpncodec.bitio` -- MSB-first bit packing and the container format.
* :mod:`gpncodec.cli` -- the ``gpncodec`` command.
"""

from .compositions import (
    Composition,
    Partition,
    ProductReport,
    enumerate_compositions,
    enumerate_partitions,
    max_product_partition,
    product_table,
)
from .gpn import (
    WeightSystem,
    canonical_encode,
    combo_rank,
    combo_unrank,
    evaluate,
    max_value,
    representation_count,
    representations,
    weights,
)
from .multichannel import (
    ChannelStats,
    Codebook,
    MultiRoundOutput,
    RoundOutput,
    build_binomial_codebook,
    build_clone_codebook,
    build_codebook,
    build_mv2_codebook,
    channel_stats,
    decode_round,
    encode_round,
    flag_decode,
    flag_encode,
    inverse_transform,
    transform,
)
from .fma import (
    FIBONACCI,
    FmaConfig,
    FmaStream,
    fma_decode,
    fma_decode_chunk,
    fma_encode,
    fma_encode_chunk,
    min_width,
)
from .bitio import (
    ContainerMeta,
    pack_bits,
    read_container,
    unpack_bits,
    write_container,
)
from .codec import decode_from_container, encode_to_container
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Composition", "Partition", "ProductReport",
    "enumerate_compositions", "enumerate_partitions",
    "max_product_partition", "product_table",
    "WeightSystem", "weights", "evaluate", "max_value",
    "representations", "representation_count", "canonical_encode",
    "combo_rank", "combo_unrank",
    "Codebook", "RoundOutput", "MultiRoundOutput", "ChannelStats",
    "build_mv2_codebook", "build_clone_codebook", "build_binomial_codebook",
    "build_codebook",
    "flag_encode", "flag_decode", "encode_round", "decode_round",
    "transform", "inverse_transform", "channel_stats",
    "FIBONACCI", "FmaConfig", "FmaStream", "min_width",
    "fma_encode_chunk", "fma_decode_chunk", "fma_encode", "fma_decode",
    "ContainerMeta",
    "pack_bits", "unpack_bits", "write_container", "read_container",
    "encode_to_container", "decode_from_container",
    "errors",
    "__version__",
]
