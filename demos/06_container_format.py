"""The on-disk container, down to its bytes.

Everything decode needs (algorithm, width, seed, round lengths, the flag
streams and the core) travels in one byte-exact container. This walk
serializes the two-round example, hexdumps it with annotations, then
parses it back and inverts.

Run: python demos/06_container_format.py
"""

from gpncodec import (
    bitio,
    build_mv2_codebook,
    decode_from_container,
    encode_to_container,
    inverse_transform,
)

bits = "000011110101"
data = encode_to_container(bits, algorithm="mv2", n=2, seed=0, rounds=2)
print(f"{len(data)} bytes for the {len(bits)}-bit input:\n")

fields = [
    (4, "magic 'GPNC'"),
    (1, "version"),
    (1, "algorithm id (0 = mv2)"),
    (1, "symbol width"),
    (8, "seed, little-endian"),
    (1, "round count"),
    (8, "round 1 true input length (12)"),
    (8, "round 2 true input length (8)"),
    (8, "flag section 1 bit length (10)"),
    (2, "flag section 1 bits"),
    (8, "flag section 2 bit length (8)"),
    (1, "flag section 2 bits"),
    (8, "core section bit length (4)"),
    (1, "core section bits"),
]
offset = 0
for size, label in fields:
    chunk = data[offset:offset + size]
    print(f"  {offset:3d}  {chunk.hex():20s} {label}")
    offset += size

meta, flags, core = bitio.read_container(data)
print(f"\nParsed back: {meta}")
print(f"  flags {flags}")
print(f"  core  {core}")
print(f"Decoded: {decode_from_container(data)}")

# a section is its bit length plus the bits packed MSB-first
packed = bitio.pack_bits(core)
print(f"unpack_bits over the packed core: {bitio.unpack_bits(packed, len(core))}")

# inverse_transform accepts the parsed channels directly
from gpncodec import MultiRoundOutput

out = MultiRoundOutput(meta.rounds, flags, core, list(meta.round_input_lengths))
print(f"Inverted from parsed channels: {inverse_transform(out, build_mv2_codebook(2, 0))}")
