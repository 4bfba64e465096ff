"""Command line front end: file encode/decode plus inspection tables.

Exit status: 0 on success, 2 for usage problems (bad flags, unreadable
paths, infeasible parameters), 1 for data problems (corrupt container,
inconsistent channels). Each failure prints a one-line diagnostic to
stderr. ``-`` stands for stdin/stdout in file positions.
"""

import argparse
import sys

from . import bitio, codec, compositions, gpn, multichannel
from .errors import GpnError

_ALGOS = tuple(bitio.ALGORITHM_IDS)
_CODEBOOK_ALGOS = tuple(a for a in _ALGOS if a != "fma")


def _parse_seed(text: str) -> int:
    try:
        value = int(text, 16) if text.lower().startswith("0x") else int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed {text!r} is not a number") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _parse_mults(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"multiplicities {text!r} are not a comma-separated integer list"
        ) from None


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _write_bytes(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    with open(path, "wb") as handle:
        handle.write(data)


def _weight_system(name: str, deform) -> gpn.WeightSystem:
    if name == "fibonacci":
        return gpn.WeightSystem.fibonacci()
    if name == "factorial":
        return gpn.WeightSystem.factorial()
    if name == "binary":
        return gpn.WeightSystem.b_radix(2)
    if name.startswith("b") and name[1:].isdigit():
        return gpn.WeightSystem.b_radix(int(name[1:]))
    if name == "deformed":
        if not deform:
            raise ValueError("system 'deformed' needs --deform c1,c2,...")
        return gpn.WeightSystem.deformed_fibonacci(deform)
    raise ValueError(f"unknown weight system {name!r}")


def cmd_encode(args) -> int:
    if args.flags_out and args.algo == "fma":
        raise ValueError("fma has one channel; --flags-out needs a core+flag algorithm")
    data = _read_bytes(args.infile)
    bits = bitio.unpack_bits(data)
    meta, flag_streams, payload = codec.encode_parts(
        bits, algorithm=args.algo, n=args.n, seed=args.seed, rounds=args.rounds,
        multiplicities=args.mults, m=args.m, policy=args.policy)
    if args.flags_out:
        # two-channel split: same layout, with the other channel's sections empty
        _write_bytes(args.outfile,
                     bitio.write_container(meta, [""] * len(flag_streams), payload))
        _write_bytes(args.flags_out,
                     bitio.write_container(meta, flag_streams, ""))
    else:
        _write_bytes(args.outfile, bitio.write_container(meta, flag_streams, payload))
    return 0


def cmd_decode(args) -> int:
    meta, flag_streams, payload = bitio.read_container(_read_bytes(args.infile))
    if args.flags_in:
        flag_meta, flag_streams, _ = bitio.read_container(_read_bytes(args.flags_in))
        if flag_meta != meta:
            raise bitio.ContainerFormatError(
                "core and flag containers carry different metadata")
    bits = codec.decode_parts(meta, flag_streams, payload)
    if len(bits) % 8:
        raise multichannel.CorruptStreamError(
            f"decoded bit length {len(bits)} is not a whole number of bytes")
    _write_bytes(args.outfile, bitio.pack_bits(bits))
    return 0


def cmd_codebook(args) -> int:
    cb = multichannel.build_codebook(args.algo, args.n, args.seed, args.mults)
    symbols = sorted(cb.encode_map)
    if args.format == "tsv":
        for sym in symbols:
            code, _ = cb.encode_map[sym]
            print(f"{sym}\t{code}")
    else:
        print(f"{args.algo} codebook, width {args.n}, seed {args.seed}")
        for sym in symbols:
            code, k = cb.encode_map[sym]
            print(f"  {sym} -> {code or '(empty)'}  class {k}")
    return 0


def cmd_analyze_partitions(args) -> int:
    table = compositions.product_table(args.max)
    if args.format == "tsv":
        print("N\tpartition\tproduct\tmax")
        for n, reports in table.items():
            for rep in reports:
                parts = "+".join(str(p) for p in rep.partition)
                print(f"{n}\t{parts}\t{rep.product}\t{1 if rep.is_max else 0}")
    else:
        for n, reports in table.items():
            if not reports:
                continue
            print(f"N = {n}")
            for rep in reports:
                mark = "  <- max" if rep.is_max else ""
                parts = "+".join(str(p) for p in rep.partition)
                print(f"  {parts} = {rep.product}{mark}")
    return 0


def cmd_table_gpn(args) -> int:
    ws = _weight_system(args.system, args.deform)
    width = args.width
    if width < 1:
        raise ValueError("--width must be >= 1")
    widths = list(range(width, 0, -1))
    if args.format == "tsv":
        header = ["row"]
        for w in widths:
            header += [f"word{w}", f"value{w}"]
        print("\t".join(header))
        for row in range(1, (1 << width) + 1):
            cells = [str(row)]
            for w in widths:
                if row <= 1 << w:
                    word = format(row - 1, f"0{w}b")
                    cells += [word, str(gpn.evaluate(word, ws))]
                else:
                    cells += ["", ""]
            print("\t".join(cells))
    else:
        print(f"{args.system} words and values, widths {width}..1")
        for row in range(1, (1 << width) + 1):
            cells = []
            for w in widths:
                if row <= 1 << w:
                    word = format(row - 1, f"0{w}b")
                    cells.append(f"{word} = {gpn.evaluate(word, ws)}")
            print("  " + "   ".join(cells))
    return 0


def _grouped(bits: str, n: int) -> str:
    return " ".join(bits[i:i + n] for i in range(0, len(bits), n))


def _cut(bits: str, widths) -> str:
    """`bits` cut into consecutive pieces of the given widths, space-joined."""
    pieces = []
    pos = 0
    for w in widths:
        pieces.append(bits[pos:pos + w])
        pos += w
    return " ".join(pieces)


def cmd_trace_mv2(args) -> int:
    bitio.check_rounds(args.rounds)
    if (args.hex is None) == (args.bits is None):
        raise ValueError("give exactly one of --hex or --bits")
    if args.hex is not None:
        try:
            bits = bitio.unpack_bits(bytes.fromhex(args.hex))
        except ValueError:
            raise ValueError(f"--hex value {args.hex!r} is not hexadecimal") from None
    else:
        if args.bits.strip("01"):
            raise ValueError("--bits may contain only '0'/'1'")
        bits = args.bits
    cb = multichannel.build_mv2_codebook(args.n, args.seed)
    n = args.n
    print(f"round 0  input: {_grouped(bits, n)}")
    current = bits
    for rnd in range(1, args.rounds + 1):
        out = multichannel.transform(current, cb, 1)
        flags, current = out.flags[0], out.core
        # per symbol, class k has a core codeword of class_width[k] bits
        # and a flag codeword of 1 + n - k bits
        classes = multichannel.flag_decode(flags, n)
        print(f"round {rnd}  core : "
              f"{_cut(current, (cb.class_width[k] for k in classes))}")
        print(f"         flag : {_cut(flags, (1 + n - k for k in classes))}")
        if not current:
            break
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpncodec",
        description="Multichannel bit recoding over generalized positional notations")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a file into a container")
    enc.add_argument("--algo", choices=_ALGOS, default="mv2")
    enc.add_argument("--n", type=int, default=2, help="symbol/chunk width")
    enc.add_argument("--rounds", type=int, default=1)
    enc.add_argument("--seed", type=_parse_seed, default=0,
                     help="decimal or 0x-hex key")
    enc.add_argument("--policy", choices=tuple(bitio.POLICY_IDS), default="canonical",
                     help="fma representation choice")
    enc.add_argument("--m", type=int, default=0, help="fma target width override")
    enc.add_argument("--mults", type=_parse_mults, default=None,
                     help="clone class sizes M1,...,MN")
    enc.add_argument("--in", dest="infile", required=True)
    enc.add_argument("--out", dest="outfile", required=True)
    enc.add_argument("--flags-out", default=None,
                     help="write flags to a second container, core stays in --out")
    enc.set_defaults(handler=cmd_encode)

    dec = sub.add_parser("decode", help="decode a container back to the file")
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--out", dest="outfile", required=True)
    dec.add_argument("--flags-in", default=None,
                     help="read flags from a second container")
    dec.set_defaults(handler=cmd_decode)

    book = sub.add_parser("codebook", help="dump a symbol-to-code table")
    book.add_argument("--algo", choices=_CODEBOOK_ALGOS, default="mv2")
    book.add_argument("--n", type=int, default=2)
    book.add_argument("--seed", type=_parse_seed, default=0)
    book.add_argument("--mults", type=_parse_mults, default=None)
    book.add_argument("--format", choices=("tsv", "pretty"), default="tsv")
    book.set_defaults(handler=cmd_codebook)

    analyze = sub.add_parser("analyze", help="decomposition analysis")
    analyze_sub = analyze.add_subparsers(dest="what", required=True)
    parts = analyze_sub.add_parser("partitions", help="partition product table")
    parts.add_argument("--max", type=int, required=True)
    parts.add_argument("--format", choices=("tsv", "pretty"), default="tsv")
    parts.set_defaults(handler=cmd_analyze_partitions)

    table = sub.add_parser("table", help="value tables")
    table_sub = table.add_subparsers(dest="what", required=True)
    tgpn = table_sub.add_parser("gpn", help="word/value table for a weight system")
    tgpn.add_argument("--system", default="fibonacci",
                      help="fibonacci, factorial, binary, b<base>, deformed")
    tgpn.add_argument("--deform", type=_parse_mults, default=None)
    tgpn.add_argument("--width", type=int, required=True)
    tgpn.add_argument("--format", choices=("tsv", "pretty"), default="tsv")
    tgpn.set_defaults(handler=cmd_table_gpn)

    trace = sub.add_parser("trace", help="per-round walkthroughs")
    trace_sub = trace.add_subparsers(dest="what", required=True)
    tmv2 = trace_sub.add_parser("mv2", help="round-by-round core/flag trace")
    tmv2.add_argument("--n", type=int, default=2)
    tmv2.add_argument("--rounds", type=int, default=1)
    tmv2.add_argument("--seed", type=_parse_seed, default=0)
    tmv2.add_argument("--hex", default=None, help="input bytes as hex")
    tmv2.add_argument("--bits", default=None, help="input as a raw bit string")
    tmv2.set_defaults(handler=cmd_trace_mv2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except GpnError as exc:
        print(f"gpncodec: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"gpncodec: usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gpncodec: usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
