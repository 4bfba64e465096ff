import random
from unittest import mock

import pytest

from gpncodec import bitio, codec, fma
from gpncodec.cli import main

TABLE5 = "00\t0\n01\t00\n10\t11\n11\t1\n"

TRACE_TABLE6 = """\
round 0  input: 00 00 11 11 01 01
round 1  core : 0 0 1 1 00 00
         flag : 10 10 10 10 1 1
round 2  core : 0 1 0 0
         flag : 10 10 10 10
"""

CLONE_PRETTY = """\
clone codebook, width 3, seed 5
  000 -> 0  class 1
  001 -> 10  class 2
  010 -> 011  class 3
  011 -> 01  class 2
  100 -> 000  class 3
  101 -> 010  class 3
  110 -> 001  class 3
  111 -> 00  class 2
"""

B3_TABLE = """\
row\tword5\tvalue5\tword4\tvalue4\tword3\tvalue3\tword2\tvalue2\tword1\tvalue1
1\t00000\t0\t0000\t0\t000\t0\t00\t0\t0\t0
2\t00001\t1\t0001\t1\t001\t1\t01\t1\t1\t1
3\t00010\t3\t0010\t3\t010\t3\t10\t3\t\t
4\t00011\t4\t0011\t4\t011\t4\t11\t4\t\t
5\t00100\t9\t0100\t9\t100\t9\t\t\t\t
6\t00101\t10\t0101\t10\t101\t10\t\t\t\t
7\t00110\t12\t0110\t12\t110\t12\t\t\t\t
8\t00111\t13\t0111\t13\t111\t13\t\t\t\t
9\t01000\t27\t1000\t27\t\t\t\t\t\t
10\t01001\t28\t1001\t28\t\t\t\t\t\t
11\t01010\t30\t1010\t30\t\t\t\t\t\t
12\t01011\t31\t1011\t31\t\t\t\t\t\t
13\t01100\t36\t1100\t36\t\t\t\t\t\t
14\t01101\t37\t1101\t37\t\t\t\t\t\t
15\t01110\t39\t1110\t39\t\t\t\t\t\t
16\t01111\t40\t1111\t40\t\t\t\t\t\t
17\t10000\t81\t\t\t\t\t\t\t\t
18\t10001\t82\t\t\t\t\t\t\t\t
19\t10010\t84\t\t\t\t\t\t\t\t
20\t10011\t85\t\t\t\t\t\t\t\t
21\t10100\t90\t\t\t\t\t\t\t\t
22\t10101\t91\t\t\t\t\t\t\t\t
23\t10110\t93\t\t\t\t\t\t\t\t
24\t10111\t94\t\t\t\t\t\t\t\t
25\t11000\t108\t\t\t\t\t\t\t\t
26\t11001\t109\t\t\t\t\t\t\t\t
27\t11010\t111\t\t\t\t\t\t\t\t
28\t11011\t112\t\t\t\t\t\t\t\t
29\t11100\t117\t\t\t\t\t\t\t\t
30\t11101\t118\t\t\t\t\t\t\t\t
31\t11110\t120\t\t\t\t\t\t\t\t
32\t11111\t121\t\t\t\t\t\t\t\t
"""

FIBONACCI_PRETTY = """\
fibonacci words and values, widths 4..1
  0000 = 0   000 = 0   00 = 0   0 = 0
  0001 = 1   001 = 1   01 = 1   1 = 1
  0010 = 1   010 = 1   10 = 1
  0011 = 2   011 = 2   11 = 2
  0100 = 2   100 = 2
  0101 = 3   101 = 3
  0110 = 3   110 = 3
  0111 = 4   111 = 4
  1000 = 3
  1001 = 4
  1010 = 4
  1011 = 5
  1100 = 5
  1101 = 6
  1110 = 6
  1111 = 7
"""

PARTITIONS_PRETTY = """\
N = 2
  1+1 = 1  <- max
N = 3
  2+1 = 2  <- max
  1+1+1 = 1
N = 4
  3+1 = 3
  2+2 = 4  <- max
  2+1+1 = 2
  1+1+1+1 = 1
N = 5
  4+1 = 4
  3+2 = 6  <- max
  3+1+1 = 3
  2+2+1 = 4
  2+1+1+1 = 2
  1+1+1+1+1 = 1
N = 6
  5+1 = 5
  4+2 = 8
  3+3 = 9  <- max
  4+1+1 = 4
  3+2+1 = 6
  2+2+2 = 8
  3+1+1+1 = 3
  2+2+1+1 = 4
  2+1+1+1+1 = 2
  1+1+1+1+1+1 = 1
"""

KEYED_TRACE = """\
round 0  input: 000 011 111 010 010 111 000 011
round 1  core : 11 0 10 000 000 10 11 0
         flag : 10 100 10 1 1 10 10 100
round 2  core : 1 001 11 01 0 11
         flag : 100 1 10 10 100 10
round 3  core : 001 10 000 1
         flag : 1 10 1 100
round 4  core : 01 001 01
         flag : 10 1 10
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCodebookCommand:
    def test_canonical_two_bit_dump(self, capsys):
        code, out, err = run(capsys, "codebook", "--algo", "mv2", "--n", "2",
                             "--seed", "0")
        assert code == 0 and err == ""
        assert out == TABLE5

    def test_dump_is_stable(self, capsys):
        first = run(capsys, "codebook", "--algo", "mv2", "--n", "3", "--seed", "7")
        second = run(capsys, "codebook", "--algo", "mv2", "--n", "3", "--seed", "7")
        assert first == second

    def test_hex_seed_equals_decimal(self, capsys):
        dec = run(capsys, "codebook", "--n", "2", "--seed", "42")
        hx = run(capsys, "codebook", "--n", "2", "--seed", "0x2A")
        assert dec == hx
        assert dec[1] != TABLE5

    def test_binomial_dump_has_empty_codes(self, capsys):
        code, out, _ = run(capsys, "codebook", "--algo", "binomial", "--n", "2")
        assert code == 0
        assert "00\t\n" in out

    def test_clone_needs_mults(self, capsys):
        code, _, err = run(capsys, "codebook", "--algo", "clone", "--n", "2")
        assert code == 2
        assert "mults" in err.lower()

    def test_pretty_format(self, capsys):
        code, out, _ = run(capsys, "codebook", "--n", "2", "--format", "pretty")
        assert code == 0
        assert "00 -> 0" in out


class TestTraceCommand:
    def test_table6_walkthrough(self, capsys):
        code, out, err = run(capsys, "trace", "mv2", "--n", "2", "--rounds", "2",
                             "--bits", "000011110101")
        assert code == 0 and err == ""
        assert out == TRACE_TABLE6

    def test_hex_input(self, capsys):
        code, out, _ = run(capsys, "trace", "mv2", "--n", "2", "--rounds", "1",
                           "--hex", "0f")
        assert code == 0
        assert "round 0  input: 00 00 11 11" in out

    def test_requires_exactly_one_input(self, capsys):
        code, _, _ = run(capsys, "trace", "mv2", "--n", "2", "--rounds", "1")
        assert code == 2
        code, _, _ = run(capsys, "trace", "mv2", "--n", "2", "--rounds", "1",
                         "--hex", "0f", "--bits", "00")
        assert code == 2

    def test_rejects_bad_hex(self, capsys):
        code, _, err = run(capsys, "trace", "mv2", "--n", "2", "--rounds", "1",
                           "--hex", "zz")
        assert code == 2 and "hex" in err

    def test_rejects_non_bit_characters(self, capsys):
        code, out, err = run(capsys, "trace", "mv2", "--n", "2", "--bits", "0121")
        assert code == 2 and out == ""
        assert "--bits may contain only '0'/'1'" in err

    @pytest.mark.parametrize("rounds", ["0", "256"])
    def test_rounds_follow_the_encode_rule(self, capsys, rounds):
        code, out, err = run(capsys, "trace", "mv2", "--n", "2",
                             "--rounds", rounds, "--bits", "0011")
        assert code == 2 and out == ""
        assert f"rounds must be in [1, 255], got {rounds}" in err


class TestTableCommand:
    def test_fibonacci_width_four(self, capsys):
        code, out, err = run(capsys, "table", "gpn", "--system", "fibonacci",
                             "--width", "4")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0].split("\t") == [
            "row", "word4", "value4", "word3", "value3",
            "word2", "value2", "word1", "value1"]
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 16
        assert [int(r[2]) for r in rows] == [0, 1, 1, 2, 2, 3, 3, 4,
                                             3, 4, 4, 5, 5, 6, 6, 7]
        assert [int(r[4]) for r in rows[:8]] == [0, 1, 1, 2, 2, 3, 3, 4]
        assert [int(r[6]) for r in rows[:4]] == [0, 1, 1, 2]
        assert [int(r[8]) for r in rows[:2]] == [0, 1]
        assert rows[8][4] == ""  # width 3 exhausted after 8 rows

    def test_binary_system(self, capsys):
        code, out, _ = run(capsys, "table", "gpn", "--system", "binary",
                           "--width", "3")
        rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
        assert [int(r[2]) for r in rows] == list(range(8))

    def test_deformed_needs_coefficients(self, capsys):
        code, _, err = run(capsys, "table", "gpn", "--system", "deformed",
                           "--width", "3")
        assert code == 2 and "deform" in err

    def test_unknown_system(self, capsys):
        code, _, err = run(capsys, "table", "gpn", "--system", "roman",
                           "--width", "3")
        assert code == 2

    @pytest.mark.parametrize("width", ["0", "17", "60"])
    def test_width_is_bounded(self, capsys, width):
        # 2^width rows: width 60 would never finish
        code, out, err = run(capsys, "table", "gpn", "--width", width)
        assert (code, out) == (2, "")
        assert f"--width must be in [1, 16], got {width}" in err


class TestAnalyzeCommand:
    def test_partition_products(self, capsys):
        code, out, err = run(capsys, "analyze", "partitions", "--max", "8")
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "N\tpartition\tproduct\tmax"
        rows = [line.split("\t") for line in lines[1:]]
        max_by_n = {int(r[0]): int(r[2]) for r in rows if r[3] == "1"}
        assert max_by_n[6] == 9
        assert max_by_n[7] == 12
        assert max_by_n[8] == 18
        assert sum(int(r[0]) == 6 for r in rows) == 10
        assert sum(int(r[0]) == 7 for r in rows) == 14

    def test_pretty_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "partitions", "--max", "6",
                           "--format", "pretty")
        assert code == 0
        assert "3+3 = 9  <- max" in out

    @pytest.mark.parametrize("n_max", ["0", "41", "1000000"])
    def test_max_is_bounded(self, capsys, n_max):
        # the table holds every partition up to --max in memory
        code, out, err = run(capsys, "analyze", "partitions", "--max", n_max)
        assert (code, out) == (2, "")
        assert f"--max must be in [1, 40], got {n_max}" in err


class TestGoldens:
    """Byte-exact output of the inspection tables in both formats."""

    @pytest.mark.parametrize("argv, expected", [
        (("codebook", "--algo", "clone", "--n", "3", "--mults", "1,3,4",
          "--seed", "5", "--format", "pretty"), CLONE_PRETTY),
        (("table", "gpn", "--system", "b3", "--width", "5"), B3_TABLE),
        (("table", "gpn", "--width", "4", "--format", "pretty"), FIBONACCI_PRETTY),
        (("analyze", "partitions", "--max", "6", "--format", "pretty"),
         PARTITIONS_PRETTY),
        # keyed, and the class widths differ from symbol to symbol
        (("trace", "mv2", "--n", "3", "--rounds", "4", "--seed", "9",
          "--hex", "0fa5c3"), KEYED_TRACE),
    ], ids=["codebook-clone-pretty", "table-b3", "table-fibonacci-pretty",
            "partitions-pretty", "trace-keyed"])
    def test_exact_output(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")


class TestEncodeDecode:
    @pytest.mark.parametrize("argv", [
        ("--algo", "mv2", "--n", "2", "--rounds", "3", "--seed", "9"),
        ("--algo", "mv2", "--n", "8", "--rounds", "2"),
        ("--algo", "clone", "--n", "3", "--mults", "1,3,4", "--seed", "4"),
        ("--algo", "binomial", "--n", "5", "--rounds", "2"),
        ("--algo", "fma", "--n", "3", "--policy", "keyed", "--seed", "11"),
        ("--algo", "fma", "--n", "4", "--m", "9"),
    ])
    def test_file_roundtrip(self, tmp_path, capsys, argv):
        rng = random.Random(hash(argv) & 0xFFFF)
        source = tmp_path / "src.bin"
        packed = tmp_path / "packed.gpnc"
        restored = tmp_path / "restored.bin"
        payload = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 600)))
        source.write_bytes(payload)
        code, _, err = run(capsys, "encode", *argv, "--in", str(source),
                           "--out", str(packed))
        assert code == 0, err
        code, _, err = run(capsys, "decode", "--in", str(packed),
                           "--out", str(restored))
        assert code == 0, err
        assert restored.read_bytes() == payload

    @pytest.mark.parametrize("argv", [
        ("--n", "1", "--m", "65"),
        ("--n", "4", "--m", "255"),
    ])
    def test_keyed_fma_above_width_64(self, tmp_path, capsys, argv):
        source = tmp_path / "src.bin"
        packed = tmp_path / "packed.gpnc"
        restored = tmp_path / "restored.bin"
        payload = bytes(random.Random(65).getrandbits(8) for _ in range(64))
        source.write_bytes(payload)
        code, _, err = run(capsys, "encode", "--algo", "fma", *argv,
                           "--policy", "keyed", "--seed", "5",
                           "--in", str(source), "--out", str(packed))
        assert code == 0, err
        code, _, err = run(capsys, "decode", "--in", str(packed),
                           "--out", str(restored))
        assert code == 0, err
        assert restored.read_bytes() == payload

    @pytest.mark.parametrize("argv", [
        ("--n", "12", "--policy", "keyed", "--seed", "21"),
        ("--n", "16"),
    ])
    def test_fma_file_of_several_lane_blocks(self, tmp_path, capsys, argv):
        # 12 KiB holds 8,192 12-bit or 6,144 16-bit chunks: three decode
        # lane blocks of 65,536 payload bits at M = 17 and M = 23
        source = tmp_path / "src.bin"
        packed = tmp_path / "packed.gpnc"
        restored = tmp_path / "restored.bin"
        payload = random.Random(12).randbytes(12 << 10)
        source.write_bytes(payload)
        code, _, err = run(capsys, "encode", "--algo", "fma", *argv,
                           "--in", str(source), "--out", str(packed))
        assert code == 0, err
        with mock.patch.object(fma, "_decode_lanes", wraps=fma._decode_lanes) as lanes:
            code, _, err = run(capsys, "decode", "--in", str(packed),
                               "--out", str(restored))
        assert code == 0, err
        assert lanes.call_count == 1
        assert restored.read_bytes() == payload
        in_process = codec.decode_from_container(packed.read_bytes())
        assert restored.read_bytes() == bitio.pack_bits(in_process)

    def test_decode_reads_parameters_from_container_only(self, tmp_path, capsys):
        source = tmp_path / "src.bin"
        source.write_bytes(b"container params rule")
        packed = tmp_path / "x.gpnc"
        run(capsys, "encode", "--algo", "clone", "--n", "2", "--mults", "1,3",
            "--seed", "77", "--rounds", "4", "--in", str(source), "--out", str(packed))
        restored = tmp_path / "y.bin"
        code, _, _ = run(capsys, "decode", "--in", str(packed), "--out", str(restored))
        assert code == 0
        assert restored.read_bytes() == source.read_bytes()

    def test_split_channels(self, tmp_path, capsys):
        source = tmp_path / "src.bin"
        source.write_bytes(b"two channels, two files")
        core_file = tmp_path / "core.gpnc"
        flag_file = tmp_path / "flags.gpnc"
        code, _, err = run(capsys, "encode", "--algo", "mv2", "--n", "2",
                           "--rounds", "2", "--in", str(source),
                           "--out", str(core_file), "--flags-out", str(flag_file))
        assert code == 0, err
        restored = tmp_path / "merged.bin"
        code, _, err = run(capsys, "decode", "--in", str(core_file),
                           "--flags-in", str(flag_file), "--out", str(restored))
        assert code == 0, err
        assert restored.read_bytes() == source.read_bytes()
        # the core file alone no longer decodes: its flag sections are empty
        code, _, _ = run(capsys, "decode", "--in", str(core_file),
                         "--out", str(tmp_path / "z.bin"))
        assert code == 1

    def test_flags_of_another_container_are_a_data_error(self, tmp_path, capsys):
        files = {}
        for seed in ("1", "2"):
            source = tmp_path / f"src{seed}.bin"
            source.write_bytes(b"same input, two keys")
            files[seed] = tmp_path / f"core{seed}.gpnc", tmp_path / f"flags{seed}.gpnc"
            code, _, err = run(capsys, "encode", "--algo", "mv2", "--n", "2",
                               "--seed", seed, "--in", str(source),
                               "--out", str(files[seed][0]),
                               "--flags-out", str(files[seed][1]))
            assert code == 0, err
        code, _, err = run(capsys, "decode", "--in", str(files["1"][0]),
                           "--flags-in", str(files["2"][1]),
                           "--out", str(tmp_path / "out.bin"))
        assert code == 1
        assert "core and flag containers carry different metadata" in err

    def test_partial_byte_output_is_a_data_error(self, tmp_path, capsys):
        packed = tmp_path / "five.gpnc"
        packed.write_bytes(codec.encode_to_container("10110", algorithm="mv2", n=2))
        out = tmp_path / "out.bin"
        code, _, err = run(capsys, "decode", "--in", str(packed), "--out", str(out))
        assert code == 1
        assert "decoded bit length 5 is not a whole number of bytes" in err
        assert not out.exists()

    def test_corrupt_container_is_a_data_error(self, tmp_path, capsys):
        packed = tmp_path / "bad.gpnc"
        packed.write_bytes(b"NOPE" + b"\x00" * 20)
        code, _, err = run(capsys, "decode", "--in", str(packed),
                           "--out", str(tmp_path / "out.bin"))
        assert code == 1
        assert err.startswith("gpncodec: error:")

    def test_missing_input_is_a_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "decode", "--in", str(tmp_path / "absent"),
                           "--out", "-")
        assert code == 2

    def test_infeasible_clone_is_a_usage_error(self, tmp_path, capsys):
        source = tmp_path / "src.bin"
        source.write_bytes(b"x")
        code, _, err = run(capsys, "encode", "--algo", "clone", "--n", "2",
                           "--mults", "3,1", "--in", str(source), "--out", "-")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--algo", "fma", "--n", "4", "--m", "256"),
        ("--algo", "mv2", "--n", "2", "--rounds", "256"),
    ])
    def test_container_limits_are_usage_errors(self, tmp_path, capsys, argv):
        source = tmp_path / "src.bin"
        source.write_bytes(bytes(range(256)) * 4)
        packed = tmp_path / "packed.gpnc"
        code, _, err = run(capsys, "encode", *argv, "--in", str(source),
                           "--out", str(packed))
        assert code == 2
        assert "must be in [1, 255], got 256" in err
        assert not packed.exists()

    def test_fma_has_no_flag_channel_to_split(self, tmp_path, capsys):
        # fma writes one channel: a split would leave the core file whole
        source = tmp_path / "src.bin"
        source.write_bytes(b"x")
        packed, flags = tmp_path / "packed.gpnc", tmp_path / "flags.gpnc"
        code, _, err = run(capsys, "encode", "--algo", "fma", "--n", "4",
                           "--in", str(source), "--out", str(packed),
                           "--flags-out", str(flags))
        assert code == 2
        assert "--flags-out" in err
        assert not packed.exists() and not flags.exists()

    def test_stdin_stdout(self, tmp_path, capsys, monkeypatch):
        import io
        import sys

        payload = b"through the pipes"
        monkeypatch.setattr(sys, "stdin",
                            type("S", (), {"buffer": io.BytesIO(payload)})())
        packed = tmp_path / "p.gpnc"
        code = main(["encode", "--algo", "mv2", "--n", "2", "--in", "-",
                     "--out", str(packed)])
        assert code == 0
        out_buffer = io.BytesIO()
        monkeypatch.setattr(sys, "stdout",
                            type("S", (), {"buffer": out_buffer})())
        code = main(["decode", "--in", str(packed), "--out", "-"])
        assert code == 0
        assert out_buffer.getvalue() == payload


class TestUsageErrors:
    def test_no_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_algo_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--algo", "zip", "--in", "-", "--out", "-"])
        assert exc.value.code == 2

    def test_bad_seed_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["codebook", "--seed", "banana"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("seed", [str(1 << 64), "0x1" + "0" * 16, "-1"])
    def test_seed_beyond_64_bits_exits_two(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            main(["codebook", f"--seed={seed}"])
        assert exc.value.code == 2
        assert "seed must fit in 64 bits" in capsys.readouterr().err

    @pytest.mark.parametrize("mults", ["1,x,4", "1,3,", "1.5,3,4"])
    def test_bad_mults_exit_two(self, capsys, mults):
        with pytest.raises(SystemExit) as exc:
            main(["codebook", "--algo", "clone", "--n", "3", "--mults", mults])
        assert exc.value.code == 2
        assert "are not a comma-separated integer list" in capsys.readouterr().err
