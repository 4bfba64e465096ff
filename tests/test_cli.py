import random

import pytest

from gpncodec.cli import main

TABLE5 = "00\t0\n01\t00\n10\t11\n11\t1\n"

TRACE_TABLE6 = """\
round 0  input: 00 00 11 11 01 01
round 1  core : 0 0 1 1 00 00
         flag : 10 10 10 10 1 1
round 2  core : 0 1 0 0
         flag : 10 10 10 10
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
