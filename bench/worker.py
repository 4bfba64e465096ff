"""One workload in one process: warm-up, timed passes, checks.

Started by run.py, never by hand. It prints "ready" once gpncodec is
imported and warmed up, and one JSON line with its results at the end.
Modes: "probe" exits at "ready" (a set-up sample), "run" measures,
"alloc" makes one pass with allocation tracking on.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import Tracer, merge

MIB = 1 << 20
KIB = 1 << 10
REPORTED_ROUNDS = (1, 2, 3, 4)
KEYED_WIDTHS = (4, 8, 12, 13)
# Allocation tracking slows the codec about twentyfold, so the allocation
# pass shrinks every input of ALLOC_MIN bytes or more by ALLOC_SHRINK.
ALLOC_MIN = 64 * 1024
ALLOC_SHRINK = 8
ALLOC_NAMES = (
    "bitio.unpack_bits", "bitio.pack_bits", "bitio.write_container",
    "bitio.read_container", "multichannel.transform",
    "multichannel.inverse_transform", "fma.fma_encode.canonical",
    "fma.fma_encode.keyed", "fma.fma_decode", "codec.encode_to_container",
    "codec.decode_from_container")


def mv2(n, rounds=1, keyed=True):
    return {"algorithm": "mv2", "n": n, "rounds": rounds, "keyed": keyed}


def clone(mults, rounds=1):
    return {"algorithm": "clone", "n": len(mults), "rounds": rounds,
            "multiplicities": tuple(mults), "keyed": True}


def binomial(n, rounds=1):
    return {"algorithm": "binomial", "n": n, "rounds": rounds}


def fma(n, policy):
    return {"algorithm": "fma", "n": n, "policy": policy, "keyed": policy == "keyed"}


def _small_messages():
    configs = [mv2(2, 2, keyed=False), mv2(6), mv2(12), clone((1, 3, 4), 2),
               clone((2, 4, 8, 16, 32, 64, 128, 2)), binomial(5), binomial(8, 2),
               fma(4, "keyed"), fma(6, "canonical")]
    sizes = [16, 64, 256, 1 * KIB, 4 * KIB]
    # every config meets every size once, in an interleaved order
    items = [(sizes[(i % 9 + i // 9) % 5], configs[i % 9]) for i in range(45)]
    # The median of these 45 calls falls among items a few percent apart
    # whose order shifts with host load; six more copies of the median one
    # (mv2 N=6, 1 KiB) keep the median call on that item.
    for k in range(6):
        items.insert(8 * k + 4, (1 * KIB, configs[1]))
    return items


# Each workload: a fixed list of (input bytes, config); only the seeded
# contents and codebook keys change from run to run. An odd item count
# keeps the median call on one item.
WORKLOADS = {
    "corechain-bulk": {
        "items": [(1 * MIB, mv2(8)),
                  (128 * KIB, mv2(2, 4, keyed=False)),
                  (768 * KIB, binomial(8, 2)),
                  (512 * KIB, clone((1, 3, 4), 2)),
                  (256 * KIB, mv2(2, 4))],
    },
    "fma-expand": {
        "items": [(32 * KIB, fma(4, "canonical")),
                  (48 * KIB, fma(4, "keyed")),
                  (80 * KIB, fma(8, "keyed")),
                  (96 * KIB, fma(4, "canonical")),
                  (160 * KIB, fma(8, "keyed"))],
        "wide": 13,
    },
    "small-messages": {"items": _small_messages()},
    "cli-files": {
        "items": [(256 * KIB, binomial(8)),
                  (256 * KIB, mv2(2, 2, keyed=False)),
                  (256 * KIB, fma(12, "keyed")),
                  (256 * KIB, dict(mv2(2, 2), split=True)),
                  (512 * KIB, binomial(8))],
        "cli": True,
    },
}


def item_input(workload: str, seed: int, index: int, size: int, config: dict):
    """Seeded contents and codec parameters of one item."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    params = {k: v for k, v in config.items() if k not in ("keyed", "split")}
    if config.get("keyed"):
        params["seed"] = rng.getrandbits(64) | 1
    return rng.randbytes(size), params


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / KIB


def reference_loop_ms() -> float:
    """A fixed pure-Python loop that touches no part of gpncodec."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1000


def spawn(argv: list[str]) -> tuple[float, float, int, bytes]:
    """Run one child to its end: wall seconds, its maxrss in MiB, status, stderr."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / KIB, proc.returncode, err


def cli_args(params: dict) -> list[str]:
    argv = ["--algo", params["algorithm"], "--n", str(params["n"])]
    if "rounds" in params:
        argv += ["--rounds", str(params["rounds"])]
    if "multiplicities" in params:
        argv += ["--mults", ",".join(map(str, params["multiplicities"]))]
    if "policy" in params:
        argv += ["--policy", params["policy"]]
    if "seed" in params:
        argv += ["--seed", str(params["seed"])]
    return argv


class Run:
    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.bench_dir = Path(__file__).resolve().parent
        self.work = Path(args.work)
        self.checker = checks.Checker()
        self.digests = {}
        self.correct = True
        self.attempted = self.failed = self.passes = 0
        self.op_s = 0.0  # time in operations, failed ones included
        self.pass_totals = []  # per untraced pass: [encode bytes, s, decode bytes, s]
        self.calls_ms = []
        self.pass_s = {False: 0.0, True: 0.0}
        self.child_rss = 0.0
        self.cli_ms = {"encode": 0.0, "decode": 0.0}
        self.first_keyed = {}
        self.peak_ratio = {}
        self.span_summary = {"spans": {}, "counts": {}, "peaks": {}}
        self.tracer = None
        self.traced = False
        self.warm_calls = 0  # gpn.representations calls during the warm-up

    def fail_check(self, message: str) -> None:
        if self.correct:
            print(f"bench: check failed: {message}", file=sys.stderr)
        self.correct = False

    # -- warm-up ---------------------------------------------------------

    def warm_up(self, gp) -> None:
        """Fill the lazy caches every timed call relies on."""
        seen = []
        configs = [c for _, c in self.spec["items"]]
        if self.spec.get("cli"):
            configs = [c for c in configs if c.get("policy") == "keyed"]
        for config in configs:
            if config in seen:
                continue
            seen.append(config)
            data, params = item_input("warm-up", 0, len(seen), 2, config)
            self.timed_first(gp, gp.unpack_bits(data), params)
        wide = self.spec.get("wide")
        if wide:
            self.timed_first(gp, "1" * wide, fma(wide, "keyed") | {"seed": 1})
        self.check_walkthrough(gp)

    def timed_first(self, gp, bits: str, config: dict) -> None:
        params = {k: v for k, v in config.items() if k != "keyed"}
        rss0 = maxrss_mib()
        t0 = time.perf_counter()
        blob = gp.encode_to_container(bits, **params)
        if params.get("policy") == "keyed":
            self.first_keyed[params["n"]] = ((time.perf_counter() - t0) * 1000,
                                             maxrss_mib() - rss0)
        if gp.decode_from_container(blob) != bits:
            self.fail_check(f"warm-up roundtrip of {params} differs")

    def check_walkthrough(self, gp) -> None:
        blob = gp.encode_to_container(checks.WALKTHROUGH_BITS, **checks.WALKTHROUGH_PARAMS)
        if blob != checks.WALKTHROUGH_CONTAINER:
            self.fail_check("the README walkthrough container differs")

    # -- one item --------------------------------------------------------

    def check(self, index: int, blobs: tuple[bytes, ...], data: bytes,
              params: dict, reference) -> None:
        """Full checks the first time an item is seen, digests after that."""
        digest = hashlib.sha256(b"".join(blobs)).digest()
        known = self.digests.get(index)
        if known is None:
            try:
                expected = reference()
                self.checker.check_container(expected[0], data, params)
                if len(blobs) == 2:
                    expected = checks.Container(expected[0]).split()
                checks.require(tuple(blobs) == tuple(expected[:len(blobs)]),
                               "container differs from the in-process encoder's")
            except checks.CheckFailed as exc:
                self.fail_check(f"item {index} {params}: {exc}")
            self.digests[index] = digest
        elif digest != known:
            self.fail_check(f"item {index} {params}: container changed between passes")

    def in_process(self, gp, index: int, data: bytes, params: dict) -> None:
        t0 = time.perf_counter()
        blob = gp.encode_to_container(gp.unpack_bits(data), **params)
        t1 = time.perf_counter()
        out = gp.pack_bits(gp.decode_from_container(blob))
        t2 = time.perf_counter()
        self.account(t1 - t0, t2 - t1, len(data), len(out))
        if out != data:
            self.fail_check(f"item {index} {params}: roundtrip differs")
        self.check(index, (blob,), data, params, lambda: (blob,))

    def via_cli(self, gp, index: int, data: bytes, params: dict, split: bool,
                traced: bool) -> None:
        src, enc, flags, back = (self.work / f"item.{ext}"
                                 for ext in ("bin", "gpnc", "flags", "out"))
        src.write_bytes(data)
        for path in (enc, flags, back):
            path.unlink(missing_ok=True)
        enc_argv = ["encode", *cli_args(params), "--in", str(src), "--out", str(enc)]
        dec_argv = ["decode", "--in", str(enc), "--out", str(back)]
        if split:
            enc_argv += ["--flags-out", str(flags)]
            dec_argv += ["--flags-in", str(flags)]
        times = {}
        for name, argv in (("encode", enc_argv), ("decode", dec_argv)):
            spans = self.work / f"spans-{self.passes}-{index}-{name}.bin"
            if traced:
                mode = "alloc" if self.args.mode == "alloc" else "time"
                cmd = [sys.executable, str(self.bench_dir / "clichild.py"),
                       str(spans), mode, *argv]
            else:
                cmd = [sys.executable, "-m", "gpncodec.cli", *argv]
            elapsed, rss, code, err = spawn(cmd)
            if code != 0:
                raise RuntimeError(f"gpncodec {name} exited {code}: "
                                   f"{err.decode(errors='replace').strip()}")
            times[name] = elapsed
            if traced:
                merge(self.span_summary, Tracer.load(spans).summary())
            else:
                self.child_rss = max(self.child_rss, rss)
                self.cli_ms[name] += elapsed * 1000
        out = back.read_bytes()
        self.account(times["encode"], times["decode"], len(data), len(out))
        if out != data:
            self.fail_check(f"item {index} {params}: CLI roundtrip differs")
        blobs = (enc.read_bytes(), flags.read_bytes()) if split else (enc.read_bytes(),)
        self.check(index, blobs, data, params,
                   lambda: (gp.encode_to_container(gp.unpack_bits(data), **params),))

    def account(self, enc: float, dec: float, nin: int, nout: int) -> None:
        self.attempted += 1
        self.op_s += enc + dec
        if self.traced:
            self.pass_s[True] += enc + dec
            return
        self.pass_s[False] += enc + dec
        totals = self.pass_totals[-1]
        totals[0] += nin
        totals[1] += enc
        totals[2] += nout
        totals[3] += dec
        self.calls_ms.append((enc + dec) * 1000)

    # -- the run ---------------------------------------------------------

    def one_pass(self, gp, traced: bool) -> None:
        self.traced = traced
        if not traced:
            self.pass_totals.append([0, 0.0, 0, 0.0])
        cli = self.spec.get("cli")
        if traced and not cli:
            self.tracer.install()
        try:
            for index, (size, config) in enumerate(self.spec["items"]):
                if self.args.mode == "alloc" and size >= ALLOC_MIN:
                    size //= ALLOC_SHRINK
                data, params = item_input(self.args.workload, self.args.seed,
                                          index, size, config)
                t_item = time.perf_counter()
                try:
                    if cli:
                        self.via_cli(gp, index, data, params, config.get("split", False),
                                     traced)
                    else:
                        self.in_process(gp, index, data, params)
                except (ValueError, RuntimeError, gp.errors.GpnError) as exc:
                    if not self.failed:
                        print(f"bench: item {index} failed: {exc}", file=sys.stderr)
                    self.attempted += 1
                    self.failed += 1
                    self.op_s += time.perf_counter() - t_item
                if self.args.mode == "alloc":
                    self.record_peaks(len(data))
        finally:
            if traced and not cli:
                self.tracer.uninstall()

    def measure(self, gp) -> dict:
        trace = self.args.trace
        ref = [reference_loop_ms() for _ in range(3)]
        alloc = self.args.mode == "alloc"
        self.tracer = Tracer("alloc" if alloc else "time") if trace else None
        t_start = time.perf_counter()
        while True:
            # traced runs alternate untraced and traced passes
            t_pass = self.op_s
            self.one_pass(gp, traced=bool(trace) and (alloc or self.passes % 2 == 1))
            self.passes += 1
            timed, wall = self.op_s, time.perf_counter() - t_start
            print(f"bench: pass {self.passes} calls {timed - t_pass:.3f} s, run "
                  f"{wall:.3f} s", file=sys.stderr)
            if alloc:
                break
            if trace and self.passes % 2:
                continue
            # the run measures about --seconds of calls, in whole passes;
            # checks are not counted, but the run never takes three times that
            if (timed + timed / self.passes / 2 >= self.args.seconds
                    or wall >= 3 * self.args.seconds):
                break
        ref += [reference_loop_ms() for _ in range(3)]
        print("bench: reference_loop_ms " + " ".join(f"{x:.1f}" for x in ref),
              file=sys.stderr)
        result = {"correct": self.correct, "attempted": self.attempted,
                  "failed": self.failed, "passes": self.passes}
        if not trace:
            result["metrics"] = self.end_to_end()
        elif self.args.mode == "alloc":
            result["metrics"] = self.alloc_metrics()
        else:
            result["metrics"] = self.layer_metrics(self.passes // 2, ref)
        return result

    def end_to_end(self) -> dict:
        # throughput is taken per pass, and the median pass reported, so
        # that a burst of load on the host moves it less than a mean would
        rates = [t for t in self.pass_totals if t[1] and t[3]]
        if not rates:
            raise SystemExit("bench: no operation succeeded, nothing to report")
        metrics = {
            "encode_mib_s": (statistics.median(t[0] / t[1] for t in rates) / MIB, "MiB/s"),
            "decode_mib_s": (statistics.median(t[2] / t[3] for t in rates) / MIB, "MiB/s"),
            "call_p50_ms": (statistics.median(self.calls_ms), "ms"),
        }
        if self.spec.get("cli"):
            metrics["peak_rss_mib"] = (self.child_rss, "MiB")
        return metrics

    def layer_metrics(self, traced_passes: int, ref: list[float]) -> dict:
        if not self.spec.get("cli"):
            merge(self.span_summary, self.tracer.summary())
            self.tracer.dump(self.work / "spans.bin")
        spans, counts = self.span_summary["spans"], self.span_summary["counts"]

        def per_pass(x):
            return x / traced_passes

        def span(name, key="ms"):
            return spans.get(name, {}).get(key, 0.0)

        def ms_per_mib(name):
            nbytes = counts.get(f"{name}.bytes", 0)
            return span(name) / (nbytes / MIB) if nbytes else 0.0

        m = {
            "bitio.unpack_bits.ms_per_mib": (ms_per_mib("bitio.unpack_bits"), "ms/MiB"),
            "bitio.pack_bits.ms_per_mib": (ms_per_mib("bitio.pack_bits"), "ms/MiB"),
            "bitio.write_container.ms": (per_pass(span("bitio.write_container")), "ms"),
            "bitio.read_container.ms": (per_pass(span("bitio.read_container")), "ms"),
            "bitio.container.bytes": (per_pass(counts.get("bitio.container.bytes", 0)),
                                      "count"),
        }
        for name in ("multichannel.build_codebook", "prng.keyed_shuffle"):
            m[f"{name}.ms"] = (per_pass(span(name)), "ms")
            m[f"{name}.calls"] = (per_pass(span(name, "calls")), "count")
        for name in ("multichannel.encode_round", "multichannel.decode_round"):
            m[f"{name}.ms"] = (per_pass(span(name)), "ms")
            m[f"{name}.symbols"] = (per_pass(counts.get(f"{name}.symbols", 0)), "count")
        for name in ("multichannel.transform", "multichannel.inverse_transform",
                     "codec.encode_to_container", "codec.decode_from_container"):
            m[f"{name}.self_ms"] = (per_pass(span(name, "self_ms")), "ms")
        for r in REPORTED_ROUNDS:
            bits_in = counts.get(f"multichannel.round{r}.input_bits", 0)
            core = counts.get(f"multichannel.round{r}.core_bits", 0)
            m[f"multichannel.round{r}.core_bits_per_input_bit"] = (
                core / bits_in if bits_in else 0.0, "bit/bit")
        for policy in ("canonical", "keyed"):
            m[f"fma.fma_encode.{policy}.ms"] = (per_pass(span(f"fma.fma_encode.{policy}")),
                                                "ms")
        m["fma.fma_encode.chunks"] = (per_pass(counts.get("fma.fma_encode.chunks", 0)),
                                      "count")
        m["fma.fma_decode.ms"] = (per_pass(span("fma.fma_decode")), "ms")
        m["gpn.evaluate.ms"] = (per_pass(span("gpn.evaluate")), "ms")
        m["gpn.representations.calls"] = (
            self.warm_calls + per_pass(span("gpn.representations", "calls")), "count")
        for n in KEYED_WIDTHS:
            ms, rss = self.first_keyed.get(n, (0.0, 0.0))
            m[f"fma.first_keyed_chunk.n{n}.ms"] = (ms, "ms")
            m[f"fma.first_keyed_chunk.n{n}.rss_mib"] = (rss, "MiB")
        help_ms = []
        for _ in range(3):
            elapsed, _, _, _ = spawn([sys.executable, "-m", "gpncodec.cli", "--help"])
            help_ms.append(elapsed * 1000)
        m["cli.startup_ms"] = (statistics.median(help_ms), "ms")
        m["cli.encode.ms"] = (per_pass(self.cli_ms["encode"]), "ms")
        m["cli.decode.ms"] = (per_pass(self.cli_ms["decode"]), "ms")
        m["cli.child_maxrss_mib"] = (self.child_rss, "MiB")
        m["host.reference_loop_ms"] = (statistics.median(ref), "ms")
        m["bench.trace_overhead_pct"] = (
            (self.pass_s[True] / self.pass_s[False] - 1) * 100, "%")
        return m

    def record_peaks(self, nbytes: int) -> None:
        """Fold one item's allocation peaks, as multiples of its input size."""
        peaks = self.span_summary["peaks"] if self.spec.get("cli") else self.tracer.peaks
        for name, peak in peaks.items():
            self.peak_ratio[name] = max(self.peak_ratio.get(name, 0.0), peak / nbytes)
        peaks.clear()

    def alloc_metrics(self) -> dict:
        return {f"{name}.peak_alloc_per_input": (self.peak_ratio.get(name, 0.0), "B/B")
                for name in ALLOC_NAMES}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--mode", choices=("probe", "run", "alloc"), default="run")
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    if args.mode == "alloc":
        args.trace = 1
    run = Run(args)
    warm = Tracer("alloc" if args.mode == "alloc" else "time") if args.trace else None
    import gpncodec as gp
    if warm:
        warm.install()
    run.warm_up(gp)
    if warm:
        warm.uninstall()
        run.warm_calls = warm.summary()["spans"].get(
            "gpn.representations", {}).get("calls", 0)
    print("ready", flush=True)
    if args.mode == "probe":
        return 0
    print(json.dumps(run.measure(gp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
