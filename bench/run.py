"""gpncodec benchmark: one workload per call, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used straight from
`src/`. Every child runs with `src` on PYTHONPATH, a fixed PYTHONHASHSEED
and a bytecode cache under `.bench_build/` that is warmed before any
timing. Children run one at a time. See bench/README.md for the
workloads, the metrics and the figures measured so far.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("corechain-bulk", "fma-expand", "small-messages", "cli-files")
# set-up is sampled before and after the timed worker, up to this long each
SETUP_BATCH_S = 1.0
KIB = 1024


def child_env(build: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(build / "pycache"))
    return env


class Worker:
    """One worker process: time to its "ready" line, then its result."""

    def __init__(self, args, mode: str, env: dict, work: Path):
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--mode", mode, "--work", str(work)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, cwd=ROOT)
        first = proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_mib = usage.ru_maxrss / KIB
        if proc.returncode != 0 or first.strip() != b"ready":
            raise SystemExit(f"bench: worker ({mode}) exited {proc.returncode}")
        lines = rest.decode().strip().splitlines()
        self.result = json.loads(lines[-1]) if lines else None


def help_setup_s(env: dict) -> float:
    """A no-op CLI process: interpreter start plus the CLI's imports."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "gpncodec.cli", "--help"], env=env, cwd=ROOT,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def setup_samples(probe) -> list[float]:
    """Set-up times of fresh processes: at least two, more while they are cheap."""
    samples = []
    while len(samples) < 2 or (len(samples) < 7 and sum(samples) < SETUP_BATCH_S):
        samples.append(probe())
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gpncodec" / "__init__.py").is_file():
        print(f"bench: no gpncodec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    build = ROOT / ".bench_build"
    work = build / f"work-{args.workload}"
    work.mkdir(parents=True, exist_ok=True)
    env = child_env(build)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"),
                    str(BENCH)], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)

    if args.trace:
        result = Worker(args, "run", env, work).result
        alloc = Worker(args, "alloc", env, work).result
        result["metrics"].update(alloc["metrics"])
        result["correct"] = result["correct"] and alloc["correct"]
    else:
        if args.workload == "cli-files":
            probe = lambda: help_setup_s(env)
        else:
            probe = lambda: Worker(args, "probe", env, work).setup_s
        setup = setup_samples(probe)
        worker = Worker(args, "run", env, work)
        result = worker.result
        if args.workload != "cli-files":
            setup.append(worker.setup_s)
            result["metrics"]["peak_rss_mib"] = [worker.maxrss_mib, "MiB"]
        setup += setup_samples(probe)
        result["metrics"]["setup_s"] = [statistics.median(setup), "s"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
