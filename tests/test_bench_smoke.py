"""Keeps the benchmark runnable: one short small-messages run, one short
fma-expand run, and every function the tracer wraps still present.

The benchmark checks every output against expectations written from the
README, independently of the package, so this also covers the grouped
round tables (its 4 KiB mv2 N=2 messages take them) and the fma chunk and
word tables (every fma-expand item takes them; its payloads are checked
against the benchmark's own Fibonacci weights).
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def short_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_small_messages_run_is_correct():
    result = short_run("small-messages")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_fma_expand_run_is_correct():
    result = short_run("fma-expand")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_tracer_targets_resolve():
    # a renamed or deleted target would make its traced layer read 0
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attr, _, _ in tracer.TARGETS:
        target = getattr(importlib.import_module(f"gpncodec.{module}"), attr, None)
        assert callable(target), f"gpncodec.{module}.{attr}"
