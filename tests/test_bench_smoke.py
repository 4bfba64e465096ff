"""Keeps the benchmark runnable: one short small-messages run.

The benchmark checks every output against expectations written from the
README, independently of the package, so this also covers the grouped
round tables (its 4 KiB mv2 N=2 messages take them).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_small_messages_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-messages",
         "--seed", "1", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
