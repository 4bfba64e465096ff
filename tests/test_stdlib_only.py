"""The package runs on the standard library alone.

A child interpreter started with -I -S (no site-packages, no PYTHON*
variables) imports every gpncodec module and round-trips one small
container per algorithm; every module it has loaded by then must be
part of the standard library or of gpncodec.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import importlib, pkgutil, sys
sys.path.insert(0, {src!r})
import gpncodec
from gpncodec import bitio, codec

for info in pkgutil.iter_modules(gpncodec.__path__, "gpncodec."):
    importlib.import_module(info.name)
bits = "0110100111000101" * 8
params = {{
    "mv2": dict(n=2, rounds=2, seed=5),
    "clone": dict(n=3, multiplicities=(1, 3, 4)),
    "binomial": dict(n=5),
    "fma": dict(n=4, policy="keyed", seed=7),
}}
assert sorted(params) == sorted(bitio.ALGORITHM_IDS)
for algorithm, extra in params.items():
    data = codec.encode_to_container(bits, algorithm=algorithm, **extra)
    assert codec.decode_from_container(data) == bits, algorithm
foreign = sorted(name for name in sys.modules
                 if name != "__main__"
                 and name.partition(".")[0] not in sys.stdlib_module_names
                 and name.partition(".")[0] != "gpncodec")
print(" ".join(foreign))
"""


def test_package_loads_only_stdlib_modules():
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", CHILD.format(src=str(SRC))],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
