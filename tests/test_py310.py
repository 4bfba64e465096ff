"""The package keeps to what Python 3.10, its oldest supported version, accepts.

Every module parses with 3.10's grammar, and every ``int.to_bytes`` and
``int.from_bytes`` call spells out the arguments that only 3.11 defaults
(``length`` and ``byteorder``; ``bytes`` and ``byteorder``).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gpncodec"
SOURCES = sorted(PACKAGE.rglob("*.py"))
# parameters 3.10 requires, in positional order
REQUIRED = {"to_bytes": ("length", "byteorder"),
            "from_bytes": ("bytes", "byteorder")}


def missing_arguments(tree):
    """(line, method, parameter) for each byte conversion missing a parameter."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in REQUIRED):
            given = {kw.arg for kw in node.keywords}
            for position, name in enumerate(REQUIRED[node.func.attr]):
                if position >= len(node.args) and name not in given:
                    yield node.lineno, node.func.attr, name


def test_sources_found():
    assert PACKAGE / "prng.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_as_python_310(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_byte_conversions_name_their_byteorder(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(missing_arguments(tree)) == []


def test_checker_sees_a_missing_byteorder():
    tree = ast.parse("x.to_bytes(8)\nint.from_bytes(b, byteorder='big')\n"
                     "x.to_bytes(length=2)\n")
    assert list(missing_arguments(tree)) == [
        (1, "to_bytes", "byteorder"), (3, "to_bytes", "byteorder")]
