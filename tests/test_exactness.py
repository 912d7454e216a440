"""Arithmetic in the package stays exact: no floats, no true division and
no floating-point math functions anywhere in ``src/flagmaps``."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "flagmaps").glob("*.py"))
INTEGER_MATH = {"lcm", "gcd", "isqrt", "factorial"}


def inexact(tree: ast.AST) -> list[str]:
    """Line and description of every inexact construct in the tree."""
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{line}: float literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{line}: true division")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{line}: name float")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            found.append(f"{line}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(
                f"{line}: from math import {a.name}"
                for a in node.names
                if a.name not in INTEGER_MATH
            )
    return found


def test_sources_found():
    assert any(p.name == "core.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_is_exact(path):
    assert inexact(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "x = 0.5",
        "x = 1e-9",
        "x = a / b",
        "x /= 2",
        "x = float(a)",
        "def f() -> float: ...",
        "x = math.sqrt(5)",
        "x = math.atan2(a, b)",
        "x = math.pi",
        "from math import sqrt",
    ],
)
def test_guard_catches(snippet):
    assert inexact(ast.parse(snippet))


def test_guard_allows_integer_arithmetic():
    code = "x = math.lcm(a, b) + math.gcd(a, b) + math.isqrt(n) + math.factorial(n) + a // b"
    assert inexact(ast.parse(code)) == []
