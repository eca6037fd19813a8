"""The package computes exactly: no floating point anywhere in its source.

Every module of the package is parsed with ast.  A float literal, a call to
float or round, or a true division ``/`` fails the test; exact code writes
``Fraction(a, b)`` or ``//``.
"""

import ast
from pathlib import Path

import prymtyurin

PACKAGE = Path(prymtyurin.__file__).resolve().parent


def inexact(source: str) -> list[str]:
    """Line-numbered descriptions of every inexact construct in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("float", "round"):
            found.append(f"{node.lineno}: call to {node.func.id}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{node.lineno}: true division")
    return found


def test_checker_flags_each_inexact_construct():
    assert inexact("x = 1 // 2 + abs(-3)") == []
    assert inexact("x = 0.5") == ["1: float literal 0.5"]
    assert inexact("y = float(3)\nz = round(y)") == ["1: call to float", "2: call to round"]
    assert inexact("x / 2") == ["1: true division"]
    assert inexact("x /= 2") == ["1: true division"]


def test_package_source_is_exact():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = [f"{path.name}:{hit}" for path in modules for hit in inexact(path.read_text())]
    assert found == []
