"""No package module branches on a family more than once.

A family's facts live in its record (scenario.FAMILIES), and the
correspondence's label rule and closed form in that module's own table, so
a step that needs a per-family fact reads a record instead of testing the
kind.  The check parses each module with the standard library's ast and
counts the comparisons that name a family: those with an operand that holds
the string "subset" or "grid" or the name SUBSET or GRID.  The body of
fixed_points.check_certificate is left out: the independent certificate
checker keeps its own per-family rule.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "prymtyurin").glob("*.py"))
CHECKER = "check_certificate"


def _names_a_family(node: ast.AST) -> bool:
    return any(
        (isinstance(sub, ast.Constant) and sub.value in ("subset", "grid"))
        or (isinstance(sub, ast.Name) and sub.id in ("SUBSET", "GRID"))
        for operand in (node.left, *node.comparators)
        for sub in ast.walk(operand)
    )


def family_comparisons(source: str, exempt: str | None = CHECKER) -> int:
    """The number of comparisons in source that name a family, outside the
    body of the function named exempt."""
    tree = ast.parse(source)
    skipped = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name == exempt
        for node in ast.walk(func)
    }
    return sum(
        isinstance(node, ast.Compare) and id(node) not in skipped and _names_a_family(node)
        for node in ast.walk(tree)
    )


def test_the_counter_finds_family_comparisons():
    assert family_comparisons('if kind == "subset":\n    pass\n') == 1
    assert family_comparisons("x = 1 if k == GRID else 2\nk in (SUBSET,)\n") == 2
    # a table keyed by name, a call and a comparison of two variables name no family
    assert family_comparisons('T = {"subset": 1}\nf("grid")\nkind == other\n') == 0
    checker = 'def check_certificate(kind):\n    return kind == "grid"\n'
    assert family_comparisons(checker) == 0
    assert family_comparisons(checker, exempt=None) == 1


def test_the_checker_keeps_its_own_rule():
    # the exemption is not vacuous: the checker still branches on the family
    source = (ROOT / "src" / "prymtyurin" / "fixed_points.py").read_text(encoding="utf-8")
    assert family_comparisons(source, exempt=None) > family_comparisons(source) == 0


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_each_module_branches_on_a_family_at_most_once(path):
    assert family_comparisons(path.read_text(encoding="utf-8")) <= 1
