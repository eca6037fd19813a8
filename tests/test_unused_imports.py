"""Every name a package module or script imports is read in that module.

The check parses each file with the standard library's ast and compares the
names its import statements bind with the names it reads.  A name listed in
the module's __all__ counts as read (a re-export), and __future__ imports
bind nothing to read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "prymtyurin").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, in the order imported."""
    tree = ast.parse(source)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_the_checker_finds_an_unused_import():
    assert unused_imports("import json\nfrom math import gcd, comb\nprint(gcd)\n") == [
        "json", "comb"
    ]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from .x import a as b\n__all__ = ['b']\n") == []
    # a name that is only assigned is not read
    assert unused_imports("import json\njson = None\n") == ["json"]


def test_modules_are_found():
    names = {path.name for path in MODULES}
    assert {"report.py", "fixed_points.py", "report_digest.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
