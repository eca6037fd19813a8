#!/usr/bin/env python3
"""Count the code lines of the package, one line per module and the total.

A line counts when it holds a token that is not a comment and lies outside
every module, class and function docstring: blank lines, comment lines and
docstrings are left out, and a statement split over two lines counts two.
A string token that spans lines counts on every line it spans.  The modules
are every `*.py` file under src/prymtyurin, in path order.

Usage:
    python3 scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prymtyurin"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:>6}  {path.relative_to(PACKAGE.parent)}")
    print(f"{total:>6}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
