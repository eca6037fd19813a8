"""The CLI's import adds no standard-library module that json does not.

Every `prymtyurin` call starts a fresh interpreter, so what `import
prymtyurin.cli` loads is paid on each one.  The rule: every standard-library
module the import adds must also be added by `import json`, or be
`__future__` or `math`.  `dataclasses` (with `inspect`, `ast`, `dis` and
`tokenize`) and `fractions` (with `decimal` and `numbers`) cost about a fifth
of the start-up and are kept out, and so are `argparse` and its `gettext`,
about a quarter of the CLI's import: the CLI reads its arguments from its
own table.

Each import is measured in a fresh interpreter as the modules in
sys.modules after it that were not there before.  Run as a script, the
check reads whichever `prymtyurin` the interpreter finds (an installed
wheel, say) and exits 1 naming every module that breaks the rule:

    python tests/test_cold_start.py
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = {"__future__", "math"}
PROBE = (
    "import sys; before = set(sys.modules); import {}; "
    "print(' '.join(sorted(set(sys.modules) - before)))"
)


def added_modules(statement: str, env=None) -> set[str]:
    """The modules `import <statement>` adds in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(statement)], capture_output=True, text=True, env=env
    )
    if out.returncode:
        raise RuntimeError(f"import {statement} failed:\n{out.stderr}")
    return set(out.stdout.split())


def stray_modules(env=None) -> list[str]:
    """The standard-library modules `import prymtyurin.cli` adds past the rule."""
    baseline = added_modules("json", env)
    added = added_modules("prymtyurin.cli", env)
    return sorted(
        name
        for name in added - baseline - ALLOWED
        if name.partition(".")[0] in sys.stdlib_module_names
    )


def source_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def test_cli_import_adds_nothing_past_json():
    stray = stray_modules(source_env())
    assert not stray, f"import prymtyurin.cli adds {', '.join(stray)}"


def test_the_rule_names_a_stray_module(tmp_path):
    # a stand-in package whose cli pulls in argparse and fractions beside
    # json: each is named with the modules it brings, json is not
    fake = tmp_path / "prymtyurin"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text("import argparse, fractions, json\n")
    stray = stray_modules({**os.environ, "PYTHONPATH": str(tmp_path)})
    assert {"argparse", "gettext", "fractions", "decimal", "numbers"} <= set(stray)
    assert "json" not in stray and "prymtyurin" not in stray


if __name__ == "__main__":
    stray = stray_modules()
    origin = subprocess.run(
        [sys.executable, "-c", "import prymtyurin; print(prymtyurin.__file__)"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    if stray:
        print(f"import prymtyurin.cli ({origin}) adds {', '.join(stray)}", file=sys.stderr)
        raise SystemExit(1)
    print(f"import prymtyurin.cli ({origin}) adds no module past json")
