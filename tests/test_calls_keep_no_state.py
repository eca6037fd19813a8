"""Each CLI call does its own work: no state is kept from one call to the next.

The benchmark calls `cli.main` in a closed loop in one process, so a cache
kept at module level (of correspondences, fibers or label moves) would speed
up every call after the first there, while a single console run would gain
nothing.  Here one input of each benchmark workload is run three times in a
fresh interpreter, and the package lines each call runs are counted by
`references.package_lines`, the count the report's genus tests read.
All three calls must run the same count: every table the package reads is
complete when it is built (the JSON writer's separators are a constant of
the module), so no call fills in anything a later one reads, and a cache
across calls fails here by name.  The table views are run as well as the
JSON ones.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prymtyurin

TESTS = Path(__file__).resolve().parent

CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from references import package_lines
from prymtyurin import cli

argv = json.loads(sys.argv[2])

def call():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) in (0, 2)

print(json.dumps([package_lines(call) for _ in range(3)]))
"""


@pytest.mark.parametrize(
    "argv, scenario",
    [
        # identity: the quadratic identity of a subset correspondence
        (["verify-identity", "--kind", "subset", "--n", "7", "--format", "json"], None),
        # subset-sweep: a subset file under both models
        (["run", "{file}", "--format", "json"],
         {"kind": "subset", "n": 4, "upstairs_genus": 3, "model": "both"}),
        # high-genus: a grid file at genus 1000
        (["run", "{file}", "--format", "json"], {"kind": "grid", "upstairs_genus": 1000}),
        # the table views of the identity and of the grid file
        (["verify-identity", "--kind", "subset", "--n", "7", "--format", "table"], None),
        (["run", "{file}", "--format", "table"], {"kind": "grid", "upstairs_genus": 1000}),
    ],
    ids=["identity", "subset-sweep", "high-genus", "identity-table", "high-genus-table"],
)
def test_a_repeated_call_runs_the_lines_of_the_first(tmp_path, argv, scenario):
    if scenario is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        argv = [str(path) if a == "{file}" else a for a in argv]
    source = str(Path(prymtyurin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((source, str(TESTS)))}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(TESTS), json.dumps(argv)],
        capture_output=True, text=True, env=env, check=True,
    )
    first, second, third = json.loads(proc.stdout)
    assert first == second == third
