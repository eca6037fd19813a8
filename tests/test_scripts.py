"""Smoke tests of the sweep scripts, run the way a user runs them."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import prymtyurin

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, **env):
    # the child imports the same package as this test, installed or not
    source = str(Path(prymtyurin.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (source, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_identity_sweep_script():
    lines = run_script("identity_sweep.py", "--max-n", "4", "--max-m", "3")
    rows = {line[:14].strip(): line[14:].split(None, 6) for line in lines[2:]}
    assert list(rows) == ["subset n=2", "subset n=3", "subset n=4", "grid m=2", "grid m=3"]
    # points, bidegree, a, b, c, q, note
    assert rows["subset n=4"] == ["15", "6", "3", "-2", "3", "4", "ok"]
    assert rows["grid m=3"] == ["9", "4", "2", "-1", "2", "3", "ok"]
    assert rows["grid m=2"][5:] == ["-", "criterion hypothesis fails: need a = q - 1 = 3, got a = 0"]


def test_family_sweep_script():
    lines = [line for line in run_script("family_sweep.py", "--min-genus", "0", "--max-genus", "2") if line]
    assert len(lines) == 10
    # whole lines, an error cell included: the table is read from the report's dict
    assert lines[0] == (
        "subset n=2 gx=0   q=2     paper: g_C=0 diag=2 dim=0 [ok]  monodromy: error (subset"
        " scenario n=2, source genus 0, monodromy model: negative genus -1 from degree=6,"
        " base_genus=0, w=8)"
    )
    assert lines[2] == (
        "subset n=2 gx=2   q=2     paper: g_C=4 diag=2 dim=2 [ok]  monodromy: g_C=3 diag=4 dim=2 [FAIL]"
    )
    assert lines[9] == (
        "grid 3x3 g=2      q=3     paper: g_C=4 diag=6 dim=1 [ok]  monodromy: g_C=4 diag=6 dim=1 [ok]"
    )


def test_report_digest_script(tmp_path):
    # a tiny range, hashed in two scratch directories: no temporary path
    # reaches the digest
    tiny = ["--max-n", "2", "--max-profile-n", "1", "--max-g", "2", "--large-g",
            "--max-identity-n", "2", "--max-identity-m", "2"]
    lines = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        lines.append(run_script("report_digest.py", *tiny, TMPDIR=str(tmp_path / name)))
    assert lines[0] == lines[1]
    # subset n = 2 at two genera, grid g = 2 under three model choices and
    # two identities, each in two formats
    assert re.fullmatch(r"[0-9a-f]{64}  14 runs", *lines[0])


def test_report_digest_holds_the_relation_bytes():
    # verify-identity with --dump-matrix at every size of the benchmark's
    # identity workload, subset n = 2..12 and grid m = 2..8, in both
    # formats: every byte of the relation text and the identity summary,
    # every other run of the digest's set left out
    lines = run_script("report_digest.py", "--max-n", "1", "--max-profile-n", "1",
                       "--max-g", "1", "--large-g")
    assert lines == ["dba749b8fa5cafcbb0c235b7ab236d1db29ebeccb48b29d80f434ff66ca1e26b  36 runs"]


def test_report_digest_covers_its_scenario_set():
    spec = importlib.util.spec_from_file_location("report_digest", SCRIPTS / "report_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    # 156 subset runs, 5,682 profile choices, 240 grid runs, 36 identities
    assert sum(1 for _ in digest.cases(digest.parse_args([]))) == 6114


def test_code_lines_counts_only_code():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPTS / "code_lines.py")
    counter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counter)
    source = (
        '"""A module docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        "    '''A function docstring.'''\n"
        "    return (x +  # a comment after code\n"
        "            1)\n"
    )
    # the def line and the two lines of the return statement
    assert counter.code_lines(source) == 3


def test_code_lines_modules_add_up_to_the_total():
    lines = run_script("code_lines.py")
    *modules, total = [line.split() for line in lines]
    assert total[1] == "total" and modules
    assert all(name.startswith("prymtyurin/") and name.endswith(".py") for _, name in modules)
    assert sum(int(count) for count, _ in modules) == int(total[0])
