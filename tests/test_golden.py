"""Every benchmark input with a golden entry reproduces its recorded report.

`bench/golden.json` holds the exit code and the sha256 of stdout of each
decided benchmark input; a benchmark run compares against it, and this test
makes the same comparison in tier-1, so a report byte that drifts fails here
first.  The inputs come from `bench/workloads.py`, loaded by path; the
scenario files are written under the test's temporary directory.  The
scenarios of those inputs also show that the dict assemble returns is
exactly what its JSON carries.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from prymtyurin import cli
from prymtyurin.report import assemble, report_to_json
from prymtyurin.scenario import grid_scenario, parse_scenario, subset_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
INPUTS = [
    inp
    for workload in WORKLOADS.WORKLOADS.values()
    for inp in workload.inputs
    if inp.id in GOLDEN
]


def test_every_golden_entry_names_an_input():
    assert sorted(inp.id for inp in INPUTS) == sorted(GOLDEN)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for workload in WORKLOADS.WORKLOADS.values():
        WORKLOADS.write_scenarios(workload, path)
    return path


@pytest.mark.parametrize("inp", INPUTS, ids=lambda inp: inp.id)
def test_report_matches_golden_digest(inp, workdir):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(inp.command(workdir))
    want = GOLDEN[inp.id]
    assert code == want["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want["sha256"]


REPORT_SCENARIOS = [
    pytest.param(parse_scenario(inp.scenario), id=inp.id) for inp in INPUTS if inp.scenario
] + [
    pytest.param(subset_scenario(10, 3), id="subset-n10-both"),
    pytest.param(grid_scenario(20), id="grid-g20"),
]


@pytest.mark.parametrize("scenario", REPORT_SCENARIOS)
def test_assembled_report_is_its_json_read_back(scenario):
    # the pipeline's result holds only what the JSON carries: a tuple, a
    # Fraction or any other object in it would not survive the round trip
    data = assemble(scenario)
    assert data == json.loads(report_to_json(data))
