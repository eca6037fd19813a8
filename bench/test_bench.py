"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They run real (tiny) passes, so they take about 30 s.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from worker import BENCH, run_input
from workloads import INPUT_LIMIT_S, WORKLOADS, write_scenarios

ROOT = BENCH.parent
ALL_INPUTS = {inp.id: inp for w in WORKLOADS.values() for inp in w.inputs}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _check_printed(proc: subprocess.CompletedProcess, units: dict) -> None:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    table = "\n".join(lines[:-1])
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in table.splitlines()), name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_pass_prints_every_end_to_end_metric(workload):
    _check_printed(_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                          "--trace", "0"), run.END_TO_END_UNITS)


def test_tiny_traced_pass_prints_every_per_layer_metric():
    _check_printed(_bench("--workload", "identity", "--seed", "1", "--seconds", "1",
                          "--trace", "1"), run.PER_LAYER_UNITS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = _bench("--workload", "identity", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _records(tmp_path, ids, traced=False):
    """Run inputs once each; the first report of each is saved for the checks."""
    workdir = tmp_path / "work"
    outputs = workdir / "outputs"
    outputs.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS.values():
        write_scenarios(workload, workdir)
    records, texts = [], {}
    with tracing.Tracer() if traced else contextlib.nullcontext():
        for input_id in ids:
            rec, text = run_input(ALL_INPUTS[input_id].command(workdir), INPUT_LIMIT_S)
            rec.update(id=input_id, pass_index=0, traced=traced)
            records.append(rec)
            texts[input_id] = text
            (outputs / f"{input_id}.out").write_text(text, encoding="utf-8")
    return records, texts, outputs


def test_corrupted_digest_counts_as_failed(tmp_path):
    ids = ["identity-subset-n3", "identity-grid-m3"]
    records, _, outputs = _records(tmp_path, ids)
    golden = run.load_golden()
    assert run.evaluate(WORKLOADS["identity"], records, outputs, golden) == {}

    corrupted = json.loads(json.dumps(golden))
    corrupted["identity-grid-m3"]["sha256"] = "0" * 64
    problems = run.evaluate(WORKLOADS["identity"], records, outputs, corrupted)
    assert list(problems) == ["identity-grid-m3"]
    assert "digest" in problems["identity-grid-m3"][0]


def test_wrong_oracle_value_counts_as_failed(tmp_path):
    records, _, outputs = _records(tmp_path, ["identity-subset-n4"])
    text = (outputs / "identity-subset-n4.out").read_text()
    (outputs / "identity-subset-n4.out").write_text(text.replace('"exponent": 4', '"exponent": 5'))
    problems = run.evaluate(WORKLOADS["identity"], records, outputs, run.load_golden())
    assert any("oracle" in p for p in problems["identity-subset-n4"])


def _bindings() -> dict:
    return {(mod.__name__, attr): value
            for mod in tracing.package_modules() for attr, value in vars(mod).items()}


def test_traced_run_restores_every_wrapped_function(tmp_path):
    import prymtyurin.correspondence
    import prymtyurin.fixed_points
    import prymtyurin.report

    before = _bindings()
    original = prymtyurin.fixed_points.class_action
    with tracing.Tracer() as tracer:
        for namespace in (prymtyurin.report, prymtyurin.fixed_points):
            assert namespace.class_action is not original
            assert namespace.class_action.__wrapped__ is original
        assert hasattr(prymtyurin.correspondence.mat_mul, "__wrapped__")
        assert hasattr(prymtyurin.correspondence.verify_identity, "__wrapped__")
        run_input(ALL_INPUTS["identity-subset-n3"].command(tmp_path), INPUT_LIMIT_S)
    assert tracer.spans
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_and_untraced_reports_are_byte_identical(tmp_path):
    ids = ["identity-subset-n5", "sweep-both-n4-gx3", "sweep-explicit-n4",
           "hostile-negative-genus", "genus-subset-n2-gx1000", "genus-grid-g1000-table"]
    plain, plain_texts, _ = _records(tmp_path / "plain", ids)
    traced, traced_texts, _ = _records(tmp_path / "traced", ids, traced=True)
    assert traced_texts == plain_texts
    assert [r["exit"] for r in traced] == [r["exit"] for r in plain]
    assert [r["sha256"] for r in traced] == [r["sha256"] for r in plain]


def test_calibration_uses_the_references_around_each_input():
    import speed

    nominal = speed.REF_NOMINAL_S
    # short inputs amid slow references, then a long one between a slow
    # reference before it and a fast one after it
    records = [{"ref": 2 * nominal, "at": 0.1 * i, "elapsed": 0.01} for i in range(5)]
    records.append({"ref": 2 * nominal, "at": 2.0, "elapsed": 3.0})
    records.append({"ref": nominal, "at": 5.0, "elapsed": 0.01})
    got = speed.factors(records)
    assert got[0] == 0.5
    assert got[5] == nominal / statistics.median([2 * nominal, nominal])
    assert got[6] == 1.0
