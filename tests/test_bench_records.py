"""The committed benchmark records, BENCH_<workload>.json at the repository
root, as scripts/bench_record.py writes them: each parses, and each row
carries every end-to-end metric of BENCHMARK.json with its unit, over at
least ten pairs of runs of the length BENCHMARK.json fixes.  Nothing
here times anything or reads git."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def test_every_record_names_a_workload():
    assert {p.name for p in ROOT.glob("BENCH_*.json")} == {f"BENCH_{w}.json" for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_record_rows_carry_every_end_to_end_metric(workload):
    rows = json.loads((ROOT / f"BENCH_{workload}.json").read_text(encoding="utf-8"))
    assert rows
    for row in rows:
        assert {"base", "head", "python", "nproc", "seconds", "seeds", "metrics"} <= set(row)
        assert row["seconds"] == BENCHMARK["run_seconds"]
        pairs = len(row["seeds"])
        assert pairs >= 10
        assert set(row["metrics"]) == {spec["name"] for spec in BENCHMARK["end_to_end"]}
        for spec in BENCHMARK["end_to_end"]:
            metric = row["metrics"][spec["name"]]
            assert {k: metric[k] for k in ("unit", "better", "bound")} == {
                k: spec[k] for k in ("unit", "better", "bound")
            }
            for side in ("base", "head"):
                runs = metric[side]["runs"]
                assert len(runs) == pairs
                assert metric[side]["median"] == statistics.median(runs)
            assert 0 <= metric["head_wins"] <= pairs
            assert isinstance(metric["within_bound"], bool)
