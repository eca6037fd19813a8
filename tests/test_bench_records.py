"""The committed benchmark records, BENCH_<workload>.json at the repository
root, as scripts/bench_record.py writes them: each parses, and each row
carries every end-to-end metric of BENCHMARK.json with its unit, over at
least ten pairs of runs of the length BENCHMARK.json fixes.  Every derived
field of a row is recomputed here from its runs, so no row claims what its
runs do not show, and both commits a row names are in the history of HEAD.
Nothing here times anything."""

import json
import shutil
import statistics
import subprocess
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


def derived(spec: dict, base: list, head: list) -> dict:
    """A metric's derived fields from its runs: each side's median and IQR
    (inclusive quartiles), the pairs HEAD wins (a tie counts for neither),
    the relative change of the median, whether the change stays within the
    bound, and whether it is a resolved gain (at least nine pairs in ten won
    and the medians apart by more than the base's IQR)."""

    def iqr(runs):
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        return q3 - q1

    sign = 1 if spec["better"] == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    b, h = statistics.median(base), statistics.median(head)
    change = (h - b) / b if b else 0.0
    return {
        "base": {"median": b, "iqr": iqr(base)},
        "head": {"median": h, "iqr": iqr(head)},
        "head_wins": wins,
        "change": change,
        "within_bound": -sign * change <= spec["bound"],
        "gain_resolved": 10 * wins >= 9 * len(base) and sign * change * b > iqr(base),
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_record_rows_claim_only_what_their_runs_show(workload):
    rows = json.loads((ROOT / f"BENCH_{workload}.json").read_text(encoding="utf-8"))
    for row in rows:
        for spec in BENCHMARK["end_to_end"]:
            metric = row["metrics"][spec["name"]]
            want = derived(spec, metric["base"]["runs"], metric["head"]["runs"])
            got = {key: metric[key] for key in want}
            for side in ("base", "head"):
                got[side] = {key: metric[side][key] for key in ("median", "iqr")}
            assert got == want, (row["head"], spec["name"])


def git(*args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_record_rows_name_commits_in_this_history(workload):
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = git("rev-parse", "--show-toplevel")
    if top.returncode or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout (a git archive export)")
    if git("rev-parse", "--is-shallow-repository").stdout.strip() != "false":
        pytest.skip("a shallow clone holds only part of the history")
    rows = json.loads((ROOT / f"BENCH_{workload}.json").read_text(encoding="utf-8"))
    for row in rows:
        for side in ("base", "head"):
            proc = git("merge-base", "--is-ancestor", row[side], "HEAD")
            assert proc.returncode == 0, (side, row[side], proc.stderr)
