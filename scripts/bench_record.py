#!/usr/bin/env python3
"""Record a benchmark comparison of HEAD against a base commit.

Both commits are exported with `git archive` into a scratch directory, and
`bench/run.py --workload W --seed s --seconds S --trace 0` runs in each
export, under the interpreter --python names (this one by default), for
PAIRS pairs of runs, on every workload of BENCHMARK.json and for
the run length S it fixes (`run_seconds`).  The two runs of a pair share one
seed, and the side that runs first alternates from pair to pair, so a drift
in the machine's speed falls on both sides alike.  Nothing under bench/ or src/ is
edited: every run works in its own export.

One row per call is appended to BENCH_<workload>.json at the repository
root (a JSON list of rows).  A row holds the two commits, the version of
the interpreter that ran the benches (asked of that interpreter), nproc, the seconds and the seeds, and for every end-to-end metric
of BENCHMARK.json: its unit, which way is better and its bound; each side's
runs, median and interquartile range; the pairs HEAD wins; the relative
change of the median; whether that change stays within the bound; and
whether it is a resolved gain: HEAD wins at least nine pairs in ten and its
median is better by more than the base's interquartile range.

Usage:
    python3 scripts/bench_record.py [--base HEAD~1] [--first-seed 1] [--python PATH]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# pairs of runs per row: enough for the nine-in-ten test of a gain
PAIRS = 10


def git(*args) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def export(commit: str, where: Path) -> Path:
    """The tree of commit, written under where by git archive."""
    archive = where.with_suffix(".zip")
    git("archive", "--format=zip", "-o", str(archive), commit)
    with zipfile.ZipFile(archive) as tree:
        tree.extractall(where)
    archive.unlink()
    return where


def python_version(python: str) -> str:
    """The version the interpreter at python reports for itself."""
    query = "import platform; print(platform.python_version())"
    proc = subprocess.run([python, "-c", query], capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def run_bench(python: str, checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The metrics of one untraced bench/run.py run in checkout under python."""
    cmd = [python, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout.name} ran {workload} seed {seed} incorrectly")
    return result["metrics"]


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "iqr": q3 - q1, "runs": runs}


def compare(spec: dict, base: list[float], head: list[float]) -> dict:
    """One metric's row entry: both sides, the pairs HEAD wins, and the
    relative change of the median checked against the metric's bound."""
    higher = spec["better"] == "higher"
    wins = sum(h > b if higher else h < b for b, h in zip(base, head))
    sides = {"base": summary(base), "head": summary(head)}
    b, h = sides["base"]["median"], sides["head"]["median"]
    change = (h - b) / b if b else 0.0
    worse = -change if higher else change
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        **sides,
        "head_wins": wins,
        "change": change,
        "within_bound": worse <= spec["bound"],
        # a gain counts when HEAD wins nine pairs in ten and its median is
        # better by more than the spread of the base's own runs
        "gain_resolved": 10 * wins >= 9 * len(base) and -worse * b > sides["base"]["iqr"],
    }


def record(python: str, workload: str, checkouts: dict, seeds: list[int], seconds: int,
           specs: list[dict]) -> dict:
    runs = {side: [] for side in checkouts}
    for i, seed in enumerate(seeds):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(run_bench(python, checkouts[side], workload, seed, seconds))
            print(f"{workload} pair {i + 1}/{len(seeds)} seed {seed} {side} done", flush=True)
    for side, metrics in runs.items():
        for spec in specs:
            units = {m[spec["name"]]["unit"] for m in metrics}
            if units != {spec["unit"]}:
                raise RuntimeError(f"{side} reports {spec['name']} in {units}, not {spec['unit']}")
    return {
        spec["name"]: compare(
            spec,
            [m[spec["name"]]["value"] for m in runs["base"]],
            [m[spec["name"]]["value"] for m in runs["head"]],
        )
        for spec in specs
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--python", default=sys.executable,
                        help="the interpreter that runs bench/run.py (default: this one)")
    args = parser.parse_args(argv)

    commits = {"base": git("rev-parse", args.base), "head": git("rev-parse", "HEAD")}
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    seconds = benchmark["run_seconds"]
    version = python_version(args.python)
    with tempfile.TemporaryDirectory() as scratch:
        checkouts = {side: export(c, Path(scratch) / side) for side, c in commits.items()}
        for workload in (w["name"] for w in benchmark["workloads"]):
            metrics = record(args.python, workload, checkouts, seeds, seconds,
                             benchmark["end_to_end"])
            row = {
                "base": commits["base"],
                "head": commits["head"],
                "python": version,
                "nproc": os.cpu_count(),
                "seconds": seconds,
                "seeds": seeds,
                "metrics": metrics,
            }
            path = ROOT / f"BENCH_{workload}.json"
            rows = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
            path.write_text(json.dumps(rows + [row], indent=2) + "\n", encoding="utf-8")
            for name, m in metrics.items():
                print(f"{workload:<13} {name:<15} {m['base']['median']:>12.6g} ->"
                      f" {m['head']['median']:>12.6g} {m['unit']:<6} {m['change']:+7.2%}"
                      f"  wins {m['head_wins']}/{len(seeds)}"
                      f"  {'ok' if m['within_bound'] else 'OUT OF BOUND'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
