"""Benchmark of the prymtyurin verifier: time to verdict, per workload.

    python3 bench/run.py --workload identity --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Set-up writes the workload's
scenario files and times fresh interpreters that import `prymtyurin.cli`
and load them (`setup_s`).  The measured run happens in one child process
(bench/worker.py): a closed loop of `prymtyurin.cli.main` calls, one client,
in an order shuffled by the seed.  With `--trace 0` every pass is untraced
and the end-to-end metrics are printed; with `--trace 1` traced and untraced
passes alternate and the per-layer metrics are printed.  Every report is
checked against golden.json (recorded at the seed commit) and closed-form
oracles.  Times are calibrated to the host's speed by speed.py.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; `--workload all` prints every
workload's table and then one JSON object keyed by workload.  A result
file with the commit, Python version, nproc and seed goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import DECIDED, record_problems, text_problems  # noqa: E402
from speed import START_NOMINAL_S, factors  # noqa: E402
from tracing import LAYER_METRICS, RATIO_METRICS, median_metrics  # noqa: E402
from workloads import INPUT_LIMIT_S, WORKLOADS, pass_orders, passes_for, write_scenarios  # noqa: E402

SETUP_REPEATS = 9
# no pass starts after this many times --seconds
STOP_AFTER = 1.7
# a run must end within 180 s; the worker gets what set-up leaves of this
RUN_BUDGET_S = 170.0
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "report_bytes": "bytes",
    "decided_frac": "ratio",
    "ok_frac": "ratio",
}

# a fresh interpreter that imports the CLI and loads every scenario file
SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import prymtyurin.cli
from prymtyurin.scenario import load_scenario
for path in json.load(open(sys.argv[2])):
    try:
        load_scenario(path)
    except Exception:
        pass  # hostile files are meant to be rejected
"""


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


PER_LAYER_UNITS = {m: layer_unit(m) for m in [*LAYER_METRICS, *RATIO_METRICS, "trace_overhead_frac"]}


def _wall(cmd: list[str]) -> float:
    """Wall time of one child.  No timeout: waiting with one polls in steps
    of up to 50 ms, which would quantize the times."""
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup(scenario_list: Path) -> tuple[list[float], list[float]]:
    """(set-up times, bare start times): fresh interpreters doing the
    program's set-up, each paired with a bare interpreter start just before
    it.  The first pair, which fills the bytecode cache, is not counted."""
    setup = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(scenario_list)]
    bare = [sys.executable, "-c", "pass"]
    times, starts = [], []
    for _ in range(SETUP_REPEATS + 1):
        starts.append(_wall(bare))
        times.append(_wall(setup))
    return times[1:], starts[1:]


def make_plan(workload, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    passes = passes_for(workload, seconds)
    if trace:
        # alternate untraced and traced passes, swapping which goes first
        pairs = max(1, math.ceil(passes / 2))
        traced = [bool((i + i // 2) % 2) for i in range(2 * pairs)]
    else:
        traced = [False] * passes
    orders = pass_orders(workload, seed, len(traced))
    return {
        "workload": workload.name,
        "workdir": str(workdir),
        "limit_s": INPUT_LIMIT_S,
        "stop_after_s": STOP_AFTER * seconds,
        "passes": [{"traced": t, "order": [inp.id for inp in order]}
                   for t, order in zip(traced, orders)],
    }


def run_worker(plan: dict, workdir: Path, budget_s: float) -> dict:
    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=budget_s,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def load_golden() -> dict:
    return json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


def evaluate(workload, records: list[dict], outputs: Path, golden: dict) -> dict[str, list[str]]:
    """Problems per input id; every record of an id with problems has failed.

    Record checks (exit code, traceback, digest) apply to every record; the
    report checks (keyed verdict, oracles) read the first saved report of
    the input, which the digests tie to all the others.
    """
    inputs = {inp.id: inp for inp in workload.inputs}
    problems: dict[str, list[str]] = defaultdict(list)
    digests: dict[str, set[str]] = defaultdict(set)
    for rec in records:
        inp = inputs[rec["id"]]
        for p in record_problems(inp, rec, golden.get(inp.id)):
            problems[inp.id].append(f"pass {rec['pass_index']}: {p}")
        if rec["outcome"] == DECIDED:
            digests[inp.id].add(rec["sha256"])
    for input_id, shas in digests.items():
        if len(shas) > 1:
            problems[input_id].append(f"{len(shas)} different reports across passes")
        text = (outputs / f"{input_id}.out").read_text(encoding="utf-8")
        problems[input_id].extend(text_problems(inputs[input_id], text, golden.get(input_id)))
    return {k: v for k, v in problems.items() if v}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples beyond).  With too few samples, the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def calibrate(records: list[dict], exponent: float) -> None:
    """Give each record its `time`: the measured time scaled by speed.py
    to the nominal host speed, as strongly as the workload's exponent says.
    An undecided input keeps its measured time, which is the limit, a span
    of wall-clock time whatever the host's speed."""
    for rec, factor in zip(records, factors(records)):
        rec["factor"] = factor
        rec["time"] = rec["elapsed"]
        if rec["outcome"] == DECIDED:
            rec["time"] *= factor ** exponent


def timings(records: list[dict], key: str) -> tuple[dict, dict]:
    """The timing metrics of untraced records, from their `key` times, and
    facts about the samples behind them.

    Each input's time is its median over the passes.  The pass time behind
    verdicts_per_s adds those up, and verdict_p50_s is their median over
    the decided inputs, so a burst of load on the machine during one pass
    moves neither.  The tail needs every sample, so it pools them.
    """
    times, decided_times = defaultdict(list), defaultdict(list)
    for rec in records:
        times[rec["id"]].append(rec[key])
        if rec["outcome"] == DECIDED:
            decided_times[rec["id"]].append(rec[key])
    pass_time = sum(statistics.median(ts) for ts in times.values())
    per_pass = statistics.median(
        sum(1 for r in records if r["pass_index"] == i and r["outcome"] == DECIDED)
        for i in {r["pass_index"] for r in records})
    latencies = [t for ts in decided_times.values() for t in ts]
    tail_value, tail_pct, beyond = tail(latencies)
    metrics = {
        "verdicts_per_s": per_pass / pass_time,
        "verdict_p50_s": statistics.median(statistics.median(ts) for ts in decided_times.values()),
        "verdict_tail_s": tail_value,
    }
    facts = {
        "verdict_tail_percentile": tail_pct,
        "verdict_tail_samples_beyond": beyond,
        "verdict_samples": len(latencies),
        "pass_s": pass_time,
    }
    return metrics, facts


def end_to_end(records: list[dict], setup: tuple[list[float], list[float]],
               peak_rss_mb: float, failed: int) -> tuple[dict, dict]:
    """(metrics, extra facts for the result file) from calibrated untraced
    records; the facts include the timing metrics as measured."""
    metrics, facts = timings(records, "time")
    measured, _ = timings(records, "elapsed")
    setup_times, bare_starts = setup
    pass_bytes = defaultdict(int)
    for rec in records:
        if rec["outcome"] == DECIDED:
            pass_bytes[rec["pass_index"]] += rec["bytes"]
    attempted = len(records)
    metrics.update({
        "setup_s": START_NOMINAL_S * statistics.median(
            t / b for t, b in zip(setup_times, bare_starts)),
        "peak_rss_mb": peak_rss_mb,
        "report_bytes": statistics.median(pass_bytes.values()),
        "decided_frac": sum(1 for r in records if r["outcome"] == DECIDED) / attempted,
        "ok_frac": (attempted - failed) / attempted,
    })
    facts.update({f"measured_{k}": v for k, v in measured.items()})
    facts.update({
        "failed_frac": failed / attempted,
        "passes": len(pass_bytes),
        "speed_factor": statistics.median(r["factor"] for r in records),
        "measured_setup_s": statistics.median(setup_times),
        "setup_times_s": setup_times,
        "bare_start_times_s": bare_starts,
    })
    return metrics, facts


def per_layer(result: dict, records: list[dict]) -> tuple[dict, dict]:
    """(metrics, layer shares of self time) from the traced passes.  The
    pass times behind trace_overhead_frac count only the inputs every pass
    runs, so the first pass's undecided input does not enter them."""
    passes = defaultdict(set)
    for rec in records:
        passes[rec["id"]].add(rec["pass_index"])
    all_passes = {rec["pass_index"] for rec in records}
    everywhere = {i for i, seen in passes.items() if seen == all_passes}
    pass_time = defaultdict(float)
    traced = {}
    for rec in records:
        if rec["id"] in everywhere:
            pass_time[rec["pass_index"]] += rec["time"]
        traced[rec["pass_index"]] = rec["traced"]
    on = statistics.median(t for i, t in pass_time.items() if traced[i])
    off = statistics.median(t for i, t in pass_time.items() if not traced[i])
    metrics = median_metrics(result["layers"])
    metrics["trace_overhead_frac"] = on / off - 1
    self_time = defaultdict(float)
    for metric, value in metrics.items():
        if metric.endswith("_s"):
            self_time[metric.split(".")[0]] += value
    total = sum(self_time.values()) or 1.0
    shares = {layer: t / total for layer, t in sorted(self_time.items())}
    return metrics, shares


def commit_id() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    workload = WORKLOADS[name]
    inputs = {inp.id: inp for inp in workload.inputs}
    workdir = BENCH / "work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    scenario_list = workdir / "scenarios.json"
    scenario_list.write_text(json.dumps([str(p) for p in write_scenarios(workload, workdir)]))
    setup = ([], []) if trace else measure_setup(scenario_list)

    plan = make_plan(workload, seed, seconds, trace, workdir)
    budget = RUN_BUDGET_S - (time.monotonic() - started)
    result = run_worker(plan, workdir, budget)
    records = result["records"]
    calibrate(records, workload.speed_exponent)
    problems = evaluate(workload, records, workdir / "outputs", load_golden())
    failed = sum(1 for r in records if r["id"] in problems)

    if trace:
        metrics, shares = per_layer(result, records)
        units, facts = PER_LAYER_UNITS, {"self_time_share": shares}
    else:
        untraced = [r for r in records if not r["traced"]]
        metrics, facts = end_to_end(untraced, setup, result["peak_rss_mb"], failed)
        units = END_TO_END_UNITS
    return {
        "workload": name,
        # known defects count as failed but do not make the run incorrect
        "correct": all(inputs[i].known_defect for i in problems),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "facts": facts,
        "problems": problems,
        "known_defects": {inp.id: inp.known_defect for inp in workload.inputs
                          if inp.known_defect},
    }


def print_table(res: dict) -> None:
    print(f"== {res['workload']}: {res['attempted']} inputs attempted, {res['failed']} failed,"
          f" correct={res['correct']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    for name, value in res["facts"].items():
        if isinstance(value, dict):
            value = ", ".join(f"{k} {v:.3f}" for k, v in value.items())
        elif isinstance(value, list):
            value = ", ".join(f"{v:.4f}" for v in value)
        print(f"  {name:<36} {value}")
    for input_id, found in sorted(res["problems"].items()):
        note = res["known_defects"].get(input_id)
        label = f"known defect ({note})" if note else "FAILED"
        print(f"  {input_id}: {label}: {'; '.join(found[:3])}")


def write_result(res: dict, seed: int, seconds: int, trace: bool) -> Path:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{res['workload']}-seed{seed}-trace{int(trace)}.json"
    meta = {
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
    path.write_text(json.dumps({**meta, **res}, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "prymtyurin" / "cli.py").is_file():
        print(f"no prymtyurin source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        path = write_result(res, args.seed, args.seconds, bool(args.trace))
        print_table(res)
        print(f"  result file: {path.relative_to(ROOT)}")
        results[name] = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
