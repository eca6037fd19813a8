"""The measured process: a closed loop of `prymtyurin.cli.main` calls.

    python3 bench/worker.py PLAN RESULT

PLAN (written by run.py) lists the passes, each an input order and whether
it is traced.  One client, no threads: the next input starts only after the
previous call has returned.  Each call's stdout and stderr go to memory, so
the report can be hashed and sized; the first report of every input is also
saved for the checks in run.py.  A SIGALRM timer ends an input that runs past
the plan's limit; it counts as undecided and the pass goes on.  Before each
input the reference work of speed.py is timed, so run.py can calibrate the
input's time to the host's speed.  No pass after the second starts after
the plan's `stop_after_s`, which bounds a run on a host that is much slower
than usual.
The RESULT file gets the records, the traced passes' layer metrics and the
peak RSS.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import prymtyurin.cli  # noqa: E402
from checks import DECIDED, UNDECIDED  # noqa: E402
from speed import time_reference  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class InputTimeout(BaseException):
    """Raised by the SIGALRM handler; a BaseException so the CLI's own
    error handling cannot swallow it."""


def _on_alarm(signum, frame):
    raise InputTimeout


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def run_input(argv: list[str], limit_s: float) -> tuple[dict, str]:
    """One closed-loop call; returns (record, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    code, crashed, outcome = None, False, DECIDED
    gc.collect()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = prymtyurin.cli.main(argv)
            except SystemExit as exc:
                code = _exit_code(exc)
            except Exception:
                # what the interpreter does with an uncaught exception
                traceback.print_exc()
                code, crashed = 1, True
    except InputTimeout:
        outcome = UNDECIDED
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    text = out.getvalue()
    data = text.encode()
    record = {
        "outcome": outcome,
        "exit": code,
        "traceback": crashed,
        "elapsed": elapsed,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "stderr": err.getvalue()[-2000:],
    }
    return record, text


def run_plan(plan: dict, save_dir: Path | None = None) -> dict:
    """Run every pass of the plan; the first report of each input is saved
    to save_dir/<input id>.out."""
    inputs = {inp.id: inp for inp in WORKLOADS[plan["workload"]].inputs}
    workdir = Path(plan["workdir"])
    records, layers, spans = [], [], []
    saved: set[str] = set()
    started = perf_counter()
    for index, step in enumerate(plan["passes"]):
        # the first two passes always run: a traced run needs one of each kind
        if index >= 2 and perf_counter() - started > plan["stop_after_s"]:
            break
        tracer = Tracer() if step["traced"] else None
        with tracer if tracer is not None else contextlib.nullcontext():
            for input_id in step["order"]:
                if tracer is not None:
                    tracer.request = f"{index}/{input_id}"
                ref = time_reference()
                at = perf_counter() - started
                record, text = run_input(inputs[input_id].command(workdir), plan["limit_s"])
                record.update(id=input_id, pass_index=index, traced=step["traced"],
                              ref=ref, at=at)
                records.append(record)
                if save_dir is not None and input_id not in saved and record["outcome"] == DECIDED:
                    (save_dir / f"{input_id}.out").write_text(text, encoding="utf-8")
                    saved.add(input_id)
                # a report kept alive into the next input would add to its
                # peak RSS, and by how much would depend on the order
                del text
        if tracer is not None:
            layers.append(layer_metrics(tracer.spans))
            spans.extend(s[:5] for s in tracer.spans)
    return {
        "records": records,
        "layers": layers,
        "spans": spans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str]) -> int:
    plan_path, result_path = (Path(a) for a in argv)
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    save_dir = Path(plan["workdir"]) / "outputs"
    save_dir.mkdir(parents=True, exist_ok=True)
    result = run_plan(plan, save_dir)
    spans = result.pop("spans")
    if spans:
        with open(Path(plan["workdir"]) / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
