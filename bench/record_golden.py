"""Record golden.json: exit code, keyed verdict, sha256 and size of every
input's report at the current commit.

    python3 bench/record_golden.py

Run it only at a commit whose reports are known to be right (the file in
the repository was recorded at the seed commit and checked against the
closed-form oracles).  Hostile inputs are checked against their stated
expectation and the undecided input has no report, so neither is recorded.
"""

from __future__ import annotations

import json
import sys

from checks import DECIDED, keyed_verdict, oracle_problems
from worker import BENCH, run_input
from workloads import INPUT_LIMIT_S, WORKLOADS, write_scenarios


def main() -> int:
    golden = {}
    workdir = BENCH / "work" / "golden"
    for workload in WORKLOADS.values():
        write_scenarios(workload, workdir)
        for inp in workload.inputs:
            if inp.hostile_field is not None or inp.undecided:
                continue
            rec, text = run_input(inp.command(workdir), INPUT_LIMIT_S)
            problems = oracle_problems(inp.oracle, text)
            if rec["outcome"] != DECIDED or rec["traceback"] or problems:
                print(f"{inp.id}: not recorded: {rec['outcome']} {problems}", file=sys.stderr)
                return 1
            golden[inp.id] = {
                "exit": rec["exit"],
                "verdict": keyed_verdict(text, "table" in inp.argv),
                "sha256": rec["sha256"],
                "bytes": rec["bytes"],
            }
    path = BENCH / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(golden)} inputs in {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
