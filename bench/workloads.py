"""The benchmark's workloads: which inputs each one feeds the verifier.

An input is one `prymtyurin` command line.  Inputs of the `run` subcommand
name a scenario file; the files are written by `write_scenarios` at set-up,
so the program under test only ever sees files.  The input set of a
workload is fixed; the seed only shuffles the order of each pass.

Every input carries what it is expected to do:

- `oracle` names a closed-form check in `checks.py` that does not depend
  on the program (strongly-regular-graph identities, grid genus formulas);
- `undecided` marks the one input that does not finish at the seed commit
  (subset n = 8 under both models); it has no golden report;
- `hostile_field` inputs must exit 1, name that field on stderr and print
  no traceback.  `known_defect` marks the hostile inputs the seed commit gets
  wrong (ROADMAP item 5); they still count as failed, but they do not make
  the run incorrect, so a fix shows as a rise in `ok_frac`.

All other inputs must reproduce the exit code, keyed verdict and sha256
recorded in `golden.json` from the seed commit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Input:
    id: str
    argv: tuple[str, ...]
    scenario: dict | None = None  # written to a file named by the {file} placeholder
    oracle: tuple = ()  # (name, *params) understood by checks.oracle_problems
    undecided: bool = False
    hostile_field: str | None = None
    known_defect: str | None = None

    def command(self, workdir: Path) -> list[str]:
        path = str(scenario_path(workdir, self))
        return [path if a == "{file}" else a for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[Input, ...]
    # whole passes in a 30-second run (see passes_for)
    passes_at_30s: int
    # how strongly the workload's times follow the reference work of
    # speed.py: the slope of log time against log reference time over the
    # samples of many runs on the 2-core VM the benchmark was developed on
    speed_exponent: float = 1.0


def _run(id_, scenario, fmt="json", **kw) -> Input:
    return Input(id=id_, argv=("run", "{file}", "--format", fmt), scenario=scenario, **kw)


def _identity_inputs() -> tuple[Input, ...]:
    out = []
    for n in range(2, 13):
        argv = ("verify-identity", "--kind", "subset", "--n", str(n), "--format", "json")
        out.append(Input(id=f"identity-subset-n{n}", argv=argv, oracle=("identity-subset", n)))
    for m in range(2, 9):
        argv = ("verify-identity", "--kind", "grid", "--m", str(m), "--format", "json")
        out.append(Input(id=f"identity-grid-m{m}", argv=argv, oracle=("identity-grid", m)))
    return tuple(out)


def _sweep_inputs() -> tuple[Input, ...]:
    out = []
    for gx in (1, 3):
        for n in range(2, 8):
            scen = {"kind": "subset", "n": n, "upstairs_genus": gx, "model": "both"}
            out.append(_run(f"sweep-both-n{n}-gx{gx}", scen, oracle=("run-subset", n)))
    # explicit monodromy: transitive S5, a non-transitive group, a 7-cycle with a transposition
    monodromy = [
        (3, 2, "both", [[2, 1, 3, 4, 5], [1, 3, 2, 4, 5], [1, 2, 4, 3, 5], [1, 2, 3, 5, 4]]),
        (4, 3, "monodromy", [[2, 3, 1, 4, 5, 6], [1, 2, 3, 5, 6, 4]]),
        (5, 2, "paper", [[2, 3, 4, 5, 6, 7, 1], [2, 1, 3, 4, 5, 6, 7]]),
    ]
    for n, gx, model, gens in monodromy:
        scen = {"kind": "subset", "n": n, "upstairs_genus": gx, "model": model, "monodromy": gens}
        out.append(_run(f"sweep-explicit-n{n}", scen, oracle=("run-subset", n)))
    for n in (8, 9):
        scen = {"kind": "subset", "n": n, "upstairs_genus": 3, "model": "paper"}
        out.append(_run(f"sweep-merged-n{n}", scen, oracle=("run-subset", n)))
    scen = {"kind": "subset", "n": 8, "upstairs_genus": 3, "model": "both"}
    out.append(_run("sweep-both-n8-gx3", scen, oracle=("run-subset", 8), undecided=True))
    out.append(_run(
        "hostile-float-label",
        {"kind": "subset", "n": 3, "upstairs_genus": 2, "monodromy": [[2, 1, 3, 4, 5.0]]},
        hostile_field="monodromy",
        known_defect="a float sheet label escapes as a TypeError traceback",
    ))
    out.append(_run(
        "hostile-bool-part",
        {"kind": "subset", "n": 2, "upstairs_genus": 1, "special_fibers": [[2, True, True]]},
        hostile_field="special_fibers",
        known_defect="bool profile parts are accepted and the run exits 0",
    ))
    out.append(_run(
        "hostile-negative-genus",
        {"kind": "subset", "n": 3, "upstairs_genus": -1},
        hostile_field="upstairs_genus",
    ))
    return tuple(out)


def _high_genus_inputs() -> tuple[Input, ...]:
    return (
        _run("genus-grid-g1000-json", {"kind": "grid", "upstairs_genus": 1000},
             oracle=("run-grid", 1000)),
        _run("genus-grid-g1000-table", {"kind": "grid", "upstairs_genus": 1000}, fmt="table",
             oracle=("table-grid", 1000)),
        _run("genus-grid-g3000-json", {"kind": "grid", "upstairs_genus": 3000},
             oracle=("run-grid", 3000)),
        _run("genus-subset-n3-gx1000", {"kind": "subset", "n": 3, "upstairs_genus": 1000},
             oracle=("run-subset", 3)),
        _run("genus-subset-n2-gx1000", {"kind": "subset", "n": 2, "upstairs_genus": 1000},
             oracle=("run-subset", 2)),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="identity",
            inputs=_identity_inputs(),
            passes_at_30s=30,  # about 0.75 s a pass
        ),
        Workload(
            name="subset-sweep",
            inputs=_sweep_inputs(),
            # about 5.5 s a pass, and 5 s more for the undecided input in the
            # first.  With 5 passes the tail, which has 10 samples beyond it,
            # falls in the middle of the 20 samples of the four slow inputs.
            passes_at_30s=5,
        ),
        Workload(
            name="high-genus",
            inputs=_high_genus_inputs(),
            # about 5.5 s a pass.  With 7 passes the tail is the median of the
            # second slowest input (grid g = 1000 as JSON), not an edge of it.
            passes_at_30s=7,
            # the grid inputs build lists and strings of many MB; a busy host
            # slows that less than the compute-bound reference work (fitted
            # slopes 0.45 to 0.85; 0.95 for the two subset inputs)
            speed_exponent=0.8,
        ),
    )
}

# the per-input limit: about three times the slowest decided input at the
# seed commit (subset n = 6 and 7 under both models, 1.0 to 1.8 s), so that
# noise never turns a decided input undecided
INPUT_LIMIT_S = 5.0


def passes_for(workload: Workload, seconds: int) -> int:
    """Whole passes for a run of `seconds`, at least one.

    The count depends on `seconds` alone, not on how fast the code under
    test runs, so every commit measures the same samples and the tail
    percentile keeps its sample count from one commit to the next.  At the
    seed commit on a 2-core x86-64 machine a run measures at most about
    `seconds`; a faster commit takes less.
    """
    return max(1, round(workload.passes_at_30s * seconds / 30))


def pass_orders(workload: Workload, seed: int, passes: int) -> list[list[Input]]:
    """The input order of each pass.  An undecided input runs in the first
    pass only: it always spends the whole limit, so a second sample would
    add only waiting."""
    rng = random.Random(seed)
    orders = []
    for index in range(passes):
        order = [inp for inp in workload.inputs if index == 0 or not inp.undecided]
        rng.shuffle(order)
        orders.append(order)
    return orders


def scenario_path(workdir: Path, inp: Input) -> Path:
    return workdir / "scenarios" / f"{inp.id}.json"


def write_scenarios(workload: Workload, workdir: Path) -> list[Path]:
    paths = []
    for inp in workload.inputs:
        if inp.scenario is None:
            continue
        path = scenario_path(workdir, inp)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(inp.scenario, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
