#!/usr/bin/env python3
"""Run every builtin scenario family over a genus range and tabulate invariants.

For each scenario the table shows, per fiber model, the induced-curve genus,
the diagonal intersection count, the exact dimension of the candidate abelian
subvariety, and the combinatorial verdict.  Useful as a regression-at-a-glance
companion to the acceptance tests: the dimension column agrees across models
wherever both are defined.

Usage:
    python3 scripts/family_sweep.py [--min-genus 1] [--max-genus 10]
"""

import argparse

from prymtyurin.report import assemble, models_for
from prymtyurin.scenario import grid_scenario, subset_scenario


def row(label, data):
    """One table line, read from the report's canonical dict."""
    q = data["correspondence"]["exponent"]
    cells = [f"{label:<18}{'q=' + str(q) if q else 'q=?':<6}"]
    for model in models_for(data["scenario"]["model"]):
        rep = data["models"][model]
        if "error" in rep:
            cells.append(f"{model}: error ({rep['error']})")
            continue
        dim = rep["dim_p"] if rep["dim_p"] is not None else "?"
        verdict = data["verdict"][model]
        verdict = {"verified": "ok", "failed": "FAIL"}.get(verdict, verdict)
        cells.append(
            f"{model}: g_C={rep['induced']['genus']} diag={rep['delta_dot_d']}"
            f" dim={dim} [{verdict}]"
        )
    return "  ".join(cells)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-genus", type=int, default=1)
    parser.add_argument("--max-genus", type=int, default=10)
    args = parser.parse_args()

    for n in (2, 3, 4):
        for gx in range(args.min_genus, args.max_genus + 1):
            print(row(f"subset n={n} gx={gx}", assemble(subset_scenario(n, gx))))
        print()
    for g in range(max(args.min_genus, 2), args.max_genus + 1):
        print(row(f"grid 3x3 g={g}", assemble(grid_scenario(g))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
