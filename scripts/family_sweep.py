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

from prymtyurin.report import assemble
from prymtyurin.scenario import grid_scenario, subset_scenario


def row(label, rep):
    cells = [f"{label:<18}{'q=' + str(rep.q) if rep.q else 'q=?':<6}"]
    for model in rep.models:
        if model.error is not None:
            cells.append(f"{model.model}: error ({model.error})")
            continue
        dim = model.dim_p if model.dim_p is not None else "?"
        verdict = {"verified": "ok", "failed": "FAIL"}.get(model.verdict, model.verdict)
        cells.append(
            f"{model.model}: g_C={model.genus} diag={model.fixed.delta_dot_d}"
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
            rep = assemble(subset_scenario(n, gx))
            print(row(f"subset n={n} gx={gx}", rep))
        print()
    for g in range(max(args.min_genus, 2), args.max_genus + 1):
        rep = assemble(grid_scenario(g))
        print(row(f"grid 3x3 g={g}", rep))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
