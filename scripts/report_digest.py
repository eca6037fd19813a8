#!/usr/bin/env python3
"""Hash every byte the CLI prints over a fixed scenario set, as one sha256.

Each run calls prymtyurin.cli.main in process, and its arguments, scenario
file, exit code, stdout and stderr go into one combined sha256: two
checkouts that print the same bytes on every run print the same digest.
Every run is made in JSON and in table format:

- `run` on subset n = 2..max-n under both models, source genus 1 and 3;
- `run` on every choice of zero, one or two ramified profiles (with
  repetition) for n = 2..max-profile-n, source genus 0, 1 and 3, both models;
- `builtin hyperelliptic` for g = 2..max-g and each large g, under each
  model choice;
- `verify-identity --dump-matrix` for subset n = 2..max-identity-n and grid
  m = 2..max-identity-m.

Scenario files are written to one fixed relative name in a scratch working
directory (tempfile's, so TMPDIR chooses where), and no temporary path
reaches the hash.  The standard library is all it needs beside the
package, which it imports from the interpreter's path: point PYTHONPATH at
a checkout's src to hash that checkout.

Usage:
    PYTHONPATH=src python3 scripts/report_digest.py [--max-n 40] [--max-profile-n 7]
        [--max-g 39] [--large-g 1000 3000] [--max-identity-n 12] [--max-identity-m 8]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from itertools import combinations_with_replacement

from prymtyurin.cli import main as cli_main

SCENARIO = "scenario.json"
FORMATS = ("json", "table")


def partitions(total, largest=None):
    """Every partition of total into parts of at most largest, largest first."""
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in partitions(total - part, part):
            yield (part,) + rest


def cases(args):
    """(argv, scenario file data or None) for every run, in a fixed order."""
    scenarios = [
        {"kind": "subset", "n": n, "upstairs_genus": gx, "model": "both"}
        for n in range(2, args.max_n + 1)
        for gx in (1, 3)
    ]
    for n in range(2, args.max_profile_n + 1):
        ramified = [p for p in partitions(n + 2) if max(p) > 1]
        choices = [()] + [(p,) for p in ramified] + list(combinations_with_replacement(ramified, 2))
        scenarios += [
            {"kind": "subset", "n": n, "upstairs_genus": gx, "model": "both",
             "special_fibers": [list(p) for p in choice]}
            for choice in choices
            for gx in (0, 1, 3)
        ]
    runs = [(["run", SCENARIO], data) for data in scenarios]
    runs += [
        (["builtin", "hyperelliptic", "--g", str(g), "--model", model], None)
        for g in [*range(2, args.max_g + 1), *args.large_g]
        for model in ("paper", "monodromy", "both")
    ]
    sizes = [("subset", "--n", n) for n in range(2, args.max_identity_n + 1)]
    sizes += [("grid", "--m", m) for m in range(2, args.max_identity_m + 1)]
    runs += [(["verify-identity", "--kind", kind, key, str(size), "--dump-matrix"], None)
             for kind, key, size in sizes]
    for argv, data in runs:
        for fmt in FORMATS:
            yield [*argv, "--format", fmt], data


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=40)
    parser.add_argument("--max-profile-n", type=int, default=7)
    parser.add_argument("--max-g", type=int, default=39)
    parser.add_argument("--large-g", type=int, nargs="*", default=[1000, 3000])
    parser.add_argument("--max-identity-n", type=int, default=12)
    parser.add_argument("--max-identity-m", type=int, default=8)
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args()
    combined = hashlib.sha256()
    runs = 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            written = None
            for argv, data in cases(args):
                # both formats of a scenario read one file, written once
                if data is not None and data is not written:
                    with open(SCENARIO, "w", encoding="utf-8") as fh:
                        json.dump(data, fh)
                    written = data
                record = [argv, data, *run(argv)]
                combined.update(json.dumps(record).encode() + b"\n")
                runs += 1
        finally:
            os.chdir(home)
    print(f"{combined.hexdigest()}  {runs} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
