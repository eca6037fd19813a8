"""Command-line front end.

Subcommands:
  run <file>                 evaluate a scenario file (JSON)
  builtin pn-case            the small-covering subset family, n in {2, 3, 4}
  builtin hyperelliptic      the 3x3 grid family over a hyperelliptic curve
  verify-identity            just the quadratic identity and exponent

Exit codes: 0 when the keyed model's combinatorial hypotheses all verify,
2 when they do not: a hypothesis failed or the nesting search ran out of
budget (the report is still printed, with the verdict "failed" or
"undecided"), 1 on validation
errors (malformed file, bad arguments, infeasible scenario).  The keyed
model is the merged-class model whenever it was evaluated, otherwise the
single model requested.

Set PRYMTYURIN_VERBOSE=1 to echo the resolved scenario to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .correspondence import build_grid_matrix, build_subset_matrix, identity_and_exponent
from .report import (
    PrymReport,
    assemble,
    canonical_json,
    correspondence_to_dict,
    rational_json,
    render_table,
    report_to_json,
)
from .scenario import (
    GRID,
    MODEL_CHOICES,
    SUBSET,
    InvalidScenario,
    grid_scenario,
    load_scenario,
    subset_scenario,
)

EXIT_VERIFIED = 0
EXIT_VALIDATION = 1
EXIT_HYPOTHESIS = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments, which would collide with
    # the hypothesis-failure code; bad arguments are validation errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prymtyurin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="evaluate a scenario file")
    run.add_argument("file", help="path to a scenario JSON file")
    _output_options(run)

    builtin = sub.add_parser("builtin", help="evaluate a builtin scenario family")
    family = builtin.add_subparsers(dest="family", required=True, parser_class=_Parser)

    pn = family.add_parser("pn-case", help="subset family over the line")
    pn.add_argument("--n", type=int, required=True, choices=(2, 3, 4))
    pn.add_argument("--gx", type=int, required=True, help="source curve genus")
    _output_options(pn)

    hyp = family.add_parser("hyperelliptic", help="3x3 grid family")
    hyp.add_argument("--g", type=int, required=True, help="hyperelliptic genus, >= 2")
    _output_options(hyp)

    ident = sub.add_parser("verify-identity", help="quadratic identity and exponent only")
    ident.add_argument("--kind", required=True, choices=(SUBSET, GRID))
    ident.add_argument("--n", type=int, help="subset size (kind subset)")
    ident.add_argument("--m", type=int, help="grid side (kind grid)")
    ident.add_argument("--dump-matrix", action="store_true", help="include the matrix")
    ident.add_argument("--format", choices=("json", "table"), default="table")

    return parser


def _output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=MODEL_CHOICES, default=None,
                        help="fiber model(s) to evaluate (default: scenario's own)")
    parser.add_argument("--format", choices=("json", "table"), default="table")


def _verbose() -> bool:
    return os.environ.get("PRYMTYURIN_VERBOSE", "") not in ("", "0")


def _emit_report(report: PrymReport, fmt: str) -> int:
    if fmt == "json":
        print(report_to_json(report))
    else:
        print(render_table(report), end="")
    return EXIT_VERIFIED if report.keyed_verdict else EXIT_HYPOTHESIS


def _run_scenario(scenario, args) -> int:
    if args.model is not None and args.model != scenario.model:
        scenario = dataclasses.replace(scenario, model=args.model)
    if _verbose():
        print(f"scenario: {scenario}", file=sys.stderr)
    return _emit_report(assemble(scenario), args.format)


def cmd_run(args) -> int:
    return _run_scenario(load_scenario(args.file), args)


def cmd_builtin(args) -> int:
    if args.family == "pn-case":
        scenario = subset_scenario(args.n, args.gx)
    else:
        scenario = grid_scenario(args.g)
    return _run_scenario(scenario, args)


def cmd_verify_identity(args) -> int:
    if args.kind == SUBSET:
        if args.n is None:
            raise InvalidScenario("--kind subset requires --n")
        if args.m is not None:
            raise InvalidScenario("--m only applies to --kind grid")
        corr = build_subset_matrix(args.n)
        params = {"kind": SUBSET, "n": args.n}
    else:
        if args.m is None:
            raise InvalidScenario("--kind grid requires --m")
        if args.n is not None:
            raise InvalidScenario("--n only applies to --kind subset")
        corr = build_grid_matrix(args.m)
        params = {"kind": GRID, "m": args.m}

    ident, q, note = identity_and_exponent(corr)
    if args.format == "json":
        out = dict(params)
        out.update(correspondence_to_dict(corr.size, corr.bidegree, ident, q, note))
        if args.dump_matrix:
            out["matrix"] = [list(row) for row in corr.matrix]
        print(canonical_json(out))
    else:
        label = f"{params['kind']} " + (
            f"n = {args.n}" if args.kind == SUBSET else f"m = {args.m}"
        )
        print(f"{'correspondence':<22}{label}")
        print(f"{'fiber size':<22}{corr.size}")
        print(f"{'bidegree':<22}{corr.bidegree}")
        if ident is None:
            print(f"{'identity':<22}none found")
        else:
            a, b, c = (rational_json(x) for x in ident.coefficients())
            print(f"{'identity':<22}D^2 = ({a})*I + ({b})*D + ({c})*U   [verified entrywise]")
        print(f"{'exponent q':<22}{q if q is not None else 'none'}")
        print(f"{'derivation':<22}{note}")
        if args.dump_matrix:
            print("matrix:")
            for row in corr.matrix:
                print("  " + " ".join(str(x) for x in row))

    return EXIT_VERIFIED if q is not None else EXIT_HYPOTHESIS


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "builtin":
            return cmd_builtin(args)
        return cmd_verify_identity(args)
    except InvalidScenario as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
