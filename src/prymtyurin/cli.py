"""Command-line front end.

Subcommands:
  run <file>                 evaluate a scenario file (JSON)
  builtin pn-case            the small-covering subset family, n in {2, 3, 4}
  builtin hyperelliptic      the 3x3 grid family over a hyperelliptic curve
  verify-identity            just the quadratic identity and exponent

Exit codes: 0 when the keyed model's combinatorial hypotheses all verify,
2 when they do not: a hypothesis failed or the nesting search ran out of
budget (the report is still printed, with the verdict "failed" or
"undecided"), 1 on validation errors (malformed file, bad arguments,
infeasible scenario), on a scenario file that cannot be opened or read
(stderr says "cannot read input") and on any failed write to stdout, --help
included: a pipe whose reader is gone, a full device or a closed stdout
(stderr says "cannot write output").  The keyed model is the merged-class
model whenever it was evaluated, otherwise the single model requested.

verify-identity reads its kind's family record (scenario.FAMILIES), the
place a family is described: the size flag's name, its ceiling and the
matrix builder.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys

from .report import (
    assemble,
    correspondence_to_dict,
    identity_rows,
    json_pieces,
    keyed_verdict,
    render_table,
    table_row,
)
from .scenario import (
    FAMILIES,
    KINDS,
    MODEL_CHOICES,
    InvalidScenario,
    Scenario,
    grid_scenario,
    load_scenario,
    subset_scenario,
)

EXIT_VERIFIED = 0
EXIT_VALIDATION = 1
EXIT_HYPOTHESIS = 2


class UnreadableInput(Exception):
    """The scenario file could not be opened or read: the one OSError main
    does not blame on the output."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments, which would collide with
    # the hypothesis-failure code; bad arguments are validation errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)

    # argparse's own print_help ignores a failed write, and writes to stderr
    # when sys.stdout is None; here a failed write of the help text to
    # stdout reaches main like any other
    def print_help(self, file=None):
        (file or _stdout()).write(self.format_help())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    parse_args keeps no state on the parser, so every main() call reuses
    it; callers must not add arguments to the shared object.
    """
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
    ident.add_argument("--kind", required=True, choices=KINDS)
    ident.add_argument("--n", type=int, help="subset size (kind subset)")
    ident.add_argument("--m", type=int, help="grid side (kind grid)")
    ident.add_argument("--dump-matrix", action="store_true", help="include the matrix")
    ident.add_argument("--format", choices=("json", "table"), default="table")

    return parser


def _output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=MODEL_CHOICES, default=None,
                        help="fiber model(s) to evaluate (default: scenario's own)")
    parser.add_argument("--format", choices=("json", "table"), default="table")


def cmd_report(args) -> int:
    """run and builtin: the scenario from its file or its family, under
    --model when given, assembled and printed in one view."""
    if args.command == "run":
        try:
            scenario = load_scenario(args.file)
        except OSError as exc:
            raise UnreadableInput(exc) from exc
    elif args.family == "pn-case":
        scenario = subset_scenario(args.n, args.gx)
    else:
        scenario = grid_scenario(args.g)
    if args.model is not None and args.model != scenario.model:
        scenario = Scenario(**{**scenario._asdict(), "model": args.model})
    data = assemble(scenario)
    if args.format == "json":
        _write_json(data)
    else:
        _stdout().write(render_table(data))
    return EXIT_VERIFIED if keyed_verdict(data) else EXIT_HYPOTHESIS


def cmd_verify_identity(args) -> int:
    family = FAMILIES[args.kind]
    key, limit = family.key, family.identity_max
    size = getattr(args, key)
    if size is None:
        raise InvalidScenario(f"--kind {args.kind} requires --{key}")
    for kind, other in FAMILIES.items():
        if other is not family and getattr(args, other.key) is not None:
            raise InvalidScenario(f"--{other.key} only applies to --kind {kind}")
    if not 2 <= size <= limit:
        bound = "at least 2" if size < 2 else f"at most {limit}"
        raise InvalidScenario(f"--{key} must be {bound}, got {size}")
    corr = family.matrix(size)

    summary = {"kind": args.kind, key: size, **correspondence_to_dict(corr)}
    if args.dump_matrix:
        # D[i][j] is character j of corr.bits[i], written as byte 0 or 1
        digits = bytes.maketrans(b"01", b"\0\1")
        summary["matrix"] = [list(row.encode().translate(digits)) for row in corr.bits]
    if args.format == "json":
        _write_json(summary)
    else:
        rows = [
            table_row("correspondence", f"{summary['kind']} {key} = {summary[key]}"),
            table_row("fiber size", summary["size"]),
            table_row("bidegree", summary["bidegree"]),
            *identity_rows(summary),
            table_row("derivation", summary["exponent_derivation"]),
        ]
        if args.dump_matrix:
            rows.append("matrix:")
            rows += ["  " + " ".join(map(str, row)) for row in summary["matrix"]]
        _stdout().write("\n".join(rows) + "\n")

    return EXIT_VERIFIED if summary["exponent"] is not None else EXIT_HYPOTHESIS


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code == 0:  # --help: its text waits in stdout's buffer
                _flush_stdout()
            raise
        if args.command == "verify-identity":
            code = cmd_verify_identity(args)
        else:
            code = cmd_report(args)
        _flush_stdout()
        return code
    except InvalidScenario as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnreadableInput as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        # every other OSError is a failed write to stdout: point fd 1 at the
        # null device, so the interpreter's flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _stdout():
    # None when fd 1 was closed as the interpreter started; a closed file
    # object would raise ValueError, which main reads as bad input
    if sys.stdout is None or sys.stdout.closed:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def _write_json(obj) -> None:
    # the writer's pieces go to stdout unjoined, so a multi-MB report is
    # never held as one string and then copied again by stdout
    out = _stdout()
    out.writelines(json_pieces(obj))
    out.write("\n")


def _flush_stdout() -> None:
    # a write to stdout that fails does so here at the latest, not in the
    # interpreter's flush at exit
    _stdout().flush()


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
