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

Every view (a report as JSON or as a table, verify-identity's summary and
the help at each level) goes to stdout through one helper, _print, in one
writelines call and one flush: a failed write raises in the command that
wrote it and reaches main's one OSError handler.  Only an OSError from
opening or reading the scenario file is blamed on the input, where it is
read, in cmd_report.

Arguments are read from one table, COMMANDS (each command path with its
flags and, for run, its positional), by one walk over argv, parse_args.
Flags are read by their exact names only: a prefix, an unknown option or a
word that begins with "-" (a negative number included) where no flag takes
it as a value is refused, with argparse's phrases, and -h or --help at any
level writes help built from the table.  argparse is not imported: with
its gettext it was a quarter of this module's import, and its parse the
largest cost of a verify-identity call.

verify-identity reads its kind's family record (scenario.FAMILIES), the
place a family is described: the size flag's name, its ceiling and the
matrix builder.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from types import SimpleNamespace

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


# A flag: its name, the type its value is read with (bool marks a switch,
# which takes no value and is True when given), the values it admits (None
# for any), its default (REQUIRED for a flag that must be given) and its help.
Flag = namedtuple("Flag", "name type choices default help")
# A command path: its help line, its positional (a Flag, or None) and its
# flags.  A group is a path that longer paths extend: its flags are None, its
# positional records which of them was chosen, and it admits their last names.
Command = namedtuple("Command", "help positional flags")
REQUIRED = object()

_FORMAT = Flag("--format", str, ("json", "table"), "table", "output view (default: table)")
_OUTPUT = (
    Flag("--model", str, MODEL_CHOICES, None,
         "fiber model(s) to evaluate (default: scenario's own)"),
    _FORMAT,
)

COMMANDS = {
    (): Command(
        "exact checks of the Prym-Tyurin exponent criterion",
        Flag("command", str, None, REQUIRED, None),
        None,
    ),
    ("run",): Command(
        "evaluate a scenario file",
        Flag("file", str, None, REQUIRED, "path to a scenario JSON file"),
        _OUTPUT,
    ),
    ("builtin",): Command(
        "evaluate a builtin scenario family",
        Flag("family", str, None, REQUIRED, None),
        None,
    ),
    ("builtin", "pn-case"): Command("subset family over the line", None, (
        Flag("--n", int, (2, 3, 4), REQUIRED, "subset size"),
        Flag("--gx", int, None, REQUIRED, "source curve genus"),
        *_OUTPUT,
    )),
    ("builtin", "hyperelliptic"): Command("3x3 grid family", None, (
        Flag("--g", int, None, REQUIRED, "hyperelliptic genus, >= 2"),
        *_OUTPUT,
    )),
    ("verify-identity",): Command("quadratic identity and exponent only", None, (
        Flag("--kind", str, KINDS, REQUIRED, "correspondence family"),
        Flag("--n", int, None, None, "subset size (kind subset)"),
        Flag("--m", int, None, None, "grid side (kind grid)"),
        Flag("--dump-matrix", bool, None, False, "include the matrix"),
        _FORMAT,
    )),
}

_HELP = ("-h", "--help")


def parse_args(argv=None) -> SimpleNamespace:
    """The arguments of one call, read by COMMANDS.

    Each group takes -h or --help or the name of a command below it, which
    reads the rest.  A leaf writes its help when -h or --help is anywhere
    before "--"; otherwise it reads its flags by their exact names, each
    value after its flag or joined to it by "=", the last of a repeated flag
    winning, and every other word as its positional.  "--" ends the options.
    A refused argv writes a usage line and an error to stderr and raises
    SystemExit(1); help goes to stdout and raises SystemExit(0).
    """
    argv = sys.argv[1:] if argv is None else argv
    values, path, start = {}, (), 0
    while (command := COMMANDS[path]).flags is None:
        name = argv[start] if start < len(argv) else None
        if name in _HELP:
            _help(path)
        if name is None:
            _fail(path, f"the following arguments are required: {command.positional.name}")
        if name.startswith("-"):
            _fail((), f"unrecognized arguments: {name}")
        if path + (name,) not in COMMANDS:
            _invalid_choice(path, command.positional.name, name, _below(path))
        values[command.positional.name] = name
        path, start = path + (name,), start + 1

    rest = argv[start:]
    cut = rest.index("--") if "--" in rest else len(rest)
    if any(token in _HELP for token in rest[:cut]):
        _help(path)
    flags = {flag.name: flag for flag in command.flags}
    words, tokens = [], iter(rest[:cut])
    for token in tokens:
        name, joined, value = token.partition("=")
        flag = flags.get(name)
        if flag is None:
            if token.startswith("-") and token != "-":
                _fail((), f"unrecognized arguments: {token}")
            words.append(token)
        elif flag.type is bool:
            if joined:
                _fail(path, f"argument {name}: ignored explicit argument {value!r}")
            values[_dest(flag)] = True
        elif joined or (value := next(tokens, None)) is not None:
            values[_dest(flag)] = _read(path, flag, value)
        else:
            _fail(path, f"argument {name}: expected one argument")
    words += rest[cut + 1:]

    positional = command.positional
    missing = [positional.name] if positional and not words else []
    missing += [flag.name for flag in command.flags
                if flag.default is REQUIRED and _dest(flag) not in values]
    if missing:
        _fail(path, f"the following arguments are required: {', '.join(missing)}")
    if positional:
        values[positional.name] = words.pop(0)
    if words:
        _fail((), f"unrecognized arguments: {' '.join(words)}")
    for flag in command.flags:
        values.setdefault(_dest(flag), flag.default)
    return SimpleNamespace(**values)


def _dest(flag) -> str:
    """The attribute a flag is stored under: --dump-matrix as dump_matrix."""
    return flag.name[2:].replace("-", "_")


def _read(path, flag, text):
    try:
        value = flag.type(text)
    except ValueError:
        _fail(path, f"argument {flag.name}: invalid {flag.type.__name__} value: {text!r}")
    if flag.choices is not None and value not in flag.choices:
        _invalid_choice(path, flag.name, value, flag.choices)
    return value


def _below(path) -> list[str]:
    """The names a group admits: the last names of the paths one longer."""
    return [below[-1] for below in COMMANDS if below[:-1] == path and below != ()]


def _invalid_choice(path, name, value, choices):
    listed = ", ".join(map(repr, choices))
    _fail(path, f"argument {name}: invalid choice: {value!r} (choose from {listed})")


def _fail(path, message):
    # argparse's usage line and message, with the validation exit code: its
    # own code, 2, is the hypothesis-failure code here
    print(_usage(path), file=sys.stderr)
    print(f"{' '.join(('prymtyurin',) + path)}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_VALIDATION)


def _help(path):
    _print([_help_text(path)])
    raise SystemExit(EXIT_VERIFIED)


def _usage(path) -> str:
    command = COMMANDS[path]
    words = ["usage:", "prymtyurin", *path, "[-h]"]
    if command.flags is None:
        return " ".join(words + ["{" + ",".join(_below(path)) + "}", "..."])
    for flag in command.flags:
        word = _flag_words(flag)
        words.append(word if flag.default is REQUIRED else f"[{word}]")
    if command.positional:
        words.append(command.positional.name)
    return " ".join(words)


def _flag_words(flag) -> str:
    if flag.type is bool:
        return flag.name
    if flag.choices is None:
        return f"{flag.name} {flag.name[2:].upper()}"
    return f"{flag.name} {{{','.join(map(str, flag.choices))}}}"


def _help_text(path) -> str:
    """A level's help: its usage, its help line, and one row for each
    command below it, its positional and each option."""
    command = COMMANDS[path]
    if command.flags is None:
        sections = {"commands": [(name, COMMANDS[path + (name,)].help) for name in _below(path)]}
    else:
        positional = command.positional
        sections = {"arguments": [(positional.name, positional.help)]} if positional else {}
    sections["options"] = [(", ".join(_HELP), "show this help message and exit")]
    sections["options"] += [(_flag_words(flag), flag.help) for flag in command.flags or ()]
    width = max(len(left) for rows in sections.values() for left, _ in rows) + 2
    lines = [_usage(path), "", command.help]
    for title, rows in sections.items():
        lines += ["", f"{title}:", *(f"  {left:<{width}}{text}" for left, text in rows)]
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    """run and builtin: the scenario from its file or its family, under
    --model when given, assembled and printed in one view."""
    if args.command == "run":
        try:
            scenario = load_scenario(args.file)
        except OSError as exc:
            # the one OSError not from a write to stdout
            print(f"cannot read input: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    elif args.family == "pn-case":
        scenario = subset_scenario(args.n, args.gx)
    else:
        scenario = grid_scenario(args.g)
    if args.model is not None and args.model != scenario.model:
        scenario = Scenario(**{**scenario._asdict(), "model": args.model})
    data = assemble(scenario)
    _print(_json_lines(data) if args.format == "json" else [render_table(data)])
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
        _print(_json_lines(summary))
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
        _print(["\n".join(rows) + "\n"])

    return EXIT_VERIFIED if summary["exponent"] is not None else EXIT_HYPOTHESIS


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        if args.command == "verify-identity":
            return cmd_verify_identity(args)
        return cmd_report(args)
    except InvalidScenario as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        # a failed write to stdout: while stdout is open, its unwritten bytes
        # wait for the interpreter's flush at exit, so fd 1 is pointed at the
        # null device, where that flush cannot fail
        if sys.stdout is not None and not sys.stdout.closed:
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), 1)
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _stdout():
    # None when fd 1 was closed as the interpreter started; a closed file
    # object would raise ValueError, which main reads as bad input
    if sys.stdout is None or sys.stdout.closed:
        # imported here: Python 3.10 and 3.12 do not load errno at start-up,
        # and the cold-start rule keeps it out of the CLI's import
        import errno

        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def _print(lines) -> None:
    # every view reaches stdout here, in one writelines and one flush, so a
    # failed write raises in the command that wrote it, never in the
    # interpreter's flush at exit
    out = _stdout()
    out.writelines(lines)
    out.flush()


def _json_lines(obj) -> list[str]:
    # the writer's pieces unjoined, so a multi-MB report is never held as one
    # string and then copied again by stdout; the newline joins the writer's
    # own list, which is not copied
    pieces = json_pieces(obj)
    pieces.append("\n")
    return pieces


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
