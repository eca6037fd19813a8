"""Reference implementations the package has replaced, kept for the tests to
compare against.

reference_class_action is the class action as a full matrix over classes,
checked at every member of every class; reference_merged_fiber groups the
n-subsets by the multiset of identification blocks they hit, and returns the
classes with those grouping keys; and
reference_orbit_classes is the cycles of one permutation of point positions.
merged_fiber_over reaches the merged fiber over any identification blocks,
which the package builds only for a profile's canonical blocks, by
relabeling.  partitions lists the profiles of a degree.  point_permutation
is a map on points as the permutation of their positions, looked up by
descriptor; the package induces its grid symmetries as label moves through
the cells' label pairs instead.  grid_row_cell_monodromy and
grid_pairing_cell_monodromy are the grid's two local monodromies as the
row-major cell formulas the package used before it wrote them as label
moves induced on the cells (FiberCorrespondence.induce).
The package now builds every special fiber as the orbits of its generators
and reads the action off one representative per class, only where the
criterion reads it: diagonal_and_block cuts a full matrix down to that part.
reference_fixed_point_scan and reference_w read a layout's positions as a
tuple of fiber indices, one gather per position, as the package did before
its positions became bytes that it scans by find and counts.
build_parser is the CLI's argparse definition from before the CLI read its
arguments from one table (cli.COMMANDS) by one walk over argv.
"""

import argparse
import functools
import sys
from itertools import chain, compress, count

from prymtyurin import cli
from prymtyurin.correspondence import build_subset_matrix
from prymtyurin.induced_curve import (
    MERGED,
    SpecialFiber,
    blocks_from_parts,
    partition_monodromy,
    subset_fiber,
)
from prymtyurin.perms import Permutation, all_subsets, orbits
from prymtyurin.scenario import KINDS, MODEL_CHOICES


def reference_class_action(corr, fiber):
    """Entry [q][r] is the multiplicity of class r in the image of class q.
    A member that is not a point, a member in two classes, classes that do
    not cover the points and an action that depends on the representative
    raise ValueError."""
    index = {p: i for i, p in enumerate(corr.points)}
    masks, seen = [], 0
    for cls in fiber.classes:
        before = seen
        for member in cls:
            row = index.get(member)
            if row is None:
                raise ValueError(
                    f"member {member} is not a point of the {corr.kind} correspondence"
                )
            if seen >> row & 1:
                raise ValueError(f"member {member} appears in two classes")
            seen |= 1 << row
        masks.append(seen ^ before)
    covered = sum(map(len, fiber.classes))
    if covered != corr.size:
        raise ValueError(f"classes cover {covered} points, matrix has {corr.size}")

    rows = []
    for ci, cls in enumerate(fiber.classes):
        projected = None
        for member in cls:
            image = corr.rows[index[member]]
            counts = [(image & mask).bit_count() for mask in masks]
            if projected is None:
                projected = counts
            elif projected != counts:
                raise ValueError(
                    f"class action depends on the representative in class {ci}: "
                    f"{projected} vs {counts} at {member}"
                )
        rows.append(tuple(projected))
    return tuple(rows)


def point_permutation(points, move):
    """The permutation of 1-based positions in points induced by a map that
    permutes the points: position r goes to the position of
    move(points[r - 1]).

    >>> point_permutation("abc", {"a": "b", "b": "a", "c": "c"}.get).images
    (2, 1, 3)
    """
    position = {p: r for r, p in enumerate(points, start=1)}
    return Permutation(tuple(position[move(p)] for p in points))


def grid_row_cell_monodromy(m, row_parts):
    """The row-merge monodromy on the m x m cells: the rows move by
    partition_monodromy of their profile, columns stay put.  Cell (i, j)
    sits at the row-major position (i - 1)m + j."""
    sigma = partition_monodromy(row_parts, m)
    return Permutation(tuple((s - 1) * m + j for s in sigma.images for j in range(1, m + 1)))


def grid_pairing_cell_monodromy(m, shift):
    """The pairing monodromy on the m x m cells: cell (i, j) goes to
    (j - shift, i + shift) mod m.  Counting i and j from 0, cell (i, j) sits
    at the row-major position i*m + j + 1."""
    return Permutation(
        tuple((j - shift) % m * m + (i + shift) % m + 1 for i in range(m) for j in range(m))
    )


def partitions(total, largest=None):
    """Every partition of total into parts of at most largest, largest first."""
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in partitions(total - part, part):
            yield (part,) + rest


def reference_merged_fiber(n, blocks):
    """The classes of the merged-model fiber and their grouping keys: n-subsets
    grouped by the sorted block ids they hit, each class a tuple of its
    members in lexicographic order, classes ordered by their first member,
    and the key of each class in the same order."""
    block_of = {x: i for i, b in enumerate(blocks) for x in b}
    grouped = {}
    for s in all_subsets(n + 2, n):
        key = tuple(sorted(block_of[x] for x in s))
        grouped.setdefault(key, []).append(s)
    ordered = sorted((tuple(sorted(members)), key) for key, members in grouped.items())
    return tuple(c for c, _ in ordered), tuple(key for _, key in ordered)


def merged_fiber_over(n, blocks):
    """The merged fiber over arbitrary identification blocks of the n + 2
    sheets, built from the generators of subset_fiber's fiber of their
    profile, relabeled by the label permutation that carries the profile's
    canonical blocks (blocks_from_parts) onto these (blocks of equal size in
    the order given)."""
    ordered = sorted(blocks, key=len, reverse=True)
    parts = tuple(map(len, ordered))
    corr = build_subset_matrix(n)
    fiber = subset_fiber(corr, parts, MERGED)
    canonical = blocks_from_parts(parts, n + 2)
    image = dict(zip(chain.from_iterable(canonical), chain.from_iterable(ordered)))
    # a generator g on positions becomes move . g . move^-1
    move = corr.induce(Permutation(tuple(map(image.__getitem__, range(1, n + 3)))))
    back = {r: q for q, r in enumerate(move.images, 1)}
    generators = tuple(
        Permutation(tuple(move(g(back[r])) for r in range(1, g.degree + 1)))
        for g in fiber.generators
    )
    return SpecialFiber(generators, corr.points)


def reference_orbit_classes(perm, points):
    """The cycles of a permutation of point positions, as classes of the
    points, ordered by their smallest member."""
    walked = orbits((perm,), perm.degree)
    return tuple(sorted(tuple(sorted(points[r - 1] for r in orbit)) for orbit in walked))


def diagonal_and_block(matrix):
    """The part of a full class action that fixed_points.class_action
    returns: every diagonal entry, and the entries among the classes of
    diagonal 1."""
    diagonal = tuple(row[q] for q, row in enumerate(matrix))
    chosen = [q for q, mult in enumerate(diagonal) if mult == 1]
    return diagonal, tuple(tuple(matrix[q][p] for p in chosen) for q in chosen)


def reference_fixed_point_scan(actions, positions):
    """(position, class, multiplicity) for every fixed class at every
    position, in layout order, gathered position by position; an index past
    the fibers raises IndexError."""
    fixed = [list(compress(enumerate(diagonal), diagonal)) for diagonal, _ in actions]
    return [
        (p, q, mult)
        for p in compress(count(), map(fixed.__getitem__, positions))
        for q, mult in fixed[positions[p]]
    ]


def reference_w(ws, positions):
    """The sum of each position's fiber's w, gathered position by position."""
    return sum(map(ws.__getitem__, positions))


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments, which would collide with
    # the hypothesis-failure code; bad arguments are validation errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(cli.EXIT_VALIDATION)

    # argparse's own print_help ignores a failed write, and writes to stderr
    # when sys.stdout is None; here a failed write of the help text to
    # stdout reaches main like any other
    def print_help(self, file=None):
        (file or cli._stdout()).write(self.format_help())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    parse_args keeps no state on the parser, so every main() call reuses
    it; callers must not add arguments to the shared object.
    """
    parser = _Parser(prog="prymtyurin", description=cli.__doc__.splitlines()[0])
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
