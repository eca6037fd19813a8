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
is a map on points as the permutation of
their positions, looked up by descriptor; the package writes its grid
monodromies and symmetries in closed form over row-major positions instead.
The package now builds every special fiber as the orbits of its generators
and reads the action off one representative per class, only where the
criterion reads it: diagonal_and_block cuts a full matrix down to that part.
"""

from itertools import chain

from prymtyurin.induced_curve import MERGED, SpecialFiber, blocks_from_parts, subset_fiber
from prymtyurin.perms import Permutation, all_subsets, induced_subset_action, orbits


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
    sheets: subset_fiber's fiber of their profile, classes and generators
    relabeled by the label permutation that carries the profile's canonical
    blocks (blocks_from_parts) onto these (blocks of equal size in the order
    given)."""
    ordered = sorted(blocks, key=len, reverse=True)
    parts = tuple(map(len, ordered))
    fiber = subset_fiber(n, parts, MERGED)
    canonical = blocks_from_parts(parts, n + 2)
    image = dict(zip(chain.from_iterable(canonical), chain.from_iterable(ordered)))
    relabel = lambda member: tuple(sorted(map(image.__getitem__, member)))
    classes = tuple(sorted(tuple(sorted(map(relabel, cls))) for cls in fiber.classes))
    # a generator g on positions becomes move . g . move^-1
    move = induced_subset_action(Permutation(tuple(map(image.__getitem__, range(1, n + 3)))), n)
    back = {r: q for q, r in enumerate(move.images, 1)}
    generators = tuple(
        Permutation(tuple(move(g(back[r])) for r in range(1, g.degree + 1)))
        for g in fiber.generators
    )
    return SpecialFiber(classes, generators)


def reference_orbit_classes(perm, points):
    """The cycles of a permutation of point positions, as classes of the
    points, ordered by their smallest member."""
    return tuple(sorted(tuple(sorted(points[r - 1] for r in orbit)) for orbit in orbits((perm,))))


def diagonal_and_block(matrix):
    """The part of a full class action that fixed_points.class_action
    returns: every diagonal entry, and the entries among the classes of
    diagonal 1."""
    diagonal = tuple(row[q] for q, row in enumerate(matrix))
    chosen = [q for q, mult in enumerate(diagonal) if mult == 1]
    return diagonal, tuple(tuple(matrix[q][p] for p in chosen) for q in chosen)
