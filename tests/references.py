"""Reference implementations the package has replaced, kept for the tests to
compare against.

reference_class_action is the class action as a full matrix over classes,
checked at every member of every class; reference_merged_fiber groups the
n-subsets by the multiset of identification blocks they hit; and
reference_orbit_classes is the cycles of one permutation of point positions.
The package now builds every special fiber as the orbits of its generators
and reads the action off one representative per class, only where the
criterion reads it: diagonal_and_block cuts a full matrix down to that part.
"""

from prymtyurin.induced_curve import FiberClass
from prymtyurin.perms import all_subsets, orbits


def reference_class_action(corr, fiber):
    """Entry [q][r] is the multiplicity of class r in the image of class q.
    A member that is not a point, a member in two classes, classes that do
    not cover the points and an action that depends on the representative
    raise ValueError."""
    masks, seen = [], 0
    for cls in fiber.classes:
        before = seen
        for member in cls.members:
            row = corr.index.get(member)
            if row is None:
                raise ValueError(
                    f"member {member} is not a point of the {corr.kind} correspondence"
                )
            if seen >> row & 1:
                raise ValueError(f"member {member} appears in two classes")
            seen |= 1 << row
        masks.append(seen ^ before)
    covered = sum(len(c.members) for c in fiber.classes)
    if covered != corr.size:
        raise ValueError(f"classes cover {covered} points, matrix has {corr.size}")

    rows = []
    for ci, cls in enumerate(fiber.classes):
        projected = None
        for member in cls.members:
            image = corr.rows[corr.index[member]]
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


def reference_merged_fiber(n, blocks):
    """The classes of the merged-model fiber: n-subsets grouped by the sorted
    block ids they hit, each class in lexicographic order, classes ordered by
    their first member."""
    block_of = {x: i for i, b in enumerate(blocks) for x in b}
    grouped = {}
    for s in all_subsets(n + 2, n):
        key = tuple(sorted(block_of[x] for x in s))
        grouped.setdefault(key, []).append(s)
    classes = [
        FiberClass(members=tuple(sorted(members)), block_multiset=key)
        for key, members in grouped.items()
    ]
    classes.sort(key=lambda c: c.members[0])
    return tuple(classes)


def reference_orbit_classes(perm, points):
    """The cycles of a permutation of point positions, as classes of the
    points, ordered by their smallest member."""
    classes = [FiberClass(members=tuple(sorted(points[r - 1] for r in orbit)))
               for orbit in orbits((perm,))]
    classes.sort(key=lambda c: c.members[0])
    return tuple(classes)


def diagonal_and_block(matrix):
    """The part of a full class action that fixed_points.class_action
    returns: every diagonal entry, and the entries among the classes of
    diagonal 1."""
    diagonal = tuple(row[q] for q, row in enumerate(matrix))
    chosen = [q for q, mult in enumerate(diagonal) if mult == 1]
    return diagonal, tuple(tuple(matrix[q][p] for p in chosen) for q in chosen)
