"""Special fibers of the induced curve in both fiber models, and its irreducibility.

A degree n+2 covering f of the line induces a covering h of degree
comb(n+2, 2) whose generic fiber consists of the n-subsets of the fiber of f.
Over a branch point of f some of those subsets collide, and the package keeps
two bookkeeping models for the collided fiber side by side:

- merged model ("paper"): points of the special fiber are classes of subsets
  with the same multiset of identification blocks, the ramification index of
  a class is its size;
- orbit model ("monodromy"): points are the orbits of the permutation induced
  on subsets by the local monodromy, the index is the orbit length.

Both are honest conventions; they can disagree on ramification (a merged
class may split into several orbits), so genus and fixed-point counts are
computed per model and reported side by side, never mixed.  On the 3x3 grid
the orbits of each local monodromy are exactly the divisor coincidence
classes, so the two models agree fiber by fiber.

Every special fiber is built one way, as the orbits (perms.orbits) of the
generators it carries: permutations of the generic fiber's point positions
in the correspondence's point order.  They are the Young subgroup of a
profile's blocks (blocks_from_parts; merged model) or its local monodromy
(orbit model), induced on subsets by perms.induced_subset_action, and the
local monodromy on grid cells as arithmetic on row-major cell positions.
orbit_classes writes the orbits as classes; fixed_points.class_action
proves from the generators that the correspondence descends to the classes
and requires them to be exactly these.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import accumulate
from math import comb

from .correspondence import grid_points
from .perms import (
    Permutation,
    Record,
    all_subsets,
    induced_subset_action,
    is_transitive,
    orbits,
    subset_index,
)

MERGED = "paper"
ORBIT = "monodromy"
MODELS = (MERGED, ORBIT)


class SpecialFiber(Record, namedtuple("SpecialFiber", "classes generators")):
    """A special fiber of the induced covering: its classes, the orbits of its
    generators (permutations of the 1-based positions of the generic fiber's
    points, in the correspondence's point order).  A class is the sorted
    tuple of its members, and its size is its ramification index.  A fiber
    does not know its model: the report's model entry holding it records the
    model, and a merged subset entry writes its block multisets from the
    fiber's profile.  So one fiber serves both models wherever their
    generators agree: the four grid fibers and the subset simple fiber.

    >>> subset_fiber(2, (2, 2), MERGED).classes
    (((1, 2),), ((1, 3), (1, 4), (2, 3), (2, 4)), ((3, 4),))
    """

    @cached_property
    def w_contribution(self) -> int:
        return sum(map(len, self.classes)) - len(self.classes)


def orbit_classes(generators: tuple[Permutation, ...], points) -> list[tuple[tuple, tuple]]:
    """The orbits of the generators on the 1-based positions of points, as
    (class, orbit) pairs: the class lists the orbit's points in
    lexicographic order, and the pairs are ordered by that first member.

    >>> orbit_classes((Permutation((3, 2, 1)),), "cab")
    [(('a',), (2,)), (('b', 'c'), (1, 3))]
    """
    point = (None, *points).__getitem__  # the point at a 1-based position
    walked = orbits(generators, len(points))
    return sorted((tuple(sorted(map(point, orbit))), orbit) for orbit in walked)


def _fiber(generators: tuple[Permutation, ...], points) -> SpecialFiber:
    """The one fiber builder: the classes of orbit_classes."""
    classes, _ = zip(*orbit_classes(generators, points))
    return SpecialFiber(classes, generators)


def blocks_from_parts(parts: tuple[int, ...], degree: int) -> tuple[tuple[int, ...], ...]:
    """Canonical identification blocks for a ramification profile, the one
    place a profile becomes labels.

    Branch points are anonymous, so only the partition shape matters; labels
    are assigned consecutively: (2, 2, 1) on 5 sheets becomes
    ((1, 2), (3, 4), (5,)).
    """
    if sum(parts) != degree:
        raise ValueError(f"profile {parts!r} does not sum to {degree}")
    parts = sorted(parts, reverse=True)
    starts = accumulate(parts, initial=1)
    return tuple(tuple(range(start, start + p)) for start, p in zip(starts, parts))


def partition_monodromy(parts, degree: int) -> Permutation:
    """The canonical local monodromy of a ramification profile: each block
    of blocks_from_parts becomes one cycle on its labels.

    Any other permutation with the same cycle partition is conjugate to this
    one by a block-preserving relabeling, so the induced orbit structure
    depends only on the partition.
    """
    blocks = blocks_from_parts(parts, degree)
    return Permutation.from_cycles(degree, tuple(b for b in blocks if len(b) > 1))


def subset_fiber(n: int, parts, model: str) -> SpecialFiber:
    """The subset construction's special fiber over a ramification profile
    of the n + 2 sheets, whose blocks_from_parts collide.  Merged model:
    n-subsets that hit the blocks with the same multiplicities, the orbits of
    the blocks' Young subgroup, generated by a transposition and the cycle of
    each block (one move for a pair).  Orbit model: the cycles of the local
    monodromy (partition_monodromy).  Every generator is induced on
    n-subsets through one colex index.  Only the simple profile (2, 1, ...)
    gets equal fibers: both models move its one pair by (1 2) alone.  The
    merged class of size 4 splits into two orbits:

    >>> [[len(c) for c in subset_fiber(3, (2, 2, 1), m).classes] for m in MODELS]
    [[2, 1, 2, 4, 1], [2, 1, 2, 2, 2, 1]]
    """
    degree = n + 2
    blocks = blocks_from_parts(parts, degree)
    moved = tuple(b for b in blocks if len(b) > 1)
    if model == MERGED:
        moves = [(c,) for b in moved for c in dict.fromkeys((b[:2], b))]
    elif model == ORBIT:
        moves = [moved]
    else:
        raise ValueError(f"unknown fiber model {model!r}")
    index = subset_index(degree, n)
    generators = tuple(
        induced_subset_action(Permutation.from_cycles(degree, c), n, index) for c in moves
    )
    return _fiber(generators, all_subsets(degree, n))


# --- grid fibers ------------------------------------------------------------


def grid_row_monodromy(m: int, row_parts) -> Permutation:
    """Local monodromy of a row-merge fiber as a permutation of the cells:
    the rows move by partition_monodromy of their profile, columns stay put.
    Cell (i, j) sits at the row-major position (i - 1)m + j."""
    sigma = partition_monodromy(row_parts, m)
    return Permutation(tuple((s - 1) * m + j for s in sigma.images for j in range(1, m + 1)))


def grid_pairing_monodromy(m: int, shift: int = 0) -> Permutation:
    """Local monodromy of a pairing fiber: the two sides of the grid coincide
    through the matching i -> i + shift (mod m), so cell (i, j) goes to
    (j - shift, i + shift).  It is an involution; cells on the matched
    diagonal are fixed.  Counting i and j from 0 below, cell (i, j) sits at
    the row-major position i*m + j + 1."""
    return Permutation(
        tuple((j - shift) % m * m + (i + shift) % m + 1 for i in range(m) for j in range(m))
    )


def grid_row_merge_fiber(m: int, row_parts) -> SpecialFiber:
    """Grid special fiber where rows are glued by a profile of the m rows
    (columns stay distinct): the orbits of grid_row_monodromy, so cell (i, j)
    is identified with (i', j) when i, i' share a block of the profile."""
    return _fiber((grid_row_monodromy(m, row_parts),), grid_points(m))


def grid_pairing_fiber(m: int, shift: int = 0) -> SpecialFiber:
    """Grid special fiber where the two sides of the grid coincide: the
    orbits of grid_pairing_monodromy, each a glued pair or a diagonal cell."""
    return _fiber((grid_pairing_monodromy(m, shift),), grid_points(m))


# --- irreducibility proxy ---------------------------------------------------


def irreducibility_check(generators: tuple[Permutation, ...], k: int) -> bool:
    """Transitivity of the induced action on k-subsets.

    This is the combinatorial content of irreducibility of the induced curve:
    the monodromy image must not split the subset fiber.  It is a proxy, not
    a proof of irreducibility of any particular curve.  Every generator is
    induced through one colex index.
    """
    if not generators:
        return False
    degree = generators[0].degree
    index = subset_index(degree, k)
    induced = tuple(induced_subset_action(g, k, index) for g in generators)
    return is_transitive(induced, comb(degree, k))
