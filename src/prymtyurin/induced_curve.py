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
computed per model and reported side by side, never mixed.

For the grid construction (degree 9 over the line, fibers a 3x3 grid of
two-point divisors) each special fiber is built as the orbits of its local
monodromy, and those orbits are exactly the divisor coincidence classes, so
the two models agree fiber by fiber and the same classes serve both.

Every local monodromy here permutes the positions of a point list: induced
on subsets it is perms.induced_subset_action, acting on grid cells
perms.point_permutation.  Every orbit-built fiber is the cycles of one such
permutation (perms.orbits), read back as classes of points.

The genus of the induced curve follows from these fibers by Riemann-Hurwitz;
report assembles it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .correspondence import grid_points
from .perms import (
    Permutation,
    all_subsets,
    induced_subset_action,
    is_transitive,
    orbits,
    point_permutation,
    subset_index,
)

MERGED = "paper"
ORBIT = "monodromy"
MODELS = (MERGED, ORBIT)


@dataclass(frozen=True)
class FiberClass:
    """One point of a special fiber: the subsets (or grid cells) glued into it.

    members are sorted tuples of 1-based labels; block_multiset is the sorted
    tuple of block ids hit by a member, with multiplicity (merged subset model
    only, None otherwise).  The ramification index of the class is its size.
    """

    members: tuple[tuple[int, ...], ...]
    block_multiset: tuple[int, ...] | None = None

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SpecialFiber:
    """A special fiber of the induced covering: its classes of points.

    A fiber does not record which model built it; the report's model entry
    holding it does.  Each model builds its own fibers, so the grid fibers,
    whose classes are the same under both models, are equal but not shared.
    """

    classes: tuple[FiberClass, ...]

    @cached_property
    def w_contribution(self) -> int:
        return sum(c.size - 1 for c in self.classes)


def blocks_from_parts(parts: tuple[int, ...], degree: int) -> tuple[tuple[int, ...], ...]:
    """Canonical identification blocks for a ramification profile.

    Branch points are anonymous, so only the partition shape matters; labels
    are assigned consecutively: (2, 2, 1) on 5 sheets becomes
    ((1, 2), (3, 4), (5,)).
    """
    if sum(parts) != degree:
        raise ValueError(f"profile {parts!r} does not sum to {degree}")
    blocks = []
    next_label = 1
    for p in sorted(parts, reverse=True):
        blocks.append(tuple(range(next_label, next_label + p)))
        next_label += p
    return tuple(blocks)


def _validate_blocks(blocks, degree: int) -> tuple[tuple[int, ...], ...]:
    flat = sorted(x for b in blocks for x in b)
    if flat != list(range(1, degree + 1)):
        raise ValueError(f"blocks {blocks!r} are not a partition of 1..{degree}")
    return tuple(tuple(sorted(b)) for b in blocks)


def merged_fiber(n: int, blocks) -> SpecialFiber:
    """Merged-model special fiber for the subset construction.

    Two n-subsets land on the same point of the induced curve exactly when
    they hit the same identification blocks with the same multiplicities.
    Each class lists its members in lexicographic order, and classes are
    ordered by that first member.
    """
    degree = n + 2
    blocks = _validate_blocks(blocks, degree)
    block_of = {x: i for i, b in enumerate(blocks) for x in b}
    grouped: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for s in all_subsets(degree, n):
        key = tuple(sorted(block_of[x] for x in s))
        grouped.setdefault(key, []).append(s)
    classes = [
        FiberClass(members=tuple(sorted(members)), block_multiset=key)
        for key, members in grouped.items()
    ]
    classes.sort(key=lambda c: c.members[0])
    return SpecialFiber(classes=tuple(classes))


def partition_monodromy(blocks, degree: int) -> Permutation:
    """The canonical local monodromy with the given cycle partition: each
    block becomes one cycle on its sorted labels.

    Any other permutation with the same cycle partition is conjugate to this
    one by a block-preserving relabeling, so the induced orbit structure
    depends only on the partition.
    """
    blocks = _validate_blocks(blocks, degree)
    return Permutation.from_cycles(degree, tuple(b for b in blocks if len(b) > 1))


def _orbit_classes(perm: Permutation, points) -> tuple[FiberClass, ...]:
    """The cycles of a permutation of point positions, as classes of the
    points, ordered by their smallest member."""
    classes = [FiberClass(members=tuple(sorted(points[r - 1] for r in orbit)))
               for orbit in orbits((perm,))]
    classes.sort(key=lambda c: c.members[0])
    return tuple(classes)


def orbit_fiber(n: int, blocks) -> SpecialFiber:
    """Orbit-model special fiber: points are cycles of the induced local
    monodromy on n-subsets.  Each class lists its members in lexicographic
    order, and classes are ordered by that first member."""
    degree = n + 2
    induced = induced_subset_action(partition_monodromy(blocks, degree), n)
    return SpecialFiber(classes=_orbit_classes(induced, all_subsets(degree, n)))


def subset_fiber(n: int, blocks, model: str) -> SpecialFiber:
    if model == MERGED:
        return merged_fiber(n, blocks)
    if model == ORBIT:
        return orbit_fiber(n, blocks)
    raise ValueError(f"unknown fiber model {model!r}")


# --- grid fibers ------------------------------------------------------------


def grid_row_monodromy(m: int, row_blocks) -> Permutation:
    """Local monodromy of a row-merge fiber as a permutation of the cells:
    the row coordinate moves by the block cycles, columns stay put."""
    sigma = partition_monodromy(row_blocks, m)
    return point_permutation(grid_points(m), lambda cell: (sigma(cell[0]), cell[1]))


def grid_pairing_monodromy(m: int, shift: int = 0) -> Permutation:
    """Local monodromy of a pairing fiber: the two sides of the grid coincide
    through the matching i -> i + shift (mod m), so cell (i, j) goes to
    (j - shift, i + shift).  It is an involution; cells on the matched
    diagonal are fixed."""
    tau = lambda i: (i - 1 + shift) % m + 1
    tau_inv = lambda i: (i - 1 - shift) % m + 1
    return point_permutation(grid_points(m), lambda cell: (tau_inv(cell[1]), tau(cell[0])))


def grid_row_merge_fiber(m: int, row_blocks) -> SpecialFiber:
    """Grid special fiber where rows are glued by the given partition
    (columns stay distinct): the orbits of grid_row_monodromy, so cell (i, j)
    is identified with (i', j) when i, i' share a block."""
    return SpecialFiber(classes=_orbit_classes(grid_row_monodromy(m, row_blocks), grid_points(m)))


def grid_pairing_fiber(m: int, shift: int = 0) -> SpecialFiber:
    """Grid special fiber where the two sides of the grid coincide: the
    orbits of grid_pairing_monodromy, each a glued pair or a diagonal cell."""
    return SpecialFiber(classes=_orbit_classes(grid_pairing_monodromy(m, shift), grid_points(m)))


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
