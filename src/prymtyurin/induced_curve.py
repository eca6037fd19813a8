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

A special fiber is built only from the generators it carries and the
points they move: permutations of the generic fiber's point positions in
the correspondence's point order.  Each builder takes the correspondence,
writes label moves, permutations of the sheet labels, and induces them by
FiberCorrespondence.induce, which takes each point to the point holding
the image of its label pair: the Young subgroup of a profile's blocks
(blocks_from_parts; merged model) or its local monodromy (orbit model) on
the n + 2 sheets, and the grid's local monodromies as moves of its 2m row
and column labels (a row merge is partition_monodromy of its row profile
padded with m parts of 1, the fixed column labels).  Every builder
records the label moves beside the generators induced from them.

The irreducibility check, irreducibility_check, is the one transitivity
test for both families.  It reads one list of label moves: an explicit
monodromy, or the synthesized basis a family's layout returns beside its
fibers (each distinct declared profile's partition_monodromy and the
adjacent transpositions of the simple branch points for the subset
family, the four fibers' moves for the grid); report.assemble alone
chooses between them.  It induces the moves the same way, so no fiber or
check builds points or an index: the correspondence's label pairs, built
once with its relation, serve every move, and each distinct move is
induced once per correspondence.
The SpecialFiber constructor walks their orbits (perms.orbits) once and
writes them as the classes, so the classes are the orbits by construction;
fixed_points.class_action proves from the generators, or from the label
moves they were induced from, that the correspondence descends to them and
reads the orbits the fiber keeps.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from .correspondence import FiberCorrespondence
from .perms import Permutation, Record, is_transitive, orbits

MERGED = "paper"
ORBIT = "monodromy"
MODELS = (MERGED, ORBIT)


class SpecialFiber(Record, namedtuple("SpecialFiber", "classes generators")):
    """A special fiber of the induced covering, built from its generators
    and the points they move, the generic fiber's points in the
    correspondence's point order (a generator permutes their 1-based
    positions).  Its classes are the generators' orbits, walked once here,
    each the sorted tuple of its members, in order of their first member; a
    class's size is its ramification index.  The points and the orbits (as
    positions, in class order) are the attributes points and orbits, outside
    the fields and equality.  So are moves, the label moves the generators
    were induced from, one per generator in order, or None for a fiber
    given none; class_action reads them, and copy and pickle keep them.
    So is w_contribution, the fiber's part of the induced ramification w,
    set here: the number N of points less the number of classes, since the
    classes partition the points.  A
    fiber does not know its model: the report's model entry holding it
    records the model, and a merged subset entry writes its block multisets
    from the fiber's profile.  So one fiber
    serves both models wherever their generators agree: the four grid
    fibers and the subset simple fiber.

    >>> fiber = SpecialFiber((Permutation((3, 2, 1)),), "cab")
    >>> fiber.classes, fiber.orbits
    ((('a',), ('b', 'c')), ((2,), (1, 3)))
    >>> from prymtyurin.correspondence import build_subset_matrix
    >>> subset_fiber(build_subset_matrix(2), (2, 2), MERGED).classes
    (((1, 2),), ((1, 3), (1, 4), (2, 3), (2, 4)), ((3, 4),))
    """

    def __new__(cls, generators: tuple[Permutation, ...], points, moves=None):
        points = tuple(points)
        if moves is not None and len(moves) != len(generators):
            raise ValueError(f"{len(moves)} label moves for {len(generators)} generators")
        point = (None, *points).__getitem__  # the point at a 1-based position
        walked = orbits(generators, len(points))
        ordered = sorted((tuple(sorted(map(point, orbit))), orbit) for orbit in walked)
        classes, walked = zip(*ordered)
        self = super().__new__(cls, classes, generators)
        w = len(points) - len(classes)
        self.__dict__.update(points=points, orbits=walked, moves=moves, w_contribution=w)
        return self

    def __getnewargs__(self):
        # copy and pickle rebuild a fiber from what it is built from
        return self.generators, self.points, self.moves


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


def subset_fiber(corr: FiberCorrespondence, parts, model: str) -> SpecialFiber:
    """The special fiber of the subset correspondence corr (parameter n)
    over a ramification profile of the n + 2 sheets, whose blocks_from_parts
    collide.  Merged model: n-subsets that hit the blocks with the same
    multiplicities, the orbits of the blocks' Young subgroup, generated by a
    transposition and the cycle of each block (one move for a pair).  Orbit
    model: the cycles of the local monodromy (partition_monodromy).  Every
    label move is induced on corr.points by corr.induce and recorded as the
    fiber's moves.  Only the simple
    profile (2, 1, ...) gets equal fibers: both models move its one pair by
    (1 2) alone.  The merged class of size 4 splits into two orbits:

    >>> from prymtyurin.correspondence import build_subset_matrix
    >>> corr = build_subset_matrix(3)
    >>> [[len(c) for c in subset_fiber(corr, (2, 2, 1), m).classes] for m in MODELS]
    [[2, 1, 2, 4, 1], [2, 1, 2, 2, 2, 1]]
    """
    degree = corr.parameter + 2
    if model == MERGED:
        moved = (b for b in blocks_from_parts(parts, degree) if len(b) > 1)
        cycles = (c for b in moved for c in dict.fromkeys((b[:2], b)))
        moves = tuple(Permutation.from_cycles(degree, (c,)) for c in cycles)
    elif model == ORBIT:
        moves = (partition_monodromy(parts, degree),)
    else:
        raise ValueError(f"unknown fiber model {model!r}")
    return SpecialFiber(tuple(map(corr.induce, moves)), corr.points, moves)


# --- grid fibers ------------------------------------------------------------


def grid_pairing_monodromy(m: int, shift: int) -> Permutation:
    """Local monodromy of a pairing fiber as a label move of the 2m grid
    labels: the two sides of the grid coincide through the matching
    i -> i + shift (mod m), so row i goes to column i + shift and column j
    to row j - shift.  It is an involution; induced on the cells it takes
    (i, j) to (j - shift, i + shift) and fixes the matched diagonal."""
    rows = (m + 1 + (i + shift) % m for i in range(m))
    return Permutation((*rows, *(1 + (j - shift) % m for j in range(m))))


# the profile of the m rows a grid row-merge fiber glues: one pair
GRID_ROW_PROFILE = (2, 1)


def grid_row_merge_fiber(corr: FiberCorrespondence) -> SpecialFiber:
    """Grid special fiber of corr where rows are glued by GRID_ROW_PROFILE,
    a profile of its m rows (columns stay distinct), so cell (i, j) is
    identified with (i', j) when i, i' share a block of the profile.  Its
    local monodromy is a label move of the 2m grid labels,
    partition_monodromy of the row profile padded with m parts of 1:
    blocks_from_parts lays the parts out largest first, so the row
    profile's blocks fall on the row labels 1..m and the column labels
    m + 1..2m stay put."""
    move = partition_monodromy((*GRID_ROW_PROFILE, *(1,) * corr.parameter), 2 * corr.parameter)
    return SpecialFiber((corr.induce(move),), corr.points, (move,))


def grid_pairing_fiber(corr: FiberCorrespondence, shift: int) -> SpecialFiber:
    """Grid special fiber of corr where the two sides of the grid coincide:
    the orbits of grid_pairing_monodromy, each a glued pair or a diagonal cell."""
    move = grid_pairing_monodromy(corr.parameter, shift)
    return SpecialFiber((corr.induce(move),), corr.points, (move,))


# --- irreducibility proxy ---------------------------------------------------


def irreducibility_check(generators: tuple[Permutation, ...], corr: FiberCorrespondence) -> bool:
    """Transitivity of the label moves' induced action on corr's points (the
    n-subsets of the subset family, the cells of the grid).

    This is the combinatorial content of irreducibility of the induced curve:
    the monodromy image must not split the subset fiber.  It is a proxy, not
    a proof of irreducibility of any particular curve.  Every generator is
    induced by corr.induce, which hands back a move the report's fibers
    already induced; with none, every point is its own orbit, so the check
    fails.
    """
    return is_transitive(tuple(map(corr.induce, generators)), corr.size)
