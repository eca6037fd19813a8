"""Exact permutations of labeled sheets and their action on k-subsets.

Conventions used across the package:

- sheet labels are 1-based in every public interface
- a permutation is stored in one-line notation: ``images[x-1]`` is the
  image of the label ``x``
- k-subsets of ``{1..d}`` are written as sorted tuples and listed in colex
  order, which is lexicographic order on the reversed tuples
- a permutation of a fiber's points is one of their 1-based positions in
  the correspondence's point order
- the induced action on k-subsets reads one colex index (``subset_index``),
  the 1-based position of each subset on the smaller side, which the caller
  builds once and passes with each permutation it induces; the package
  itself induces label moves through each correspondence's label pairs
  (``FiberCorrespondence.induce``), and these two are the general action
  the tests hold it to
- the cycles of a permutation p are the orbits of the group it generates, so
  ``orbits`` is the one orbit walk
- the package's immutable records are namedtuples with their own checks in
  ``__new__`` and the equality of ``Record``

Everything here is plain integer arithmetic, no floating point anywhere.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import comb
from operator import itemgetter


def shown(value) -> str:
    """repr(value), or a stand-in when it holds an int past Python's limit
    for printing one, so that an error message still names its fault."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            return "a value too long to print"
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


class Record:
    """The equality of the package's records, each a namedtuple that lists
    this class first among its bases: a record equals only a record of its
    own class with equal fields, never a plain tuple or a record of another
    class with the same fields, and it stays hashable.  Fields are read-only,
    and a record that keeps a __dict__ for its cached properties refuses any
    other attribute.  Each record runs its checks in __new__, so _replace
    and _make, which skip __new__, are not used on them.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Permutation(Record, namedtuple("Permutation", "images")):
    """A bijection of ``{1..degree}`` in one-line notation.

    >>> p = Permutation((2, 1, 3))
    >>> p(1), p(2), p(3)
    (2, 1, 3)
    >>> p == ((2, 1, 3),), p == Permutation((2, 1, 3))
    (False, True)
    """

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]):
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {shown(images)}")
        return super().__new__(cls, images)

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def from_cycles(cls, degree: int, cycles: tuple[tuple[int, ...], ...]) -> "Permutation":
        """Build a permutation from disjoint cycles (labels not mentioned are fixed).

        >>> Permutation.from_cycles(4, ((1, 2), (3, 4))).images
        (2, 1, 4, 3)
        """
        images = list(range(1, degree + 1))
        seen: set[int] = set()
        for cyc in cycles:
            for x in cyc:
                if not 1 <= x <= degree:
                    raise ValueError(f"cycle entry {x} outside 1..{degree}")
                if x in seen:
                    raise ValueError(f"label {x} appears in two cycles")
                seen.add(x)
            for i, x in enumerate(cyc):
                images[x - 1] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(images))

    def __call__(self, x: int) -> int:
        return self.images[x - 1]


def transposition(degree: int, i: int, j: int) -> Permutation:
    if i == j:
        raise ValueError("a transposition needs two distinct labels")
    return Permutation.from_cycles(degree, ((i, j),))


# --- k-subsets ----------------------------------------------------------------


def all_subsets(universe: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {1..universe} in colex order: ordered by their largest
    element, then the next largest, and so on.

    >>> all_subsets(4, 2)
    [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    """
    # k-subsets written largest first come in lex order from the labels
    # listed downwards; read backwards, that is colex order
    descending = list(itertools.combinations(range(universe, 0, -1), k))
    return list(map(itemgetter(slice(None, None, -1)), reversed(descending)))


def subset_index(degree: int, k: int) -> dict[tuple[int, ...], int]:
    """The colex index that induced_subset_action reads for k-subsets of
    {1..degree}: the 1-based position of each min(k, degree - k)-subset in
    colex order, its keys listed in that order.  Nothing in the package
    calls it: with induced_subset_action it is the tests' reference for
    FiberCorrespondence.induce, kept here while the bench tracer patches
    that function by name (until ROADMAP item 2 replaces the tracer).

    >>> subset_index(4, 3)
    {(1,): 1, (2,): 2, (3,): 3, (4,): 4}
    """
    if not 0 <= k <= degree:
        raise ValueError(f"subset size {k} outside 0..{degree}")
    return dict(zip(all_subsets(degree, min(k, degree - k)), itertools.count(1)))


def induced_subset_action(p: Permutation, k: int, index: dict) -> Permutation:
    """The permutation induced by p on the k-subsets of its domain, listed
    in colex order.

    This is a group homomorphism: the induced action of a composition is the
    composition of the induced actions, and the identity induces the identity.
    Complementing commutes with p and reverses colex order, so for k above
    degree - k the points are the complements, the smaller subsets backwards.
    ``index`` is ``subset_index(p.degree, k)``, built by the caller; each
    subset's image is one C-level gather of labels, sorted and looked up.
    Nothing in the package calls it: it is the general k-subset action the
    tests hold FiberCorrespondence.induce to, and the bench tracer patches
    it by name until ROADMAP item 2 replaces the tracer.

    >>> p = Permutation.from_cycles(4, ((1, 2),))
    >>> induced_subset_action(p, 2, subset_index(4, 2)).images
    (1, 3, 2, 5, 4, 6)
    """
    if not 0 <= k <= p.degree:
        raise ValueError(f"subset size {k} outside 0..{p.degree}")
    if len(index) != comb(p.degree, k):
        raise ValueError(f"an index of {len(index)} subsets does not fit C({p.degree}, {k})")
    label = (0, *p.images).__getitem__  # label(x) is p(x)
    moved = map(tuple, map(sorted, map(map, itertools.repeat(label), index)))
    images = map(index.__getitem__, moved)
    if 2 * k <= p.degree:
        return Permutation(tuple(images))
    # point r is the complement of the small subset at position len + 1 - r,
    # so the images are read backwards and renumbered the same way
    return Permutation(tuple(map((len(index) + 1).__sub__, reversed(list(images)))))


def orbits(generators: tuple[Permutation, ...], degree: int) -> tuple[tuple[int, ...], ...]:
    """Orbits of {1..degree} under the group generated by the given permutations,
    each orbit sorted, orbits ordered by smallest element.

    Computed by breadth-first closure under the generators; the group itself is
    never enumerated.  With no generators every label is its own orbit.
    """
    for g in generators:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    images = [g.images for g in generators]
    seen = [False] * (degree + 1)
    out = []
    for start in range(1, degree + 1):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        # the walk reads the orbit list as it grows
        for x in orbit:
            for image in images:
                y = image[x - 1]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        out.append(tuple(sorted(orbit)))
    return tuple(out)


def is_transitive(generators: tuple[Permutation, ...], degree: int) -> bool:
    return len(orbits(generators, degree)) == 1
