"""Exact permutations of labeled sheets and their action on k-subsets.

Conventions used across the package:

- sheet labels are 1-based in every public interface
- a permutation is stored in one-line notation: ``images[x-1]`` is the
  image of the label ``x``
- k-subsets of ``{1..d}`` are written as sorted tuples and listed in colex
  order, which is lexicographic order on the reversed tuples
- a map on a list of points acts as the permutation of their 1-based
  positions (``point_permutation``); the induced action on k-subsets and the
  grid monodromies are built this way
- the cycles of a permutation p are the orbits of the group it generates, so
  ``orbits`` is the one orbit walk

Everything here is plain integer arithmetic, no floating point anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Permutation:
    """A bijection of ``{1..degree}`` in one-line notation.

    >>> p = Permutation((2, 1, 3))
    >>> p(1), p(2), p(3)
    (2, 1, 3)
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(self.images)}: {self.images!r}")

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

    def apply_to_set(self, subset: tuple[int, ...]) -> tuple[int, ...]:
        """Image of a set of labels, returned sorted."""
        return tuple(sorted(self.images[x - 1] for x in subset))


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
    return [s[::-1] for s in reversed(descending)]


def point_permutation(points, move) -> Permutation:
    """The permutation of 1-based positions in ``points`` induced by a map
    that permutes the points: position r goes to the position of
    ``move(points[r - 1])``.

    >>> point_permutation("abc", {"a": "b", "b": "a", "c": "c"}.get).images
    (2, 1, 3)
    """
    position = {p: r for r, p in enumerate(points, start=1)}
    return Permutation(tuple(position[move(p)] for p in points))


def induced_subset_action(p: Permutation, k: int) -> Permutation:
    """The permutation induced by p on the k-subsets of its domain, listed
    in colex order.

    This is a group homomorphism: the induced action of a composition is the
    composition of the induced actions, and the identity induces the identity.
    Complementing commutes with p and reverses colex order, so for k above
    degree - k the points are the complements, the smaller subsets backwards.

    >>> induced_subset_action(Permutation.from_cycles(4, ((1, 2),)), 2).images
    (1, 3, 2, 5, 4, 6)
    """
    if not 0 <= k <= p.degree:
        raise ValueError(f"subset size {k} outside 0..{p.degree}")
    small = all_subsets(p.degree, min(k, p.degree - k))
    return point_permutation(small if 2 * k <= p.degree else small[::-1], p.apply_to_set)


def orbits(generators: tuple[Permutation, ...], degree: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Orbits of {1..degree} under the group generated by the given permutations,
    each orbit sorted, orbits ordered by smallest element.

    Computed by breadth-first closure under the generators; the group itself is
    never enumerated.  With no generators the degree is required and every
    label is its own orbit.
    """
    if degree is None:
        if not generators:
            raise ValueError("degree required when no generators are given")
        degree = generators[0].degree
    for g in generators:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    seen: set[int] = set()
    out = []
    for start in range(1, degree + 1):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in generators:
                y = g(x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return tuple(out)


def is_transitive(generators: tuple[Permutation, ...], degree: int | None = None) -> bool:
    return len(orbits(generators, degree)) == 1
