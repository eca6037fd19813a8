"""Symmetric fiber correspondences as 0/1 relations held in row bitsets.

Two families are built here, both on the fiber of an induced covering over a
generic point of the base line:

- the subset correspondence: points are the n-subsets of n+2 sheet labels in
  colex order, and two subsets are related when they share exactly n-2
  elements (equivalently, their 2-element complements are disjoint);
- the grid correspondence: points are the cells of an m x m grid in row-major
  order, and two cells are related when they share a row or a column.

Both relations are plain 0/1, and each correspondence holds its relation
once, as one int bitset per point, next to its point descriptors in row
order: the rest of the package reads a point's row at its position and
never recomputes a rank.  Each family also carries permutations of its
points that preserve D, checked at construction; verify_identity squares one
row per orbit of the group they generate, one row for either family, and
each entry is the popcount of an AND of two rows, since a symmetric
relation's rows are its columns.

Both fibers are made of sheet labels: a subset point is n of the labels
1..n+2, and grid cell (i, j) is the row label i and the column label m + j
of 2m labels.  FiberCorrespondence.induce is the one rule by which a label
permutation acts on the points, as a permutation of their positions: every
special fiber's generators and the irreducibility check are label moves
induced through it.  The symmetries are two such moves written in closed
form over the positions, which the tests compare with induce.

A correspondence D may satisfy a quadratic identity

    D^2 = a*I + b*D + c*U

with I the identity and U the all-ones matrix.  On the Jacobian side the U
term acts as zero because the base of the pencil is a rational curve, so the
identity becomes gamma^2 - b*gamma - a = 0 for the induced endomorphism, and
when it factors as (1 - gamma)(gamma + q - 1) = 0 the integer q >= 2 is the
exponent candidate.  Matching coefficients: q = 2 - b, which requires
a = q - 1.  identity_and_exponent is the one place that runs both steps.

Both families are strongly regular graphs with parameters (N, k, lambda, mu)
in closed form (Brouwer-Haemers, Spectra of Graphs, ch. 9), and for those
D^2 = (k - mu)*I + (lambda - mu)*D + mu*U.  The subset correspondence is the
Kneser graph K(n+2, 2) on the 2-element complements, the grid one the rook's
graph on m x m cells.  identity_and_exponent extracts q only from an
identity equal to its family's closed form, and no other kind has one.

All arithmetic is integer; nothing here ever touches a float.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from itertools import chain, repeat
from operator import getitem, itemgetter

from .perms import (
    Permutation,
    Record,
    all_subsets,
    induced_subset_action,
    orbits,
    subset_index,
)

Matrix = tuple[tuple[int, ...], ...]


class FiberCorrespondence(
    Record, namedtuple("FiberCorrespondence", "kind parameter rows points symmetries")
):
    """A symmetric 0/1 correspondence on a generic fiber.

    Bit j of rows[i] is set when point j lies in the image of point i, and
    points[i] is the descriptor of point i (a subset tuple or a grid cell).
    Each symmetry permutes the 1-based point positions and preserves D.
    Rows inside 0..N-1, symmetry, an empty diagonal, constant row popcounts
    (the bidegree), one distinct descriptor per row and the symmetries
    (check_moves) are validated at construction, at C level: symmetry and
    each symmetry compare the rows' bit strings with strided column slices
    of one row-major text (_columns_are_rows).  The rows as bit strings are
    kept as the attribute bits, outside the fields and equality: bits[i][j]
    is D[i][j].  So is the cached pair_index that induce reads.
    """

    def __new__(cls, kind: str, parameter: int, rows: tuple[int, ...], points: tuple,
                symmetries: tuple[Permutation, ...] = ()):
        n = len(rows)
        if len(points) != n or len(set(points)) != n:
            raise ValueError(f"need {n} distinct point descriptors, got {len(points)}")
        if min(rows, default=0) < 0 or max(rows, default=0) >> n:
            for i, row in enumerate(rows):
                if row < 0 or row >> n:
                    raise ValueError(f"row {i} is not a set of points 0..{n - 1}")
        sums = set(map(int.bit_count, rows))
        if len(sums) != 1:
            raise ValueError(f"row sums are not constant: {sorted(sums)}")
        written = map(format, rows, repeat(f"0{n}b"))
        bits = list(map(itemgetter(slice(None, None, -1)), written))
        if "1" in "".join(map(getitem, bits, range(n))) or not _columns_are_rows(bits, range(n)):
            for i, row in enumerate(bits):
                if row[i] == "1":
                    raise ValueError(f"nonzero diagonal entry at {i}")
                col = "".join(map(itemgetter(i), bits[:i]))
                if row[:i] != col:
                    j = next(j for j in range(i) if row[j] != col[j])
                    raise ValueError(f"not symmetric at ({i}, {j})")
        self = super().__new__(cls, kind, parameter, rows, points, symmetries)
        self.__dict__.update(bits=bits)
        self.check_moves(symmetries, "symmetry")
        return self

    def induce(self, move: Permutation) -> Permutation:
        """The permutation of the 1-based point positions that a label move
        induces, the one rule by which a label permutation acts on points.

        Subset family (labels 1..n+2): through perms.induced_subset_action
        and pair_index.  Grid family (labels 1..2m): cell (i, j) is the
        labels i and m + j and goes to the cell holding their images, so the
        move keeps the row labels together, in place or swapped with the
        columns.  A move of another degree, a grid move that mixes rows and
        columns and a correspondence of any other kind raise ValueError.

        >>> build_grid_matrix(2).induce(Permutation((3, 4, 1, 2))).images
        (1, 3, 2, 4)
        """
        m = self.parameter
        degree = {"subset": m + 2, "grid": 2 * m}.get(self.kind)
        if degree is None:
            raise ValueError(f"no label rule for a correspondence of kind {self.kind!r}")
        if move.degree != degree:
            raise ValueError(f"{self.kind} label move has degree {move.degree}, not {degree}")
        if self.kind == "subset":
            return induced_subset_action(move, m, self.pair_index)
        if min(move.images[:m]) <= m < max(move.images[:m]):
            raise ValueError("grid label move mixes the row and the column labels")
        # the row-major offset of a label: (i - 1)m for row i, j for column m + j
        offset = [(x - 1) * m if x <= m else x - m for x in move.images]
        return Permutation(tuple(r + c for r in offset[:m] for c in offset[m:]))

    @cached_property
    def pair_index(self) -> dict:
        """The colex index of the subset family's 2-element complements that
        induce reads, built once: build_subset_matrix stores the one it
        built the relation from."""
        return subset_index(self.parameter + 2, self.parameter)

    def check_moves(self, moves, name: str) -> None:
        """Refuse, by name and index, a permutation of the 1-based point
        positions whose degree is not N or that does not preserve D: the
        symmetries at construction, a fiber's generators in class_action."""
        for k, g in enumerate(moves):
            if g.degree != self.size:
                raise ValueError(f"{name} {k} has degree {g.degree}, not {self.size}")
            at = list(map((-1).__add__, g.images))  # g(i) - 1 for each 1-based i
            if not _columns_are_rows(self.bits, at):
                raise ValueError(f"{name} {k} does not preserve the relation")

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def bidegree(self) -> int:
        return self.rows[0].bit_count()


def _columns_are_rows(bits: list[str], order) -> bool:
    """Whether D[order[i]][order[j]] = D[j][i] for all i, j, where bits[i][j]
    is D[i][j]: D is symmetric when this holds for the identity order, and a
    symmetric D is preserved by g when it holds for order[i] = g(i).  Column
    p of the rows joined in order is the strided slice text[p::N], compared
    with its row as it is sliced, so only one N^2 text is ever held."""
    text = "".join(map(bits.__getitem__, order))
    columns = map(text.__getitem__, map(slice, order, repeat(None), repeat(len(bits))))
    return all(map(str.__eq__, columns, bits))


def build_subset_matrix(n: int) -> FiberCorrespondence:
    """The subset correspondence for n >= 2 on comb(n+2, 2) points.

    Bidegree n*(n-1)/2: the subsets sharing n-2 elements with I are exactly
    those whose 2-element complement is disjoint from the complement of I.
    Its symmetries are the label moves (1 2) and (1 ... n+2), induced on
    n-subsets in closed form.  The relation is read off one colex index of
    the 2-element complements, both symmetries off their positions in it,
    and the correspondence keeps it as its pair_index, which induce reads.
    """
    if n < 2:
        raise ValueError(f"subset correspondence needs n >= 2, got {n}")
    degree = n + 2
    pts = tuple(all_subsets(degree, n))
    # complementing reverses colex order: the complement of point j is the
    # pair at 1-based position N - j of this index
    pairs = subset_index(degree, n)
    size = len(pairs)
    # bit j of touching[x] is set when the complement of point j holds label
    # x; the points related to I are those whose complement misses both
    # labels of the complement of I
    touching = [0] * (degree + 1)
    for (a, b), pos in pairs.items():
        bit = 1 << (size - pos)
        touching[a] |= bit
        touching[b] |= bit
    full = (1 << size) - 1
    rows = tuple(full ^ (touching[a] | touching[b]) for a, b in reversed(pairs))
    corr = FiberCorrespondence("subset", n, rows, pts, _subset_symmetries(degree))
    corr.__dict__["pair_index"] = pairs
    return corr


def _subset_symmetries(degree: int) -> tuple[Permutation, Permutation]:
    """The label moves (1 2) and (1 ... degree) induced on the points of the
    subset correspondence, in closed form over colex positions.

    The pair (a, b) sits at position C(b - 1, 2) + a: (1 2) swaps (1, b)
    and (2, b) for each b >= 3, and the cycle moves (a, b) b positions on,
    to (a + 1, b + 1), when b < degree, and (a, degree) to (1, a + 1) at
    C(a, 2) + 1.  Complementing commutes with label moves and takes the
    point at position r to the pair at N + 1 - r, so a move that takes the
    pair at position s to Q(s) takes point r to N + 1 - Q(N + 1 - r).
    """
    size = math.comb(degree, 2)
    swap = list(range(1, size + 1))
    for b in range(3, degree + 1):
        t = math.comb(b - 1, 2)
        swap[t : t + 2] = t + 2, t + 1
    # the pairs (1, b) .. (b - 1, b) sit at C(b - 1, 2) + 1 .. C(b, 2)
    shifted = (
        range(math.comb(b - 1, 2) + 1 + b, math.comb(b, 2) + 1 + b) for b in range(2, degree)
    )
    cycle = [*chain.from_iterable(shifted), *(math.comb(a, 2) + 1 for a in range(1, degree))]
    back = (size + 1).__sub__
    return tuple(Permutation(tuple(map(back, reversed(q)))) for q in (swap, cycle))


def grid_points(m: int) -> list[tuple[int, int]]:
    """Grid cells (row, col), 1-based, in row-major order."""
    return [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]


def build_grid_matrix(m: int) -> FiberCorrespondence:
    """The grid correspondence for m >= 2: same row or same column, bidegree 2(m-1)."""
    if m < 2:
        raise ValueError(f"grid correspondence needs m >= 2, got {m}")
    pts = tuple(grid_points(m))
    line = (1 << m) - 1  # the cells of the first row
    column = sum(1 << (m * i) for i in range(m))  # the cells of the first column
    # a cell's own bit is set in both its row and its column; XOR clears it
    rows = tuple((line << (m * (i - 1))) ^ (column << (j - 1)) for i, j in pts)
    # the symmetries: the transpose and the row long cycle, the label moves
    # i <-> m + i and (1 ... m) in closed form, transitive on the cells
    # since the cycle moves a cell to every row and the transpose to every
    # column.  Over the row-major positions (i - 1)m + j, the
    # transpose takes row i to column i, positions i, i + m, ..., and the
    # cycle moves every row one row down, the last to the first
    cells = m * m
    transpose = chain.from_iterable(range(i, cells + 1, m) for i in range(1, m + 1))
    cycle = chain(range(m + 1, cells + 1), range(1, m + 1))
    symmetries = (Permutation(tuple(transpose)), Permutation(tuple(cycle)))
    return FiberCorrespondence("grid", m, rows, pts, symmetries)


def mat_mul(rows: tuple[int, ...], cols: tuple[int, ...]) -> Matrix:
    """The product of two 0/1 matrices, len(rows) x len(cols), the left one by
    its row bitsets and the right one by its column bitsets: entry (i, j)
    counts the k with bit k set in both rows[i] and cols[j], one popcount.
    """
    return tuple(tuple([(r & c).bit_count() for c in cols]) for r in rows)


def verify_identity(corr: FiberCorrespondence, a, b, c):
    """Check D^2 = a*I + b*D + c*U entrywise, exactly.

    The symmetries preserve D^2 - (a*I + b*D + c*U), so its failing rows are
    unions of orbits: one mat_mul call squares each orbit's minimum, and each
    of those rows is compared as one list, entry by entry only to find the
    witness.  Returns (True, None) on success, else
    (False, (i, j, got, want)) for the first differing entry in row-major
    order, which lies on its orbit's minimum.  Subset n = 4 squares one row:

    >>> corr = build_subset_matrix(4)
    >>> len(orbits(corr.symmetries, corr.size)), verify_identity(corr, 3, -2, 3)
    (1, (True, None))
    """
    minima = [orbit[0] - 1 for orbit in orbits(corr.symmetries, corr.size)]
    picked = [corr.rows[i] for i in minima]
    width = f"0{corr.size}b"
    entry = {"0": c, "1": b + c}.__getitem__  # off the diagonal, by the bit of D
    for i, row, sq in zip(minima, picked, mat_mul(picked, corr.rows)):
        want = list(map(entry, format(row, width)[::-1]))
        want[i] += a
        if list(sq) != want:
            j = next(j for j, (got, w) in enumerate(zip(sq, want)) if got != w)
            return False, (i, j, sq[j], want[j])
    return True, None


def discover_identity(corr: FiberCorrespondence) -> tuple[int, int, int] | None:
    """The integers (a, b, c) with D^2 = a*I + b*D + c*U, or None if none
    exists: the same plain tuple strongly_regular_identity writes.

    D is 0/1 with a zero diagonal, so under the identity D^2 takes three
    values: a + c on the diagonal, b + c on related pairs and c on unrelated
    ones.  Rows have constant sums, so row 0 has a related (or an unrelated)
    point exactly when some row does, and the coefficients are read off row 0
    of D^2.  A kind of pair that never occurs leaves its unknown free, and it
    is set to zero: c = 0 for a complete relation, b = 0 for an empty one.
    Each is one popcount of row 0 and another row (D^2[0][0] is the
    bidegree); verify_identity then proves the candidate entrywise.

    >>> discover_identity(build_grid_matrix(3))
    (2, -1, 2)
    """
    row = corr.rows[0]
    unrelated = ((1 << corr.size) - 2) & ~row  # off the diagonal, outside the image
    # D^2[0][j] at the lowest point j of a nonempty bitset
    square = lambda bits: (row & corr.rows[(bits & -bits).bit_length() - 1]).bit_count()
    c = square(unrelated) if unrelated else 0
    b = square(row) - c if row else 0
    a = corr.bidegree - c
    ok, _ = verify_identity(corr, a, b, c)
    return (a, b, c) if ok else None


def exponent_from_identity(ident: tuple[int, int, int]) -> tuple[int | None, str]:
    """The exponent q of an identity (a, b, c) and a note saying how q was derived,
    or q = None and a note naming the failed hypothesis.

    Discarding the all-ones term (the base of the pencil is a rational curve,
    whose Jacobian is trivial) leaves gamma^2 = a + b*gamma.  The factored
    form (1 - gamma)(gamma + q - 1) = 0 expands to gamma^2 = (q-1) + (2-q)*gamma,
    so q = 2 - b and the factorization exists exactly when a = q - 1 with an
    integer q >= 2.
    """
    a, b, _ = ident
    q = 2 - b
    if q < 2:
        return None, f"criterion hypothesis fails: q = 2 - b = {q} is below 2"
    if a != q - 1:
        return None, f"criterion hypothesis fails: need a = q - 1 = {q - 1}, got a = {a}"
    return q, (
        f"gamma^2 = {a} + ({b})*gamma after dropping the all-ones term "
        f"(trivial Jacobian of the rational base); factors as "
        f"(1 - gamma)(gamma + {q - 1}) = 0, so the exponent is q = {q}"
    )


def strongly_regular_identity(kind: str, parameter: int) -> tuple[int, int, int]:
    """(a, b, c) = (k - mu, lambda - mu, mu) from the closed-form strongly
    regular parameters of a family: the Kneser graph K(n+2, 2) has
    k = C(n, 2), lambda = C(n-2, 2), mu = C(n-1, 2), and the rook's graph on
    m x m cells k = 2(m-1), lambda = m-2, mu = 2; any other kind raises ValueError."""
    if kind == "subset":
        n = parameter
        k, lam, mu = math.comb(n, 2), math.comb(n - 2, 2), math.comb(n - 1, 2)
    elif kind == "grid":
        m = parameter
        k, lam, mu = 2 * (m - 1), m - 2, 2
    else:
        raise ValueError(f"no strongly regular closed form for correspondence kind {kind!r}")
    return (k - mu, lam - mu, mu)


def identity_and_exponent(corr) -> tuple[tuple[int, int, int] | None, int | None, str]:
    """The discovered identity, the exponent q (None when the identity does
    not factor as the criterion needs, or differs from its family's strongly
    regular closed form, where a kind without one raises ValueError) and a
    note saying how q was derived or why it was not."""
    ident = discover_identity(corr)
    if ident is None:
        return None, None, "no quadratic identity exists for this correspondence"
    want = strongly_regular_identity(corr.kind, corr.parameter)
    if ident != want:
        return ident, None, (
            f"the discovered identity (a, b, c) = {ident} differs from the strongly"
            f" regular closed form {want} of the {corr.kind} correspondence with"
            f" parameter {corr.parameter}"
        )
    return (ident, *exponent_from_identity(ident))

