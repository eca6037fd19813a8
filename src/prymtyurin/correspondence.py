"""Symmetric fiber correspondences as 0/1 relations held in row bitsets.

Two families are built here, both on the fiber of an induced covering over a
generic point of the base line, and both are incidence relations on sheet
labels: each point is a pair of labels, and two points are related when
their pairs share exactly t labels.

- the subset correspondence: points are the n-subsets of the n+2 sheet
  labels in colex order, each the pair of labels it leaves out, and two are
  related when their pairs share none (t = 0): the n-subsets share exactly
  n-2 elements;
- the grid correspondence: points are the cells of an m x m grid in
  row-major order, cell (i, j) the row label i and the column label m + j of
  2m labels, and two are related when their pairs share one (t = 1): the
  cells share a row or a column.

label_rule is the one place a kind's points are described: its label
count, its point descriptors, each point's label pair, its t and two label
moves that generate its symmetries.  It and the strongly regular closed form
read this module's one table of kinds, keyed by the names of the family
records (scenario.FAMILIES) that hold every other per-family fact.  Every
relation, symmetry and induced move is built from the label rule.  Each
correspondence holds its relation once, as one int bitset per point, next
to its point descriptors in row order: the rest of the package reads a
point's row at its position and never recomputes a rank.
FiberCorrespondence.induce is the one rule by which a label permutation
acts on the points, as a permutation of their positions: every special
fiber's generators, the irreducibility check and the symmetries are label
moves induced through it, each distinct move once per correspondence.  The
symmetries are checked at construction, as are symmetry and the empty
diagonal, each by C-level gathers and slices and one compare: the rows are
bit strings, gathered in any order by their 1-based positions, and a
1-based table of slice objects cuts any column out of them joined, so no
Python step runs per row or per column.  For a correspondence built from
its rule, that check proves what the rule's moves generate: the subset
moves generate every label permutation, so every induced move preserves D
(FiberCorrespondence.moves_preserve), and both kinds' moves are transitive
on the points, so verify_identity squares row 0 alone; otherwise it squares
one row per orbit of the symmetries.  Each entry is the popcount of an AND
of two rows, since a symmetric relation's rows are its columns.

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

from collections import namedtuple
from itertools import combinations, product, repeat
from math import comb
from operator import and_, itemgetter, or_, xor

from .perms import Permutation, Record, all_subsets, orbits

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
    (check_moves) are validated at construction, at C level.  The rows as
    bit strings are kept as the attribute bits, outside the fields and
    equality: bits[i][j] is D[i][j], and bits is D's only text, which
    verify_identity and the CLI's matrix dump read.  Beside it __new__
    builds the 1-based table the checks gather by, row_bits and columns:
    row_bits[p] is bits[p - 1], and columns[p] the slice that cuts column p
    out of N rows of N characters joined.  The diagonal is the one strided
    slice text[::N + 1] of the text of bits, and D is symmetric when its
    columns, cut out of that text, equal bits: one list compare, as for
    each symmetry (check_moves).  A refusal walks the rows only to name the
    first bad entry.  Copy and pickle rebuild bits and the table through
    __new__, from rows, so a copy's bits is the text __new__ checked.
    Also outside the fields is pair_lookup, the points' label pairs and
    the per-label bitsets that induce reads, which depend on (kind,
    parameter) alone (label_rule): a builder keeps the one it built the
    relation and the symmetries from, copy and pickle carry it, and a
    correspondence made through the constructor derives the same one on
    first use, once its points are checked to be the rule's points in the
    rule's order.  The
    attribute induced holds each move induced so far, by its images, for
    the life of the correspondence.  A builder also marks the
    correspondence rule_built, which copy and pickle do not carry, any more
    than the moves induced: a correspondence made through the constructor,
    copy or pickle proves nothing from its rule (moves_preserve).
    """

    def __new__(cls, kind: str, parameter: int, rows: tuple[int, ...], points: tuple,
                symmetries: tuple[Permutation, ...] = ()):
        n = len(rows)
        if len(points) != n:
            raise ValueError(f"need {n} distinct point descriptors, got {len(points)}")
        distinct = len(set(points))
        if distinct != n:
            seen = set()
            first = next(p for p in points if p in seen or seen.add(p))
            raise ValueError(
                f"need {n} distinct point descriptors, got {distinct}: {first!r} is repeated"
            )
        if min(rows, default=0) < 0 or max(rows, default=0) >> n:
            for i, row in enumerate(rows):
                if row < 0 or row >> n:
                    raise ValueError(f"row {i} is not a set of points 0..{n - 1}")
        sums = set(map(int.bit_count, rows))
        if len(sums) != 1:
            raise ValueError(f"row sums are not constant: {sorted(sums)}")
        # each row's binary digits read backwards, bit j at index j, padded
        # with zeros to N
        backwards = map(itemgetter(slice(None, 1, -1)), map(bin, rows))
        bits = list(map(str.ljust, backwards, repeat(n), repeat("0")))
        columns = [None, *map(slice, range(n), repeat(None), repeat(n))]
        text = "".join(bits)
        if "1" in text[::n + 1] or list(map(text.__getitem__, columns[1:])) != bits:
            for i, row in enumerate(bits):
                if row[i] == "1":
                    raise ValueError(f"nonzero diagonal entry at {i}")
                col = text[i:i * n:n]
                if row[:i] != col:
                    j = next(j for j in range(i) if row[j] != col[j])
                    raise ValueError(f"not symmetric at ({i}, {j})")
        self = super().__new__(cls, kind, parameter, rows, points, symmetries)
        self.__dict__.update(bits=bits, row_bits=[None, *bits], columns=columns, induced={})
        self.check_moves(symmetries, "symmetry")
        return self

    def __getstate__(self):
        # copy and pickle rebuild through __new__, which checks everything
        # again and builds the relation's text from rows, and carry the pair
        # lookup, but not the text, the rule_built mark nor the moves induced
        return {key: value for key, value in self.__dict__.items() if key == "pair_lookup"}

    def induce(self, move: Permutation) -> Permutation:
        """The permutation of the 1-based point positions that a label move
        induces, the one rule by which a label permutation acts on points:
        each point goes to the point whose label pair is the image of its
        own (label_rule).  A move whose degree is not the kind's label
        count, one that takes some point's pair to no point's pair, a
        correspondence of a kind with no label rule and one whose points are
        not its rule's points, in the rule's order, raise ValueError.  Each
        distinct move is induced once: its permutation is kept in induced,
        by the move's images, and handed to every later call.

        >>> build_grid_matrix(2).induce(Permutation((3, 4, 1, 2))).images
        (1, 3, 2, 4)
        """
        induced = self.induced.get(move.images)
        if induced is None:
            lookup = self.__dict__.get("pair_lookup")
            if lookup is None:
                labels, points, pairs, _, _ = label_rule(self.kind, self.parameter)
                if self.points != points:
                    raise ValueError(
                        f"the {self.kind} correspondence is not on its label rule's points"
                    )
                lookup = self.__dict__["pair_lookup"] = _pair_lookup(labels, pairs)
            induced = self.induced[move.images] = _induced(self.kind, lookup, move)
        return induced

    def check_moves(self, moves, name: str) -> None:
        """Refuse, by name and index, a permutation of the 1-based point
        positions whose degree is not N or that does not preserve D, in one
        N^2 compare each: the symmetries at construction, and in
        class_action a fiber's generators unless moves_preserve proves them.
        For a symmetric D, g preserves D when D[g(i)][g(j)] = D[j][i] for
        all i, j: the rows g(i) are gathered and joined, and their columns
        g(j), cut by the table columns, are compared with bits as one list."""
        row_bits, columns, bits = self.row_bits, self.columns, self.bits
        for k, g in enumerate(moves):
            images = g.images
            if len(images) != len(bits):
                raise ValueError(f"{name} {k} has degree {len(images)}, not {len(bits)}")
            text = "".join(map(row_bits.__getitem__, images))
            if list(map(text.__getitem__, map(columns.__getitem__, images))) != bits:
                raise ValueError(f"{name} {k} does not preserve the relation")

    @property
    def moves_preserve(self) -> bool:
        """Whether the induction of every label move preserves D, proved
        without a compare of its own.  This holds for a correspondence built
        from its label rule (rule_built) when the rule's two moves generate
        every permutation of the labels, as the subset family's (1 2) and
        (1 ... n+2) generate S_{n+2}.  Its symmetries are the inductions of
        those moves, each checked to preserve D at construction.  induce is a
        homomorphism, since ind(lambda mu) takes a point to the point whose
        pair is lambda(mu(pair)), which is ind(lambda)(ind(mu)(point)).  So
        the induction of any label move is a word in the symmetries and
        preserves D.  The grid's transpose and row cycle do not generate the
        row transposition of its row-merge fiber, so a grid generator is
        still compared."""
        return self.__dict__.get("rule_built", False) and _KINDS[self.kind][3]

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def bidegree(self) -> int:
        return self.rows[0].bit_count()


def label_rule(kind: str, parameter: int) -> tuple:
    """The label rule of a kind, the one place its points are described:
    (labels, points, pairs, shared, moves), its label count, its point
    descriptors in point order, each point's pair of labels in that order,
    the number of labels two related points' pairs share, and two label
    moves that generate its symmetries.  A kind with no rule and a
    parameter below 2 raise ValueError.

    Subset family (parameter n, labels 1..n+2): the n-subsets in colex
    order, each the pair it leaves out.  Complementing reverses colex order,
    so the pairs are the 2-subsets backwards: written largest label first,
    in lex order of the labels counted down.  Related pairs share no label,
    and the moves are (1 2) and (1 ... n+2), which generate S_{n+2},
    transitive on the pairs.  Grid family (parameter m, labels 1..2m): the
    cells (i, j) in row-major order, each the row label i and the column
    label m + j.  Related pairs share one label, and the moves are the
    transpose i <-> m + i and the row cycle (1 ... m), transitive on the
    cells since the cycle moves a cell to every row and the transpose to
    every column, though for m >= 3 no row transposition is a word in them.

    >>> label_rule("grid", 2)[2]
    [(1, 3), (1, 4), (2, 3), (2, 4)]
    """
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"no label rule for a correspondence of kind {kind!r}")
    letter, rule, _, _ = _KINDS[kind]
    if parameter < 2:
        raise ValueError(f"{kind} correspondence needs {letter} >= 2, got {parameter}")
    labels, points, pairs, shared, moves = rule(parameter)
    return labels, points, pairs, shared, tuple(map(Permutation, moves))


def _subset_rule(n: int) -> tuple:
    labels = n + 2
    points = tuple(all_subsets(labels, n))
    pairs = list(combinations(range(labels, 0, -1), 2))
    moves = (2, 1, *range(3, labels + 1)), (*range(2, labels + 1), 1)
    return labels, points, pairs, 0, moves


def _grid_rule(m: int) -> tuple:
    rows, cols = range(1, m + 1), range(m + 1, 2 * m + 1)
    points, pairs = tuple(grid_points(m)), list(product(rows, cols))
    moves = (*cols, *rows), (*rows[1:], 1, *cols)
    return 2 * m, points, pairs, 1, moves


# the one table of kinds here: each kind's parameter letter, its label rule
# (label_rule, with its moves as image tuples), its strongly regular
# parameters (k, lambda, mu) and whether the rule's moves generate every
# permutation of the labels (moves_preserve)
_KINDS = {
    "subset": ("n", _subset_rule, lambda n: (comb(n, 2), comb(n - 2, 2), comb(n - 1, 2)), True),
    "grid": ("m", _grid_rule, lambda m: (2 * (m - 1), m - 2, 2), False),
}


def _pair_lookup(labels: int, pairs: list) -> tuple:
    """What induce reads: the label count, the pairs, holding, where bit k
    of holding[x] is set when the pair of point k holds the label x, and two
    itemgetters that read the first and the second label of every pair off
    a list indexed by label (label_rule's parameter floor leaves at least
    four points, so each returns a tuple)."""
    holding = [0] * (labels + 1)
    for bit, (a, b) in zip(map((1).__lshift__, range(len(pairs))), pairs):
        holding[a] |= bit
        holding[b] |= bit
    firsts, seconds = zip(*pairs)
    return labels, pairs, holding, itemgetter(*firsts), itemgetter(*seconds)


def _induced(kind: str, lookup: tuple, move: Permutation) -> Permutation:
    """FiberCorrespondence.induce through a _pair_lookup, at C level: the
    image of point k, whose pair is (a, b), is the one point whose pair
    holds both move(a) and move(b), the one bit of
    holding[move(a)] & holding[move(b)], read off by its bit length; an
    image pair that is no point's pair leaves no bit."""
    labels, pairs, holding, firsts, seconds = lookup
    if move.degree != labels:
        raise ValueError(f"{kind} label move has degree {move.degree}, not {labels}")
    moved = (0, *map(holding.__getitem__, move.images))  # moved[x] is holding[move(x)]
    found = tuple(map(int.bit_length, map(and_, firsts(moved), seconds(moved))))
    if 0 in found:
        k = found.index(0)
        a, b = pairs[k]
        raise ValueError(
            f"{kind} label move takes the labels ({a}, {b}) of point {k + 1} to"
            f" ({move(a)}, {move(b)}), the labels of no point"
        )
    return Permutation(found)


def _build(kind: str, parameter: int) -> FiberCorrespondence:
    """The correspondence of a kind, all of it read off label_rule.  Bit k of
    holding[x] (_pair_lookup) is set when the pair of point k holds the
    label x, so the points whose pairs share no label with {a, b} are the complement of
    holding[a] | holding[b], and those sharing exactly one are
    holding[a] ^ holding[b] (a point's own pair holds both).  The symmetries
    are the first moves induced, and it marks the correspondence
    rule_built."""
    labels, points, pairs, shared, moves = label_rule(kind, parameter)
    lookup = _pair_lookup(labels, pairs)
    _, _, holding, firsts, seconds = lookup
    at_a, at_b = firsts(holding), seconds(holding)  # holding[a], holding[b] per point
    if shared == 0:
        rows = tuple(map(((1 << len(pairs)) - 1).__xor__, map(or_, at_a, at_b)))
    else:
        rows = tuple(map(xor, at_a, at_b))
    symmetries = tuple(_induced(kind, lookup, g) for g in moves)
    corr = FiberCorrespondence(kind, parameter, rows, points, symmetries)
    corr.__dict__.update(pair_lookup=lookup, rule_built=True)
    corr.induced.update((g.images, s) for g, s in zip(moves, symmetries))
    return corr


def build_subset_matrix(n: int) -> FiberCorrespondence:
    """The subset correspondence for n >= 2 on comb(n+2, 2) points, bidegree
    n*(n-1)/2: the subsets sharing n-2 elements with I are exactly those
    whose 2-element complement is disjoint from the complement of I."""
    return _build("subset", n)


def grid_points(m: int) -> list[tuple[int, int]]:
    """Grid cells (row, col), 1-based, in row-major order."""
    return list(product(range(1, m + 1), repeat=2))


def build_grid_matrix(m: int) -> FiberCorrespondence:
    """The grid correspondence for m >= 2: same row or same column, bidegree 2(m-1)."""
    return _build("grid", m)


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
    witness.  A correspondence built from its label rule (rule_built) has
    one orbit, row 0's, since the rule's moves are transitive on its points
    (label_rule), so no orbit is walked; any other walks the orbits of its
    symmetries (perms.orbits).  Returns (True, None) on success, else
    (False, (i, j, got, want)) for the first differing entry in row-major
    order, which lies on its orbit's minimum.  Subset n = 4 squares one row:

    >>> corr = build_subset_matrix(4)
    >>> len(orbits(corr.symmetries, corr.size)), verify_identity(corr, 3, -2, 3)
    (1, (True, None))
    """
    if corr.__dict__.get("rule_built"):
        minima = [0]
    else:
        minima = [orbit[0] - 1 for orbit in orbits(corr.symmetries, corr.size)]
    entry = {"0": c, "1": b + c}.__getitem__  # off the diagonal, by the bit of D
    for i, sq in zip(minima, mat_mul([corr.rows[i] for i in minima], corr.rows)):
        want = list(map(entry, corr.bits[i]))
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
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"no strongly regular closed form for correspondence kind {kind!r}")
    k, lam, mu = _KINDS[kind][2](parameter)
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

