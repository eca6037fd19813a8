"""Symmetric fiber correspondences as exact integer matrices.

Two families are built here, both on the fiber of an induced covering over a
generic point of the base line:

- the subset correspondence: points are the n-subsets of n+2 sheet labels in
  colex order, and two subsets are related when they share exactly n-2
  elements (equivalently, their 2-element complements are disjoint);
- the grid correspondence: points are the cells of an m x m grid in row-major
  order, and two cells are related when they share a row or a column.

Each correspondence carries its point descriptors in matrix order, so the
rest of the package looks a point's row up by its descriptor and never
recomputes a rank.  It also carries its square D^2, computed once on first
use and shared by identity discovery and verification.

A correspondence D may satisfy a quadratic identity

    D^2 = a*I + b*D + c*U

with I the identity and U the all-ones matrix.  On the Jacobian side the U
term acts as zero because the base of the pencil is a rational curve, so the
identity becomes gamma^2 - b*gamma - a = 0 for the induced endomorphism, and
when it factors as (1 - gamma)(gamma + q - 1) = 0 the integer q >= 2 is the
exponent candidate.  Matching coefficients: q = 2 - b, which requires
a = q - 1.  identity_and_exponent is the one place that runs both steps.

All arithmetic is integer or Fraction; nothing here ever touches a float.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .perms import all_subsets

Matrix = tuple[tuple[int, ...], ...]


class ExponentExtractionError(ValueError):
    """The quadratic identity does not factor in the required shape."""


@dataclass(frozen=True)
class FiberCorrespondence:
    """A symmetric correspondence on a generic fiber, stored densely.

    matrix[i][j] counts how often point j appears in the image divisor of
    point i, and points[i] is the descriptor of point i (a subset tuple or a
    grid cell).  Symmetry, zero diagonal, constant row sums (the bidegree)
    and one distinct descriptor per row are validated at construction.
    """

    kind: str
    parameter: int
    matrix: Matrix
    points: tuple

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("matrix is not square")
        if len(self.points) != n or len(set(self.points)) != n:
            raise ValueError(f"need {n} distinct point descriptors, got {len(self.points)}")
        sums = {sum(row) for row in self.matrix}
        if len(sums) != 1:
            raise ValueError(f"row sums are not constant: {sorted(sums)}")
        for i in range(n):
            if self.matrix[i][i] != 0:
                raise ValueError(f"nonzero diagonal entry at {i}")
            for j in range(i):
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise ValueError(f"not symmetric at ({i}, {j})")
                if self.matrix[i][j] < 0:
                    raise ValueError(f"negative entry at ({i}, {j})")

    @property
    def size(self) -> int:
        return len(self.matrix)

    @property
    def bidegree(self) -> int:
        return sum(self.matrix[0])

    @cached_property
    def index(self) -> dict:
        """Row index of each point descriptor."""
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def square(self) -> Matrix:
        """D^2, computed once and shared by identity discovery and verification."""
        return mat_mul(self.matrix, self.matrix)


@dataclass(frozen=True)
class QuadraticIdentity:
    """Coefficients of D^2 = a*I + b*D + c*U."""

    a: Fraction
    b: Fraction
    c: Fraction

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class ExponentResult:
    q: int
    derivation: str


def build_subset_matrix(n: int) -> FiberCorrespondence:
    """The subset correspondence for n >= 2 on comb(n+2, 2) points.

    Bidegree n*(n-1)/2: the subsets sharing n-2 elements with I are exactly
    those whose 2-element complement is disjoint from the complement of I.
    """
    if n < 2:
        raise ValueError(f"subset correspondence needs n >= 2, got {n}")
    pts = tuple(all_subsets(n + 2, n))
    sets = [frozenset(s) for s in pts]
    size = len(pts)
    rows = []
    for i in range(size):
        rows.append(tuple(1 if len(sets[i] & sets[j]) == n - 2 else 0 for j in range(size)))
    return FiberCorrespondence(kind="subset", parameter=n, matrix=tuple(rows), points=pts)


def grid_points(m: int) -> list[tuple[int, int]]:
    """Grid cells (row, col), 1-based, in row-major order."""
    return [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]


def build_grid_matrix(m: int) -> FiberCorrespondence:
    """The grid correspondence for m >= 2: same row or same column, bidegree 2(m-1)."""
    if m < 2:
        raise ValueError(f"grid correspondence needs m >= 2, got {m}")
    pts = tuple(grid_points(m))
    rows = []
    for p in pts:
        rows.append(tuple(1 if q != p and (q[0] == p[0] or q[1] == p[1]) else 0 for q in pts))
    return FiberCorrespondence(kind="grid", parameter=m, matrix=tuple(rows), points=pts)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    if len(b) != n or any(len(r) != n for r in itertools.chain(a, b)):
        raise ValueError("matrix shapes do not match")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def verify_identity(corr: FiberCorrespondence, a, b, c):
    """Check D^2 = a*I + b*D + c*U entrywise, exactly.

    The comparison runs in integers: a, b and c are scaled by the lcm of
    their denominators, and so is each entry of D^2.  Returns (True, None)
    on success, else (False, (i, j, got, want)) for the first differing
    entry in row-major order, with want the exact Fraction.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    scale = math.lcm(a.denominator, b.denominator, c.denominator)
    sa, sb, sc = (int(x * scale) for x in (a, b, c))
    for i, (row, sq) in enumerate(zip(corr.matrix, corr.square)):
        for j, (x, got) in enumerate(zip(row, sq)):
            want = sb * x + sc + (sa if i == j else 0)
            if got * scale != want:
                return False, (i, j, got, Fraction(want, scale))
    return True, None


def discover_identity(corr: FiberCorrespondence) -> QuadraticIdentity | None:
    """Solve for rational (a, b, c) with D^2 = a*I + b*D + c*U, if possible.

    Exact linear algebra only: each entry contributes the equation
    a*[i == j] + b*D[i][j] + c = D^2[i][j]; the deduplicated system is solved
    by Gaussian elimination over Fraction and the candidate is re-verified
    entrywise.  When the system is underdetermined the unknowns are
    eliminated in the order b, a, c with free ones set to zero, preferring to
    attribute weight to the D term.  Returns None when no identity exists.
    """
    rows: dict[tuple[int, int], int] = {}
    for i, (row, sq) in enumerate(zip(corr.matrix, corr.square)):
        for j, (x, got) in enumerate(zip(row, sq)):
            key = (1 if i == j else 0, x)
            if rows.setdefault(key, got) != got:
                return None
    # columns in elimination order: b, a, c
    system = [[Fraction(k[1]), Fraction(k[0]), Fraction(1), Fraction(rhs)] for k, rhs in rows.items()]

    # Gaussian elimination to reduced row echelon form, three unknowns
    pivots: list[int] = []
    r = 0
    for col in range(3):
        pivot = next((k for k in range(r, len(system)) if system[k][col] != 0), None)
        if pivot is None:
            continue
        system[r], system[pivot] = system[pivot], system[r]
        system[r] = [x / system[r][col] for x in system[r]]
        for k in range(len(system)):
            if k != r and system[k][col] != 0:
                factor = system[k][col]
                system[k] = [x - factor * y for x, y in zip(system[k], system[r])]
        pivots.append(col)
        r += 1
    if any(all(x == 0 for x in row[:3]) and row[3] != 0 for row in system):
        return None

    by_col = {col: system[row_idx][3] for row_idx, col in enumerate(pivots)}
    zero = Fraction(0)
    ident = QuadraticIdentity(a=by_col.get(1, zero), b=by_col.get(0, zero), c=by_col.get(2, zero))
    ok, _ = verify_identity(corr, *ident.coefficients())
    return ident if ok else None


def exponent_from_identity(ident: QuadraticIdentity) -> ExponentResult:
    """Extract the exponent q from a verified identity.

    Discarding the all-ones term (the base of the pencil is a rational curve,
    whose Jacobian is trivial) leaves gamma^2 = a + b*gamma.  The factored
    form (1 - gamma)(gamma + q - 1) = 0 expands to gamma^2 = (q-1) + (2-q)*gamma,
    so q = 2 - b and the factorization exists exactly when a = q - 1 with an
    integer q >= 2.
    """
    b = ident.b
    if b.denominator != 1:
        raise ExponentExtractionError(f"criterion hypothesis fails: b = {b} is not an integer")
    q = 2 - int(b)
    if q < 2:
        raise ExponentExtractionError(f"criterion hypothesis fails: q = 2 - b = {q} is below 2")
    if ident.a != q - 1:
        raise ExponentExtractionError(
            f"criterion hypothesis fails: need a = q - 1 = {q - 1}, got a = {ident.a}"
        )
    return ExponentResult(
        q=q,
        derivation=(
            f"gamma^2 = {ident.a} + ({ident.b})*gamma after dropping the all-ones term "
            f"(trivial Jacobian of the rational base); factors as "
            f"(1 - gamma)(gamma + {q - 1}) = 0, so the exponent is q = {q}"
        ),
    )


def identity_and_exponent(corr) -> tuple[QuadraticIdentity | None, int | None, str]:
    """The discovered identity, the exponent q (None when the identity does
    not factor as the criterion needs) and a note saying how q was derived
    or why it was not."""
    ident = discover_identity(corr)
    if ident is None:
        return None, None, "no quadratic identity exists for this correspondence"
    try:
        res = exponent_from_identity(ident)
    except ExponentExtractionError as exc:
        return ident, None, str(exc)
    return ident, res.q, res.derivation


def subset_identity_template(n: int) -> tuple[int, int, int]:
    """The expected coefficients for the subset correspondence, for cross-checks."""
    return (n - 1, -(n - 2), (n - 1) * (n - 2) // 2)
