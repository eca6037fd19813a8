from fractions import Fraction
from math import comb

import pytest

from prymtyurin import correspondence
from prymtyurin.correspondence import (
    ExponentExtractionError,
    FiberCorrespondence,
    QuadraticIdentity,
    build_grid_matrix,
    build_subset_matrix,
    discover_identity,
    exponent_from_identity,
    identity_and_exponent,
    mat_mul,
    subset_identity_template,
    verify_identity,
)
from prymtyurin.perms import all_subsets, subset_rank


def test_subset_matrix_n2_is_the_complement_involution():
    corr = build_subset_matrix(2)
    assert corr.size == 6
    assert corr.bidegree == 1
    # the unique neighbor of each pair is its complement in {1..4}
    pairs = all_subsets(4, 2)
    assert corr.points == tuple(pairs)
    for i, s in enumerate(pairs):
        comp = tuple(sorted(set(range(1, 5)) - set(s)))
        j = subset_rank(comp, 4)
        assert corr.matrix[i][j] == 1
        assert sum(corr.matrix[i]) == 1


def test_subset_matrix_n3_examples():
    corr = build_subset_matrix(3)
    assert corr.size == 10
    assert corr.bidegree == 3
    # frozen: the image of {1,3,5} is {2,4,5} + {1,2,4} + {2,3,4}
    i = subset_rank((1, 3, 5), 5)
    neighbors = {j for j in range(10) if corr.matrix[i][j] == 1}
    want = {subset_rank(s, 5) for s in ((2, 4, 5), (1, 2, 4), (2, 3, 4))}
    assert neighbors == want


def test_grid_matrix_small():
    corr = build_grid_matrix(3)
    assert corr.size == 9
    assert corr.bidegree == 4
    # P_11 is related to P_12, P_13 (row) and P_21, P_31 (column); row-major ranks
    assert [j for j in range(9) if corr.matrix[0][j]] == [1, 2, 3, 6]
    assert corr.points[:4] == ((1, 1), (1, 2), (1, 3), (2, 1))
    assert corr.index[(3, 3)] == 8
    corr2 = build_grid_matrix(2)
    assert corr2.bidegree == 2


def test_build_validation():
    with pytest.raises(ValueError):
        build_subset_matrix(1)
    with pytest.raises(ValueError):
        build_grid_matrix(1)
    with pytest.raises(ValueError):
        # not symmetric
        FiberCorrespondence(kind="x", parameter=0, matrix=((0, 1), (0, 0)), points=(0, 1))
    with pytest.raises(ValueError):
        # nonzero diagonal
        FiberCorrespondence(kind="x", parameter=0, matrix=((1, 1), (1, 1)), points=(0, 1))
    with pytest.raises(ValueError, match="distinct point descriptors"):
        FiberCorrespondence(kind="x", parameter=0, matrix=((0, 1), (1, 0)), points=(0,))
    with pytest.raises(ValueError, match="distinct point descriptors"):
        FiberCorrespondence(kind="x", parameter=0, matrix=((0, 1), (1, 0)), points=(0, 0))


def test_mat_mul_exact():
    a = ((1, 2), (3, 4))
    assert mat_mul(a, a) == ((7, 10), (15, 22))
    with pytest.raises(ValueError):
        mat_mul(a, ((1,),))


def test_discover_identity_subset_small():
    # frozen coefficients, derived by brute-force squaring
    for n, want in [(2, (1, 0, 0)), (3, (2, -1, 1)), (4, (3, -2, 3)), (5, (4, -3, 6))]:
        ident = discover_identity(build_subset_matrix(n))
        assert ident is not None
        assert ident.coefficients() == want


def test_discover_identity_grid():
    # the m x m grid is the rook's graph, strongly regular with k = 2(m-1),
    # lambda = m-2, mu = 2, so D^2 = (k-mu)I + (lambda-mu)D + mu*U
    for m in range(2, 9):
        ident = discover_identity(build_grid_matrix(m))
        assert ident is not None
        assert ident.coefficients() == (2 * m - 4, m - 4, 2)


def test_identity_row_sum_consistency():
    # row sums of D^2 = a + b*d + c*N when the identity holds
    for build, params in ((build_subset_matrix, range(2, 9)), (build_grid_matrix, range(2, 9))):
        for p in params:
            corr = build(p)
            ident = discover_identity(corr)
            assert ident is not None
            ok, witness = verify_identity(corr, *ident.coefficients())
            assert ok, witness
            d = corr.bidegree
            assert d * d == ident.a + ident.b * d + ident.c * corr.size


def test_verify_identity_failure_witness():
    corr = build_subset_matrix(3)
    ok, witness = verify_identity(corr, 2, -1, 2)  # wrong c
    assert not ok
    i, j, got, want = witness
    assert got != want
    # first differing entry in row-major order: D^2[0][0] = 3, claim is 2 - 0 + 2 = 4
    assert (i, j) == (0, 0)
    # fractional coefficients are compared exactly and reported as a Fraction
    ok, witness = verify_identity(corr, 2, -1, Fraction(3, 2))
    assert not ok
    assert witness == (0, 0, 3, Fraction(7, 2))
    assert isinstance(witness[3], Fraction)


def test_square_is_computed_once(monkeypatch):
    calls = []
    real = correspondence.mat_mul

    def counting(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(correspondence, "mat_mul", counting)
    corr = build_subset_matrix(4)
    ident, q, _ = identity_and_exponent(corr)
    ok, witness = verify_identity(corr, *ident.coefficients())
    assert ok, witness
    assert q == 4
    assert calls == [corr.size]
    assert corr.square == real(corr.matrix, corr.matrix)


def test_discover_identity_none_when_impossible():
    # the 6-cycle is 2-regular but not strongly regular: vertices at distance
    # 2 and distance 3 both have D[i][j] = 0 yet different D^2 entries
    six_cycle = tuple(
        tuple(1 if (i - j) % 6 in (1, 5) else 0 for j in range(6)) for i in range(6)
    )
    corr = FiberCorrespondence(kind="x", parameter=0, matrix=six_cycle, points=tuple(range(6)))
    assert discover_identity(corr) is None
    # the complete graph on 3 vertices does satisfy one
    k3 = FiberCorrespondence(
        kind="x", parameter=0, matrix=((0, 1, 1), (1, 0, 1), (1, 1, 0)), points=tuple(range(3))
    )
    assert discover_identity(k3) == QuadraticIdentity(Fraction(2), Fraction(1), Fraction(0))
    broken = ((0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 0))
    with pytest.raises(ValueError):
        # row sums differ, rejected at construction
        FiberCorrespondence(kind="x", parameter=0, matrix=broken, points=tuple(range(4)))


def test_discover_identity_underdetermined_canonicalization():
    # D = permutation-free degenerate case: the 2x2 "swap" matrix is D with D^2 = I
    swap = FiberCorrespondence(kind="x", parameter=0, matrix=((0, 1), (1, 0)), points=(0, 1))
    ident = discover_identity(swap)
    # equations: diagonal a + c = 1, off-diagonal b + c = 0; c is free -> 0
    assert ident == QuadraticIdentity(Fraction(1), Fraction(0), Fraction(0))


def test_exponent_extraction():
    for n in range(2, 13):
        ident = discover_identity(build_subset_matrix(n))
        res = exponent_from_identity(ident)
        assert res.q == n
        assert "exponent is q = %d" % n in res.derivation
    res3 = exponent_from_identity(discover_identity(build_grid_matrix(3)))
    assert res3.q == 3


def test_exponent_extraction_failures():
    # grid m=4: (a, b) = (4, 0) gives q = 2 but a != 1
    with pytest.raises(ExponentExtractionError):
        exponent_from_identity(discover_identity(build_grid_matrix(4)))
    # grid m=5: b = 1 gives q = 1 < 2
    with pytest.raises(ExponentExtractionError):
        exponent_from_identity(discover_identity(build_grid_matrix(5)))
    with pytest.raises(ExponentExtractionError):
        exponent_from_identity(QuadraticIdentity(Fraction(1), Fraction(1, 2), Fraction(0)))


def test_identity_template_full_range():
    for n in range(2, 13):
        corr = build_subset_matrix(n)
        assert corr.size == comb(n + 2, 2)
        assert corr.bidegree == n * (n - 1) // 2
        ident = discover_identity(corr)
        assert ident.coefficients() == subset_identity_template(n)


def test_identity_and_exponent():
    ident, q, note = identity_and_exponent(build_subset_matrix(4))
    assert ident == QuadraticIdentity(Fraction(3), Fraction(-2), Fraction(3))
    assert q == 4
    assert note == exponent_from_identity(ident).derivation
    # the 4x4 grid has an identity, but a != q - 1
    ident, q, note = identity_and_exponent(build_grid_matrix(4))
    assert ident is not None and q is None
    assert note.startswith("criterion hypothesis fails")
    six_cycle = tuple(
        tuple(1 if (i - j) % 6 in (1, 5) else 0 for j in range(6)) for i in range(6)
    )
    corr = FiberCorrespondence(kind="x", parameter=0, matrix=six_cycle, points=tuple(range(6)))
    assert identity_and_exponent(corr) == (
        None, None, "no quadratic identity exists for this correspondence"
    )
