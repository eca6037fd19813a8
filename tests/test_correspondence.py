import copy
import itertools
import pickle
import re
import tracemalloc
from fractions import Fraction
from math import comb
from operator import getitem, is_, itemgetter, ne

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prymtyurin import correspondence
from prymtyurin.correspondence import (
    FiberCorrespondence,
    build_grid_matrix,
    build_subset_matrix,
    discover_identity,
    exponent_from_identity,
    grid_points,
    identity_and_exponent,
    mat_mul,
    strongly_regular_identity,
    verify_identity,
)
from prymtyurin.induced_curve import MERGED, subset_fiber
from prymtyurin.perms import (
    Permutation,
    all_subsets,
    induced_subset_action,
    orbits,
    subset_index,
)
from references import point_permutation


def rebuilt(corr, **changes):
    """corr with the given fields changed, through the constructor and so
    through every check it makes."""
    return FiberCorrespondence(**{**corr._asdict(), **changes})


def test_subset_matrix_n2_is_the_complement_involution():
    corr = build_subset_matrix(2)
    assert corr.size == 6
    assert corr.bidegree == 1
    # the unique neighbor of each pair is its complement in {1..4}
    pairs = all_subsets(4, 2)
    assert corr.points == tuple(pairs)
    for i, s in enumerate(pairs):
        comp = tuple(sorted(set(range(1, 5)) - set(s)))
        j = corr.points.index(comp)
        assert corr.rows[i] == 1 << j


def test_subset_matrix_n3_examples():
    corr = build_subset_matrix(3)
    assert corr.size == 10
    assert corr.bidegree == 3
    # frozen: the image of {1,3,5} is {2,4,5} + {1,2,4} + {2,3,4}
    i = corr.points.index((1, 3, 5))
    neighbors = {j for j in range(10) if corr.rows[i] >> j & 1}
    want = {corr.points.index(s) for s in ((2, 4, 5), (1, 2, 4), (2, 3, 4))}
    assert neighbors == want


@pytest.mark.parametrize("n", [*range(2, 13), 20, 40])
def test_subset_matrix_relates_subsets_sharing_n_minus_2(n):
    corr = build_subset_matrix(n)
    # each subset as the bitmask of its elements, each row at C level, so
    # n = 40 (861 points) stays quick
    sets = [sum(1 << x for x in p) for p in corr.points]
    lifts = [1 << j for j in range(len(sets))]

    def row(s):
        shared = map(int.bit_count, map(s.__and__, sets))
        return sum(itertools.compress(lifts, map((n - 2).__eq__, shared)))

    assert corr.rows == tuple(map(row, sets))


@pytest.mark.parametrize("m", range(2, 31))
def test_grid_matrix_relates_cells_sharing_exactly_a_row_or_a_column(m):
    # the cell-level oracle: (i, j) and (k, l) are related when they share
    # the row or the column but not both.  At m = 4 the rook's graph shares
    # its strongly regular parameters with the Shrikhande graph, so the
    # identity alone cannot tell them apart
    corr = build_grid_matrix(m)
    cells = tuple(itertools.product(range(1, m + 1), repeat=2))
    rows_of, columns_of = zip(*cells)
    lifts = [1 << q for q in range(m * m)]

    def row(i, j):
        related = map(ne, map(i.__eq__, rows_of), map(j.__eq__, columns_of))
        return sum(itertools.compress(lifts, related))

    assert corr.points == cells
    assert corr.rows == tuple(itertools.starmap(row, cells))


def test_grid_matrix_small():
    corr = build_grid_matrix(3)
    assert corr.size == 9
    assert corr.bidegree == 4
    # P_11 is related to P_12, P_13 (row) and P_21, P_31 (column); row-major ranks
    assert [j for j in range(9) if corr.rows[0] >> j & 1] == [1, 2, 3, 6]
    assert corr.points[:4] == ((1, 1), (1, 2), (1, 3), (2, 1))
    assert corr.points.index((3, 3)) == 8
    corr2 = build_grid_matrix(2)
    assert corr2.bidegree == 2


def test_build_validation():
    with pytest.raises(ValueError):
        build_subset_matrix(1)
    with pytest.raises(ValueError):
        build_grid_matrix(1)
    with pytest.raises(ValueError, match=r"not symmetric at \(1, 0\)"):
        # the directed 3-cycle 0 -> 1 -> 2 -> 0
        FiberCorrespondence(kind="x", parameter=0, rows=(0b010, 0b100, 0b001), points=(0, 1, 2))
    with pytest.raises(ValueError, match=r"not symmetric at \(3, 2\)"):
        # rows 0 and 5 already disagree on the pair {0, 5}, but the walk by
        # rows below the diagonal meets the one-sided pair {2, 3} first
        rows = tuple(1 << j for j in (5, 3, 3, 1, 5, 4))
        FiberCorrespondence(kind="x", parameter=0, rows=rows, points=tuple(range(6)))
    with pytest.raises(ValueError, match="nonzero diagonal entry at 0"):
        FiberCorrespondence(kind="x", parameter=0, rows=(0b11, 0b11), points=(0, 1))
    with pytest.raises(ValueError, match="row sums are not constant"):
        FiberCorrespondence(kind="x", parameter=0, rows=(0b10, 0b00), points=(0, 1))
    with pytest.raises(ValueError, match="distinct point descriptors"):
        FiberCorrespondence(kind="x", parameter=0, rows=(0b10, 0b01), points=(0,))
    with pytest.raises(ValueError, match="distinct point descriptors"):
        FiberCorrespondence(kind="x", parameter=0, rows=(0b10, 0b01), points=(0, 0))


def test_a_repeated_point_descriptor_is_named():
    # subset n = 2 with its last point replaced by its second: six
    # descriptors, five of them distinct, and the first repeated one named
    corr = build_subset_matrix(2)
    points = (*corr.points[:-1], corr.points[1])
    message = f"need 6 distinct point descriptors, got 5: {corr.points[1]!r} is repeated"
    want = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=want):
        FiberCorrespondence(corr.kind, corr.parameter, corr.rows, points, corr.symmetries)
    with pytest.raises(ValueError, match=want):
        reference_construction_check(corr.rows, points, corr.symmetries)
    # the first repeat, not the first descriptor that has a twin
    with pytest.raises(ValueError, match=r"got 2: 1 is repeated"):
        FiberCorrespondence("x", 0, (0b110, 0b101, 0b011, 0), (0, 1, 1, 0))


def test_rows_are_sets_of_points():
    # a bitset row cannot hold a multiplicity, but it can be negative or name
    # a point past the fiber; both are refused before any other row check
    for bad in (-1, -0b10, 0b100, 0b101):
        with pytest.raises(ValueError, match=r"row 1 is not a set of points 0\.\.1"):
            FiberCorrespondence(kind="x", parameter=0, rows=(0b10, bad), points=(0, 1))


SIX_CYCLE = tuple(sum(1 << j for j in range(6) if (i - j) % 6 in (1, 5)) for i in range(6))


@pytest.mark.parametrize(
    "rows, symmetries, message",
    [
        # a diagonal entry at row 3 and an asymmetry at (1, 0): the walk by
        # rows meets the asymmetry first
        ((0b0100, 0b0001, 0b0001, 0b1000), (), r"^not symmetric at \(1, 0\)$"),
        # a diagonal entry at row 0 and an asymmetry at (3, 2): the diagonal
        ((0b0001, 0b0100, 0b0010, 0b0100), (), r"^nonzero diagonal entry at 0$"),
        # a row out of range and unequal row sums: the range is checked first
        ((0b10, 0b111), (), r"^row 1 is not a set of points 0\.\.1$"),
        # two symmetries of the 6-cycle that both fail: the first is named
        (
            SIX_CYCLE,
            (Permutation((1, 6, 3, 4, 5, 2)), Permutation((2, 1, 3, 4, 5, 6))),
            r"^symmetry 0 does not preserve the relation$",
        ),
    ],
)
def test_first_of_two_defects_is_named(rows, symmetries, message):
    # the checks compare whole lists first, so a construction with two
    # defects must still name the one the walk by rows reaches first
    with pytest.raises(ValueError, match=message):
        FiberCorrespondence(
            kind="x", parameter=0, rows=rows, points=tuple(range(len(rows))), symmetries=symmetries
        )


def test_mat_mul_exact():
    # a = [[1, 1, 0], [0, 1, 1], [1, 0, 1]] by rows, and b has the columns
    # [1, 1, 1], [0, 0, 1] and [0, 0, 0]
    rows = (0b011, 0b110, 0b101)
    cols = (0b111, 0b100, 0b000)
    assert mat_mul(rows, cols) == ((2, 0, 0), (2, 1, 0), (2, 1, 0))
    # a product of fewer rows is those rows of the square product
    assert mat_mul(rows[1:2], cols) == ((2, 1, 0),)
    assert mat_mul((rows[2], rows[0]), cols) == ((2, 1, 0), (2, 0, 0))


def bit_matrix(bitsets, size):
    """The dense 0/1 matrix whose i-th row has the bits of bitsets[i]."""
    return tuple(tuple(b >> j & 1 for j in range(size)) for b in bitsets)


def reference_mat_mul(rows, cols, size):
    """The dense triple-loop product that mat_mul's popcount product replaces."""
    a, bt = bit_matrix(rows, size), bit_matrix(cols, size)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def bitsets(size, count):
    return st.lists(st.integers(0, (1 << size) - 1), min_size=count, max_size=count).map(tuple)


@given(st.integers(0, 8), st.integers(0, 8), st.data())
def test_mat_mul_matches_dense_reference(size, count, data):
    # independent random factors: neither is symmetric nor has a zero
    # diagonal, and the left one has its own number of rows
    rows, cols = data.draw(bitsets(size, count)), data.draw(bitsets(size, size))
    assert mat_mul(rows, cols) == reference_mat_mul(rows, cols, size)


def test_discover_identity_subset_small():
    # frozen coefficients, derived by brute-force squaring
    for n, want in [(2, (1, 0, 0)), (3, (2, -1, 1)), (4, (3, -2, 3)), (5, (4, -3, 6))]:
        ident = discover_identity(build_subset_matrix(n))
        assert ident is not None
        assert ident == want


def test_discover_identity_grid():
    # the m x m grid is the rook's graph, strongly regular with k = 2(m-1),
    # lambda = m-2, mu = 2, so D^2 = (k-mu)I + (lambda-mu)D + mu*U
    for m in range(2, 9):
        ident = discover_identity(build_grid_matrix(m))
        assert ident is not None
        assert ident == (2 * m - 4, m - 4, 2)
        assert ident == strongly_regular_identity("grid", m)


def test_identity_row_sum_consistency():
    # row sums of D^2 = a + b*d + c*N when the identity holds
    for build, params in ((build_subset_matrix, range(2, 9)), (build_grid_matrix, range(2, 9))):
        for p in params:
            corr = build(p)
            ident = discover_identity(corr)
            assert ident is not None
            ok, witness = verify_identity(corr, *ident)
            assert ok, witness
            a, b, c = ident
            d = corr.bidegree
            assert d * d == a + b * d + c * corr.size


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


def test_proof_squares_one_row_per_orbit(monkeypatch):
    # one mat_mul call per proof, squaring one row per orbit of the
    # symmetries: both families are transitive, and a correspondence built
    # from its rule squares row 0 without walking an orbit; one made through
    # the constructor walks them, and a hand-built relation has no
    # symmetries, so every point is its own orbit
    calls, walks = [], []
    real, walk = correspondence.mat_mul, correspondence.orbits

    def counting(a, b):
        calls.append(len(a))
        return real(a, b)

    def walking(generators, degree):
        walks.append(degree)
        return walk(generators, degree)

    monkeypatch.setattr(correspondence, "mat_mul", counting)
    monkeypatch.setattr(correspondence, "orbits", walking)
    corr = build_subset_matrix(4)
    ident, q, _ = identity_and_exponent(corr)
    assert q == 4
    assert calls == [1] and walks == []
    for m in range(3, 9):
        calls.clear()
        assert identity_and_exponent(build_grid_matrix(m))[0] is not None
        assert calls == [1] and walks == []
    for made in (rebuilt(corr), copy.copy(corr), pickle.loads(pickle.dumps(corr))):
        calls.clear()
        assert verify_identity(made, *ident) == (True, None)
        assert calls == [1] and walks == [15]
        walks.clear()
    six_cycle = tuple(sum(1 << j for j in range(6) if (i - j) % 6 in (1, 5)) for i in range(6))
    calls.clear()
    assert discover_identity(relation(six_cycle)) is None
    assert calls == [6] and walks == [6]


def test_symmetries_are_checked_at_construction():
    six_cycle = tuple(sum(1 << j for j in range(6) if (i - j) % 6 in (1, 5)) for i in range(6))
    rotation = Permutation((2, 3, 4, 5, 6, 1))
    reflection = Permutation((1, 6, 5, 4, 3, 2))
    corr = relation(six_cycle)
    assert rebuilt(corr, symmetries=(rotation, reflection)).symmetries
    # swapping points 1 and 5, the neighbours of point 0, moves the edge
    # {1, 2} to {5, 2}
    with pytest.raises(ValueError, match="symmetry 1 does not preserve the relation"):
        rebuilt(corr, symmetries=(rotation, Permutation((1, 6, 3, 4, 5, 2))))
    with pytest.raises(ValueError, match="symmetry 0 has degree 5, not 6"):
        rebuilt(corr, symmetries=(Permutation((2, 3, 4, 5, 1)),))
    # each family's generators preserve its relation and are transitive,
    # which verify_identity relies on for a correspondence built from its
    # rule, at every size the CLI accepts
    for corr in (*map(build_subset_matrix, range(2, 41)), *map(build_grid_matrix, range(2, 31))):
        assert len(corr.symmetries) == 2
        assert len(orbits(corr.symmetries, corr.size)) == 1


@pytest.mark.parametrize("n", range(2, 41))
def test_subset_symmetries_are_the_induced_label_moves(n):
    # the closed form over colex positions against the one induction rule
    corr = build_subset_matrix(n)
    moves = [Permutation.from_cycles(n + 2, g) for g in (((1, 2),), (tuple(range(1, n + 3)),))]
    assert corr.symmetries == tuple(map(corr.induce, moves))
    # which is the induced action on n-subsets through an index of its own
    index = subset_index(n + 2, n)
    assert corr.symmetries == tuple(induced_subset_action(g, n, index) for g in moves)


def test_grid_symmetries_are_the_transpose_and_the_row_cycle():
    # the closed form over row-major positions against the moves on cells
    # and against the label moves i <-> m + i and (1 ... m), induced
    for m in range(2, 31):
        corr = build_grid_matrix(m)
        moves = (lambda c: c[::-1], lambda c: (c[0] % m + 1, c[1]))
        want = tuple(point_permutation(grid_points(m), move) for move in moves)
        assert corr.symmetries == want
        transpose = Permutation((*range(m + 1, 2 * m + 1), *range(1, m + 1)))
        cycle = Permutation((*range(2, m + 1), 1, *range(m + 1, 2 * m + 1)))
        assert corr.symmetries == (corr.induce(transpose), corr.induce(cycle))


def compose(a, b):
    """The permutation a . b: x goes to a(b(x))."""
    return Permutation(tuple(map(a, b.images)))


@st.composite
def subset_label_moves(draw):
    """A subset correspondence, n = 2..8, and two label moves of degree n + 2."""
    n = draw(st.integers(2, 8))
    move = st.permutations(range(1, n + 3)).map(tuple).map(Permutation)
    return build_subset_matrix(n), draw(move), draw(move)


@st.composite
def grid_label_moves(draw):
    """A grid correspondence, m = 2..6, and two label moves in S_m wr S_2:
    a permutation of the rows, one of the columns, and whether the move
    swaps the rows with the columns."""
    m = draw(st.integers(2, 6))

    def move():
        rows, cols = (draw(st.permutations(range(1, m + 1))) for _ in range(2))
        sides = ([*rows], [c + m for c in cols])
        if draw(st.booleans()):
            sides = ([r + m for r in rows], [*cols])
        return Permutation((*sides[0], *sides[1]))

    return build_grid_matrix(m), move(), move()


@given(st.one_of(subset_label_moves(), grid_label_moves()))
def test_induce_is_a_homomorphism(drawn):
    corr, a, b = drawn
    assert corr.induce(compose(a, b)) == compose(corr.induce(a), corr.induce(b))
    identity = Permutation(tuple(range(1, a.degree + 1)))
    assert corr.induce(identity) == Permutation(tuple(range(1, corr.size + 1)))
    # every induced move preserves the relation
    corr.check_moves((corr.induce(a), corr.induce(b)), "induced move")


def test_induce_refuses_a_move_it_cannot_induce():
    with pytest.raises(ValueError, match="^subset label move has degree 5, not 6$"):
        build_subset_matrix(4).induce(Permutation((2, 1, 3, 4, 5)))
    with pytest.raises(ValueError, match="^grid label move has degree 3, not 6$"):
        build_grid_matrix(3).induce(Permutation((2, 1, 3)))
    # a grid move must keep the row labels together: row 1 goes to a
    # column and row 2 stays a row, so cell (1, 2), the labels 1 and 4,
    # goes to the two column labels 3 and 4
    want = "grid label move takes the labels (1, 4) of point 2 to (3, 4), the labels of no point"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        build_grid_matrix(2).induce(Permutation((3, 2, 1, 4)))
    # of the 24 moves of the four labels of the 2 x 2 grid, the 8 of
    # S_2 wr S_2 keep the rows together and induce; the other 16 are refused
    corr = build_grid_matrix(2)
    induced, refused = [], []
    for images in itertools.permutations(range(1, 5)):
        try:
            induced.append(corr.induce(Permutation(images)))
        except ValueError as exc:
            assert "the labels of no point" in str(exc)
            refused.append(images)
        else:
            assert {*images[:2]} in ({1, 2}, {3, 4})
    assert len(induced) == 8 and len(set(induced)) == 8 and len(refused) == 16
    # no label rule for any other kind, and none below the family's floor
    other = rebuilt(build_grid_matrix(2), kind="other")
    with pytest.raises(ValueError, match="^no label rule for a correspondence of kind 'other'$"):
        other.induce(Permutation((1, 2, 3, 4)))
    for build, letter in ((build_subset_matrix, "n"), (build_grid_matrix, "m")):
        with pytest.raises(ValueError, match=f"needs {letter} >= 2, got 1$"):
            build(1)


def test_each_distinct_move_is_induced_once(monkeypatch):
    # the symmetries are the first moves induced; any later call with a
    # move of the same images hands back the same permutation
    moves = []
    real = correspondence._induced
    monkeypatch.setattr(correspondence, "_induced", lambda *a: moves.append(a[2]) or real(*a))
    corr = build_subset_matrix(5)
    cycle = Permutation((2, 3, 4, 5, 6, 7, 1))
    assert moves == [Permutation((2, 1, 3, 4, 5, 6, 7)), cycle]
    assert corr.induce(Permutation((2, 3, 4, 5, 6, 7, 1))) is corr.symmetries[1]
    swap = Permutation((1, 2, 3, 4, 5, 7, 6))
    assert corr.induce(swap) is corr.induce(Permutation((1, 2, 3, 4, 5, 7, 6)))
    assert moves[2:] == [swap]
    # a refused move is not kept: it is refused again
    for _ in range(2):
        with pytest.raises(ValueError, match="has degree 6, not 7"):
            corr.induce(Permutation((1, 2, 3, 4, 5, 6)))
    assert len(moves) == 5 and set(corr.induced) == {m.images for m in moves[:3]}


def test_an_unhashable_kind_has_no_rule_and_no_closed_form():
    # the table of kinds is a dict; a kind that cannot be its key is refused
    # by name like any other, never with a TypeError
    other = rebuilt(build_grid_matrix(2), kind=[])
    with pytest.raises(ValueError, match=r"^no label rule for a correspondence of kind \[\]$"):
        other.induce(Permutation((1, 2, 3, 4)))
    with pytest.raises(ValueError, match=r"^no strongly regular closed form .* kind \[\]$"):
        identity_and_exponent(other)


def test_a_copied_correspondence_holds_the_one_text_its_constructor_checked():
    # copy and pickle rebuild D's text from rows through __new__ and carry
    # only the pair lookup, so a copy's bits is the list its table gathers
    # from, not a second text beside it, and verify_identity reads the text
    # the construction checks passed
    for corr in (build_subset_matrix(3), build_grid_matrix(3)):
        ident = identity_and_exponent(corr)[0]
        for twin in (copy.copy(corr), copy.deepcopy(corr), pickle.loads(pickle.dumps(corr))):
            assert twin == corr and twin.bits == corr.bits
            assert all(map(is_, twin.bits, twin.row_bits[1:]))
            assert "pair_lookup" in twin.__dict__
            assert verify_identity(twin, *ident) == (True, None)


def test_a_correspondence_made_any_way_induces_as_the_built_one():
    # the label rule comes from (kind, parameter) alone, so a correspondence
    # made through the constructor, copy or pickle induces every label move
    # as the built one does, refusals included
    for corr in (*map(build_subset_matrix, (2, 3)), *map(build_grid_matrix, (2, 3))):
        labels = corr.parameter + 2 if corr.kind == "subset" else 2 * corr.parameter

        def outcomes(c):
            for images in itertools.permutations(range(1, labels + 1)):
                try:
                    yield c.induce(Permutation(images))
                except ValueError as exc:
                    yield str(exc)

        want = list(outcomes(corr))
        assert any(type(w) is Permutation for w in want)
        for other in (rebuilt(corr), copy.copy(corr), pickle.loads(pickle.dumps(corr))):
            assert other == corr and list(outcomes(other)) == want


def test_a_correspondence_off_its_rule_points_is_refused_by_induce():
    # the subset correspondence with n = 3 on its points reversed and its
    # rows relabeled to match: a valid relation, but the pair lookup of its
    # (kind, parameter) reads the rule's point order, so inducing on it
    # would move other points than the ones its move moves
    corr = build_subset_matrix(3)
    last = corr.size - 1
    rows = tuple(
        sum(1 << (last - j) for j in range(corr.size) if corr.rows[last - i] >> j & 1)
        for i in range(corr.size)
    )
    twin = rebuilt(corr, rows=rows, points=corr.points[::-1], symmetries=())
    message = "^the subset correspondence is not on its label rule's points$"
    with pytest.raises(ValueError, match=message):
        twin.induce(Permutation((2, 1, 3, 4, 5)))
    # so no special fiber is built on it
    with pytest.raises(ValueError, match=message):
        subset_fiber(twin, (2, 2, 1), MERGED)


def two_switch(rows):
    """rows with the edges {u, v} and {x, y} replaced by {u, x} and {v, y}:
    every point keeps its degree, so only the symmetries can see it."""
    u = 0
    v = (rows[u] & -rows[u]).bit_length() - 1
    x, y = next(
        (x, y)
        for x in range(1, len(rows)) if x != v and not rows[u] >> x & 1
        for y in range(len(rows)) if y not in (u, v) and rows[x] >> y & 1 and not rows[v] >> y & 1
    )
    switched = list(rows)
    for i, j in ((u, v), (x, y), (u, x), (v, y)):
        switched[i] ^= 1 << j
        switched[j] ^= 1 << i
    return tuple(switched)


def test_two_switch_is_refused_by_the_symmetries():
    corr = build_subset_matrix(10)
    switched = two_switch(corr.rows)
    assert {row.bit_count() for row in switched} == {corr.bidegree}
    with pytest.raises(ValueError, match="does not preserve the relation"):
        rebuilt(corr, rows=switched)
    # without symmetries every row is proved, and the identity fails
    bare = rebuilt(corr, rows=switched, symmetries=())
    assert discover_identity(bare) is None
    assert identity_and_exponent(bare)[0] is None


def test_witness_is_the_same_with_and_without_symmetries():
    # a failing row is the first of its orbit, so one row per orbit finds
    # the same first failing entry as the walk over every row
    for corr in (*map(build_subset_matrix, range(2, 9)), *map(build_grid_matrix, range(2, 9))):
        bare = rebuilt(corr, symmetries=())
        a, b, c = discover_identity(corr)
        for claim in (
            (a, b, c), (a + 1, b, c), (a, b - 1, c), (a, b, c + 1), (0, 0, 0),
            (a, b, Fraction(2 * c + 1, 2)),
        ):
            assert verify_identity(corr, *claim) == verify_identity(bare, *claim)


def test_identity_proof_keeps_no_square():
    # one row per orbit is squared and dropped; the old proof built and kept
    # all of D^2, 25.5 MB at subset n = 40 and 6.2 MB at grid m = 30
    for corr in (build_subset_matrix(40), build_grid_matrix(30)):
        tracemalloc.start()
        try:
            assert identity_and_exponent(corr)[0] is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


@pytest.mark.parametrize("build, size", [(build_subset_matrix, 40), (build_grid_matrix, 30)])
def test_construction_keeps_no_transpose(build, size):
    # the construction's transient allocation, its peak less what the built
    # object retains: one N^2 text and the N^2 of the column strings cut from
    # it, about 2.09 N^2 bytes.  The constructor's text held across
    # check_moves made it 3.09 N^2, and the zip transposes held 4.46 N^2
    # (subset) and 4.36 N^2
    build(size)  # fill any cache the build reads, so it counts as retained
    tracemalloc.start()
    try:
        corr = build(size)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained < 2.5 * corr.size**2


def test_discover_identity_none_when_impossible():
    # the 6-cycle is 2-regular but not strongly regular: vertices at distance
    # 2 and distance 3 both have D[i][j] = 0 yet different D^2 entries
    six_cycle = tuple(sum(1 << j for j in range(6) if (i - j) % 6 in (1, 5)) for i in range(6))
    corr = FiberCorrespondence(kind="x", parameter=0, rows=six_cycle, points=tuple(range(6)))
    assert discover_identity(corr) is None
    # the complete graph on 3 vertices does satisfy one
    k3 = FiberCorrespondence(
        kind="x", parameter=0, rows=(0b110, 0b101, 0b011), points=tuple(range(3))
    )
    assert discover_identity(k3) == (2, 1, 0)
    broken = (0b0010, 0b0101, 0b1010, 0b0100)  # the path on four points
    with pytest.raises(ValueError, match="row sums are not constant"):
        FiberCorrespondence(kind="x", parameter=0, rows=broken, points=tuple(range(4)))


def test_discover_identity_walks_d2_once(monkeypatch):
    # the coefficients are read off row 0 of D^2, and verify_identity is the
    # one entrywise proof: exactly one call, whether or not an identity exists
    calls = []
    real = correspondence.verify_identity

    def counting(corr, a, b, c):
        calls.append((a, b, c))
        return real(corr, a, b, c)

    monkeypatch.setattr(correspondence, "verify_identity", counting)
    for corr in (build_subset_matrix(6), build_grid_matrix(4)):
        calls.clear()
        ident = discover_identity(corr)
        assert ident == strongly_regular_identity(corr.kind, corr.parameter)
        assert calls == [ident]
    six_cycle = tuple(sum(1 << j for j in range(6) if (i - j) % 6 in (1, 5)) for i in range(6))
    calls.clear()
    assert discover_identity(
        FiberCorrespondence(kind="x", parameter=0, rows=six_cycle, points=tuple(range(6)))
    ) is None
    assert len(calls) == 1


def test_discover_identity_underdetermined_canonicalization():
    # D = permutation-free degenerate case: the 2x2 "swap" matrix is D with D^2 = I
    swap = FiberCorrespondence(kind="x", parameter=0, rows=(0b10, 0b01), points=(0, 1))
    ident = discover_identity(swap)
    # equations: diagonal a + c = 1, off-diagonal b + c = 0; c is free -> 0
    assert ident == (1, 0, 0)


def test_exponent_extraction():
    for n in range(2, 13):
        ident = discover_identity(build_subset_matrix(n))
        q, note = exponent_from_identity(ident)
        assert q == n
        assert "exponent is q = %d" % n in note
    q3, _ = exponent_from_identity(discover_identity(build_grid_matrix(3)))
    assert q3 == 3


def test_exponent_extraction_failures():
    # grid m=4: (a, b) = (4, 0) gives q = 2 but a != 1
    assert exponent_from_identity(discover_identity(build_grid_matrix(4))) == (
        None,
        "criterion hypothesis fails: need a = q - 1 = 1, got a = 4",
    )
    # grid m=5: b = 1 gives q = 1 < 2
    assert exponent_from_identity(discover_identity(build_grid_matrix(5))) == (
        None,
        "criterion hypothesis fails: q = 2 - b = 1 is below 2",
    )


def test_identity_template_full_range():
    # the subset correspondence is the Kneser graph K(n+2, 2) on the
    # 2-element complements: D^2 = (n-1)*I - (n-2)*D + C(n-1, 2)*U
    for n in range(2, 13):
        corr = build_subset_matrix(n)
        assert corr.size == comb(n + 2, 2)
        assert corr.bidegree == n * (n - 1) // 2
        ident = discover_identity(corr)
        assert ident == (n - 1, -(n - 2), comb(n - 1, 2))
        assert ident == strongly_regular_identity("subset", n)


def test_identity_and_exponent():
    ident, q, note = identity_and_exponent(build_subset_matrix(4))
    assert ident == (3, -2, 3)
    assert q == 4
    assert (q, note) == exponent_from_identity(ident)
    # the 4x4 grid has an identity, but a != q - 1
    ident, q, note = identity_and_exponent(build_grid_matrix(4))
    assert ident is not None and q is None
    assert note.startswith("criterion hypothesis fails")
    six_cycle = tuple(sum(1 << j for j in range(6) if (i - j) % 6 in (1, 5)) for i in range(6))
    corr = FiberCorrespondence(kind="x", parameter=0, rows=six_cycle, points=tuple(range(6)))
    assert identity_and_exponent(corr) == (
        None, None, "no quadratic identity exists for this correspondence"
    )


def test_identity_and_exponent_rechecks_the_closed_form():
    # the triangular graph T(5), SRG(10, 6, 3, 4), on the 3-subsets of five
    # sheets sharing two elements: D^2 = 2*I - D + 4*U factors with q = 3,
    # but the subset family with n = 3 relates the 3-subsets sharing one
    # (the Petersen graph) and has the closed form (2, -1, 1)
    pts = tuple(all_subsets(5, 3))
    rows = tuple(sum(1 << j for j, r in enumerate(pts) if len(set(p) & set(r)) == 2) for p in pts)
    corr = FiberCorrespondence(kind="subset", parameter=3, rows=rows, points=pts)
    ident, q, note = identity_and_exponent(corr)
    assert ident == (2, -1, 4)
    assert q is None
    assert note == (
        "the discovered identity (a, b, c) = (2, -1, 4) differs from the strongly"
        " regular closed form (2, -1, 1) of the subset correspondence with parameter 3"
    )
    # T(5) itself factors with q = 3, but a kind without a closed form is
    # refused, never left unchecked
    with pytest.raises(ValueError, match="kind 'x'"):
        identity_and_exponent(rebuilt(corr, kind="x"))


def reference_discover_identity(corr):
    """General solver for the identity discover_identity finds in closed
    form: the deduplicated equations a*[i == j] + b*D[i][j] + c = D^2[i][j],
    solved by Gaussian elimination over Fraction in the unknown order b, a, c
    with free unknowns set to zero, then re-verified entrywise.  D^2 is the
    dense reference product, never the package's."""
    square = reference_mat_mul(corr.rows, corr.rows, corr.size)
    rows = {}
    for i, (row, sq) in enumerate(zip(corr.rows, square)):
        for j, got in enumerate(sq):
            key = (1 if i == j else 0, row >> j & 1)
            if rows.setdefault(key, got) != got:
                return None
    system = [[Fraction(k[1]), Fraction(k[0]), Fraction(1), Fraction(rhs)] for k, rhs in rows.items()]
    pivots = []
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
    a, b, c = by_col.get(1, zero), by_col.get(0, zero), by_col.get(2, zero)
    dense = bit_matrix(corr.rows, corr.size)
    ok = all(
        got == a * (i == j) + b * dense[i][j] + c
        for i, sq in enumerate(square) for j, got in enumerate(sq)
    )
    return (a, b, c) if ok else None


def relabeled_circulant(draw, size):
    """A symmetric 0/1 circulant with a random set of distances, relabeled:
    point label[i] is related to label[j] when i - j is a chosen distance."""
    chosen = draw(st.lists(st.booleans(), min_size=size // 2, max_size=size // 2))
    label = draw(st.permutations(range(size)))
    rows = [0] * size
    for i in range(size):
        for j in range(size):
            d = min((i - j) % size, (j - i) % size)
            if d and chosen[d - 1]:
                rows[label[i]] |= 1 << label[j]
    return tuple(rows), label


@st.composite
def regular_correspondences(draw):
    # the union of relabeled symmetric circulants, each kept when the union
    # stays regular: symmetric, zero diagonal and constant row sums, so
    # every relation FiberCorrespondence accepts can occur.  A single
    # circulant carries a drawn power of its relabeled rotation, label[i] ->
    # label[i + shift], as its symmetries: the group is transitive exactly
    # when the shift is prime to the size, and shift 0 fixes every point
    size = draw(st.integers(1, 7))
    rows, label = relabeled_circulant(draw, size)
    shift = draw(st.integers(0, size - 1))
    rotation = [0] * size
    for i in range(size):
        rotation[label[i]] = label[(i + shift) % size] + 1
    symmetries = (Permutation(tuple(rotation)),)
    for _ in range(draw(st.integers(0, 2))):
        union = tuple(a | b for a, b in zip(rows, relabeled_circulant(draw, size)[0]))
        if len({row.bit_count() for row in union}) == 1:
            rows, symmetries = union, ()
    return FiberCorrespondence(
        kind="x", parameter=0, rows=rows, points=tuple(range(size)), symmetries=symmetries
    )


@given(regular_correspondences())
def test_square_matches_dense_reference(corr):
    # the lemma behind the proof: every symmetry preserves D^2, so the rows
    # verify_identity squares, one per orbit, decide every row
    square = reference_mat_mul(corr.rows, corr.rows, corr.size)
    for g in corr.symmetries:
        assert all(
            square[g(i + 1) - 1][g(j + 1) - 1] == got
            for i, sq in enumerate(square) for j, got in enumerate(sq)
        )
    minima = [orbit[0] - 1 for orbit in orbits(corr.symmetries, corr.size)]
    assert mat_mul(tuple(corr.rows[i] for i in minima), corr.rows) == tuple(
        square[i] for i in minima
    )


def relation(rows):
    return FiberCorrespondence(kind="x", parameter=0, rows=rows, points=tuple(range(len(rows))))


@given(regular_correspondences())
@example(relation((0, 0, 0, 0)))  # no related pair: b is free and set to 0
@example(relation((0b1110, 0b1101, 0b1011, 0b0111)))  # K4, no unrelated pair: c = 0
@example(relation((0,)))  # one point: a, b and c are all 0
def test_discover_identity_matches_elimination(corr):
    want = reference_discover_identity(corr)
    got = discover_identity(corr)
    assert got == want
    if got is not None:
        assert type(got) is tuple and all(type(x) is int for x in got)


def reference_construction_check(rows, points, symmetries):
    """The construction check that FiberCorrespondence replaced, kept as the
    reference: it transposes the rows' bit strings with zip, once for
    symmetry and once per symmetry, and raises the same ValueError."""
    n = len(rows)
    if len(points) != n:
        raise ValueError(f"need {n} distinct point descriptors, got {len(points)}")
    repeated = [p for k, p in enumerate(points) if p in points[:k]]
    if repeated:
        raise ValueError(
            f"need {n} distinct point descriptors, got {len(set(points))}:"
            f" {repeated[0]!r} is repeated"
        )
    if min(rows, default=0) < 0 or max(rows, default=0) >> n:
        for i, row in enumerate(rows):
            if row < 0 or row >> n:
                raise ValueError(f"row {i} is not a set of points 0..{n - 1}")
    sums = set(map(int.bit_count, rows))
    if len(sums) != 1:
        raise ValueError(f"row sums are not constant: {sorted(sums)}")
    # bits[i][j] is bit j of row i, and columns[i][j] bit i of row j
    written = map(format, rows, itertools.repeat(f"0{n}b"))
    bits = list(map(itemgetter(slice(None, None, -1)), written))
    columns = list(map("".join, zip(*bits)))
    if "1" in "".join(map(getitem, bits, range(n))) or bits != columns:
        for i, (row, col) in enumerate(zip(bits, columns)):
            if row[i] == "1":
                raise ValueError(f"nonzero diagonal entry at {i}")
            if row[:i] != col[:i]:
                j = next(j for j in range(i) if row[j] != col[j])
                raise ValueError(f"not symmetric at ({i}, {j})")
    for k, g in enumerate(symmetries):
        if g.degree != n:
            raise ValueError(f"symmetry {k} has degree {g.degree}, not {n}")
        at = list(map((-1).__add__, g.images))
        moved = list(map("".join, zip(*map(bits.__getitem__, at))))
        if list(map(moved.__getitem__, at)) != bits:
            raise ValueError(f"symmetry {k} does not preserve the relation")


def construction_outcome(check, rows, symmetries):
    """None when check accepts the relation, else the message it raises."""
    try:
        check(rows, tuple(range(len(rows))), symmetries)
    except ValueError as exc:
        return str(exc)
    return None


def package_check(rows, points, symmetries):
    FiberCorrespondence(kind="x", parameter=0, rows=rows, points=points, symmetries=symmetries)


def assert_matches_reference_check(rows, symmetries):
    want = construction_outcome(reference_construction_check, rows, symmetries)
    assert construction_outcome(package_check, rows, symmetries) == want


def test_construction_check_matches_reference_on_the_families():
    # each family with its symmetries in either order, and then with the swap
    # of its first and last points, which preserves only some of them
    for corr in (*map(build_subset_matrix, range(2, 13)), *map(build_grid_matrix, range(2, 9))):
        swap = Permutation((corr.size, *range(2, corr.size), 1))
        for symmetries in (corr.symmetries, corr.symmetries[::-1], (*corr.symmetries, swap)):
            assert_matches_reference_check(corr.rows, symmetries)


@pytest.mark.parametrize("size", range(4))
def test_construction_check_matches_reference_on_every_small_relation(size):
    # every 0/1 relation on at most three points, alone and with each
    # permutation of the points as its one symmetry
    perms = [Permutation(tuple(p)) for p in itertools.permutations(range(1, size + 1))]
    for rows in itertools.product(range(1 << size), repeat=size):
        assert_matches_reference_check(rows, ())
        for g in perms:
            assert_matches_reference_check(rows, (g,))


@st.composite
def relations_with_one_flip(draw):
    """A symmetric regular relation on at most 9 points, a symmetry that
    preserves it (its relabeled rotation) or any permutation, and often bit
    j of row i flipped, the last row and the last column drawn often.  Often
    a bit of row i that now equals bit j is flipped too, so the row sums stay
    constant and the check reaches symmetry; with no flip it reaches the
    symmetry."""
    size = draw(st.integers(1, 9))
    rows, label = relabeled_circulant(draw, size)
    if draw(st.booleans()):
        images = [0] * size
        for i in range(size):
            images[label[i]] = label[(i + 1) % size] + 1
    else:
        images = [p + 1 for p in draw(st.permutations(range(size)))]
    rows = list(rows)
    if draw(st.booleans()):
        point = st.one_of(st.sampled_from([0, size - 1]), st.integers(0, size - 1))
        i, j = draw(point), draw(point)
        rows[i] ^= 1 << j
        bit = rows[i] >> j & 1
        others = [k for k in range(size) if k != j and rows[i] >> k & 1 == bit]
        if others and draw(st.booleans()):
            rows[i] ^= 1 << draw(st.sampled_from(others))
    return tuple(rows), (Permutation(tuple(images)),)


@given(relations_with_one_flip())
# the 4-cycle 0-1-2-3 with its rotation, then with a bit moved in the last
# row and in the last column, then with a transposition that breaks it
@example(((0b1010, 0b0101, 0b1010, 0b0101), (Permutation((2, 3, 4, 1)),)))
@example(((0b1010, 0b0101, 0b1010, 0b0011), (Permutation((2, 3, 4, 1)),)))
@example(((0b0110, 0b0101, 0b1010, 0b0101), (Permutation((2, 3, 4, 1)),)))
@example(((0b1010, 0b0101, 0b1010, 0b0101), (Permutation((2, 1, 3, 4)),)))
def test_construction_check_matches_reference_after_one_flip(case):
    assert_matches_reference_check(*case)
