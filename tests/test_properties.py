"""Property-based tests for the algebraic core, using hypothesis."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from prymtyurin.correspondence import build_subset_matrix
from prymtyurin.covering import GenusValidationError, riemann_hurwitz_genus
from prymtyurin.fixed_points import class_action
from prymtyurin.perms import (
    Permutation,
    all_subsets,
    induced_subset_action,
    is_transitive,
    orbits,
)
from prymtyurin.report import fiber_to_dict

import pytest
from references import (
    diagonal_and_block,
    merged_fiber_over,
    reference_class_action,
    reference_merged_fiber,
)


def after(a, b):
    """a after b: after(a, b)(x) == a(b(x))."""
    return Permutation(tuple(a(b(x)) for x in range(1, b.degree + 1)))


def cycle_type(p):
    """Cycle lengths of p, the orbits of <p>, largest first."""
    return tuple(sorted(map(len, orbits((p,))), reverse=True))


def identity(degree):
    return Permutation(tuple(range(1, degree + 1)))


def inverse(p):
    """The label x at position p(x)."""
    return Permutation(tuple(sorted(range(1, p.degree + 1), key=p)))


def perms(degree):
    return st.permutations(tuple(range(1, degree + 1))).map(
        lambda imgs: Permutation(tuple(imgs))
    )


@st.composite
def perm_triples(draw):
    degree = draw(st.integers(1, 8))
    p = perms(degree)
    return draw(p), draw(p), draw(p)


@st.composite
def induced_cases(draw):
    degree = draw(st.integers(2, 7))
    k = draw(st.integers(1, degree - 1))
    p = perms(degree)
    return draw(p), draw(p), k


@st.composite
def subset_cases(draw):
    universe = draw(st.integers(1, 16))
    k = draw(st.integers(0, universe))
    subset = draw(
        st.sets(st.integers(1, universe), min_size=k, max_size=k)
    )
    return tuple(sorted(subset)), universe


@st.composite
def arbitrary_partitions(draw):
    """A random set partition of {1..n+2} for small n, arbitrary blocks."""
    n = draw(st.integers(2, 4))
    degree = n + 2
    items = draw(st.permutations(tuple(range(1, degree + 1))))
    cuts = sorted(
        draw(st.sets(st.integers(1, degree - 1), max_size=degree - 1))
    )
    blocks, prev = [], 0
    for cut in list(cuts) + [degree]:
        blocks.append(tuple(sorted(items[prev:cut])))
        prev = cut
    return n, tuple(blocks)


# --- permutation group laws ---------------------------------------------------


@given(perm_triples())
def test_compose_is_associative(triple):
    a, b, c = triple
    assert after(after(a, b), c) == after(a, after(b, c))


@given(perm_triples())
def test_inverse_and_identity_laws(triple):
    p, _, _ = triple
    ident = identity(p.degree)
    assert after(p, inverse(p)) == ident
    assert after(inverse(p), p) == ident
    assert after(p, ident) == p
    assert inverse(inverse(p)) == p


@given(perm_triples())
def test_cycle_type_is_conjugation_invariant(triple):
    p, g, _ = triple
    conj = after(after(g, p), inverse(g))
    assert cycle_type(conj) == cycle_type(p)


@given(perm_triples())
def test_orbits_partition_the_domain(triple):
    a, b, _ = triple
    orbs = orbits((a, b))
    seen = sorted(x for orb in orbs for x in orb)
    assert seen == list(range(1, a.degree + 1))
    assert is_transitive((a, b)) == (len(orbs) == 1)


# --- the induced action on subsets is a group homomorphism ---------------------


@given(induced_cases())
def test_induced_action_is_a_homomorphism(case):
    a, b, k = case
    combined = induced_subset_action(after(a, b), k)
    split = after(induced_subset_action(a, k), induced_subset_action(b, k))
    assert combined == split


@given(induced_cases())
def test_induced_action_respects_inverse_and_identity(case):
    a, _, k = case
    assert induced_subset_action(inverse(a), k) == inverse(induced_subset_action(a, k))
    ident = identity(a.degree)
    assert induced_subset_action(ident, k) == identity(math.comb(a.degree, k))


@given(induced_cases())
def test_induced_action_matches_setwise_image(case):
    a, _, k = case
    universe = all_subsets(a.degree, k)
    ind = induced_subset_action(a, k)
    for i, subset in enumerate(universe, start=1):
        image = tuple(sorted(a(x) for x in subset))
        assert universe[ind(i) - 1] == image


# --- colex listing --------------------------------------------------------------


def colex_rank(subset):
    # independent oracle: the closed form sum of comb(s_j - 1, j), j from 1
    return sum(math.comb(x - 1, j) for j, x in enumerate(subset, start=1))


@given(subset_cases())
def test_all_subsets_listed_in_rank_order(case):
    subset, universe = case
    k = len(subset)
    listing = all_subsets(universe, k)
    assert len(listing) == math.comb(universe, k)
    assert listing[colex_rank(subset)] == subset
    for i, s in enumerate(listing):
        assert len(s) == k and all(1 <= x <= universe for x in s)
        assert s == tuple(sorted(set(s)))
        assert colex_rank(s) == i


# --- genus arithmetic ------------------------------------------------------------


@given(st.integers(1, 40), st.integers(0, 60))
def test_genus_round_trip_when_parity_allows(degree, half_w):
    w = 2 * half_w
    euler = 2 * degree - w  # the base is the line, of Euler characteristic 2
    genus = (2 - euler) // 2
    if genus < 0:
        with pytest.raises(GenusValidationError):
            riemann_hurwitz_genus(degree, w)
    else:
        assert riemann_hurwitz_genus(degree, w) == genus


@given(st.integers(1, 40), st.integers(0, 30))
def test_genus_rejects_odd_total_ramification(degree, half_w):
    with pytest.raises(GenusValidationError):
        riemann_hurwitz_genus(degree, 2 * half_w + 1)


# --- merged classes always descend the correspondence ----------------------------


@settings(max_examples=60)
@given(arbitrary_partitions())
def test_class_action_never_depends_on_representative(case):
    # class_action proves it from the fiber's generators; the reference
    # checks every member of every class
    n, blocks = case
    corr = build_subset_matrix(n)
    fiber = merged_fiber_over(n, blocks)
    classes, keys = reference_merged_fiber(n, blocks)
    assert fiber.classes == classes
    written = [cls["block_multiset"] for cls in fiber_to_dict(fiber, blocks)["classes"]]
    assert written == list(map(list, keys))
    full = reference_class_action(corr, fiber)
    for row in full:
        assert sum(row) == corr.bidegree
    assert class_action(corr, fiber) == diagonal_and_block(full)
    assert sum(map(len, fiber.classes)) == corr.size
