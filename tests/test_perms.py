import itertools
from math import comb

import pytest

from prymtyurin.perms import (
    Permutation,
    all_subsets,
    induced_subset_action,
    is_transitive,
    orbits,
    subset_index,
    transposition,
)
from references import point_permutation


def s_n(degree):
    return [Permutation(img) for img in itertools.permutations(range(1, degree + 1))]


def after(a, b):
    """The images of a after b, in one-line notation."""
    return tuple(a(b(x)) for x in range(1, b.degree + 1))


def cycle_type(p):
    """Cycle lengths of p, the orbits of <p>, largest first."""
    return tuple(sorted(map(len, orbits((p,), p.degree)), reverse=True))


def identity(degree):
    return Permutation(tuple(range(1, degree + 1)))


def test_compose_against_brute_force_s3():
    # oracle: apply the maps pointwise through plain dicts, no tuple indexing
    for a in s_n(3):
        for b in s_n(3):
            amap = {x: a.images[x - 1] for x in (1, 2, 3)}
            bmap = {x: b.images[x - 1] for x in (1, 2, 3)}
            want = tuple(amap[bmap[x]] for x in (1, 2, 3))
            assert after(a, b) == want


def test_orbits_degree_mismatch():
    with pytest.raises(ValueError):
        orbits((identity(3), identity(4)), 3)


def test_not_a_bijection_rejected():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


def test_inverse_and_identity():
    for p in s_n(4):
        inverse = Permutation(tuple(sorted(range(1, 5), key=p)))
        assert after(p, inverse) == identity(4).images
        assert after(inverse, p) == identity(4).images


def test_cycles_and_cycle_type():
    p = Permutation.from_cycles(4, ((1, 2), (3, 4)))
    assert cycle_type(p) == (2, 2)
    assert cycle_type(identity(6)) == (1, 1, 1, 1, 1, 1)
    assert cycle_type(Permutation.from_cycles(5, ((1, 3, 5),))) == (3, 1, 1)
    for p in s_n(4):
        assert sum(cycle_type(p)) == 4


def test_from_cycles_rejects_overlap():
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, ((1, 4),))
    with pytest.raises(ValueError, match="a transposition needs two distinct labels"):
        transposition(4, 2, 2)


def test_colex_rank_of_pairs():
    # frozen: colex order of 2-subsets of {1..4}
    order = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    assert all_subsets(4, 2) == order


def test_induced_action_of_transposition():
    p = transposition(4, 1, 2)
    ind = induced_subset_action(p, 2, subset_index(4, 2))
    assert cycle_type(ind) == (2, 2, 1, 1)
    # {1,3} <-> {2,3} and {1,4} <-> {2,4}; {1,2} and {3,4} fixed
    position = {s: r for r, s in enumerate(all_subsets(4, 2), start=1)}
    assert ind(position[(1, 3)]) == position[(2, 3)]
    assert ind(position[(1, 2)]) == position[(1, 2)]


def test_induced_action_is_homomorphism_s4_pairs():
    # brute force over all 576 pairs in S_4 at k = 2
    group = s_n(4)
    index = subset_index(4, 2)
    table = {p.images: induced_subset_action(p, 2, index) for p in group}
    for a in group:
        for b in group:
            assert table[after(a, b)].images == after(table[a.images], table[b.images])


def test_induced_identity_is_identity():
    for degree in range(1, 7):
        for k in range(0, degree + 1):
            ident = identity(comb(degree, k))
            index = subset_index(degree, k)
            assert induced_subset_action(identity(degree), k, index) == ident


def test_orbits_closure():
    g1 = transposition(5, 1, 2)
    g2 = Permutation.from_cycles(5, ((1, 2, 3, 4, 5),))
    assert orbits((g1, g2), 5) == ((1, 2, 3, 4, 5),)
    assert orbits((g1,), 5) == ((1, 2), (3,), (4,), (5,))
    assert orbits((), 3) == ((1,), (2,), (3,))


def test_transitive_tuple_induces_transitive_subset_action():
    # a transitive pair in S_5 acts transitively on the 10 3-subsets
    gens = (transposition(5, 1, 2), Permutation.from_cycles(5, ((1, 2, 3, 4, 5),)))
    induced = tuple(induced_subset_action(g, 3, subset_index(5, 3)) for g in gens)
    assert is_transitive(induced, comb(5, 3))


def test_induced_action_reads_large_subsets_off_their_complements():
    # k > degree - k is induced on the complements and read backwards; every
    # permutation of S_6 and every k, the empty subset at k = 0 and k = 6
    # included, agrees with the definition, the map applied to each k-subset
    # and looked up in colex order
    group = s_n(6)
    for k in range(7):
        index = subset_index(6, k)
        for p in group:
            want = point_permutation(all_subsets(6, k), lambda subset: tuple(sorted(map(p, subset))))
            assert induced_subset_action(p, k, index) == want


def test_induced_action_refuses_an_index_of_another_size():
    p = transposition(6, 1, 2)
    with pytest.raises(ValueError, match=r"an index of 10 subsets does not fit C\(6, 2\)"):
        induced_subset_action(p, 2, subset_index(5, 2))
    with pytest.raises(ValueError, match="subset size 7 outside 0..6"):
        subset_index(6, 7)
    for k in (-1, 7):
        with pytest.raises(ValueError, match=f"subset size {k} outside 0..6"):
            induced_subset_action(p, k, {})
