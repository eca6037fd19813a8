from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prymtyurin.correspondence import grid_points
from prymtyurin.induced_curve import (
    MERGED,
    ORBIT,
    blocks_from_parts,
    grid_pairing_fiber,
    grid_pairing_monodromy,
    grid_row_merge_fiber,
    grid_row_monodromy,
    irreducibility_check,
    partition_monodromy,
    subset_fiber,
)
from prymtyurin.perms import (
    Permutation,
    induced_subset_action,
    is_transitive,
    orbits,
    transposition,
)
from prymtyurin.report import assemble, fiber_to_dict
from prymtyurin.scenario import subset_scenario
from references import partitions, point_permutation

TWO_PAIRS = (2, 2)
THREE_PARTS = (2, 2, 1)
THREE_PAIRS = (2, 2, 2)


def class_sizes(fiber):
    """The ramification indices of a fiber's classes, largest first."""
    return tuple(sorted(map(len, fiber.classes), reverse=True))


def test_blocks_from_parts():
    assert blocks_from_parts((2, 2, 1), 5) == ((1, 2), (3, 4), (5,))
    assert blocks_from_parts((1, 2, 2), 5) == ((1, 2), (3, 4), (5,))
    with pytest.raises(ValueError):
        blocks_from_parts((2, 2), 5)


def test_merged_fiber_n3():
    fiber = subset_fiber(3, THREE_PARTS, MERGED)
    assert class_sizes(fiber) == (4, 2, 2, 1, 1)
    assert fiber.w_contribution == 5
    q, big = max(enumerate(fiber.classes), key=lambda item: len(item[1]))
    assert big == ((1, 3, 5), (1, 4, 5), (2, 3, 5), (2, 4, 5))
    blocks = blocks_from_parts(THREE_PARTS, 5)
    assert fiber_to_dict(fiber, blocks)["classes"][q]["block_multiset"] == [0, 1, 2]
    assert fiber_to_dict(fiber)["classes"][q]["block_multiset"] is None


def test_merged_fiber_n2_and_n4():
    assert class_sizes(subset_fiber(2, TWO_PAIRS, MERGED)) == (4, 1, 1)
    assert subset_fiber(2, TWO_PAIRS, MERGED).w_contribution == 3
    fiber4 = subset_fiber(4, THREE_PAIRS, MERGED)
    assert class_sizes(fiber4) == (4, 4, 4, 1, 1, 1)
    assert fiber4.w_contribution == 9


def test_merged_fiber_discrete_partition_is_unramified():
    fiber = subset_fiber(3, (1, 1, 1, 1, 1), MERGED)
    assert class_sizes(fiber) == (1,) * 10
    assert fiber.w_contribution == 0


def test_partition_monodromy():
    p = partition_monodromy(THREE_PARTS, 5)
    assert p.images == (2, 1, 4, 3, 5)
    assert tuple(sorted(map(len, orbits((p,))), reverse=True)) == (2, 2, 1)
    assert partition_monodromy((1, 2, 2), 5) == p
    with pytest.raises(ValueError, match=r"profile \(2, 2\) does not sum to 3"):
        partition_monodromy((2, 2), 3)


def test_orbit_fiber_n3():
    fiber = subset_fiber(3, THREE_PARTS, ORBIT)
    assert class_sizes(fiber) == (2, 2, 2, 2, 1, 1)
    assert fiber.w_contribution == 4
    assert ((1, 3, 5), (2, 4, 5)) in fiber.classes
    assert ((1, 4, 5), (2, 3, 5)) in fiber.classes


def test_orbit_fiber_n2_and_n4():
    assert class_sizes(subset_fiber(2, TWO_PAIRS, ORBIT)) == (2, 2, 1, 1)
    assert subset_fiber(2, TWO_PAIRS, ORBIT).w_contribution == 2
    fiber4 = subset_fiber(4, THREE_PAIRS, ORBIT)
    assert class_sizes(fiber4) == (2,) * 6 + (1,) * 3
    assert fiber4.w_contribution == 6


def test_single_transposition_models_agree():
    for n in (2, 3, 4, 5):
        parts = (2,) + (1,) * n
        merged = subset_fiber(n, parts, MERGED)
        orbit = subset_fiber(n, parts, ORBIT)
        assert class_sizes(merged) == class_sizes(orbit)
        assert merged.w_contribution == n


def test_orbits_refine_merged_classes():
    for n, parts in ((2, TWO_PAIRS), (3, THREE_PARTS), (4, THREE_PAIRS), (3, (3, 2))):
        merged = subset_fiber(n, parts, MERGED)
        orbit = subset_fiber(n, parts, ORBIT)
        merged_of = {m: c for c in merged.classes for m in c}
        for oc in orbit.classes:
            owners = {merged_of[m] for m in oc}
            assert len(owners) == 1
        assert merged.w_contribution >= orbit.w_contribution


def induced(n, gx, special_parts, model):
    """The report entry of one fiber model for a subset scenario."""
    return assemble(subset_scenario(n, gx, special_parts, model=model))["models"][model]


def test_curve_genus_merged_model_families():
    for gx in range(0, 11):
        assert induced(2, gx, ((2, 2), (2, 2)), MERGED)["induced"]["genus"] == 2 * gx
        assert induced(3, gx, ((2, 2, 1), (2, 2, 1)), MERGED)["induced"]["genus"] == 3 * gx + 2
        assert induced(4, gx, ((2, 2, 2), (2, 2, 2)), MERGED)["induced"]["genus"] == 4 * gx + 3


def test_curve_genus_orbit_model_families():
    for gx in range(1, 11):
        assert induced(2, gx, ((2, 2), (2, 2)), ORBIT)["induced"]["genus"] == 2 * gx - 1
        assert induced(3, gx, ((2, 2, 1), (2, 2, 1)), ORBIT)["induced"]["genus"] == 3 * gx + 1
        assert induced(4, gx, ((2, 2, 2), (2, 2, 2)), ORBIT)["induced"]["genus"] == 4 * gx


def test_curve_genus_orbit_model_can_be_impossible():
    # at gx = 0 the orbit model of the n=2 scenario undercounts ramification
    # so badly the genus would be negative; that is a hard error, not a fixup
    rep = induced(2, 0, ((2, 2), (2, 2)), ORBIT)
    assert rep["induced"]["genus"] is None
    assert "negative genus" in rep["error"]
    assert not rep["combinatorial_verified"]


def test_curve_genus_all_simple():
    # with no special fibers both models agree: w = n * w_f
    for n in (2, 3, 4, 5):
        for gx in (0, 1, 3):
            want = n * gx + n * (n - 1) // 2
            assert induced(n, gx, (), MERGED)["induced"]["genus"] == want
            assert induced(n, gx, (), ORBIT)["induced"]["genus"] == want


def test_induced_w_matches_genus_arithmetic():
    rep = induced(3, 1, ((2, 2, 1), (2, 2, 1)), MERGED)
    assert rep["covering"]["simple_extra"] == 6
    assert rep["induced"]["ramification"] == 3 * 6 + 5 + 5 == 28
    assert rep["induced"]["degree"] == 10


def test_grid_row_merge_fiber():
    fiber = grid_row_merge_fiber(3, (2, 1))
    assert class_sizes(fiber) == (2, 2, 2, 1, 1, 1)
    assert fiber.w_contribution == 3
    assert fiber.classes[0] == ((1, 1), (2, 1))
    assert fiber.classes[3] == ((3, 1),)
    # a fiber carries no model and no labels of its own
    assert fiber._fields == ("classes", "generators")


def test_grid_pairing_fiber_all_shifts():
    for shift in (0, 1, 2):
        fiber = grid_pairing_fiber(3, shift)
        assert class_sizes(fiber) == (2, 2, 2, 1, 1, 1)
        assert fiber.w_contribution == 3
    # shift 0 glues (i, j) with (j, i)
    fiber0 = grid_pairing_fiber(3, 0)
    assert ((1, 2), (2, 1)) in fiber0.classes


def test_grid_monodromies_match_fiber_classes():
    cells = grid_points(3)

    def orbit_classes(perm):
        membered = [
            tuple(sorted(cells[x - 1] for x in orbit))
            for orbit in orbits((perm,), 9)
        ]
        return sorted(membered)

    for shift in (0, 1, 2):
        perm = grid_pairing_monodromy(3, shift)
        assert all(perm(perm(x)) == x for x in range(1, perm.degree + 1))
        fiber = grid_pairing_fiber(3, shift)
        assert orbit_classes(perm) == sorted(fiber.classes)

    row_perm = grid_row_monodromy(3, (2, 1))
    fiber = grid_row_merge_fiber(3, (2, 1))
    assert orbit_classes(row_perm) == sorted(fiber.classes)


def test_point_permutation():
    # the points are listed out of order on purpose: positions follow the list
    points = ["c", "a", "d", "b"]
    swap_ab = {"a": "b", "b": "a", "c": "c", "d": "d"}
    assert point_permutation(points, swap_ab.__getitem__).images == (1, 4, 3, 2)
    shift = {"a": "b", "b": "c", "c": "d", "d": "a"}
    assert point_permutation(points, shift.__getitem__).images == (3, 4, 2, 1)
    assert point_permutation((), shift.__getitem__) == Permutation(())
    with pytest.raises(ValueError):
        # a map that is not a bijection of the points
        point_permutation(points, lambda p: "a")


def test_grid_monodromies_are_the_moves_on_cells():
    # the closed forms over row-major positions against the maps on cells,
    # looked up by descriptor: every shift, negative and past m included,
    # and every row profile
    for m in range(2, 9):
        cells = grid_points(m)
        for shift in range(-m, 2 * m + 1):
            tau = lambda i: (i - 1 + shift) % m + 1
            tau_inv = lambda i: (i - 1 - shift) % m + 1
            want = point_permutation(cells, lambda cell: (tau_inv(cell[1]), tau(cell[0])))
            assert grid_pairing_monodromy(m, shift) == want
        for parts in partitions(m):
            sigma = partition_monodromy(parts, m)
            want = point_permutation(cells, lambda cell: (sigma(cell[0]), cell[1]))
            assert grid_row_monodromy(m, parts) == want


def test_grid_generators_transitive():
    gens = tuple(grid_pairing_monodromy(3, s) for s in (0, 1, 2))
    gens += (grid_row_monodromy(3, (2, 1)),)
    assert is_transitive(gens, 9)


def test_subset_fiber_dispatch():
    # merged: a transposition and the cycle of each block, one move for a
    # pair; orbit: the one local monodromy.  Each is induced on 3-subsets
    def induced(*cycles):
        return induced_subset_action(Permutation.from_cycles(5, cycles), 3)

    merged, orbit = subset_fiber(3, THREE_PARTS, MERGED), subset_fiber(3, THREE_PARTS, ORBIT)
    assert merged != orbit
    assert merged.generators == (induced((1, 2)), induced((3, 4)))
    assert orbit.generators == (induced((1, 2), (3, 4)),)
    assert subset_fiber(3, (3, 2), MERGED).generators == (
        induced((1, 2)), induced((1, 2, 3)), induced((4, 5))
    )
    assert subset_fiber(3, (2, 3), ORBIT).generators == (induced((1, 2, 3), (4, 5)),)
    with pytest.raises(ValueError, match="unknown fiber model 'other'"):
        subset_fiber(3, THREE_PARTS, "other")
    with pytest.raises(ValueError, match=r"profile \(2, 2\) does not sum to 5"):
        subset_fiber(3, TWO_PAIRS, MERGED)


def test_irreducibility_check():
    gens = (transposition(5, 1, 2), Permutation.from_cycles(5, ((1, 2, 3, 4, 5),)))
    assert irreducibility_check(gens, 3)
    # the subgroup fixing {1,2} setwise is not transitive on 3-subsets
    stuck = (transposition(5, 1, 2), transposition(5, 3, 4), transposition(5, 4, 5))
    assert not irreducibility_check(stuck, 3)
    assert not irreducibility_check((), 3)
    with pytest.raises(ValueError, match="subset size 7 outside 0..5"):
        irreducibility_check(gens, 7)
    # every generator is induced through the index of the first one's degree
    with pytest.raises(ValueError, match="does not fit"):
        irreducibility_check((transposition(5, 1, 2), transposition(6, 1, 2)), 3)


@st.composite
def generators_and_k(draw):
    degree = draw(st.integers(3, 9))
    # besides arbitrary permutations, generators that fix {1..split} setwise
    # (intransitive groups) and rotations (cyclic groups, transitive on the
    # labels but not on their pairs)
    split = draw(st.integers(1, degree))
    low, high = range(1, split + 1), range(split + 1, degree + 1)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("any", "split", "rotation")))
        if kind == "any":
            images = draw(st.permutations(range(1, degree + 1)))
        elif kind == "split":
            images = draw(st.permutations(low)) + draw(st.permutations(high))
        else:
            shift = draw(st.integers(0, degree - 1))
            images = [(x + shift) % degree + 1 for x in range(degree)]
        gens.append(Permutation(tuple(images)))
    return tuple(gens), draw(st.integers(0, degree))


@given(generators_and_k())
def test_irreducibility_check_matches_the_k_subset_definition(drawn):
    # the check may induce on the complements; the verdict is transitivity
    # of the action on the k-subsets themselves
    gens, k = drawn
    degree = gens[0].degree
    induced = tuple(induced_subset_action(g, k) for g in gens)
    assert irreducibility_check(gens, k) == is_transitive(induced, comb(degree, k))
