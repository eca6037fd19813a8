import copy
import itertools
import json
import pickle
import re
from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prymtyurin import correspondence, fixed_points
from prymtyurin.correspondence import build_grid_matrix, build_subset_matrix, grid_points
from prymtyurin.fixed_points import (
    NestingCertificate,
    NestingFailure,
    NestingUndecided,
    check_certificate,
    class_action,
    fixed_point_scan,
    nesting_search,
)
from prymtyurin.induced_curve import (
    MERGED,
    ORBIT,
    SpecialFiber,
    blocks_from_parts,
    grid_pairing_fiber,
    grid_pairing_monodromy,
    grid_row_merge_fiber,
    partition_monodromy,
    subset_fiber,
)
from prymtyurin.perms import (
    Permutation,
    all_subsets,
    induced_subset_action,
    subset_index,
    transposition,
)
from prymtyurin.report import assemble, fiber_layout, fiber_to_dict, nesting_to_dict
from prymtyurin.scenario import default_subset_fibers, grid_scenario, subset_scenario
from references import (
    diagonal_and_block,
    grid_pairing_cell_monodromy,
    grid_row_cell_monodromy,
    partitions,
    reference_class_action,
    reference_merged_fiber,
    reference_orbit_classes,
)

THREE_PARTS = (2, 2, 1)
THREE_PAIRS = (2, 2, 2)
GRID_ROWS = (2, 1)
SUBSET = {n: build_subset_matrix(n) for n in (2, 3, 4)}
GRID = build_grid_matrix(3)


def fixed_classes(action):
    """The fixed classes of one class action, each with its multiplicity,
    as the scan reads them."""
    return {q: mult for _, q, mult in fixed_point_scan([action], (0,))}


def search(actions, positions, bidegree):
    """nesting_search over a layout, at the fixed-point count of its scan."""
    delta = sum(mult for _, _, mult in fixed_point_scan(actions, positions))
    return nesting_search(actions, positions, delta, bidegree)


def entries(cert, fiber):
    """What check_certificate reads of a certificate found on fiber, as a
    report writes it: the nesting entry, the fiber's entry at every position
    up to the certificate's, and the fixed-point count the chain answers."""
    entry = fiber_to_dict(fiber, None)
    fibers = [entry] * (cert.fiber + 1)
    return nesting_to_dict(cert, fibers), fibers, 2 * len(cert.chain)


def full_action(corr, fiber):
    """The reference's full class action, after checking that class_action
    returns its diagonal and candidate block."""
    full = reference_class_action(corr, fiber)
    assert class_action(corr, fiber) == diagonal_and_block(full)
    return full


def test_class_action_merged_n3():
    fiber = subset_fiber(SUBSET[3], THREE_PARTS, MERGED)
    act = full_action(SUBSET[3], fiber)
    # classes in order of first member: {123,124}, {125}, {134,234},
    # {135,145,235,245}, {345}
    assert [c[0] for c in fiber.classes] == [
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 3, 5), (3, 4, 5),
    ]
    assert tuple(fixed_classes(diagonal_and_block(act))) == (3,)
    # frozen: the image of the big class is itself + {123,124} + {134,234}
    assert act[3] == (1, 0, 1, 1, 0)
    assert all(sum(row) == 3 for row in act)


def test_class_action_merged_n4_pattern():
    act = full_action(SUBSET[4], subset_fiber(SUBSET[4], THREE_PAIRS, MERGED))
    assert tuple(fixed_classes(diagonal_and_block(act))) == (1, 3, 4)
    # frozen from brute force: self multiplicity 1, cross multiplicities 2
    assert act[1] == (0, 1, 0, 2, 2, 1)
    assert act[3] == (0, 2, 1, 1, 2, 0)
    assert act[4] == (1, 2, 0, 2, 1, 0)


def test_class_action_orbit_models():
    act2 = class_action(SUBSET[2], subset_fiber(SUBSET[2], (2, 2), ORBIT))
    assert len(fixed_classes(act2)) == 2
    act3 = class_action(SUBSET[3], subset_fiber(SUBSET[3], THREE_PARTS, ORBIT))
    assert len(fixed_classes(act3)) == 2
    act4 = class_action(SUBSET[4], subset_fiber(SUBSET[4], THREE_PAIRS, ORBIT))
    assert len(fixed_classes(act4)) == 6
    for act in (act2, act3, act4):
        assert set(fixed_classes(act).values()) == {1}


def test_class_action_grid_fibers():
    branch = full_action(GRID, grid_row_merge_fiber(GRID))
    assert tuple(fixed_classes(diagonal_and_block(branch))) == (0, 1, 2)
    assert branch[0] == (1, 1, 1, 1, 0, 0)
    assert branch[1] == (1, 1, 1, 0, 1, 0)
    assert branch[2] == (1, 1, 1, 0, 0, 1)
    for shift in (0, 1, 2):
        pairing = full_action(GRID, grid_pairing_fiber(GRID, shift))
        assert fixed_classes(diagonal_and_block(pairing)) == {}
        assert all(sum(row) == 4 for row in pairing)


def _partial_row_glue():
    # the 2x2 grid fiber of the swap of (1, 1) with (1, 2), the rest fixed:
    # the swap moves the relation, and the action on its classes depends on
    # the representative, as (2, 1) lies in the image of (1, 1) but not of
    # (1, 2)
    fiber = SpecialFiber((Permutation((2, 1, 3, 4)),), grid_points(2))
    assert fiber.classes == (((1, 1), (1, 2)), ((2, 1),), ((2, 2),))
    return fiber


def test_class_action_rejects_representative_dependence():
    # the only generators whose orbits glue (1, 1) with (1, 2) alone move
    # the relation, which class_action refuses (below); the reference, which
    # reads every member, finds the dependence itself
    with pytest.raises(ValueError, match="depends on the representative"):
        reference_class_action(build_grid_matrix(2), _partial_row_glue())


def test_class_action_refuses_a_generator_that_moves_the_relation():
    corr = build_grid_matrix(2)
    with pytest.raises(ValueError, match="^generator 0 does not preserve the relation$"):
        class_action(corr, _partial_row_glue())
    # a position swap that is not an induced label move, on subset n = 3
    images = list(range(1, 11))
    images[0], images[9] = 10, 1  # swaps {1, 2, 3} with {3, 4, 5}
    generators = (Permutation(tuple(range(1, 11))), Permutation(tuple(images)))
    bad = SpecialFiber(generators, all_subsets(5, 3))
    with pytest.raises(ValueError, match="^generator 1 does not preserve the relation$"):
        class_action(SUBSET[3], bad)


def test_class_action_refuses_a_generator_of_the_wrong_degree():
    # a fiber of subset n = 2 on the n = 3 correspondence
    with pytest.raises(ValueError, match="^generator 0 has degree 6, not 10$"):
        class_action(SUBSET[3], subset_fiber(SUBSET[2], (2, 2), MERGED))
    # the orbit walk refuses one on the points it moves: no such fiber is built
    fiber = subset_fiber(SUBSET[3], THREE_PARTS, MERGED)
    short = induced_subset_action(Permutation((2, 1, 3, 4)), 2, subset_index(4, 2))
    for generators in ((short,), fiber.generators + (short,)):
        with pytest.raises(ValueError, match="^generator degree 6 != 10$"):
            SpecialFiber(generators, all_subsets(5, 3))


@pytest.fixture
def compared(monkeypatch):
    """The names check_moves was called with, one per permutation it
    compared in N^2."""
    names = []
    real = correspondence.FiberCorrespondence.check_moves

    def counting(self, moves, name):
        names.extend([name] * len(moves))
        return real(self, moves, name)

    monkeypatch.setattr(correspondence.FiberCorrespondence, "check_moves", counting)
    return names


@pytest.mark.parametrize("n", range(2, 8))
def test_every_subset_fiber_generator_passes_the_n2_compare(n, compared):
    # what class_action now proves from the label moves, compared in N^2
    # for every profile of the report digest's sweep, under both models
    corr = build_subset_matrix(n)
    assert corr.moves_preserve
    for parts in partitions(n + 2):
        if max(parts) == 1:
            continue
        for model in MERGED, ORBIT:
            fiber = subset_fiber(corr, parts, model)
            assert len(fiber.moves) == len(fiber.generators)
            compared.clear()
            class_action(corr, fiber)
            assert compared == []
            corr.check_moves(fiber.generators, "generator")
            assert compared == ["generator"] * len(fiber.generators)


def test_a_recorded_move_that_does_not_match_its_generator_is_refused_by_name():
    fiber = subset_fiber(SUBSET[3], THREE_PARTS, MERGED)
    swapped = SpecialFiber(fiber.generators, fiber.points, fiber.moves[::-1])
    with pytest.raises(ValueError, match="^generator 0 is not the induction of its label move$"):
        class_action(SUBSET[3], swapped)
    # a generator of the right degree with a move of the wrong one
    other = SpecialFiber(fiber.generators[:1], fiber.points, (Permutation((2, 1, 3, 4)),))
    with pytest.raises(ValueError, match="^subset label move has degree 4, not 5$"):
        class_action(SUBSET[3], other)
    with pytest.raises(ValueError, match="^2 label moves for 1 generators$"):
        SpecialFiber(fiber.generators[:1], fiber.points, fiber.moves)


def test_a_relation_preserving_swap_that_is_not_label_induced_takes_the_n2_path(compared):
    # K(4, 2) at n = 2 is three disjoint edges; swapping the two ends of one
    # edge, {1, 2} with {3, 4}, preserves it, but no label move fixes the
    # other four subsets and moves those two
    corr = SUBSET[2]
    swap = Permutation((6, 2, 3, 4, 5, 1))
    assert swap not in map(corr.induce, map(Permutation, itertools.permutations(range(1, 5))))
    plain = SpecialFiber((swap,), corr.points)
    assert class_action(corr, plain) == diagonal_and_block(reference_class_action(corr, plain))
    assert compared == ["generator"]
    # given any label move, it is refused by name
    for move in (Permutation((1, 2, 3, 4)), Permutation((3, 4, 1, 2))):
        with pytest.raises(ValueError, match="^generator 0 is not the induction of its label move$"):
            class_action(corr, SpecialFiber((swap,), corr.points, (move,)))


def test_correspondences_not_built_from_the_rule_take_the_n2_path(compared):
    built = build_subset_matrix(4)
    fiber = subset_fiber(built, (2, 2, 2), MERGED)
    want = class_action(built, fiber)
    assert compared == ["symmetry", "symmetry"]  # at construction alone
    made = correspondence.FiberCorrespondence(**built._asdict())
    for other in (made, copy.copy(built), pickle.loads(pickle.dumps(built))):
        assert other == built and not other.moves_preserve
        assert "rule_built" not in other.__dict__ and other.induced == {}
        compared.clear()
        assert class_action(other, fiber) == want
        assert compared == ["generator"] * len(fiber.generators)
    # and every grid generator, on the grid built from its rule
    assert not GRID.moves_preserve
    compared.clear()
    class_action(GRID, grid_row_merge_fiber(GRID))
    assert compared == ["generator"]


def test_a_rebuilt_fiber_keeps_its_moves_and_its_class_action(compared):
    for corr, fiber in ((SUBSET[4], subset_fiber(SUBSET[4], (3, 2, 1), MERGED)),
                        (GRID, grid_pairing_fiber(GRID, 1))):
        want = class_action(corr, fiber)
        for twin in (copy.copy(fiber), pickle.loads(pickle.dumps(fiber))):
            assert twin == fiber and twin.moves == fiber.moves
            assert class_action(corr, twin) == want
    # a fiber given no moves compares its generators, with the same result
    fiber = subset_fiber(SUBSET[4], (3, 2, 1), MERGED)
    compared.clear()
    assert class_action(SUBSET[4], SpecialFiber(fiber.generators, fiber.points)) == (
        class_action(SUBSET[4], fiber)
    )
    assert compared == ["generator"] * len(fiber.generators)


@pytest.mark.parametrize("n, gx, fibers, monodromy", [
    (3, 1, None, None),
    (4, 3, [[2, 2, 2], [2, 1, 1, 1, 1], [3, 2, 1]], None),
    (6, 2, None, None),
    (3, 2, None, [[2, 1, 3, 4, 5], [1, 3, 2, 4, 5], [1, 2, 4, 3, 5], [1, 2, 3, 5, 4]]),
])
def test_a_subset_report_induces_each_move_once_and_compares_no_generator(
    n, gx, fibers, monodromy, monkeypatch, compared
):
    # every distinct label move of a both report is induced once: the
    # symmetries, the simple and declared fibers under both models, and
    # the irreducibility check's moves
    induced = Counter()
    real = correspondence._induced

    def counting(kind, lookup, move):
        induced[move.images] += 1
        return real(kind, lookup, move)

    monkeypatch.setattr(correspondence, "_induced", counting)
    assemble(subset_scenario(n, gx, fibers, monodromy=monodromy))
    assert (2, 1, *range(3, n + 3)) in induced  # (1 2), a symmetry
    assert set(induced.values()) == {1}
    # only the symmetries' construction check compares in N^2
    assert compared == ["symmetry", "symmetry"]


def test_a_grid_report_still_compares_every_generator(compared):
    assemble(grid_scenario(5))
    assert compared == ["symmetry"] * 2 + ["generator"] * 4


def test_class_action_refuses_a_fiber_on_other_points():
    # the grid cells reversed: the same generator, but its positions name
    # other cells, so the classes are not the orbits on the correspondence's
    # points
    corr = GRID
    reversed_cells = SpecialFiber((corr.induce(grid_pairing_monodromy(3, 0)),), corr.points[::-1])
    message = "^the fiber is built on points other than those of the grid correspondence$"
    with pytest.raises(ValueError, match=message):
        class_action(corr, reversed_cells)
    # a fiber of another correspondence, and one of no points at all
    for points in (grid_points(2), all_subsets(5, 3)[:9]):
        with pytest.raises(ValueError, match=message):
            class_action(corr, SpecialFiber((), points))
    class_action(corr, SpecialFiber((), grid_points(3)))


def test_a_fiber_is_built_only_from_generators_and_points():
    fiber = grid_row_merge_fiber(GRID)
    assert fiber == SpecialFiber(fiber.generators, grid_points(3))
    assert fiber.points == tuple(grid_points(3))
    # the orbits, as positions, hold the classes' members in class order
    assert [[fiber.points[r - 1] for r in orbit] for orbit in fiber.orbits] == [
        list(cls) for cls in fiber.classes
    ]
    assert "points" not in fiber._fields and "orbits" not in fiber._fields
    for twin in (copy.copy(fiber), pickle.loads(pickle.dumps(fiber))):
        assert twin == fiber and (twin.points, twin.orbits) == (fiber.points, fiber.orbits)
    # the old call shape, classes then generators, builds nothing
    with pytest.raises(TypeError):
        SpecialFiber(classes=fiber.classes, generators=fiber.generators)
    with pytest.raises(AttributeError):
        SpecialFiber(fiber.classes, fiber.generators)


def test_fixed_point_scan_and_delta():
    act = class_action(SUBSET[3], subset_fiber(SUBSET[3], THREE_PARTS, MERGED))
    fixed = fixed_point_scan([act], (0, 0))
    assert fixed == [(0, 3, 1), (1, 3, 1)]
    assert sum(mult for _, _, mult in fixed) == 2
    # positions name the layout slot; a fixed-point-free fiber adds nothing
    branch = class_action(GRID, grid_row_merge_fiber(GRID))
    pairing = class_action(GRID, grid_pairing_fiber(GRID, 0))
    fixed = fixed_point_scan([branch, pairing], (1, 0, 1, 1, 0))
    assert fixed == [(1, q, 1) for q in range(3)] + [(4, q, 1) for q in range(3)]


def test_nesting_chain_length_one():
    fiber = subset_fiber(SUBSET[3], THREE_PARTS, MERGED)
    act = class_action(SUBSET[3], fiber)
    cert = search([act], (0, 0), bidegree=3)
    assert isinstance(cert, NestingCertificate)
    assert cert.fiber == 0
    assert cert.chain == (3,)
    assert cert.multiplicities == ((1,),)


def test_nesting_chain_n4():
    fiber = subset_fiber(SUBSET[4], THREE_PAIRS, MERGED)
    act = class_action(SUBSET[4], fiber)
    assert sum(mult for _, _, mult in fixed_point_scan([act], (0, 0))) == 6
    cert = search([act], (0, 0), bidegree=6)
    assert isinstance(cert, NestingCertificate)
    assert cert.chain == (1, 3, 4)
    assert cert.multiplicities == ((1,), (2, 1), (2, 2, 1))


def test_nesting_chain_grid():
    fibers = [grid_row_merge_fiber(GRID), grid_pairing_fiber(GRID, 0)]
    actions = [class_action(GRID, f) for f in fibers]
    assert sum(mult for _, _, mult in fixed_point_scan(actions, (0, 1, 0))) == 6
    cert = search(actions, (0, 1, 0), bidegree=4)
    assert isinstance(cert, NestingCertificate)
    assert cert.fiber == 0
    assert cert.chain == (0, 1, 2)
    assert fibers[0].classes[cert.chain[0]] == ((1, 1), (2, 1))
    assert cert.multiplicities == ((1,), (1, 1), (1, 1, 1))
    # a certificate names the layout position of its fiber
    assert search(actions, (1, 1, 0, 0), bidegree=4).fiber == 2


def test_nesting_failure_odd_count():
    fiber = subset_fiber(SUBSET[3], THREE_PARTS, MERGED)
    act = class_action(SUBSET[3], fiber)
    assert sum(mult for _, _, mult in fixed_point_scan([act], (0,))) == 1
    failure = search([act], (0,), bidegree=3)
    assert isinstance(failure, NestingFailure)
    assert "odd" in failure.reason


def test_nesting_failure_exceeds_bidegree():
    fiber = subset_fiber(SUBSET[2], (2, 2), ORBIT)
    act = class_action(SUBSET[2], fiber)
    assert sum(mult for _, _, mult in fixed_point_scan([act], (0, 0))) == 4
    failure = search([act], (0, 0), bidegree=1)
    assert isinstance(failure, NestingFailure)
    assert "exceeds the bidegree" in failure.reason


def test_nesting_failure_no_ordering():
    # orbit model at n=3: two fixed orbits per fiber, but neither contains
    # the other in its image, so no chain of length 2 exists anywhere
    fiber = subset_fiber(SUBSET[3], THREE_PARTS, ORBIT)
    act = class_action(SUBSET[3], fiber)
    assert sum(mult for _, _, mult in fixed_point_scan([act], (0, 0))) == 4
    failure = search([act], (0, 0), bidegree=3)
    assert isinstance(failure, NestingFailure)
    assert failure.fibers_searched == 2
    assert failure.orderings_tried > 0


def test_empty_chain_certificate():
    fiber = grid_pairing_fiber(GRID, 1)
    pairing = class_action(GRID, fiber)
    cert = search([pairing], (0,), bidegree=4)
    assert isinstance(cert, NestingCertificate)
    assert cert.chain == ()
    assert check_certificate(*entries(cert, fiber), "grid", 3)


def _genuine_n4_certificate():
    fiber = subset_fiber(SUBSET[4], THREE_PAIRS, MERGED)
    act = class_action(SUBSET[4], fiber)
    cert = search([act], (0, 0), bidegree=6)
    assert isinstance(cert, NestingCertificate)
    return entries(cert, fiber)


def _genuine_grid_certificate():
    fiber = grid_row_merge_fiber(GRID)
    act = class_action(GRID, fiber)
    cert = search([act], (0, 0), bidegree=4)
    assert isinstance(cert, NestingCertificate)
    return entries(cert, fiber)


def test_check_certificate_accepts_genuine():
    assert check_certificate(*_genuine_n4_certificate(), "subset", 4)
    assert check_certificate(*_genuine_grid_certificate(), "grid", 3)


def test_check_certificate_rejects_tampering():
    cert, fibers, delta = _genuine_n4_certificate()

    wrong_mult = {**cert, "multiplicities": [[1], [1, 1], [2, 2, 1]]}
    assert not check_certificate(wrong_mult, fibers, delta, "subset", 4)

    wrong_chain = {**cert, "chain": [1, 1, 4]}
    assert not check_certificate(wrong_chain, fibers, delta, "subset", 4)

    members = cert["chain_members"]
    wrong_members = {**cert, "chain_members": members[1:2] + members[1:]}
    assert not check_certificate(wrong_members, fibers, delta, "subset", 4)

    # reordering the chain so a later point misses an earlier one must fail:
    # the singleton class {1,2,3,4} is not fixed at all
    bogus = {**cert, "chain": [0, 3, 4]}
    assert not check_certificate(bogus, fibers, delta, "subset", 4)

    # class 1 named twice, once by its negative alias, as a chain of length 2
    # at the fixed-point count 4 such a chain answers
    aliased = {
        **cert,
        "chain": [1, 1 - len(fibers[0]["classes"])],
        "chain_members": members[:1] * 2,
        "multiplicities": [[1], [1, 1]],
    }
    assert not check_certificate(aliased, fibers, 4, "subset", 4)


def test_check_certificate_binds_the_chain_to_the_fixed_point_count():
    # every doctored claim below passes the entry checks; only the
    # certified flag, the count delta_dot_d or the fiber position refuses it
    for (cert, fibers, delta), kind, parameter in (
        (_genuine_n4_certificate(), "subset", 4),
        (_genuine_grid_certificate(), "grid", 3),
    ):
        assert (delta, len(fibers)) == (6, 1)
        assert check_certificate(cert, fibers, delta, kind, parameter)
        # the chain cut to its first class, with its multiplicity row, is a
        # chain of one fixed point: it answers a count of 2, not 6
        cut = {
            **cert,
            "chain": cert["chain"][:1],
            "chain_members": cert["chain_members"][:1],
            "multiplicities": cert["multiplicities"][:1],
        }
        assert check_certificate(cut, fibers, 2, kind, parameter)
        assert not check_certificate(cut, fibers, delta, kind, parameter)
        # the empty chain answers a count of 0 only
        empty = {**cert, "fiber": -1, "chain": [], "chain_members": [], "multiplicities": []}
        assert check_certificate(empty, fibers, 0, kind, parameter)
        assert not check_certificate(empty, fibers, delta, kind, parameter)
        # an odd count has no half, though 7 // 2 and 1 // 2 fit the chains
        assert not check_certificate(cert, fibers, 7, kind, parameter)
        assert not check_certificate(empty, fibers, 1, kind, parameter)
        # a fiber position outside the model's entries, -1 aliasing the last
        for fiber in (-1, len(fibers)):
            moved = {**cert, "fiber": fiber}
            assert not check_certificate(moved, fibers, delta, kind, parameter)
        # a claim that is not certified, whatever else it carries
        assert not check_certificate({**cert, "certified": False}, fibers, delta, kind, parameter)
        failure = nesting_to_dict(NestingFailure("no chain", 1, 0), fibers)
        assert not check_certificate(failure, fibers, delta, kind, parameter)


def test_check_certificate_rejects_cert_against_wrong_fiber():
    merged = subset_fiber(SUBSET[2], (2, 2), MERGED)
    mact = class_action(SUBSET[2], merged)
    mcert = search([mact], (0, 0), bidegree=1)
    assert isinstance(mcert, NestingCertificate)
    assert mcert.chain == (1,)
    nest, fibers, delta = entries(mcert, merged)
    assert check_certificate(nest, fibers, delta, "subset", 2)
    # against the orbit fiber the same class index holds different members
    orbit = fiber_to_dict(subset_fiber(SUBSET[2], (2, 2), ORBIT), None)
    assert not check_certificate(nest, [orbit] * len(fibers), delta, "subset", 2)


def test_check_certificate_requires_classes_to_partition_the_points():
    fiber = subset_fiber(SUBSET[4], THREE_PAIRS, MERGED)
    cert, fibers, delta = _genuine_n4_certificate()
    assert (cert["chain"], cert["fiber"], len(fibers)) == ([1, 3, 4], 0, 1)
    assert check_certificate(cert, fibers, delta, "subset", 4)
    not_a_point = fiber.classes + (((1, 1, 2, 9),),)
    repeated = fiber.classes + ((fiber.classes[0][0],),)
    dropped = fiber.classes[:5]  # class 5 is not on the chain
    for classes in (not_a_point, repeated, dropped):
        members = [{"members": [list(m) for m in cls]} for cls in classes]
        entry = {**fibers[0], "classes": members}
        assert not check_certificate(cert, [entry], delta, "subset", 4)


def test_check_certificate_is_independent_of_the_pipeline(monkeypatch):
    cert, fibers, delta = _genuine_n4_certificate()
    gcert, gfibers, gdelta = _genuine_grid_certificate()

    def refuse(*args):
        raise AssertionError(f"the checker called the pipeline with {args}")

    for module, name in (
        (correspondence, "build_subset_matrix"),
        (correspondence, "build_grid_matrix"),
        (correspondence, "mat_mul"),
        (fixed_points, "class_action"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert check_certificate(cert, fibers, delta, "subset", 4)
    assert check_certificate(gcert, gfibers, gdelta, "grid", 3)
    tampered = {**cert, "multiplicities": [[1], [2, 1], [2, 1, 1]]}
    assert not check_certificate(tampered, fibers, delta, "subset", 4)
    gtampered = {**gcert, "multiplicities": [[1], [2, 1], [1, 1, 1]]}
    assert not check_certificate(gtampered, gfibers, gdelta, "grid", 3)


def test_check_certificate_refuses_honest_multiplicities_off_a_chain():
    # every multiplicity below is the true one, yet neither is a nesting
    # chain: the one class of the merged (5) fiber of n = 3 lies in its own
    # image 3 times, and on the orbit (4) fiber of n = 2 the second class
    # does not hold the first in its image
    one_class = subset_fiber(SUBSET[3], (5,), MERGED)
    four_cycle = subset_fiber(SUBSET[2], (4,), ORBIT)
    for fiber, n, chain, rows in (
        (one_class, 3, (0,), ((3,),)),
        (four_cycle, 2, (0, 1), ((1,), (0, 1))),
    ):
        act = reference_class_action(build_subset_matrix(n), fiber)
        assert rows == tuple(
            tuple(act[qi][qj] for qj in chain[: i + 1]) for i, qi in enumerate(chain)
        )
        cert = NestingCertificate(fiber=0, chain=chain, multiplicities=rows)
        nest, fibers, delta = entries(cert, fiber)
        assert not check_certificate(nest, fibers, delta, "subset", n)
        assert not reference_check_certificate(nest, fibers[0], "subset", n)


def test_check_certificate_refuses_a_misshapen_certificate():
    # multiplicity rows or chain members that do not fit the chain are
    # refused, never read past their end
    grid = assemble(grid_scenario(3))["models"][MERGED]
    gcert, gfibers, gdelta = grid["nesting"], grid["special_fibers"], grid["delta_dot_d"]
    for (cert, fibers, delta), kind, parameter in (
        (_genuine_n4_certificate(), "subset", 4),
        ((gcert, gfibers, gdelta), "grid", 3),
    ):
        assert len(cert["chain"]) == 3 and check_certificate(cert, fibers, delta, kind, parameter)
        rows, members = cert["multiplicities"], cert["chain_members"]
        variants = [
            {**cert, "multiplicities": rows[:-1]},
            {**cert, "multiplicities": rows + rows[-1:]},
            {**cert, "chain_members": members[:-1]},
            {**cert, "chain_members": members + members[-1:]},
        ]
        for i, row in enumerate(rows):
            cut = rows[:i] + [row[:-1]] + rows[i + 1:]
            variants.append({**cert, "multiplicities": cut})
        for variant in variants:
            assert not check_certificate(variant, fibers, delta, kind, parameter), variant
    with pytest.raises(ValueError, match="unknown correspondence kind 'cube'"):
        check_certificate(gcert, gfibers, gdelta, "cube", 3)


def _float_labels(members):
    return [[float(x) for x in member] for member in members]


DROP = object()
# each doctoring of the certificate of subset n = 4, gx = 2, merged model
# (chain [1, 3, 4] in fiber 0): a path into [nesting, special_fibers,
# delta_dot_d] and the value put there, DROP to delete the key, or a
# function of the old one
UNEXACT = {
    "certified-1": ((0, "certified"), 1),
    "fiber-false": ((0, "fiber"), False),
    "fiber-float": ((0, "fiber"), 0.0),
    "fiber-str": ((0, "fiber"), "0"),
    "fiber-null": ((0, "fiber"), None),
    "chain-entry-true": ((0, "chain", 0), True),
    "chain-entry-float": ((0, "chain", 1), 3.0),
    "chain-entry-str": ((0, "chain", 1), "3"),
    "chain-entry-null": ((0, "chain", 1), None),
    "chain-float": ((0, "chain"), [1.0, 3.0, 4.0]),
    "chain-null": ((0, "chain"), None),
    "multiplicity-true": ((0, "multiplicities", 0, 0), True),
    "multiplicity-float": ((0, "multiplicities", 2, 1), 2.0),
    "multiplicities-row-int": ((0, "multiplicities", 0), 1),
    "chain-members-entry-int": ((0, "chain_members", 0), 0),
    "chain-members-entry-tuple": ((0, "chain_members", 0), tuple),
    "chain-member-labels-float": ((0, "chain_members", 0), _float_labels),
    "member-labels-float": ((1, 0, "classes", 0, "members"), _float_labels),
    "missing-certified": ((0, "certified"), DROP),
    "missing-fiber": ((0, "fiber"), DROP),
    "missing-chain": ((0, "chain"), DROP),
    "missing-chain-members": ((0, "chain_members"), DROP),
    "missing-multiplicities": ((0, "multiplicities"), DROP),
    "missing-classes": ((1, 0, "classes"), DROP),
    "missing-members": ((1, 0, "classes", 1, "members"), DROP),
    "delta-float": ((2,), 6.0),
    "delta-str": ((2,), "6"),
    "delta-null": ((2,), None),
    "nesting-list": ((0,), lambda nest: [*nest.items()]),
    "nesting-null": ((0,), None),
    "special-fibers-null": ((1,), None),
}


@pytest.mark.parametrize("path, value", UNEXACT.values(), ids=UNEXACT)
def test_check_certificate_reads_only_exact_ints_and_never_raises(path, value):
    # a bool, a float, a str or null where an int is read, a nesting entry
    # that is not a dict, fiber entries that are not a list, a row or member
    # list that is not a list and a missing key refuse the claim; none of
    # them raises
    rep = assemble(subset_scenario(4, 2, model=MERGED))["models"][MERGED]
    nest, fibers, delta = rep["nesting"], rep["special_fibers"], rep["delta_dot_d"]
    assert (nest["fiber"], nest["chain"], delta) == (0, [1, 3, 4], 6)
    assert check_certificate(nest, fibers, delta, "subset", 4)
    entries = copy.deepcopy([nest, fibers, delta])
    *inner, last = path
    target = entries
    for key in inner:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value(target[last]) if callable(value) else value
    assert check_certificate(*entries, "subset", 4) is False


# --- the label-bitmask checker against the image-enumerating one -------------


def _subset_image(member, n, degree):
    here = set(member)
    for other in itertools.combinations(range(1, degree + 1), n):
        if len(here & set(other)) == n - 2:
            yield other


def _grid_image(member, m):
    i, j = member
    for k in range(1, m + 1):
        if k != j:
            yield (i, k)
        if k != i:
            yield (k, j)


def reference_check_certificate(cert, fiber, kind, parameter):
    """The checker that check_certificate replaced, kept as the reference: it
    enumerates the image points of every representative and looks each one
    up among the declared classes."""
    chain = cert["chain"]
    classes = [cls["members"] for cls in fiber["classes"]]
    if len(chain) == 0:
        return True
    if len(set(chain)) != len(chain):
        return False
    which = {}
    for ci, members in enumerate(classes):
        for member in members:
            which[tuple(member)] = ci

    def image_of(member):
        if kind == "subset":
            return _subset_image(member, parameter, parameter + 2)
        if kind == "grid":
            return _grid_image(member, parameter)
        raise ValueError(f"unknown correspondence kind {kind!r}")

    for i, qi in enumerate(chain):
        if cert["chain_members"][i] != classes[qi]:
            return False
        expected = dict(zip(chain[: i + 1], cert["multiplicities"][i]))
        for member in classes[qi]:
            counts = Counter()
            for img in image_of(member):
                if img not in which:
                    return False  # image escapes the declared classes
                counts[which[img]] += 1
            for qj, mult in expected.items():
                if counts.get(qj, 0) != mult:
                    return False
        if cert["multiplicities"][i][i] != 1:
            return False
        if any(m < 1 for m in cert["multiplicities"][i]):
            return False
    return True


def _tampered(cert, fixed, classes):
    """Every multiplicity moved by one, the chain reversed with its members,
    its last class named by its negative alias, and each chain class
    swapped, with its members, for each other fixed class of the fiber
    (given as index -> members)."""
    chain, members, rows = cert["chain"], cert["chain_members"], cert["multiplicities"]
    for i, row in enumerate(rows):
        for j in range(len(row)):
            for step in (-1, 1):
                moved = row[:j] + [row[j] + step] + row[j + 1:]
                yield {**cert, "multiplicities": rows[:i] + [moved] + rows[i + 1:]}
    yield {**cert, "chain": chain[::-1], "chain_members": members[::-1]}
    yield {**cert, "chain": chain[:-1] + [chain[-1] - classes]}
    for i in range(len(chain)):
        for q, swapped in fixed.items():
            if q not in chain:
                yield {
                    **cert,
                    "chain": chain[:i] + [q] + chain[i + 1:],
                    "chain_members": members[:i] + [swapped] + members[i + 1:],
                }


def _pipeline_certificates():
    """Each distinct (certificate, fiber entries, fixed-point count, kind,
    parameter, fixed classes of the certificate's fiber) the pipeline builds for the 1- and 2-fiber profile combinations of subset
    n = 2..7 under both models, and for grid g = 2 and 3, as report entries.
    The subset searches run on the layout of the declared fibers, as
    report._model lays them out; the grid ones are read off the report."""
    found = {}

    def keep(cert, fibers, delta, kind, parameter, fixed):
        key = json.dumps([cert, fibers[cert["fiber"]], kind, parameter], sort_keys=True)
        found[key] = (cert, fibers, delta, kind, parameter, fixed)

    for n in range(2, 8):
        corr = build_subset_matrix(n)
        profiles = [p for p in partitions(n + 2) if max(p) > 1]
        for model in (MERGED, ORBIT):
            fibers = {p: subset_fiber(corr, p, model) for p in profiles}
            acts = {p: class_action(corr, fibers[p]) for p in profiles}
            for combo in [(p,) for p in profiles] + list(
                itertools.combinations_with_replacement(profiles, 2)
            ):
                distinct = list(dict.fromkeys(combo))
                positions = tuple(map(distinct.index, combo))
                cert = search([acts[p] for p in distinct], positions, corr.bidegree)
                if isinstance(cert, NestingCertificate) and cert.chain:
                    fiber = fibers[combo[cert.fiber]]
                    fixed = {q: [list(m) for m in fiber.classes[q]]
                             for q in fixed_classes(acts[combo[cert.fiber]])}
                    keep(*entries(cert, fiber), "subset", n, fixed)
    for g in (2, 3):
        model = assemble(grid_scenario(g))["models"][MERGED]
        cert = model["nesting"]
        assert cert["certified"] and cert["chain"]
        fixed = {fc["class"]: fc["members"] for fc in model["fixed_points"]
                 if fc["fiber"] == cert["fiber"]}
        keep(cert, model["special_fibers"], model["delta_dot_d"], "grid", 3, fixed)
    return list(found.values())


def test_check_certificate_matches_reference_on_pipeline_certificates():
    found = _pipeline_certificates()
    verdicts = Counter()
    for cert, fibers, delta, kind, parameter, fixed in found:
        fiber = fibers[cert["fiber"]]
        for variant in (cert, *_tampered(cert, fixed, len(fiber["classes"]))):
            verdict = check_certificate(variant, fibers, delta, kind, parameter)
            assert verdict == reference_check_certificate(variant, fiber, kind, parameter), (
                kind, parameter, variant
            )
            verdicts[verdict] += 1
        assert check_certificate(cert, fibers, delta, kind, parameter)
    assert {kind for _, _, _, kind, _, _ in found} == {"subset", "grid"}
    assert verdicts[True] > len(found) and verdicts[False] > 0


def test_check_certificate_reads_every_grid_row():
    # the pipeline's grid certificates glue rows 1 and 2 only, so a label rule
    # that gave row m the label of column 1 passed them all; gluing each pair
    # of rows puts every row, the last one included, on some chain.  A row
    # profile glues the first rows, so the other pairs are glued here by
    # the orbits of their row transposition, a label move induced on the cells
    for m in (3, 4):
        corr, cells = build_grid_matrix(m), grid_points(m)
        for pair in itertools.combinations(range(1, m + 1), 2):
            glue = corr.induce(transposition(2 * m, *pair))
            fiber = SpecialFiber((glue,), corr.points)
            assert fiber.classes == reference_orbit_classes(glue, cells)
            act = class_action(corr, fiber)
            cert = search([act], (0, 0), corr.bidegree)
            assert {i for q in cert.chain for i, _ in fiber.classes[q]} == set(pair)
            nest, fibers, delta = entries(cert, fiber)
            entry = fibers[nest["fiber"]]
            assert check_certificate(nest, fibers, delta, "grid", m)
            fixed = {q: entry["classes"][q]["members"] for q in fixed_classes(act)}
            for variant in _tampered(nest, fixed, len(fiber.classes)):
                assert check_certificate(variant, fibers, delta, "grid", m) == (
                    reference_check_certificate(variant, entry, "grid", m)
                )


# --- the clique search against the backtracking search over orderings -------


def reference_nesting_search(actions, positions, delta_dot_d, bidegree):
    """The backtracking search over orderings that the clique search replaced,
    kept as the reference: it tries every candidate outside the partial chain
    at every node and counts each try."""
    if delta_dot_d % 2:
        return NestingFailure(
            reason=f"fixed-point count {delta_dot_d} is odd",
            fibers_searched=0,
            orderings_tried=0,
        )
    n = delta_dot_d // 2
    if n > bidegree:
        return NestingFailure(
            reason=f"chain length {n} exceeds the bidegree {bidegree}",
            fibers_searched=0,
            orderings_tried=0,
        )
    if n == 0:
        return NestingCertificate(fiber=-1, chain=(), multiplicities=())

    tried = 0
    searched = 0
    for fi, distinct in enumerate(positions):
        act = actions[distinct]
        candidates = [q for q in range(len(act)) if act[q][q] == 1]
        if len(candidates) < n:
            continue
        searched += 1
        chain: list[int] = []

        def extend() -> bool:
            nonlocal tried
            if len(chain) == n:
                return True
            for q in candidates:
                if q in chain:
                    continue
                tried += 1
                row = act[q]
                if all(row[p] >= 1 for p in chain):
                    chain.append(q)
                    if extend():
                        return True
                    chain.pop()
            return False

        if extend():
            multiplicities = tuple(
                tuple(act[qi][qj] for qj in chain[: i + 1])
                for i, qi in enumerate(chain)
            )
            return NestingCertificate(fiber=fi, chain=tuple(chain), multiplicities=multiplicities)
    return NestingFailure(
        reason=f"no ordering of {n} fixed points nests on any special fiber",
        fibers_searched=searched,
        orderings_tried=tried,
    )


def assert_matches_reference(matrices, positions, bidegree):
    """The clique search on the diagonals and candidate blocks of full class
    actions finds what the reference search finds on the full actions."""
    actions = list(map(diagonal_and_block, matrices))
    delta = sum(mult for _, _, mult in fixed_point_scan(actions, positions))
    assert nesting_search(actions, positions, delta, bidegree) == (
        reference_nesting_search(matrices, positions, delta, bidegree)
    )


@pytest.mark.parametrize("n", range(2, 8))
def test_clique_search_matches_reference_on_subset_fibers(n):
    corr = build_subset_matrix(n)
    bidegree = comb(n, 2)
    for parts in partitions(n + 2):
        if max(parts) == 1:
            continue
        for model in (MERGED, ORBIT):
            fiber = subset_fiber(corr, parts, model)
            act = full_action(corr, fiber)
            for positions in ((0,), (0, 0)):
                assert_matches_reference([act], positions, bidegree)


def test_fibers_and_actions_match_the_references():
    # every ramified profile of subset n = 2..7 under both models, and every
    # grid fiber: the same classes in the same order with the same block
    # multisets, and the diagonal and candidate block of the full action
    for n in range(2, 8):
        corr = build_subset_matrix(n)
        points, index = all_subsets(n + 2, n), subset_index(n + 2, n)
        for parts in partitions(n + 2):
            if max(parts) == 1:
                continue
            blocks = blocks_from_parts(parts, n + 2)
            merged, orbit = (subset_fiber(corr, parts, model) for model in (MERGED, ORBIT))
            classes, keys = reference_merged_fiber(n, blocks)
            assert merged.classes == classes
            written = [cls["block_multiset"] for cls in fiber_to_dict(merged, blocks)["classes"]]
            assert written == list(map(list, keys))
            cycles = tuple(b for b in blocks if len(b) > 1)
            sigma = induced_subset_action(Permutation.from_cycles(n + 2, cycles), n, index)
            assert sigma == corr.induce(partition_monodromy(parts, n + 2))
            assert orbit.classes == reference_orbit_classes(sigma, points)
            assert orbit.generators == (sigma,)
            for fiber in (merged, orbit):
                full_action(corr, fiber)
    corr, cells = GRID, grid_points(3)
    rows = grid_row_cell_monodromy(3, GRID_ROWS)
    assert grid_row_merge_fiber(corr).classes == reference_orbit_classes(rows, cells)
    full_action(corr, grid_row_merge_fiber(corr))
    for shift in range(3):
        pairing = grid_pairing_cell_monodromy(3, shift)
        fiber = grid_pairing_fiber(corr, shift)
        assert fiber.classes == reference_orbit_classes(pairing, cells)
        assert fiber.generators == (pairing,)
        full_action(corr, fiber)


def test_clique_search_matches_reference_on_grid_layout():
    # the grid layout is the same under both models: one shared object
    corr = GRID
    layouts = fiber_layout(grid_scenario(3), corr)
    assert layouts[MERGED] is layouts[ORBIT]
    distinct, acted, positions, _, _ = layouts[MERGED]
    assert len(positions) == 10
    actions = [full_action(corr, f) for f in distinct]
    assert acted == list(map(diagonal_and_block, actions))
    for chosen in (positions, positions[:1], positions[2:]):
        for bidegree in (corr.bidegree, 1):
            assert_matches_reference(actions, chosen, bidegree)


@st.composite
def symmetric_class_actions(draw):
    """A class action on at most 8 classes whose relation "q lies in D(p)" is
    symmetric, with arbitrary positive multiplicities."""
    size = draw(st.integers(1, 8))
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = draw(st.sampled_from((0, 1, 1, 1, 2)))
        for j in range(i + 1, size):
            if draw(st.booleans()):
                rows[i][j] = draw(st.integers(1, 3))
                rows[j][i] = draw(st.integers(1, 3))
    return tuple(tuple(r) for r in rows)


@settings(max_examples=200, deadline=None)
@given(
    layout=st.lists(symmetric_class_actions(), min_size=1, max_size=3),
    bidegree=st.integers(0, 8),
)
def test_clique_search_matches_reference_on_random_actions(layout, bidegree):
    assert_matches_reference(layout, range(len(layout)), bidegree)


def _default_monodromy_layout(n):
    corr = build_subset_matrix(n)
    fiber = subset_fiber(corr, default_subset_fibers(n)[0], ORBIT)
    return [class_action(corr, fiber)], (0, 0)


def test_orderings_tried_closed_forms():
    # the orbit fiber of a (2,...,2) profile: 2m fixed classes, each adjacent
    # to all but its partner, so a k-clique picks k of the m pairs and one
    # class of each; the fiber has 3^m cliques and none longer than m
    for n, pairs in (
        (6, 6), (7, 6), (8, 10), (9, 10), (10, 15), (12, 21), (14, 28), (16, 36), (20, 55)
    ):
        failure = search(*_default_monodromy_layout(n), comb(n, 2))
        assert isinstance(failure, NestingFailure)
        assert failure.fibers_searched == 2
        per_fiber = sum(
            comb(pairs, k) * 2**k * factorial(k) * (2 * pairs - k) for k in range(pairs + 1)
        )
        assert failure.orderings_tried == 2 * per_fiber
    assert search(*_default_monodromy_layout(6), 15).orderings_tried == 987_648
    assert search(*_default_monodromy_layout(8), 28).orderings_tried == 128_655_846_080


def test_nesting_budget_leaves_search_undecided(monkeypatch):
    # counting an orbit fiber of m = 6 pairs misses the memo 2m = 12 times:
    # at the full suffix of j pairs and at that suffix with one class dropped
    layout = _default_monodromy_layout(6)  # 3^6 = 729 cliques per fiber
    monkeypatch.setattr(fixed_points, "NESTING_CLIQUE_BUDGET", 12)
    failure = search(*layout, 15)
    assert isinstance(failure, NestingFailure)
    assert failure.orderings_tried == 987_648

    # one miss fewer leaves the count of the first fiber unfinished, and the
    # budget is the search's only one: it ends undecided there
    monkeypatch.setattr(fixed_points, "NESTING_CLIQUE_BUDGET", 11)
    undecided = search(*layout, 15)
    assert isinstance(undecided, NestingUndecided)
    assert undecided.fibers_searched == 1
    assert undecided.memo_misses == 11
    assert "budget" in undecided.reason


def test_nesting_budget_bounds_memo_misses_not_cliques(monkeypatch):
    # 60 classes all in each other's images: 2^60 cliques, yet the split
    # tree of a complete graph is one path of 60 suffixes
    size = 60
    action = tuple((1,) * size for _ in range(size))
    monkeypatch.setattr(fixed_points, "NESTING_CLIQUE_BUDGET", 100)
    cert = search([diagonal_and_block(action)], (0,), size - 1)
    assert isinstance(cert, NestingCertificate)
    assert cert.chain == tuple(range(30))
    assert all(m == 1 for row in cert.multiplicities for m in row)


def test_nesting_search_has_no_recursion_limit():
    # 1,100 fixed classes of self multiplicity 1 and no edges: splitting off
    # the lowest candidate 1,100 times in a row nests that deep
    size = 1_100
    action = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    failure = search([diagonal_and_block(action)], (0,), size)
    assert isinstance(failure, NestingFailure)
    assert failure.fibers_searched == 1
    # the empty clique and the 1,100 single classes
    assert failure.orderings_tried == size + size * (size - 1)


@st.composite
def large_symmetric_class_actions(draw):
    """A symmetric class action on 9 to 16 classes with an even fixed-point
    count, often denser than symmetric_class_actions so that some fibers
    hold long chains."""
    size = draw(st.integers(9, 16))
    keep = draw(st.sampled_from((3, 6, 8, 9, 10)))  # edge when a draw from 0..9 is below
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = draw(st.sampled_from((0, 0, 1, 1, 1, 2)))
    if sum(rows[i][i] for i in range(size)) % 2:
        rows[0][0] ^= 1
    for i in range(size):
        for j in range(i + 1, size):
            if draw(st.integers(0, 9)) < keep:
                rows[i][j] = draw(st.integers(1, 3))
                rows[j][i] = draw(st.integers(1, 3))
    return tuple(tuple(r) for r in rows)


def combination_nesting_search(actions, positions, n):
    """The search result by itertools.combinations: the first fiber with an
    n-clique gives its lexicographically first one, and a failure sums
    k! * (c - k) over every k-clique with k < n of every searched fiber."""
    tried = 0
    searched = 0
    for fi, distinct in enumerate(positions):
        act = actions[distinct]
        candidates = [q for q in range(len(act)) if act[q][q] == 1]
        c = len(candidates)
        if c < n:
            continue
        searched += 1

        def is_clique(qs):
            return all(act[q][p] >= 1 for q, p in itertools.combinations(qs, 2))

        chain = next((qs for qs in itertools.combinations(candidates, n) if is_clique(qs)), None)
        if chain is not None:
            return NestingCertificate(
                fiber=fi,
                chain=chain,
                multiplicities=tuple(
                    tuple(act[qi][qj] for qj in chain[: i + 1])
                    for i, qi in enumerate(chain)
                ),
            )
        for k in range(n):
            cliques = sum(map(is_clique, itertools.combinations(candidates, k)))
            tried += cliques * factorial(k) * (c - k)
    return NestingFailure(
        reason=f"no ordering of {n} fixed points nests on any special fiber",
        fibers_searched=searched,
        orderings_tried=tried,
    )


@settings(max_examples=100, deadline=None)
@given(layout=st.lists(large_symmetric_class_actions(), min_size=1, max_size=2))
def test_clique_count_matches_combinations_on_large_actions(layout):
    # at most 2^16 cliques per fiber: within the budget, so always decided
    actions = list(map(diagonal_and_block, layout))
    positions = range(len(layout))
    delta = sum(mult for _, _, mult in fixed_point_scan(actions, positions))
    n = delta // 2
    assume(n)
    assert nesting_search(actions, positions, delta, n) == (
        combination_nesting_search(layout, positions, n)
    )


def test_nesting_search_rejects_asymmetric_action():
    action = diagonal_and_block(((1, 1), (0, 1)))
    with pytest.raises(ValueError, match="not symmetric"):
        search([action], (0, 0), bidegree=2)
    # the one-sided entry below the diagonal: both entries are named
    action = diagonal_and_block(((1, 1, 0), (1, 1, 1), (1, 1, 1)))
    with pytest.raises(ValueError, match=re.escape("action[0][2] = 0, action[2][0] = 1")):
        search([action], (0, 0), bidegree=3)
    # the block is indexed by candidate, the message by class: classes 0
    # and 2 are not candidates here
    action = diagonal_and_block(((0, 1, 1, 1), (1, 1, 1, 1), (1, 1, 2, 1), (1, 0, 1, 1)))
    with pytest.raises(ValueError, match=re.escape("action[1][3] = 1, action[3][1] = 0")):
        search([action], (0,), bidegree=3)
