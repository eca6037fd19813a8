import itertools
import json
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
    grid_row_monodromy,
    partition_monodromy,
    subset_fiber,
)
from prymtyurin.perms import (
    Permutation,
    all_subsets,
    induced_subset_action,
    transposition,
)
from prymtyurin.report import assemble, fiber_layout, fiber_to_dict, nesting_to_dict
from prymtyurin.scenario import default_subset_fibers, grid_scenario
from references import (
    diagonal_and_block,
    partitions,
    point_permutation,
    reference_class_action,
    reference_merged_fiber,
    reference_orbit_classes,
)

THREE_PARTS = (2, 2, 1)
THREE_PAIRS = (2, 2, 2)
GRID_ROWS = (2, 1)


def fixed_classes(action):
    """The fixed classes of one class action, each with its multiplicity,
    as the scan reads them."""
    return {q: mult for _, q, mult in fixed_point_scan([action], (0,))}


def search(actions, positions, bidegree):
    """nesting_search over a layout, at the fixed-point count of its scan."""
    delta = sum(mult for _, _, mult in fixed_point_scan(actions, positions))
    return nesting_search(actions, positions, delta, bidegree)


def entries(cert, fiber):
    """A certificate and its fiber as a report writes them, the fiber's
    entry at every position up to the certificate's."""
    entry = fiber_to_dict(fiber)
    return nesting_to_dict(cert, [entry] * (cert.fiber + 1)), entry


def full_action(corr, fiber):
    """The reference's full class action, after checking that class_action
    returns its diagonal and candidate block."""
    full = reference_class_action(corr, fiber)
    assert class_action(corr, fiber) == diagonal_and_block(full)
    return full


def tampered_classes(classes, non_point):
    """Each way of breaking a fiber's classes that class_action refuses: one
    member dropped or replaced by a non-point, and when there is a second
    class, one member moved to it or repeated in it, and the two swapped."""
    first, *rest = classes
    yield "dropped", (first[1:], *rest)
    yield "non-point", (tuple(sorted((non_point, *first[1:]))), *rest)
    if rest:
        second, *others = rest
        grown = tuple(sorted((*second, first[-1])))
        yield "moved", (first[:-1], grown, *others)
        yield "repeated", (first, grown, *others)
        yield "swapped", (second, first, *others)


def test_class_action_refuses_every_tampered_fiber():
    # every fiber of subset n = 2..5, every profile under both models, and
    # the four grid fibers: each is accepted as built and refused after any
    # one tamper, since its classes are no longer the orbits in order
    cases = []
    for n in range(2, 6):
        corr = build_subset_matrix(n)
        cases += [(corr, subset_fiber(n, p, m)) for p in partitions(n + 2) for m in (MERGED, ORBIT)]
    grid = build_grid_matrix(3)
    cases.append((grid, grid_row_merge_fiber(3, GRID_ROWS)))
    cases += [(grid, grid_pairing_fiber(3, shift)) for shift in range(3)]
    refused = Counter()
    for corr, fiber in cases:
        class_action(corr, fiber)
        non_point = (0,) * len(fiber.classes[0][0])
        for name, classes in tampered_classes(fiber.classes, non_point):
            bad = SpecialFiber(classes, fiber.generators)
            with pytest.raises(ValueError, match="^(class [0-9]+ is not an|the classes miss) orbit"):
                class_action(corr, bad)
            refused[name] += 1
    assert len(cases) == 2 * (5 + 7 + 11 + 15) + 4
    # only the merged fiber of the profile (n + 2), one class, has no second
    # class to move a member to
    assert refused["dropped"] == len(cases) and refused["swapped"] == len(cases) - 4


def test_class_action_merged_n3():
    fiber = subset_fiber(3, THREE_PARTS, MERGED)
    act = full_action(build_subset_matrix(3), fiber)
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
    act = full_action(build_subset_matrix(4), subset_fiber(4, THREE_PAIRS, MERGED))
    assert tuple(fixed_classes(diagonal_and_block(act))) == (1, 3, 4)
    # frozen from brute force: self multiplicity 1, cross multiplicities 2
    assert act[1] == (0, 1, 0, 2, 2, 1)
    assert act[3] == (0, 2, 1, 1, 2, 0)
    assert act[4] == (1, 2, 0, 2, 1, 0)


def test_class_action_orbit_models():
    act2 = class_action(build_subset_matrix(2), subset_fiber(2, (2, 2), ORBIT))
    assert len(fixed_classes(act2)) == 2
    act3 = class_action(build_subset_matrix(3), subset_fiber(3, THREE_PARTS, ORBIT))
    assert len(fixed_classes(act3)) == 2
    act4 = class_action(build_subset_matrix(4), subset_fiber(4, THREE_PAIRS, ORBIT))
    assert len(fixed_classes(act4)) == 6
    for act in (act2, act3, act4):
        assert set(fixed_classes(act).values()) == {1}


def test_class_action_grid_fibers():
    branch = full_action(build_grid_matrix(3), grid_row_merge_fiber(3, GRID_ROWS))
    assert tuple(fixed_classes(diagonal_and_block(branch))) == (0, 1, 2)
    assert branch[0] == (1, 1, 1, 1, 0, 0)
    assert branch[1] == (1, 1, 1, 0, 1, 0)
    assert branch[2] == (1, 1, 1, 0, 0, 1)
    for shift in (0, 1, 2):
        pairing = full_action(build_grid_matrix(3), grid_pairing_fiber(3, shift))
        assert fixed_classes(diagonal_and_block(pairing)) == {}
        assert all(sum(row) == 4 for row in pairing)


def _partial_row_glue(generators):
    # gluing (1, 1) with (1, 2) alone makes the action depend on the
    # representative: (2, 1) lies in the image of (1, 1) but not of (1, 2)
    classes = (((1, 1), (1, 2)), ((2, 1),), ((2, 2),))
    return SpecialFiber(classes=classes, generators=generators)


def test_class_action_rejects_representative_dependence():
    corr = build_grid_matrix(2)
    bad = _partial_row_glue(())
    with pytest.raises(ValueError, match="depends on the representative"):
        reference_class_action(corr, bad)
    with pytest.raises(ValueError, match="^class 0 is not an orbit of the fiber's generators$"):
        class_action(corr, bad)
    # a merged class is a union of orbits of the orbit model's monodromy
    corr = build_subset_matrix(3)
    merged = subset_fiber(3, THREE_PARTS, MERGED)
    fewer = SpecialFiber(merged.classes, subset_fiber(3, THREE_PARTS, ORBIT).generators)
    with pytest.raises(ValueError, match="^class 3 is not an orbit"):
        class_action(corr, fewer)
    # and the orbit classes split the merged model's Young subgroup orbits
    more = SpecialFiber(subset_fiber(3, THREE_PARTS, ORBIT).classes, merged.generators)
    with pytest.raises(ValueError, match="is not an orbit"):
        class_action(corr, more)


def test_class_action_refuses_a_generator_that_moves_the_relation():
    corr = build_grid_matrix(2)
    swap = Permutation((2, 1, 3, 4))  # (1, 1) <-> (1, 2), the rest fixed
    with pytest.raises(ValueError, match="^generator 0 does not preserve the relation$"):
        class_action(corr, _partial_row_glue((swap,)))
    # a position swap that is not an induced label move, on subset n = 3
    points = all_subsets(5, 3)
    images = list(range(1, 11))
    images[0], images[9] = 10, 1  # swaps {1, 2, 3} with {3, 4, 5}
    swap = Permutation(tuple(images))
    classes = tuple(sorted(((points[0], points[9]), *((p,) for p in points[1:9]))))
    bad = SpecialFiber(classes=classes, generators=(Permutation(tuple(range(1, 11))), swap))
    with pytest.raises(ValueError, match="^generator 1 does not preserve the relation$"):
        class_action(build_subset_matrix(3), bad)


def test_class_action_refuses_a_generator_of_the_wrong_degree():
    fiber = subset_fiber(3, THREE_PARTS, MERGED)
    short = induced_subset_action(Permutation((2, 1, 3, 4)), 2)
    for generators in ((short,), fiber.generators + (short,)):
        bad = SpecialFiber(fiber.classes, generators)
        with pytest.raises(ValueError, match=rf"^generator {len(generators) - 1} has degree 6, not 10$"):
            class_action(build_subset_matrix(3), bad)


def test_class_action_rejects_off_grid_member():
    # (0, 4) has the row-major rank of (1, 1) but is not a cell of the grid
    fiber = grid_row_merge_fiber(3, GRID_ROWS)
    classes = tuple(
        tuple(sorted((0, 4) if m == (1, 1) else m for m in c)) for c in fiber.classes
    )
    with pytest.raises(ValueError, match="^class 0 is not an orbit of the fiber's generators$"):
        class_action(build_grid_matrix(3), SpecialFiber(classes, fiber.generators))


def test_class_action_rejects_partial_cover():
    corr = build_subset_matrix(2)
    partial = SpecialFiber(classes=(((1, 2),),), generators=())
    with pytest.raises(ValueError, match="^the classes miss orbit 1 of the fiber's generators$"):
        class_action(corr, partial)


def test_class_action_rejects_a_member_in_two_classes():
    fiber = subset_fiber(2, (2, 2), MERGED)
    twice = SpecialFiber(fiber.classes + (((1, 2),),), fiber.generators)
    with pytest.raises(ValueError, match="^class 3 is not an orbit of the fiber's generators$"):
        class_action(build_subset_matrix(2), twice)


def test_fixed_point_scan_and_delta():
    act = class_action(build_subset_matrix(3), subset_fiber(3, THREE_PARTS, MERGED))
    fixed = fixed_point_scan([act], (0, 0))
    assert fixed == [(0, 3, 1), (1, 3, 1)]
    assert sum(mult for _, _, mult in fixed) == 2
    # positions name the layout slot; a fixed-point-free fiber adds nothing
    branch = class_action(build_grid_matrix(3), grid_row_merge_fiber(3, GRID_ROWS))
    pairing = class_action(build_grid_matrix(3), grid_pairing_fiber(3, 0))
    fixed = fixed_point_scan([branch, pairing], (1, 0, 1, 1, 0))
    assert fixed == [(1, q, 1) for q in range(3)] + [(4, q, 1) for q in range(3)]


def test_nesting_chain_length_one():
    fiber = subset_fiber(3, THREE_PARTS, MERGED)
    act = class_action(build_subset_matrix(3), fiber)
    cert = search([act], (0, 0), bidegree=3)
    assert isinstance(cert, NestingCertificate)
    assert cert.fiber == 0
    assert cert.chain == (3,)
    assert cert.multiplicities == ((1,),)


def test_nesting_chain_n4():
    fiber = subset_fiber(4, THREE_PAIRS, MERGED)
    act = class_action(build_subset_matrix(4), fiber)
    assert sum(mult for _, _, mult in fixed_point_scan([act], (0, 0))) == 6
    cert = search([act], (0, 0), bidegree=6)
    assert isinstance(cert, NestingCertificate)
    assert cert.chain == (1, 3, 4)
    assert cert.multiplicities == ((1,), (2, 1), (2, 2, 1))


def test_nesting_chain_grid():
    fibers = [grid_row_merge_fiber(3, GRID_ROWS), grid_pairing_fiber(3, 0)]
    actions = [class_action(build_grid_matrix(3), f) for f in fibers]
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
    fiber = subset_fiber(3, THREE_PARTS, MERGED)
    act = class_action(build_subset_matrix(3), fiber)
    assert sum(mult for _, _, mult in fixed_point_scan([act], (0,))) == 1
    failure = search([act], (0,), bidegree=3)
    assert isinstance(failure, NestingFailure)
    assert "odd" in failure.reason


def test_nesting_failure_exceeds_bidegree():
    fiber = subset_fiber(2, (2, 2), ORBIT)
    act = class_action(build_subset_matrix(2), fiber)
    assert sum(mult for _, _, mult in fixed_point_scan([act], (0, 0))) == 4
    failure = search([act], (0, 0), bidegree=1)
    assert isinstance(failure, NestingFailure)
    assert "exceeds the bidegree" in failure.reason


def test_nesting_failure_no_ordering():
    # orbit model at n=3: two fixed orbits per fiber, but neither contains
    # the other in its image, so no chain of length 2 exists anywhere
    fiber = subset_fiber(3, THREE_PARTS, ORBIT)
    act = class_action(build_subset_matrix(3), fiber)
    assert sum(mult for _, _, mult in fixed_point_scan([act], (0, 0))) == 4
    failure = search([act], (0, 0), bidegree=3)
    assert isinstance(failure, NestingFailure)
    assert failure.fibers_searched == 2
    assert failure.orderings_tried > 0


def test_empty_chain_certificate():
    fiber = grid_pairing_fiber(3, 1)
    pairing = class_action(build_grid_matrix(3), fiber)
    cert = search([pairing], (0,), bidegree=4)
    assert isinstance(cert, NestingCertificate)
    assert cert.chain == ()
    assert check_certificate(*entries(cert, fiber), "grid", 3)


def _genuine_n4_certificate():
    fiber = subset_fiber(4, THREE_PAIRS, MERGED)
    act = class_action(build_subset_matrix(4), fiber)
    cert = search([act], (0, 0), bidegree=6)
    assert isinstance(cert, NestingCertificate)
    return entries(cert, fiber)


def _genuine_grid_certificate():
    fiber = grid_row_merge_fiber(3, GRID_ROWS)
    act = class_action(build_grid_matrix(3), fiber)
    cert = search([act], (0, 0), bidegree=4)
    assert isinstance(cert, NestingCertificate)
    return entries(cert, fiber)


def test_check_certificate_accepts_genuine():
    assert check_certificate(*_genuine_n4_certificate(), "subset", 4)
    assert check_certificate(*_genuine_grid_certificate(), "grid", 3)


def test_check_certificate_rejects_tampering():
    cert, fiber = _genuine_n4_certificate()

    wrong_mult = {**cert, "multiplicities": [[1], [1, 1], [2, 2, 1]]}
    assert not check_certificate(wrong_mult, fiber, "subset", 4)

    wrong_chain = {**cert, "chain": [1, 1, 4]}
    assert not check_certificate(wrong_chain, fiber, "subset", 4)

    members = cert["chain_members"]
    wrong_members = {**cert, "chain_members": members[1:2] + members[1:]}
    assert not check_certificate(wrong_members, fiber, "subset", 4)

    # reordering the chain so a later point misses an earlier one must fail:
    # the singleton class {1,2,3,4} is not fixed at all
    bogus = {**cert, "chain": [0, 3, 4]}
    assert not check_certificate(bogus, fiber, "subset", 4)

    # class 1 named twice, once by its negative alias, as a chain of length 2
    aliased = {
        **cert,
        "chain": [1, 1 - len(fiber["classes"])],
        "chain_members": members[:1] * 2,
        "multiplicities": [[1], [1, 1]],
    }
    assert not check_certificate(aliased, fiber, "subset", 4)


def test_check_certificate_rejects_cert_against_wrong_fiber():
    merged = subset_fiber(2, (2, 2), MERGED)
    mact = class_action(build_subset_matrix(2), merged)
    mcert = search([mact], (0, 0), bidegree=1)
    assert isinstance(mcert, NestingCertificate)
    assert mcert.chain == (1,)
    nest, entry = entries(mcert, merged)
    assert check_certificate(nest, entry, "subset", 2)
    # against the orbit fiber the same class index holds different members
    orbit = fiber_to_dict(subset_fiber(2, (2, 2), ORBIT))
    assert not check_certificate(nest, orbit, "subset", 2)


def test_check_certificate_requires_classes_to_partition_the_points():
    fiber = subset_fiber(4, THREE_PAIRS, MERGED)
    cert, entry = _genuine_n4_certificate()
    assert cert["chain"] == [1, 3, 4]
    assert check_certificate(cert, entry, "subset", 4)
    not_a_point = fiber.classes + (((1, 1, 2, 9),),)
    repeated = fiber.classes + ((fiber.classes[0][0],),)
    dropped = fiber.classes[:5]  # class 5 is not on the chain
    for classes in (not_a_point, repeated, dropped):
        entry = fiber_to_dict(SpecialFiber(classes=classes, generators=()))
        assert not check_certificate(cert, entry, "subset", 4)


def test_check_certificate_is_independent_of_the_pipeline(monkeypatch):
    cert, fiber = _genuine_n4_certificate()
    gcert, gfiber = _genuine_grid_certificate()

    def refuse(*args):
        raise AssertionError(f"the checker called the pipeline with {args}")

    for module, name in (
        (correspondence, "build_subset_matrix"),
        (correspondence, "build_grid_matrix"),
        (correspondence, "mat_mul"),
        (fixed_points, "class_action"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert check_certificate(cert, fiber, "subset", 4)
    assert check_certificate(gcert, gfiber, "grid", 3)
    tampered = {**cert, "multiplicities": [[1], [2, 1], [2, 1, 1]]}
    assert not check_certificate(tampered, fiber, "subset", 4)
    gtampered = {**gcert, "multiplicities": [[1], [2, 1], [1, 1, 1]]}
    assert not check_certificate(gtampered, gfiber, "grid", 3)


def test_check_certificate_refuses_honest_multiplicities_off_a_chain():
    # every multiplicity below is the true one, yet neither is a nesting
    # chain: the one class of the merged (5) fiber of n = 3 lies in its own
    # image 3 times, and on the orbit (4) fiber of n = 2 the second class
    # does not hold the first in its image
    one_class = subset_fiber(3, (5,), MERGED)
    four_cycle = subset_fiber(2, (4,), ORBIT)
    for fiber, n, chain, rows in (
        (one_class, 3, (0,), ((3,),)),
        (four_cycle, 2, (0, 1), ((1,), (0, 1))),
    ):
        act = reference_class_action(build_subset_matrix(n), fiber)
        assert rows == tuple(
            tuple(act[qi][qj] for qj in chain[: i + 1]) for i, qi in enumerate(chain)
        )
        cert = NestingCertificate(fiber=0, chain=chain, multiplicities=rows)
        assert not check_certificate(*entries(cert, fiber), "subset", n)
        assert not reference_check_certificate(*entries(cert, fiber), "subset", n)


def test_check_certificate_refuses_a_misshapen_certificate():
    # multiplicity rows or chain members that do not fit the chain are
    # refused, never read past their end
    grid = assemble(grid_scenario(3))["models"][MERGED]
    gcert = grid["nesting"]
    gfiber = grid["special_fibers"][gcert["fiber"]]
    for (cert, fiber), kind, parameter in (
        (_genuine_n4_certificate(), "subset", 4),
        ((gcert, gfiber), "grid", 3),
    ):
        assert len(cert["chain"]) == 3 and check_certificate(cert, fiber, kind, parameter)
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
            assert not check_certificate(variant, fiber, kind, parameter), variant
    with pytest.raises(ValueError, match="unknown correspondence kind 'cube'"):
        check_certificate(gcert, gfiber, "cube", 3)


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
    """Each distinct (certificate, fiber, kind, parameter, fixed classes) the
    pipeline builds for the 1- and 2-fiber profile combinations of subset
    n = 2..7 under both models, and for grid g = 2 and 3, as report entries.
    The subset searches run on the layout of the declared fibers, as
    report._model lays them out; the grid ones are read off the report."""
    found = {}

    def keep(cert, fiber, kind, parameter, fixed):
        key = json.dumps([cert, fiber, kind, parameter], sort_keys=True)
        found[key] = (cert, fiber, kind, parameter, fixed)

    for n in range(2, 8):
        corr = build_subset_matrix(n)
        profiles = [p for p in partitions(n + 2) if max(p) > 1]
        for model in (MERGED, ORBIT):
            fibers = {p: subset_fiber(n, p, model) for p in profiles}
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
        keep(cert, model["special_fibers"][cert["fiber"]], "grid", 3, fixed)
    return list(found.values())


def test_check_certificate_matches_reference_on_pipeline_certificates():
    found = _pipeline_certificates()
    verdicts = Counter()
    for cert, fiber, kind, parameter, fixed in found:
        for variant in (cert, *_tampered(cert, fixed, len(fiber["classes"]))):
            verdict = check_certificate(variant, fiber, kind, parameter)
            assert verdict == reference_check_certificate(variant, fiber, kind, parameter), (
                kind, parameter, variant
            )
            verdicts[verdict] += 1
        assert check_certificate(cert, fiber, kind, parameter)
    assert {kind for _, _, kind, _, _ in found} == {"subset", "grid"}
    assert verdicts[True] > len(found) and verdicts[False] > 0


def test_check_certificate_reads_every_grid_row():
    # the pipeline's grid certificates glue rows 1 and 2 only, so a label rule
    # that gave row m the label of column 1 passed them all; gluing each pair
    # of rows puts every row, the last one included, on some chain.  A row
    # profile glues the first rows, so the other pairs are glued here by
    # their row transposition's orbits
    for m in (3, 4):
        corr, cells = build_grid_matrix(m), grid_points(m)
        for pair in itertools.combinations(range(1, m + 1), 2):
            swap = transposition(m, *pair)
            glue = point_permutation(cells, lambda cell: (swap(cell[0]), cell[1]))
            fiber = SpecialFiber(reference_orbit_classes(glue, cells), (glue,))
            act = class_action(corr, fiber)
            cert = search([act], (0, 0), corr.bidegree)
            assert {i for q in cert.chain for i, _ in fiber.classes[q]} == set(pair)
            nest, entry = entries(cert, fiber)
            assert check_certificate(nest, entry, "grid", m)
            fixed = {q: entry["classes"][q]["members"] for q in fixed_classes(act)}
            for variant in _tampered(nest, fixed, len(fiber.classes)):
                assert check_certificate(variant, entry, "grid", m) == (
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
    bidegree = comb(n, 2)
    for parts in partitions(n + 2):
        if max(parts) == 1:
            continue
        for model in (MERGED, ORBIT):
            fiber = subset_fiber(n, parts, model)
            act = full_action(build_subset_matrix(n), fiber)
            for positions in ((0,), (0, 0)):
                assert_matches_reference([act], positions, bidegree)


def test_fibers_and_actions_match_the_references():
    # every ramified profile of subset n = 2..7 under both models, and every
    # grid fiber: the same classes in the same order with the same block
    # multisets, and the diagonal and candidate block of the full action
    for n in range(2, 8):
        corr = build_subset_matrix(n)
        points = all_subsets(n + 2, n)
        for parts in partitions(n + 2):
            if max(parts) == 1:
                continue
            blocks = blocks_from_parts(parts, n + 2)
            merged, orbit = subset_fiber(n, parts, MERGED), subset_fiber(n, parts, ORBIT)
            classes, keys = reference_merged_fiber(n, blocks)
            assert merged.classes == classes
            written = [cls["block_multiset"] for cls in fiber_to_dict(merged, blocks)["classes"]]
            assert written == list(map(list, keys))
            cycles = tuple(b for b in blocks if len(b) > 1)
            sigma = induced_subset_action(Permutation.from_cycles(n + 2, cycles), n)
            assert sigma == induced_subset_action(partition_monodromy(parts, n + 2), n)
            assert orbit.classes == reference_orbit_classes(sigma, points)
            assert orbit.generators == (sigma,)
            for fiber in (merged, orbit):
                full_action(corr, fiber)
    corr, cells = build_grid_matrix(3), grid_points(3)
    rows = grid_row_monodromy(3, GRID_ROWS)
    assert grid_row_merge_fiber(3, GRID_ROWS).classes == reference_orbit_classes(rows, cells)
    full_action(corr, grid_row_merge_fiber(3, GRID_ROWS))
    for shift in range(3):
        pairing = grid_pairing_monodromy(3, shift)
        fiber = grid_pairing_fiber(3, shift)
        assert fiber.classes == reference_orbit_classes(pairing, cells)
        assert fiber.generators == (pairing,)
        full_action(corr, fiber)


def test_clique_search_matches_reference_on_grid_layout():
    # the grid layout is the same under both models: one shared object
    corr = build_grid_matrix(3)
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
    fiber = subset_fiber(n, default_subset_fibers(n)[0], ORBIT)
    return [class_action(build_subset_matrix(n), fiber)], (0, 0)


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
