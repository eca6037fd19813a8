import itertools
import json
import re
from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prymtyurin import correspondence, fixed_points
from prymtyurin.correspondence import build_grid_matrix, build_subset_matrix
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
    FiberClass,
    SpecialFiber,
    blocks_from_parts,
    grid_pairing_fiber,
    grid_row_merge_fiber,
    merged_fiber,
    orbit_fiber,
    subset_fiber,
)
from prymtyurin.report import assemble, fiber_layout, fiber_to_dict, nesting_to_dict
from prymtyurin.scenario import default_subset_fibers, grid_scenario

THREE_BLOCKS = ((1, 2), (3, 4), (5,))
PAIR_BLOCKS_6 = ((1, 2), (3, 4), (5, 6))
GRID_ROWS = ((1, 2), (3,))


def fixed_classes(action):
    """The fixed classes of one class action, each with its multiplicity,
    as the scan reads them."""
    return {q: mult for _, q, mult in fixed_point_scan([action], (0,))}


def search(fibers, actions, positions, bidegree):
    """nesting_search over a layout, at the fixed-point count of its scan."""
    delta = sum(mult for _, _, mult in fixed_point_scan(actions, positions))
    return nesting_search(fibers, actions, positions, delta, bidegree)


def entries(cert, fiber):
    """A certificate and its fiber as a report writes them."""
    return nesting_to_dict(cert), fiber_to_dict(fiber)


def test_class_action_merged_n3():
    fiber = subset_fiber(3, THREE_BLOCKS, MERGED)
    act = class_action(build_subset_matrix(3), fiber)
    # classes in order of first member: {123,124}, {125}, {134,234},
    # {135,145,235,245}, {345}
    assert [c.members[0] for c in fiber.classes] == [
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 3, 5), (3, 4, 5),
    ]
    assert tuple(fixed_classes(act)) == (3,)
    # frozen: the image of the big class is itself + {123,124} + {134,234}
    assert act[3] == (1, 0, 1, 1, 0)
    assert all(sum(row) == 3 for row in act)


def test_class_action_merged_n4_pattern():
    act = class_action(build_subset_matrix(4), subset_fiber(4, PAIR_BLOCKS_6, MERGED))
    assert tuple(fixed_classes(act)) == (1, 3, 4)
    # frozen from brute force: self multiplicity 1, cross multiplicities 2
    assert act[1] == (0, 1, 0, 2, 2, 1)
    assert act[3] == (0, 2, 1, 1, 2, 0)
    assert act[4] == (1, 2, 0, 2, 1, 0)


def test_class_action_orbit_models():
    act2 = class_action(build_subset_matrix(2), subset_fiber(2, ((1, 2), (3, 4)), ORBIT))
    assert len(fixed_classes(act2)) == 2
    act3 = class_action(build_subset_matrix(3), subset_fiber(3, THREE_BLOCKS, ORBIT))
    assert len(fixed_classes(act3)) == 2
    act4 = class_action(build_subset_matrix(4), subset_fiber(4, PAIR_BLOCKS_6, ORBIT))
    assert len(fixed_classes(act4)) == 6
    for act in (act2, act3, act4):
        assert set(fixed_classes(act).values()) == {1}


def test_class_action_grid_fibers():
    branch = class_action(build_grid_matrix(3), grid_row_merge_fiber(3, GRID_ROWS))
    assert tuple(fixed_classes(branch)) == (0, 1, 2)
    assert branch[0] == (1, 1, 1, 1, 0, 0)
    assert branch[1] == (1, 1, 1, 0, 1, 0)
    assert branch[2] == (1, 1, 1, 0, 0, 1)
    for shift in (0, 1, 2):
        pairing = class_action(build_grid_matrix(3), grid_pairing_fiber(3, shift))
        assert fixed_classes(pairing) == {}
        assert all(sum(row) == 4 for row in pairing)


def test_class_action_rejects_representative_dependence():
    corr = build_grid_matrix(2)
    bad = SpecialFiber(
        classes=(
            FiberClass(members=((1, 1), (1, 2))),
            FiberClass(members=((2, 1),)),
            FiberClass(members=((2, 2),)),
        ),
    )
    with pytest.raises(ValueError, match="depends on the representative"):
        class_action(corr, bad)


def test_class_action_rejects_off_grid_member():
    # (0, 4) has the row-major rank of (1, 1) but is not a cell of the grid
    fiber = grid_row_merge_fiber(3, GRID_ROWS)
    classes = tuple(
        FiberClass(members=tuple(sorted((0, 4) if m == (1, 1) else m for m in c.members)))
        for c in fiber.classes
    )
    with pytest.raises(ValueError, match=r"member \(0, 4\) is not a point"):
        class_action(build_grid_matrix(3), SpecialFiber(classes=classes))


def test_class_action_rejects_partial_cover():
    corr = build_subset_matrix(2)
    partial = SpecialFiber(classes=(FiberClass(members=((1, 2),)),))
    with pytest.raises(ValueError, match="cover"):
        class_action(corr, partial)


def test_class_action_rejects_a_member_in_two_classes():
    fiber = merged_fiber(2, ((1, 2), (3, 4)))
    twice = SpecialFiber(classes=fiber.classes + (FiberClass(members=((1, 2),)),))
    with pytest.raises(ValueError, match=r"member \(1, 2\) appears in two classes"):
        class_action(build_subset_matrix(2), twice)


def test_fixed_point_scan_and_delta():
    act = class_action(build_subset_matrix(3), subset_fiber(3, THREE_BLOCKS, MERGED))
    fixed = fixed_point_scan([act], (0, 0))
    assert fixed == [(0, 3, 1), (1, 3, 1)]
    assert sum(mult for _, _, mult in fixed) == 2
    # positions name the layout slot; a fixed-point-free fiber adds nothing
    branch = class_action(build_grid_matrix(3), grid_row_merge_fiber(3, GRID_ROWS))
    pairing = class_action(build_grid_matrix(3), grid_pairing_fiber(3, 0))
    fixed = fixed_point_scan([branch, pairing], (1, 0, 1, 1, 0))
    assert fixed == [(1, q, 1) for q in range(3)] + [(4, q, 1) for q in range(3)]


def test_nesting_chain_length_one():
    fiber = subset_fiber(3, THREE_BLOCKS, MERGED)
    act = class_action(build_subset_matrix(3), fiber)
    cert = search([fiber], [act], (0, 0), bidegree=3)
    assert isinstance(cert, NestingCertificate)
    assert cert.fiber_index == 0
    assert cert.chain == (3,)
    assert cert.memberships == ((1,),)


def test_nesting_chain_n4():
    fiber = subset_fiber(4, PAIR_BLOCKS_6, MERGED)
    act = class_action(build_subset_matrix(4), fiber)
    assert sum(mult for _, _, mult in fixed_point_scan([act], (0, 0))) == 6
    cert = search([fiber], [act], (0, 0), bidegree=6)
    assert isinstance(cert, NestingCertificate)
    assert cert.chain == (1, 3, 4)
    assert cert.memberships == ((1,), (2, 1), (2, 2, 1))


def test_nesting_chain_grid():
    fibers = [grid_row_merge_fiber(3, GRID_ROWS), grid_pairing_fiber(3, 0)]
    actions = [class_action(build_grid_matrix(3), f) for f in fibers]
    assert sum(mult for _, _, mult in fixed_point_scan(actions, (0, 1, 0))) == 6
    cert = search(fibers, actions, (0, 1, 0), bidegree=4)
    assert isinstance(cert, NestingCertificate)
    assert cert.fiber_index == 0
    assert cert.chain == (0, 1, 2)
    assert cert.chain_members[0] == ((1, 1), (2, 1))
    assert cert.memberships == ((1,), (1, 1), (1, 1, 1))
    # a certificate names the layout position of its fiber
    assert search(fibers, actions, (1, 1, 0, 0), bidegree=4).fiber_index == 2


def test_nesting_failure_odd_count():
    fiber = subset_fiber(3, THREE_BLOCKS, MERGED)
    act = class_action(build_subset_matrix(3), fiber)
    assert sum(mult for _, _, mult in fixed_point_scan([act], (0,))) == 1
    failure = search([fiber], [act], (0,), bidegree=3)
    assert isinstance(failure, NestingFailure)
    assert "odd" in failure.reason


def test_nesting_failure_exceeds_bidegree():
    fiber = subset_fiber(2, ((1, 2), (3, 4)), ORBIT)
    act = class_action(build_subset_matrix(2), fiber)
    assert sum(mult for _, _, mult in fixed_point_scan([act], (0, 0))) == 4
    failure = search([fiber], [act], (0, 0), bidegree=1)
    assert isinstance(failure, NestingFailure)
    assert "exceeds the bidegree" in failure.reason


def test_nesting_failure_no_ordering():
    # orbit model at n=3: two fixed orbits per fiber, but neither contains
    # the other in its image, so no chain of length 2 exists anywhere
    fiber = subset_fiber(3, THREE_BLOCKS, ORBIT)
    act = class_action(build_subset_matrix(3), fiber)
    assert sum(mult for _, _, mult in fixed_point_scan([act], (0, 0))) == 4
    failure = search([fiber], [act], (0, 0), bidegree=3)
    assert isinstance(failure, NestingFailure)
    assert failure.fibers_searched == 2
    assert failure.orderings_tried > 0


def test_empty_chain_certificate():
    fiber = grid_pairing_fiber(3, 1)
    pairing = class_action(build_grid_matrix(3), fiber)
    cert = search([fiber], [pairing], (0,), bidegree=4)
    assert isinstance(cert, NestingCertificate)
    assert cert.chain == ()
    assert check_certificate(*entries(cert, fiber), "grid", 3)


def _genuine_n4_certificate():
    fiber = merged_fiber(4, PAIR_BLOCKS_6)
    act = class_action(build_subset_matrix(4), fiber)
    cert = search([fiber], [act], (0, 0), bidegree=6)
    assert isinstance(cert, NestingCertificate)
    return entries(cert, fiber)


def _genuine_grid_certificate():
    fiber = grid_row_merge_fiber(3, GRID_ROWS)
    act = class_action(build_grid_matrix(3), fiber)
    cert = search([fiber], [act], (0, 0), bidegree=4)
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
    merged = merged_fiber(2, ((1, 2), (3, 4)))
    mact = class_action(build_subset_matrix(2), merged)
    mcert = search([merged], [mact], (0, 0), bidegree=1)
    assert isinstance(mcert, NestingCertificate)
    assert mcert.chain == (1,)
    nest, entry = entries(mcert, merged)
    assert check_certificate(nest, entry, "subset", 2)
    # against the orbit fiber the same class index holds different members
    orbit = fiber_to_dict(orbit_fiber(2, ((1, 2), (3, 4))))
    assert not check_certificate(nest, orbit, "subset", 2)


def test_check_certificate_requires_classes_to_partition_the_points():
    fiber = merged_fiber(4, PAIR_BLOCKS_6)
    cert, entry = _genuine_n4_certificate()
    assert cert["chain"] == [1, 3, 4]
    assert check_certificate(cert, entry, "subset", 4)
    not_a_point = fiber.classes + (FiberClass(members=((1, 1, 2, 9),)),)
    repeated = fiber.classes + (FiberClass(members=(fiber.classes[0].members[0],)),)
    dropped = fiber.classes[:5]  # class 5 is not on the chain
    for classes in (not_a_point, repeated, dropped):
        entry = fiber_to_dict(SpecialFiber(classes=classes))
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
    one_class = merged_fiber(3, blocks_from_parts((5,), 5))
    four_cycle = orbit_fiber(2, blocks_from_parts((4,), 4))
    for fiber, n, chain, rows in (
        (one_class, 3, (0,), ((3,),)),
        (four_cycle, 2, (0, 1), ((1,), (0, 1))),
    ):
        act = class_action(build_subset_matrix(n), fiber)
        assert rows == tuple(
            tuple(act[qi][qj] for qj in chain[: i + 1]) for i, qi in enumerate(chain)
        )
        members = tuple(fiber.classes[q].members for q in chain)
        cert = NestingCertificate(
            fiber_index=0, chain=chain, chain_members=members, memberships=rows
        )
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
        profiles = [p for p in _partitions(n + 2) if max(p) > 1]
        for model in (MERGED, ORBIT):
            fibers = {p: subset_fiber(n, blocks_from_parts(p, n + 2), model) for p in profiles}
            acts = {p: class_action(corr, fibers[p]) for p in profiles}
            for combo in [(p,) for p in profiles] + list(
                itertools.combinations_with_replacement(profiles, 2)
            ):
                distinct = list(dict.fromkeys(combo))
                positions = tuple(map(distinct.index, combo))
                cert = search(
                    [fibers[p] for p in distinct], [acts[p] for p in distinct], positions,
                    corr.bidegree,
                )
                if isinstance(cert, NestingCertificate) and cert.chain:
                    fiber = fibers[combo[cert.fiber_index]]
                    fixed = {q: [list(m) for m in fiber.classes[q].members]
                             for q in fixed_classes(acts[combo[cert.fiber_index]])}
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
    # of rows puts every row, the last one included, on some chain
    for m in (3, 4):
        corr = build_grid_matrix(m)
        for pair in itertools.combinations(range(1, m + 1), 2):
            blocks = (pair, *((r,) for r in range(1, m + 1) if r not in pair))
            fiber = grid_row_merge_fiber(m, blocks)
            act = class_action(corr, fiber)
            cert = search([fiber], [act], (0, 0), corr.bidegree)
            assert {i for members in cert.chain_members for i, _ in members} == set(pair)
            nest, entry = entries(cert, fiber)
            assert check_certificate(nest, entry, "grid", m)
            fixed = {q: entry["classes"][q]["members"] for q in fixed_classes(act)}
            for variant in _tampered(nest, fixed, len(fiber.classes)):
                assert check_certificate(variant, entry, "grid", m) == (
                    reference_check_certificate(variant, entry, "grid", m)
                )


# --- the clique search against the backtracking search over orderings -------


def reference_nesting_search(fibers, actions, positions, delta_dot_d, bidegree):
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
        return NestingCertificate(fiber_index=-1, chain=(), chain_members=(), memberships=())

    tried = 0
    searched = 0
    for fi, distinct in enumerate(positions):
        fiber, act = fibers[distinct], actions[distinct]
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
            memberships = tuple(
                tuple(act[qi][qj] for qj in chain[: i + 1])
                for i, qi in enumerate(chain)
            )
            return NestingCertificate(
                fiber_index=fi,
                chain=tuple(chain),
                chain_members=tuple(fiber.classes[q].members for q in chain),
                memberships=memberships,
            )
    return NestingFailure(
        reason=f"no ordering of {n} fixed points nests on any special fiber",
        fibers_searched=searched,
        orderings_tried=tried,
    )


def assert_matches_reference(fibers, actions, positions, bidegree):
    delta = sum(mult for _, _, mult in fixed_point_scan(actions, positions))
    assert nesting_search(fibers, actions, positions, delta, bidegree) == (
        reference_nesting_search(fibers, actions, positions, delta, bidegree)
    )


def _partitions(total, largest=None):
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


@pytest.mark.parametrize("n", range(2, 8))
def test_clique_search_matches_reference_on_subset_fibers(n):
    bidegree = comb(n, 2)
    for parts in _partitions(n + 2):
        if max(parts) == 1:
            continue
        blocks = blocks_from_parts(parts, n + 2)
        for model in (MERGED, ORBIT):
            fiber = subset_fiber(n, blocks, model)
            act = class_action(build_subset_matrix(n), fiber)
            for positions in ((0,), (0, 0)):
                assert_matches_reference([fiber], [act], positions, bidegree)


def test_clique_search_matches_reference_on_grid_layout():
    # the grid layout is the same under both models
    corr = build_grid_matrix(3)
    distinct, positions, _ = fiber_layout(grid_scenario(3), MERGED)
    assert len(positions) == 10
    actions = [class_action(corr, f) for f in distinct]
    for chosen in (positions, positions[:1], positions[2:]):
        for bidegree in (corr.bidegree, 1):
            assert_matches_reference(distinct, actions, chosen, bidegree)


def _one_point_classes(size):
    return SpecialFiber(classes=tuple(FiberClass(members=((k + 1,),)) for k in range(size)))


@st.composite
def symmetric_class_actions(draw):
    """A fiber of at most 8 classes and a class action on it whose relation
    "q lies in D(p)" is symmetric, with arbitrary positive multiplicities."""
    size = draw(st.integers(1, 8))
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = draw(st.sampled_from((0, 1, 1, 1, 2)))
        for j in range(i + 1, size):
            if draw(st.booleans()):
                rows[i][j] = draw(st.integers(1, 3))
                rows[j][i] = draw(st.integers(1, 3))
    return _one_point_classes(size), tuple(tuple(r) for r in rows)


@settings(max_examples=200, deadline=None)
@given(
    layout=st.lists(symmetric_class_actions(), min_size=1, max_size=3),
    bidegree=st.integers(0, 8),
)
def test_clique_search_matches_reference_on_random_actions(layout, bidegree):
    fibers, actions = zip(*layout)
    assert_matches_reference(fibers, actions, range(len(layout)), bidegree)


def _default_monodromy_layout(n):
    fiber = subset_fiber(n, blocks_from_parts(default_subset_fibers(n)[0], n + 2), ORBIT)
    return [fiber], [class_action(build_subset_matrix(n), fiber)], (0, 0)


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
    cert = search([_one_point_classes(size)], [action], (0,), size - 1)
    assert isinstance(cert, NestingCertificate)
    assert cert.chain == tuple(range(30))
    assert all(m == 1 for row in cert.memberships for m in row)


def test_nesting_search_has_no_recursion_limit():
    # 1,100 fixed classes of self multiplicity 1 and no edges: splitting off
    # the lowest candidate 1,100 times in a row nests that deep
    size = 1_100
    action = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    failure = search([_one_point_classes(size)], [action], (0,), size)
    assert isinstance(failure, NestingFailure)
    assert failure.fibers_searched == 1
    # the empty clique and the 1,100 single classes
    assert failure.orderings_tried == size + size * (size - 1)


@st.composite
def large_symmetric_class_actions(draw):
    """A fiber of 9 to 16 classes and a symmetric class action on it with an
    even fixed-point count, often denser than symmetric_class_actions so
    that some fibers hold long chains."""
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
    return _one_point_classes(size), tuple(tuple(r) for r in rows)


def combination_nesting_search(fibers, actions, positions, n):
    """The search result by itertools.combinations: the first fiber with an
    n-clique gives its lexicographically first one, and a failure sums
    k! * (c - k) over every k-clique with k < n of every searched fiber."""
    tried = 0
    searched = 0
    for fi, distinct in enumerate(positions):
        fiber, act = fibers[distinct], actions[distinct]
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
                fiber_index=fi,
                chain=chain,
                chain_members=tuple(fiber.classes[q].members for q in chain),
                memberships=tuple(
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
    fibers, actions = zip(*layout)
    positions = range(len(layout))
    delta = sum(mult for _, _, mult in fixed_point_scan(actions, positions))
    n = delta // 2
    assume(n)
    assert nesting_search(fibers, actions, positions, delta, n) == (
        combination_nesting_search(fibers, actions, positions, n)
    )


def test_nesting_search_rejects_asymmetric_action():
    action = ((1, 1), (0, 1))
    with pytest.raises(ValueError, match="not symmetric"):
        search([_one_point_classes(2)], [action], (0, 0), bidegree=2)
    # the one-sided entry below the diagonal: both entries are named
    action = ((1, 1, 0), (1, 1, 1), (1, 1, 1))
    with pytest.raises(ValueError, match=re.escape("action[0][2] = 0, action[2][0] = 1")):
        search([_one_point_classes(3)], [action], (0, 0), bidegree=3)
