import dataclasses
import itertools
import re
from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prymtyurin import correspondence, fixed_points
from prymtyurin.correspondence import build_grid_matrix, build_subset_matrix
from prymtyurin.fixed_points import (
    ClassAction,
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
from prymtyurin.report import assemble, fiber_layout
from prymtyurin.scenario import default_subset_fibers, grid_scenario
from report_objects import fiber_of, nesting_of

THREE_BLOCKS = ((1, 2), (3, 4), (5,))
PAIR_BLOCKS_6 = ((1, 2), (3, 4), (5, 6))


def test_class_action_merged_n3():
    act = class_action(build_subset_matrix(3), subset_fiber(3, THREE_BLOCKS, MERGED))
    # classes in order of first member: {123,124}, {125}, {134,234},
    # {135,145,235,245}, {345}
    assert [c.members[0] for c in act.fiber.classes] == [
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 3, 5), (3, 4, 5),
    ]
    assert act.fixed_class_indices == (3,)
    # frozen: the image of the big class is itself + {123,124} + {134,234}
    assert act.action[3] == (1, 0, 1, 1, 0)
    assert all(sum(row) == 3 for row in act.action)


def test_class_action_merged_n4_pattern():
    act = class_action(build_subset_matrix(4), subset_fiber(4, PAIR_BLOCKS_6, MERGED))
    assert act.fixed_class_indices == (1, 3, 4)
    # frozen from brute force: self multiplicity 1, cross multiplicities 2
    assert act.action[1] == (0, 1, 0, 2, 2, 1)
    assert act.action[3] == (0, 2, 1, 1, 2, 0)
    assert act.action[4] == (1, 2, 0, 2, 1, 0)


def test_class_action_orbit_models():
    act2 = class_action(build_subset_matrix(2), subset_fiber(2, ((1, 2), (3, 4)), ORBIT))
    assert len(act2.fixed_class_indices) == 2
    act3 = class_action(build_subset_matrix(3), subset_fiber(3, THREE_BLOCKS, ORBIT))
    assert len(act3.fixed_class_indices) == 2
    act4 = class_action(build_subset_matrix(4), subset_fiber(4, PAIR_BLOCKS_6, ORBIT))
    assert len(act4.fixed_class_indices) == 6
    for act in (act2, act3, act4):
        assert all(act.self_multiplicity(q) == 1 for q in act.fixed_class_indices)


def test_class_action_grid_fibers():
    branch = class_action(build_grid_matrix(3), grid_row_merge_fiber(3, ((1, 2), (3,))))
    assert branch.fixed_class_indices == (0, 1, 2)
    assert branch.action[0] == (1, 1, 1, 1, 0, 0)
    assert branch.action[1] == (1, 1, 1, 0, 1, 0)
    assert branch.action[2] == (1, 1, 1, 0, 0, 1)
    for shift in (0, 1, 2):
        pairing = class_action(build_grid_matrix(3), grid_pairing_fiber(3, shift))
        assert pairing.fixed_class_indices == ()
        assert all(sum(row) == 4 for row in pairing.action)


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
    fiber = grid_row_merge_fiber(3, ((1, 2), (3,)))
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
    fibers = [act, act]
    report = fixed_point_scan(fibers)
    assert report.delta_dot_d == 2
    assert report.is_even and report.half == 1
    assert [f.fiber_index for f in report.fixed] == [0, 1]


def test_nesting_chain_length_one():
    act = class_action(build_subset_matrix(3), subset_fiber(3, THREE_BLOCKS, MERGED))
    fibers = [act, act]
    report = fixed_point_scan(fibers)
    cert = nesting_search(report, bidegree=3)
    assert isinstance(cert, NestingCertificate)
    assert cert.fiber_index == 0
    assert cert.chain == (3,)
    assert cert.memberships == ((1,),)


def test_nesting_chain_n4():
    act = class_action(build_subset_matrix(4), subset_fiber(4, PAIR_BLOCKS_6, MERGED))
    fibers = [act, act]
    report = fixed_point_scan(fibers)
    assert report.delta_dot_d == 6
    cert = nesting_search(report, bidegree=6)
    assert isinstance(cert, NestingCertificate)
    assert cert.chain == (1, 3, 4)
    assert cert.memberships == ((1,), (2, 1), (2, 2, 1))


def test_nesting_chain_grid():
    branch = class_action(build_grid_matrix(3), grid_row_merge_fiber(3, ((1, 2), (3,))))
    pairing = class_action(build_grid_matrix(3), grid_pairing_fiber(3, 0))
    report = fixed_point_scan([branch, pairing, branch])
    assert report.delta_dot_d == 6
    cert = nesting_search(report, bidegree=4)
    assert isinstance(cert, NestingCertificate)
    assert cert.fiber_index == 0
    assert cert.chain == (0, 1, 2)
    assert cert.chain_members[0] == ((1, 1), (2, 1))
    assert cert.memberships == ((1,), (1, 1), (1, 1, 1))


def test_nesting_failure_odd_count():
    act = class_action(build_subset_matrix(3), subset_fiber(3, THREE_BLOCKS, MERGED))
    fibers = [act]
    report = fixed_point_scan(fibers)
    assert report.delta_dot_d == 1
    failure = nesting_search(report, bidegree=3)
    assert isinstance(failure, NestingFailure)
    assert "odd" in failure.reason


def test_nesting_failure_exceeds_bidegree():
    act = class_action(build_subset_matrix(2), subset_fiber(2, ((1, 2), (3, 4)), ORBIT))
    fibers = [act, act]
    report = fixed_point_scan(fibers)
    assert report.delta_dot_d == 4
    failure = nesting_search(report, bidegree=1)
    assert isinstance(failure, NestingFailure)
    assert "exceeds the bidegree" in failure.reason


def test_nesting_failure_no_ordering():
    # orbit model at n=3: two fixed orbits per fiber, but neither contains
    # the other in its image, so no chain of length 2 exists anywhere
    act = class_action(build_subset_matrix(3), subset_fiber(3, THREE_BLOCKS, ORBIT))
    fibers = [act, act]
    report = fixed_point_scan(fibers)
    assert report.delta_dot_d == 4
    failure = nesting_search(report, bidegree=3)
    assert isinstance(failure, NestingFailure)
    assert failure.fibers_searched == 2
    assert failure.orderings_tried > 0


def test_empty_chain_certificate():
    pairing = class_action(build_grid_matrix(3), grid_pairing_fiber(3, 1))
    report = fixed_point_scan([pairing])
    cert = nesting_search(report, bidegree=4)
    assert isinstance(cert, NestingCertificate)
    assert cert.length == 0
    assert check_certificate(cert, pairing.fiber, "grid", 3)


def test_check_certificate_accepts_genuine():
    fiber = merged_fiber(4, PAIR_BLOCKS_6)
    act = class_action(build_subset_matrix(4), subset_fiber(4, PAIR_BLOCKS_6, MERGED))
    cert = nesting_search(fixed_point_scan([act, act]), bidegree=6)
    assert isinstance(cert, NestingCertificate)
    assert check_certificate(cert, fiber, "subset", 4)
    gfiber = grid_row_merge_fiber(3, ((1, 2), (3,)))
    gact = class_action(build_grid_matrix(3), grid_row_merge_fiber(3, ((1, 2), (3,))))
    gcert = nesting_search(fixed_point_scan([gact, gact]), bidegree=4)
    assert isinstance(gcert, NestingCertificate)
    assert check_certificate(gcert, gfiber, "grid", 3)


def test_check_certificate_rejects_tampering():
    fiber = merged_fiber(4, PAIR_BLOCKS_6)
    act = class_action(build_subset_matrix(4), subset_fiber(4, PAIR_BLOCKS_6, MERGED))
    cert = nesting_search(fixed_point_scan([act, act]), bidegree=6)
    assert isinstance(cert, NestingCertificate)

    wrong_mult = dataclasses.replace(cert, memberships=((1,), (1, 1), (2, 2, 1)))
    assert not check_certificate(wrong_mult, fiber, "subset", 4)

    wrong_chain = dataclasses.replace(cert, chain=(1, 1, 4))
    assert not check_certificate(wrong_chain, fiber, "subset", 4)

    wrong_members = dataclasses.replace(
        cert, chain_members=(cert.chain_members[1],) + cert.chain_members[1:]
    )
    assert not check_certificate(wrong_members, fiber, "subset", 4)

    # reordering the chain so a later point misses an earlier one must fail:
    # the singleton class {1,2,3,4} is not fixed at all
    bogus = dataclasses.replace(cert, chain=(0, 3, 4))
    assert not check_certificate(bogus, fiber, "subset", 4)

    # class 1 named twice, once by its negative alias, as a chain of length 2
    aliased = dataclasses.replace(
        cert,
        chain=(1, 1 - len(fiber.classes)),
        chain_members=cert.chain_members[:1] * 2,
        memberships=((1,), (1, 1)),
    )
    assert not check_certificate(aliased, fiber, "subset", 4)


def test_check_certificate_rejects_cert_against_wrong_fiber():
    merged = merged_fiber(2, ((1, 2), (3, 4)))
    mact = class_action(build_subset_matrix(2), subset_fiber(2, ((1, 2), (3, 4)), MERGED))
    mcert = nesting_search(fixed_point_scan([mact, mact]), bidegree=1)
    assert isinstance(mcert, NestingCertificate)
    assert mcert.chain == (1,)
    assert check_certificate(mcert, merged, "subset", 2)
    # against the orbit fiber the same class index holds different members
    orbit = orbit_fiber(2, ((1, 2), (3, 4)))
    assert not check_certificate(mcert, orbit, "subset", 2)


def _genuine_n4_certificate():
    act = class_action(build_subset_matrix(4), subset_fiber(4, PAIR_BLOCKS_6, MERGED))
    cert = nesting_search(fixed_point_scan([act, act]), bidegree=6)
    assert isinstance(cert, NestingCertificate)
    return cert


def test_check_certificate_requires_classes_to_partition_the_points():
    fiber = merged_fiber(4, PAIR_BLOCKS_6)
    cert = _genuine_n4_certificate()
    assert cert.chain == (1, 3, 4)
    assert check_certificate(cert, fiber, "subset", 4)
    not_a_point = fiber.classes + (FiberClass(members=((1, 1, 2, 9),)),)
    repeated = fiber.classes + (FiberClass(members=(fiber.classes[0].members[0],)),)
    dropped = fiber.classes[:5]  # class 5 is not on the chain
    for classes in (not_a_point, repeated, dropped):
        assert not check_certificate(cert, SpecialFiber(classes=classes), "subset", 4)


def test_check_certificate_is_independent_of_the_pipeline(monkeypatch):
    fiber = merged_fiber(4, PAIR_BLOCKS_6)
    cert = _genuine_n4_certificate()
    gfiber = grid_row_merge_fiber(3, ((1, 2), (3,)))
    gact = class_action(build_grid_matrix(3), gfiber)
    gcert = nesting_search(fixed_point_scan([gact, gact]), bidegree=4)

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
    tampered = dataclasses.replace(cert, memberships=((1,), (2, 1), (2, 1, 1)))
    assert not check_certificate(tampered, fiber, "subset", 4)
    gtampered = dataclasses.replace(gcert, memberships=((1,), (2, 1), (1, 1, 1)))
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
            tuple(act.action[qi][qj] for qj in chain[: i + 1]) for i, qi in enumerate(chain)
        )
        members = tuple(fiber.classes[q].members for q in chain)
        cert = NestingCertificate(
            fiber_index=0, chain=chain, chain_members=members, memberships=rows
        )
        assert not check_certificate(cert, fiber, "subset", n)
        assert not reference_check_certificate(cert, fiber, "subset", n)


def test_check_certificate_refuses_a_misshapen_certificate():
    # membership rows or chain members that do not fit the chain are refused,
    # never read past their end
    grid = assemble(grid_scenario(3))["models"][MERGED]
    gcert = nesting_of(grid)
    gfiber = fiber_of(grid, gcert.fiber_index)
    for cert, fiber, kind, parameter in (
        (_genuine_n4_certificate(), merged_fiber(4, PAIR_BLOCKS_6), "subset", 4),
        (gcert, gfiber, "grid", 3),
    ):
        assert cert.length == 3 and check_certificate(cert, fiber, kind, parameter)
        rows, members = cert.memberships, cert.chain_members
        variants = [
            dataclasses.replace(cert, memberships=rows[:-1]),
            dataclasses.replace(cert, memberships=rows + rows[-1:]),
            dataclasses.replace(cert, chain_members=members[:-1]),
            dataclasses.replace(cert, chain_members=members + members[-1:]),
        ]
        for i, row in enumerate(rows):
            cut = rows[:i] + (row[:-1],) + rows[i + 1:]
            variants.append(dataclasses.replace(cert, memberships=cut))
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
    if cert.length == 0:
        return True
    if len(set(cert.chain)) != cert.length:
        return False
    which = {}
    for ci, cls in enumerate(fiber.classes):
        for member in cls.members:
            which[member] = ci

    def image_of(member):
        if kind == "subset":
            return _subset_image(member, parameter, parameter + 2)
        if kind == "grid":
            return _grid_image(member, parameter)
        raise ValueError(f"unknown correspondence kind {kind!r}")

    for i, qi in enumerate(cert.chain):
        if cert.chain_members[i] != fiber.classes[qi].members:
            return False
        expected = dict(zip(cert.chain[: i + 1], cert.memberships[i]))
        for member in fiber.classes[qi].members:
            counts = Counter()
            for img in image_of(member):
                if img not in which:
                    return False  # image escapes the declared classes
                counts[which[img]] += 1
            for qj, mult in expected.items():
                if counts.get(qj, 0) != mult:
                    return False
        if cert.memberships[i][i] != 1:
            return False
        if any(m < 1 for m in cert.memberships[i]):
            return False
    return True


def _tampered(cert, fixed, classes):
    """Every membership entry moved by one, the chain reversed with its
    members, its last class named by its negative alias, and each chain
    class swapped, with its members, for each other fixed class of the fiber
    (given as index -> members)."""
    for i, row in enumerate(cert.memberships):
        for j in range(len(row)):
            for step in (-1, 1):
                moved = row[:j] + (row[j] + step,) + row[j + 1:]
                rows = cert.memberships[:i] + (moved,) + cert.memberships[i + 1:]
                yield dataclasses.replace(cert, memberships=rows)
    yield dataclasses.replace(
        cert, chain=cert.chain[::-1], chain_members=cert.chain_members[::-1]
    )
    yield dataclasses.replace(cert, chain=cert.chain[:-1] + (cert.chain[-1] - classes,))
    for i in range(cert.length):
        for q, members in fixed.items():
            if q not in cert.chain:
                yield dataclasses.replace(
                    cert,
                    chain=cert.chain[:i] + (q,) + cert.chain[i + 1:],
                    chain_members=cert.chain_members[:i] + (members,) + cert.chain_members[i + 1:],
                )


def _pipeline_certificates():
    """Each distinct (certificate, fiber, kind, parameter) the pipeline builds
    for the 1- and 2-fiber profile combinations of subset n = 2..7 under both
    models, and for grid g = 2 and 3.  The subset scans run on the class
    actions of the declared fibers, as report._model scans them."""
    found = {}
    for n in range(2, 8):
        corr = build_subset_matrix(n)
        profiles = [p for p in _partitions(n + 2) if max(p) > 1]
        for model in (MERGED, ORBIT):
            acts = {
                p: class_action(corr, subset_fiber(n, blocks_from_parts(p, n + 2), model))
                for p in profiles
            }
            for combo in [(p,) for p in profiles] + list(
                itertools.combinations_with_replacement(profiles, 2)
            ):
                actions = [acts[p] for p in combo]
                cert = nesting_search(fixed_point_scan(actions), corr.bidegree)
                if isinstance(cert, NestingCertificate) and cert.length:
                    act = actions[cert.fiber_index]
                    found[(cert, act.fiber, "subset", n)] = act
    for g in (2, 3):
        model = assemble(grid_scenario(g))["models"][MERGED]
        cert = nesting_of(model)
        assert isinstance(cert, NestingCertificate) and cert.length
        fiber = fiber_of(model, cert.fiber_index)
        found[(cert, fiber, "grid", 3)] = class_action(build_grid_matrix(3), fiber)
    return found


def test_check_certificate_matches_reference_on_pipeline_certificates():
    found = _pipeline_certificates()
    verdicts = Counter()
    for (cert, fiber, kind, parameter), act in found.items():
        fixed = {q: fiber.classes[q].members for q in act.fixed_class_indices}
        for variant in (cert, *_tampered(cert, fixed, len(fiber.classes))):
            verdict = check_certificate(variant, fiber, kind, parameter)
            assert verdict == reference_check_certificate(variant, fiber, kind, parameter), (
                kind, parameter, variant
            )
            verdicts[verdict] += 1
        assert check_certificate(cert, fiber, kind, parameter)
    assert {kind for _, _, kind, _ in found} == {"subset", "grid"}
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
            cert = nesting_search(fixed_point_scan([act, act]), corr.bidegree)
            assert {i for members in cert.chain_members for i, _ in members} == set(pair)
            assert check_certificate(cert, fiber, "grid", m)
            fixed = {q: fiber.classes[q].members for q in act.fixed_class_indices}
            for variant in _tampered(cert, fixed, len(fiber.classes)):
                assert check_certificate(variant, fiber, "grid", m) == (
                    reference_check_certificate(variant, fiber, "grid", m)
                )


# --- the clique search against the backtracking search over orderings -------


def reference_nesting_search(report, bidegree):
    """The backtracking search over orderings that the clique search replaced,
    kept as the reference: it tries every candidate outside the partial chain
    at every node and counts each try."""
    if not report.is_even:
        return NestingFailure(
            reason=f"fixed-point count {report.delta_dot_d} is odd",
            fibers_searched=0,
            orderings_tried=0,
        )
    n = report.half
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
    for fi, act in enumerate(report.actions):
        candidates = [q for q in act.fixed_class_indices if act.self_multiplicity(q) == 1]
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
                row = act.action[q]
                if all(row[p] >= 1 for p in chain):
                    chain.append(q)
                    if extend():
                        return True
                    chain.pop()
            return False

        if extend():
            memberships = tuple(
                tuple(act.action[qi][qj] for qj in chain[: i + 1])
                for i, qi in enumerate(chain)
            )
            return NestingCertificate(
                fiber_index=fi,
                chain=tuple(chain),
                chain_members=tuple(act.fiber.classes[q].members for q in chain),
                memberships=memberships,
            )
    return NestingFailure(
        reason=f"no ordering of {n} fixed points nests on any special fiber",
        fibers_searched=searched,
        orderings_tried=tried,
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
            act = class_action(build_subset_matrix(n), subset_fiber(n, blocks, model))
            for actions in ([act], [act, act]):
                report = fixed_point_scan(actions)
                assert nesting_search(report, bidegree) == reference_nesting_search(
                    report, bidegree
                ), (parts, model, len(actions))


def test_clique_search_matches_reference_on_grid_layout():
    # the grid layout is the same under both models
    corr = build_grid_matrix(3)
    distinct, positions, _ = fiber_layout(grid_scenario(3), MERGED)
    assert len(positions) == 10
    actions = [class_action(corr, distinct[i]) for i in positions]
    for chosen in (actions, actions[:1], actions[2:]):
        report = fixed_point_scan(chosen)
        for bidegree in (corr.bidegree, 1):
            assert nesting_search(report, bidegree) == reference_nesting_search(
                report, bidegree
            )


@st.composite
def symmetric_class_actions(draw):
    """A class action on at most 8 classes whose relation "q lies in D(p)"
    is symmetric, with arbitrary positive multiplicities."""
    size = draw(st.integers(1, 8))
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = draw(st.sampled_from((0, 1, 1, 1, 2)))
        for j in range(i + 1, size):
            if draw(st.booleans()):
                rows[i][j] = draw(st.integers(1, 3))
                rows[j][i] = draw(st.integers(1, 3))
    fiber = SpecialFiber(classes=tuple(FiberClass(members=((k + 1,),)) for k in range(size)))
    return ClassAction(fiber=fiber, action=tuple(tuple(r) for r in rows))


@settings(max_examples=200, deadline=None)
@given(
    actions=st.lists(symmetric_class_actions(), min_size=1, max_size=3),
    bidegree=st.integers(0, 8),
)
def test_clique_search_matches_reference_on_random_actions(actions, bidegree):
    report = fixed_point_scan(actions)
    assert nesting_search(report, bidegree) == reference_nesting_search(report, bidegree)


def _default_monodromy_report(n):
    blocks = blocks_from_parts(default_subset_fibers(n)[0], n + 2)
    act = class_action(build_subset_matrix(n), subset_fiber(n, blocks, ORBIT))
    return fixed_point_scan([act, act])


def test_orderings_tried_closed_forms():
    # the orbit fiber of a (2,...,2) profile: 2m fixed classes, each adjacent
    # to all but its partner, so a k-clique picks k of the m pairs and one
    # class of each; the fiber has 3^m cliques and none longer than m
    for n, pairs in (
        (6, 6), (7, 6), (8, 10), (9, 10), (10, 15), (12, 21), (14, 28), (16, 36), (20, 55)
    ):
        failure = nesting_search(_default_monodromy_report(n), comb(n, 2))
        assert isinstance(failure, NestingFailure)
        assert failure.fibers_searched == 2
        per_fiber = sum(
            comb(pairs, k) * 2**k * factorial(k) * (2 * pairs - k) for k in range(pairs + 1)
        )
        assert failure.orderings_tried == 2 * per_fiber
    assert nesting_search(_default_monodromy_report(6), 15).orderings_tried == 987_648
    assert nesting_search(_default_monodromy_report(8), 28).orderings_tried == 128_655_846_080


def test_nesting_budget_leaves_search_undecided(monkeypatch):
    # counting an orbit fiber of m = 6 pairs misses the memo 2m = 12 times:
    # at the full suffix of j pairs and at that suffix with one class dropped
    report = _default_monodromy_report(6)  # 3^6 = 729 cliques per fiber
    monkeypatch.setattr(fixed_points, "NESTING_CLIQUE_BUDGET", 12)
    failure = nesting_search(report, 15)
    assert isinstance(failure, NestingFailure)
    assert failure.orderings_tried == 987_648

    # one miss fewer leaves the count of the first fiber unfinished, and the
    # budget is the search's only one: it ends undecided there
    monkeypatch.setattr(fixed_points, "NESTING_CLIQUE_BUDGET", 11)
    undecided = nesting_search(report, 15)
    assert isinstance(undecided, NestingUndecided)
    assert undecided.fibers_searched == 1
    assert undecided.memo_misses == 11
    assert "budget" in undecided.reason


def test_nesting_budget_bounds_memo_misses_not_cliques(monkeypatch):
    # 60 classes all in each other's images: 2^60 cliques, yet the split
    # tree of a complete graph is one path of 60 suffixes
    size = 60
    fiber = SpecialFiber(classes=tuple(FiberClass(members=((k + 1,),)) for k in range(size)))
    act = ClassAction(fiber=fiber, action=tuple((1,) * size for _ in range(size)))
    monkeypatch.setattr(fixed_points, "NESTING_CLIQUE_BUDGET", 100)
    cert = nesting_search(fixed_point_scan([act]), size - 1)
    assert isinstance(cert, NestingCertificate)
    assert cert.chain == tuple(range(30))
    assert all(m == 1 for row in cert.memberships for m in row)


def test_nesting_search_has_no_recursion_limit():
    # 1,100 fixed classes of self multiplicity 1 and no edges: splitting off
    # the lowest candidate 1,100 times in a row nests that deep
    size = 1_100
    fiber = SpecialFiber(classes=tuple(FiberClass(members=((k + 1,),)) for k in range(size)))
    action = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    failure = nesting_search(fixed_point_scan([ClassAction(fiber=fiber, action=action)]), size)
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
    fiber = SpecialFiber(classes=tuple(FiberClass(members=((k + 1,),)) for k in range(size)))
    return ClassAction(fiber=fiber, action=tuple(tuple(r) for r in rows))


def combination_nesting_search(report, n):
    """The search result by itertools.combinations: the first fiber with an
    n-clique gives its lexicographically first one, and a failure sums
    k! * (c - k) over every k-clique with k < n of every searched fiber."""
    tried = 0
    searched = 0
    for fi, act in enumerate(report.actions):
        candidates = [q for q in act.fixed_class_indices if act.self_multiplicity(q) == 1]
        c = len(candidates)
        if c < n:
            continue
        searched += 1

        def is_clique(qs):
            return all(act.action[q][p] >= 1 for q, p in itertools.combinations(qs, 2))

        chain = next((qs for qs in itertools.combinations(candidates, n) if is_clique(qs)), None)
        if chain is not None:
            return NestingCertificate(
                fiber_index=fi,
                chain=chain,
                chain_members=tuple(act.fiber.classes[q].members for q in chain),
                memberships=tuple(
                    tuple(act.action[qi][qj] for qj in chain[: i + 1])
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
@given(actions=st.lists(large_symmetric_class_actions(), min_size=1, max_size=2))
def test_clique_count_matches_combinations_on_large_actions(actions):
    # at most 2^16 cliques per fiber: within the budget, so always decided
    report = fixed_point_scan(actions)
    n = report.half
    assume(n)
    assert nesting_search(report, n) == combination_nesting_search(report, n)


def test_nesting_search_rejects_asymmetric_action():
    fiber = SpecialFiber(classes=tuple(FiberClass(members=((k,),)) for k in (1, 2)))
    act = ClassAction(fiber=fiber, action=((1, 1), (0, 1)))
    with pytest.raises(ValueError, match="not symmetric"):
        nesting_search(fixed_point_scan([act, act]), bidegree=2)
    # the one-sided entry below the diagonal: both entries are named
    fiber = SpecialFiber(classes=tuple(FiberClass(members=((k,),)) for k in (1, 2, 3)))
    act = ClassAction(fiber=fiber, action=((1, 1, 0), (1, 1, 1), (1, 1, 1)))
    with pytest.raises(ValueError, match=re.escape("action[0][2] = 0, action[2][0] = 1")):
        nesting_search(fixed_point_scan([act, act]), bidegree=3)
