"""Acceptance gate: five criteria, one test (and one pass/fail line) each.

Under ``pytest -v`` each criterion shows as exactly one PASSED/FAILED line.
Each test additionally prints an explicit ``CRITERION n: PASS|FAIL`` line
(visible with ``-s``, ``-rA``, or on failure).  All comparisons are exact:
integers and fractions only, no tolerances.
"""

import contextlib
import time
from fractions import Fraction
from itertools import permutations as raw_permutations
from math import comb

import pytest

from prymtyurin.correspondence import (
    build_grid_matrix,
    build_subset_matrix,
    discover_identity,
    exponent_from_identity,
    verify_identity,
)
from prymtyurin.covering import GenusValidationError, riemann_hurwitz_genus
from prymtyurin.fixed_points import check_certificate, class_action
from prymtyurin.induced_curve import MERGED, ORBIT
from prymtyurin.perms import (
    Permutation,
    all_subsets,
    induced_subset_action,
    subset_index,
)
from prymtyurin.report import UNCHECKED, assemble, fiber_to_dict, keyed_verdict
from prymtyurin.scenario import grid_scenario, subset_scenario
from references import (
    diagonal_and_block,
    merged_fiber_over,
    reference_class_action,
    reference_merged_fiber,
)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL — {description}")
        raise
    print(f"CRITERION {number}: PASS — {description}")


def ramified_sizes(fiber):
    """The sizes of a report fiber entry's classes of more than one point."""
    return tuple(sorted((c["index"] for c in fiber["classes"] if c["index"] > 1), reverse=True))


def assert_analytic_unchecked(model):
    assert model["hypotheses"]["primitivity"] == UNCHECKED
    assert model["hypotheses"]["smoothness"] == UNCHECKED


def set_partitions(n):
    """All set partitions of {1..n}, each a tuple of sorted blocks."""

    def rec(k, blocks):
        if k > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(k)
            yield from rec(k + 1, blocks)
            b.pop()
        blocks.append([k])
        yield from rec(k + 1, blocks)
        blocks.pop()

    yield from rec(1, [])


BELL = {4: 15, 5: 52, 6: 203, 7: 877}


def test_criterion_1_quadratic_identities():
    with criterion(1, "quadratic identities and exponents: subset n=2..12, grid side 3"):
        start = time.monotonic()
        for n in range(2, 13):
            corr = build_subset_matrix(n)
            found = discover_identity(corr)
            assert found is not None
            assert found == (n - 1, -(n - 2), (n - 1) * (n - 2) // 2)
            ok, witness = verify_identity(corr, *found)
            assert ok, witness
            q, note = exponent_from_identity(found)
            assert q == n, note

        corr = build_grid_matrix(3)
        found = discover_identity(corr)
        assert found is not None
        assert found == (2, -1, 2)
        ok, witness = verify_identity(corr, *found)
        assert ok, witness
        q, note = exponent_from_identity(found)
        assert q == 3, note
        assert time.monotonic() - start < 1.0


def test_criterion_2_merged_model_number_regression():
    with criterion(2, "merged-model sweeps: grid g=3..20 and subset n=2,3,4"):
        # (a) the 3x3 grid family over hyperelliptic curves of genus 3..20
        for g in range(3, 21):
            start = time.monotonic()
            rep = assemble(grid_scenario(g))
            merged = rep["models"][MERGED]
            assert "error" not in merged
            assert merged["induced"]["ramification"] == 6 * g + 12
            assert merged["induced"]["genus"] == 3 * g - 2
            assert merged["delta_dot_d"] == 6
            assert rep["correspondence"]["exponent"] == 3
            assert merged["dim_p"] == g - 1
            assert merged["dim_p_integral"] is True
            cert = merged["nesting"]
            assert cert["certified"]
            assert cert["chain_members"] == [
                [[1, 1], [2, 1]],
                [[1, 2], [2, 2]],
                [[1, 3], [2, 3]],
            ]
            assert merged["certificate_checked"] is True
            assert keyed_verdict(rep)
            assert_analytic_unchecked(merged)
            assert time.monotonic() - start < 1.0

        # (b) subsets of size 2: genus doubles, two fixed points, exponent 2
        for gx in range(1, 11):
            start = time.monotonic()
            rep = assemble(subset_scenario(2, gx))
            merged = rep["models"][MERGED]
            assert "error" not in merged
            assert (merged["induced"]["genus"], merged["delta_dot_d"]) == (2 * gx, 2)
            assert (rep["correspondence"]["exponent"], merged["dim_p"]) == (2, gx)
            assert merged["dim_p_integral"] is True
            assert keyed_verdict(rep)
            assert_analytic_unchecked(merged)
            assert time.monotonic() - start < 1.0

        # (c) subsets of size 3: ramified class sizes (4, 2, 2) in each fiber
        for gx in range(1, 11):
            start = time.monotonic()
            rep = assemble(subset_scenario(3, gx))
            merged = rep["models"][MERGED]
            assert "error" not in merged
            assert (merged["induced"]["genus"], merged["delta_dot_d"]) == (3 * gx + 2, 2)
            assert (rep["correspondence"]["exponent"], merged["dim_p"]) == (3, gx)
            for fiber in merged["special_fibers"]:
                assert ramified_sizes(fiber) == (4, 2, 2)
            assert keyed_verdict(rep)
            assert_analytic_unchecked(merged)
            assert time.monotonic() - start < 1.0

        # (d) subsets of size 4: recomputed genus 4*gx+3; the nearby value
        # 4*gx+5 must be flagged as giving a non-integral dimension
        for gx in range(1, 11):
            start = time.monotonic()
            rep = assemble(subset_scenario(4, gx))
            merged = rep["models"][MERGED]
            assert "error" not in merged
            assert (merged["delta_dot_d"], rep["correspondence"]["exponent"]) == (6, 4)
            assert (merged["dim_p"], merged["induced"]["genus"]) == (gx, 4 * gx + 3)
            for fiber in merged["special_fibers"]:
                assert ramified_sizes(fiber) == (4, 4, 4)
            nearby = 4 * gx + 5
            bad_dim = Fraction(nearby - rep["correspondence"]["bidegree"] + 3, 4)
            note = next(n for n in rep["notes"] if f"nearby value {nearby}" in n)
            assert f"dim P = {bad_dim}" in note
            assert "not consistent" in note
            assert bad_dim.denominator != 1
            assert keyed_verdict(rep)
            assert_analytic_unchecked(merged)
            assert time.monotonic() - start < 1.0


def test_criterion_3_nesting_certificate_independent_recheck():
    with criterion(3, "size-4 subset nesting certificate: diagonal 1, cross 2, rechecked"):
        # the independent checker re-checks the report's own nesting entry
        # against its fiber entries and fixed-point count
        merged = assemble(subset_scenario(4, 2))["models"][MERGED]
        cert = merged["nesting"]
        assert cert["certified"]
        assert len(cert["chain"]) == 3
        # multiplicity pattern: each chain point is simple in its own image
        # divisor, earlier chain points appear there with multiplicity 2
        for row in cert["multiplicities"]:
            assert row[-1] == 1
            assert all(entry == 2 for entry in row[:-1])
        fibers, delta = merged["special_fibers"], merged["delta_dot_d"]
        assert check_certificate(cert, fibers, delta, "subset", 4)
        # the checker must reject a tampered multiplicity table
        tampered = {**cert, "multiplicities": [[2] * len(row) for row in cert["multiplicities"]]}
        assert not check_certificate(tampered, fibers, delta, "subset", 4)


def test_criterion_4_cross_model_dimension_agreement():
    with criterion(4, "merged and monodromy models agree on dim P for n=2,3, gx=1..10"):
        for n in (2, 3):
            for gx in range(1, 11):
                models = assemble(subset_scenario(n, gx))["models"]
                merged, orbit = models[MERGED], models[ORBIT]
                assert "error" not in merged and "error" not in orbit
                # the two models disagree on the raw inputs...
                assert (merged["induced"]["genus"], merged["delta_dot_d"]) != (
                    orbit["induced"]["genus"],
                    orbit["delta_dot_d"],
                )
                # ...yet produce the same exact dimension
                assert merged["dim_p"] == orbit["dim_p"] == gx
                assert_analytic_unchecked(merged)
                assert_analytic_unchecked(orbit)


def test_criterion_5_property_suites():
    with criterion(5, "exhaustive small-case property suites"):
        # (a) class actions never depend on the representative: every set
        # partition of the ground set, subset sizes 2..5.  class_action
        # proves it from the fiber's generators, and the reference checks
        # every member of every class; both read the same diagonal and block
        for n in range(2, 6):
            corr = build_subset_matrix(n)
            seen = 0
            for blocks in set_partitions(n + 2):
                fiber = merged_fiber_over(n, blocks)
                classes, keys = reference_merged_fiber(n, blocks)
                assert fiber.classes == classes
                written = [cls["block_multiset"] for cls in fiber_to_dict(fiber, blocks)["classes"]]
                assert written == list(map(list, keys))
                full = reference_class_action(corr, fiber)
                assert all(sum(row) == corr.bidegree for row in full)
                assert class_action(corr, fiber) == diagonal_and_block(full)
                seen += 1
            assert seen == BELL[n + 2]

        # (b) the induced action on k-subsets is a homomorphism, exhaustively
        # over all permutation pairs of degree <= 5
        for degree in range(2, 6):
            perms = [
                Permutation(images) for images in raw_permutations(range(1, degree + 1))
            ]
            caches = {
                k: {p.images: induced_subset_action(p, k, index) for p in perms}
                for k, index in ((k, subset_index(degree, k)) for k in range(1, degree))
            }
            for a in perms:
                for b in perms:
                    ab = tuple(a(b(x)) for x in range(1, degree + 1))
                    for k, cache in caches.items():
                        ca, cb = cache[a.images], cache[b.images]
                        assert tuple(ca(cb(x)) for x in range(1, cb.degree + 1)) == cache[ab].images

        # (c) colex listing, exhaustive for universes up to 16: all_subsets
        # lists comb(universe, k) sorted k-subsets, and the i-th has colex
        # rank i by the closed form sum of comb(s_j - 1, j), j from 1
        for universe in range(1, 17):
            for k in range(0, universe + 1):
                ground = set(range(1, universe + 1))
                listing = all_subsets(universe, k)
                assert len(listing) == comb(universe, k)
                for i, subset in enumerate(listing):
                    assert len(subset) == k and set(subset) <= ground
                    assert subset == tuple(sorted(set(subset)))
                    assert sum(comb(x - 1, j) for j, x in enumerate(subset, start=1)) == i

        # (d) row-sum/bidegree invariants on every built matrix
        matrices = [build_subset_matrix(n) for n in range(2, 13)]
        matrices += [build_grid_matrix(m) for m in range(2, 9)]
        for corr in matrices:
            rows = corr.rows
            size = corr.size
            assert len(rows) == size and all(0 <= row < 1 << size for row in rows)
            assert all(not rows[i] >> i & 1 for i in range(size))
            assert all(
                (rows[i] >> j & 1) == (rows[j] >> i & 1) for i in range(size) for j in range(i)
            )
            assert all(row.bit_count() == corr.bidegree for row in rows)

        # (e) parity validation rejects fabricated odd ramification totals
        with pytest.raises(GenusValidationError):
            riemann_hurwitz_genus(4, 1)
