import pytest

from prymtyurin.covering import (
    GenusValidationError,
    normalize_profile,
    profile_contribution,
    ramification_degree,
    riemann_hurwitz_genus,
    simple_budget,
    upstairs_genus,
)
from prymtyurin.scenario import subset_scenario


def test_profile_normalization():
    assert normalize_profile([1, 2, 2]) == (2, 2, 1)
    assert profile_contribution((2, 2, 1)) == 2
    assert profile_contribution((4, 2, 2, 1, 1)) == 5
    # each fault is named, and no part is coerced with int()
    for parts, message in (
        ([], "profile is empty"),
        ([2, 0], "parts must be positive integers"),
        ([2.9, 1], "parts must be positive integers"),
        (["2", True], "parts must be positive integers"),
        ([2, True], "parts must be positive integers"),
        ([1, 1, 1], "profile is unramified"),
    ):
        with pytest.raises(ValueError, match=message):
            normalize_profile(parts)


def test_riemann_hurwitz_direct_values():
    # degree 2 cover of the line branched at 2g+2 points is the genus-g curve
    for g in range(0, 8):
        assert riemann_hurwitz_genus(2, 2 * g + 2) == g
    # degree 10 cover of the line with w = 6*gx + 22 has genus 3*gx + 2
    for gx in range(0, 12):
        assert riemann_hurwitz_genus(10, 6 * gx + 22) == 3 * gx + 2
    # degree 9 cover of the line with w = 6*g + 12 has genus 3*g - 2
    for g in range(2, 21):
        assert riemann_hurwitz_genus(9, 6 * g + 12) == 3 * g - 2


def test_riemann_hurwitz_rejects_odd_w():
    with pytest.raises(GenusValidationError):
        riemann_hurwitz_genus(9, 7)
    with pytest.raises(GenusValidationError):
        riemann_hurwitz_genus(2, 3)


def test_riemann_hurwitz_rejects_bad_covering_data():
    with pytest.raises(ValueError, match="bad covering data: degree=0 w=2"):
        riemann_hurwitz_genus(0, 2)
    with pytest.raises(ValueError, match="bad covering data: degree=3 w=-2"):
        riemann_hurwitz_genus(3, -2)


def test_riemann_hurwitz_rejects_negative_genus():
    with pytest.raises(GenusValidationError):
        riemann_hurwitz_genus(3, 2)
    # w = 4 is the minimum for degree 3 over the line
    assert riemann_hurwitz_genus(3, 4) == 0


def test_ramification_degree_and_upstairs_genus():
    # the degree-5 covering of the subset construction at n=3: two (2,2,1)
    # fibers and 6 simple branch points
    scenario = subset_scenario(3, 1)
    assert (scenario.degree, scenario.simple_extra) == (5, 6)
    assert ramification_degree(scenario) == 10
    assert upstairs_genus(scenario) == 1


def test_simple_budget():
    pairs4, pairs6 = ((2, 2), (2, 2)), ((2, 2, 2), (2, 2, 2))
    for gx in range(0, 11):
        assert simple_budget(4, pairs4, gx) == 2 * gx + 2
        assert simple_budget(6, pairs6, gx) == 2 * gx + 4
        # the budget gives the covering built from it the target genus
        scenario = subset_scenario(4, gx)
        assert scenario.special_fibers == pairs6 and scenario.simple_extra == 2 * gx + 4
        assert upstairs_genus(scenario) == gx


def test_simple_budget_infeasible():
    with pytest.raises(GenusValidationError):
        simple_budget(4, ((4,), (4,), (4,), (4,)), 0)
    with pytest.raises(ValueError, match="target genus must be non-negative, got -1"):
        simple_budget(4, (), -1)
