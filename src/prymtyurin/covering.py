"""Branched-covering bookkeeping.

A covering of the projective line is given by its branch data: its degree,
the ramification profiles of its special fibers, and a count of additional
simple branch points.  A scenario is the one record of these data (its
special_fibers, and its degree and simple_extra outside the fields), and
scenario.Scenario their one validator; this module holds the profile check
and the genus arithmetic that the validator and the report call.  A profile is the partition of the
degree given by the ramification indices over one branch point; its
contribution to the total ramification degree is sum(part - 1).  The base
is always the line, since the exponent derivation needs a rational base
(correspondence.exponent_from_identity).

The genus upstairs is pinned down by Riemann-Hurwitz over genus 0:

    2*g - 2 = degree * (2*0 - 2) + w

Scenarios that make g fractional or negative are rejected loudly; they are
never rounded or clamped.
"""

from __future__ import annotations


class GenusValidationError(ValueError):
    """The covering data does not admit an integral, non-negative genus."""


def is_int(value) -> bool:
    """An int that is not a bool: JSON true/false decode to bool, an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def normalize_profile(parts) -> tuple[int, ...]:
    """Validate a ramification profile and sort it into weakly decreasing order.

    This is the one check of a profile's parts: it must be a non-empty list
    or tuple, every part a positive int (bool, float and str parts are
    refused, never coerced), and some part at least 2.
    """
    if not isinstance(parts, (list, tuple)):
        raise ValueError("profile must be a list of integer parts")
    prof = tuple(parts)
    if not prof:
        raise ValueError("profile is empty")
    if not all(is_int(p) and p >= 1 for p in prof):
        raise ValueError("parts must be positive integers")
    if max(prof) == 1:
        raise ValueError("profile is unramified (all parts 1)")
    return tuple(sorted(prof, reverse=True))


def profile_contribution(parts) -> int:
    return sum(p - 1 for p in parts)


def ramification_degree(scenario) -> int:
    """Total ramification w of a scenario's input covering, counting each
    simple branch point as 1."""
    return sum(profile_contribution(f) for f in scenario.special_fibers) + scenario.simple_extra


def riemann_hurwitz_genus(degree: int, w: int) -> int:
    """Genus upstairs of a covering of the line: 2g - 2 = degree*(2*0 - 2) + w.

    Raises GenusValidationError when the parity does not work out or the genus
    would be negative; its messages keep the base genus 0 written out.
    """
    if degree < 1 or w < 0:
        raise ValueError(f"bad covering data: degree={degree} w={w}")
    rhs = w - 2 * degree
    if rhs % 2 != 0:
        raise GenusValidationError(
            f"ramification parity failure: degree*(2*0-2) + {w} = {rhs} is odd"
        )
    g = rhs // 2 + 1
    if g < 0:
        raise GenusValidationError(
            f"negative genus {g} from degree={degree}, base_genus=0, w={w}"
        )
    return g


def upstairs_genus(scenario) -> int:
    """The genus of a scenario's input covering, by Riemann-Hurwitz."""
    return riemann_hurwitz_genus(scenario.degree, ramification_degree(scenario))


def simple_budget(degree: int, special_fibers, target_upstairs_genus: int) -> int:
    """How many simple branch points, besides the special fibers' profiles,
    make the genus upstairs of a degree covering hit the target: the
    simple_extra of the covering to build.  Raises GenusValidationError
    when no non-negative count works (the target is too small).
    """
    if target_upstairs_genus < 0:
        raise ValueError(f"target genus must be non-negative, got {target_upstairs_genus}")
    w_special = sum(map(profile_contribution, special_fibers))
    # w_needed is even for every integral target, so the budget is a plain difference
    w_needed = 2 * target_upstairs_genus - 2 + 2 * degree
    extra = w_needed - w_special
    if extra < 0:
        raise GenusValidationError(
            f"special fibers already force w = {w_special} > {w_needed} needed for genus {target_upstairs_genus}"
        )
    return extra
