"""Closed-form ramification of the subset fibers, against the built fibers.

A special fiber of the small covering with profile (l_1, ..., l_r) sits over
a branch point whose local monodromy has cycles of lengths l_i.  The points
of the induced curve over a generic point are the n-subsets of the n + 2
sheets, N = C(n+2, 2) of them, one for each 2-element complement, so the
classes over the special fiber count as 2-subsets:

- orbit model: the orbits of the monodromy on 2-subsets.  A cycle of length
  l carries floor(l/2) orbits of pairs inside it, and two cycles of lengths
  l and l' carry gcd(l, l') orbits of pairs across them;
- merged model: a pair is known only by the blocks it meets, so there is
  one class per pair of blocks and one per block of size at least 2.

A fiber's ramification is N minus its number of classes.  Neither count
walks a subset.
"""

from itertools import combinations
from math import comb, gcd

import pytest

from prymtyurin.induced_curve import MERGED, ORBIT, blocks_from_parts, subset_fiber
from prymtyurin.report import assemble
from prymtyurin.scenario import subset_scenario


def partitions(total, largest=None):
    """Every partition of total into parts of at most largest, largest first."""
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in partitions(total - part, part):
            yield (part,) + rest


def oracle_w(parts, model):
    """The closed-form ramification of a subset fiber with these parts."""
    points = comb(sum(parts), 2)
    if model == ORBIT:
        classes = sum(p // 2 for p in parts)
        classes += sum(gcd(a, b) for a, b in combinations(parts, 2))
    else:
        classes = comb(len(parts), 2) + sum(p >= 2 for p in parts)
    return points - classes


RAMIFIED = [
    (n, parts)
    for n in range(2, 13)
    for parts in partitions(n + 2)
    if max(parts) >= 2
]


def test_every_ramified_profile_is_listed():
    # p(k) - 1 ramified partitions of k = n + 2, for n = 2..12
    assert len(RAMIFIED) == 490


@pytest.mark.parametrize("model", [ORBIT, MERGED])
def test_fiber_ramification_matches_closed_form(model):
    for n, parts in RAMIFIED:
        fiber = subset_fiber(n, blocks_from_parts(parts, n + 2), model)
        assert fiber.w_contribution == oracle_w(parts, model), (n, parts)


def test_simple_fiber_ramifies_n():
    for n in range(2, 13):
        for model in (ORBIT, MERGED):
            assert oracle_w((2,) + (1,) * n, model) == n


@pytest.mark.parametrize("model", [ORBIT, MERGED])
def test_scenario_ramification_and_genus_match_closed_form(model):
    for n in range(2, 10):
        for gx in (0, 1, 3):
            scen = subset_scenario(n, gx, model=model)
            rep = assemble(scen)["models"][model]
            points = comb(n + 2, 2)
            want = sum(oracle_w(p, model) for p in scen.special_fibers)
            want += scen.covering.simple_extra * n
            genus = rep["induced"]["genus"]
            assert rep["induced"]["ramification"] == want, (n, gx)
            if genus is not None:
                # Riemann-Hurwitz over the line: 2g - 2 = -2N + w
                assert 2 * genus == 2 - 2 * points + want, (n, gx)
