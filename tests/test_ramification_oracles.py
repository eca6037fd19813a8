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

The fixed points have closed forms too.  A class is fixed when it meets its
own image; at a representative with complement {x, y} its self multiplicity
counts the complements in the class that are disjoint from {x, y}:

- merged model: (s - 1)(t - 1) for the pairs across blocks of sizes s and t,
  C(s - 2, 2) for the pairs inside a block of size s;
- orbit model: L - L/p - L/q + 1, with L = lcm(p, q), for each orbit of pairs
  across cycles of lengths p and q (the k < L with x and y both moved by
  sigma^k), and for the pairs at distance r inside a p-cycle
  p - |{0, r, -r mod p}|, which is p/2 - 1 for the diameter r = p/2.

The fixed classes are those of self multiplicity at least 1, a fiber's
Delta.D is their sum, and the nesting candidates are those of multiplicity 1.
"""

from bisect import bisect_right
from collections import defaultdict
from itertools import accumulate, combinations
from math import comb, gcd, lcm

import pytest

from prymtyurin.correspondence import build_subset_matrix
from prymtyurin.induced_curve import MERGED, ORBIT, subset_fiber
from prymtyurin.report import assemble
from prymtyurin.scenario import subset_scenario
from references import partitions


def oracle_w(parts, model):
    """The closed-form ramification of a subset fiber with these parts."""
    points = comb(sum(parts), 2)
    if model == ORBIT:
        classes = sum(p // 2 for p in parts)
        classes += sum(gcd(a, b) for a, b in combinations(parts, 2))
    else:
        classes = comb(len(parts), 2) + sum(p >= 2 for p in parts)
    return points - classes


def _inside(p, r):
    """Self multiplicity of the orbit of pairs at distance r in a p-cycle."""
    return p // 2 - 1 if 2 * r == p else p - 3


def _across(p, q):
    """Self multiplicity of an orbit of pairs across a p- and a q-cycle."""
    period = lcm(p, q)
    return period - period // p - period // q + 1


def oracle_self_multiplicities(parts, model):
    """The self multiplicity of every class of a subset fiber with these
    parts, sorted, from the parts alone."""
    values = []
    for i, p in enumerate(parts):
        if model == ORBIT:
            values += [_inside(p, r) for r in range(1, p // 2 + 1)]
            values += [_across(p, q) for q in parts[i + 1:] for _ in range(gcd(p, q))]
        else:
            values += [comb(p - 2, 2)] if p >= 2 else []
            values += [(p - 1) * (q - 1) for q in parts[i + 1:]]
    return sorted(values)


def oracle_class_multiplicity(parts, model, x, y):
    """The self multiplicity of the class of the point with complement
    {x, y}, x < y, when each part is a block of consecutive labels, largest
    first, and each block of the orbit model a cycle in label order."""
    parts = sorted(parts, reverse=True)
    starts = list(accumulate(parts, initial=1))
    i, j = bisect_right(starts, x) - 1, bisect_right(starts, y) - 1
    p, q = parts[i], parts[j]
    if model == MERGED:
        return comb(p - 2, 2) if i == j else (p - 1) * (q - 1)
    return _across(p, q) if i != j else _inside(p, min(y - x, p - y + x))


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
        fiber = subset_fiber(build_subset_matrix(n), parts, model)
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
            want += scen.simple_extra * n
            genus = rep["induced"]["genus"]
            assert rep["induced"]["ramification"] == want, (n, gx)
            if genus is not None:
                # Riemann-Hurwitz over the line: 2g - 2 = -2N + w
                assert 2 * genus == 2 - 2 * points + want, (n, gx)


def every_profile_scenario(n):
    """A subset scenario declaring every ramified profile of n + 2 sheets
    once, over the least source genus they allow."""
    profiles = [parts for parts in partitions(n + 2) if max(parts) >= 2]
    w = sum(n + 2 - len(parts) for parts in profiles)
    # Riemann-Hurwitz: 2g - 2 = -2(n + 2) + w + simple_extra, simple_extra >= 0
    return subset_scenario(n, max(0, -((2 * (n + 2) - 2 - w) // 2)), profiles)


@pytest.mark.parametrize(
    "scen",
    [every_profile_scenario(n) for n in range(2, 11)]
    + [subset_scenario(n, 1) for n in (20, 40)],
    ids=[f"every-profile-n{n}" for n in range(2, 11)] + ["default-n20", "default-n40"],
)
def test_report_fixed_points_match_closed_form(scen):
    n = scen.parameter
    data = assemble(scen)
    for model, rep in data["models"].items():
        fixed = defaultdict(list)
        for entry in rep["fixed_points"]:
            pos, mult = entry["fiber"], entry["multiplicity"]
            x, y = sorted(set(range(1, n + 3)).difference(entry["members"][0]))
            parts = scen.special_fibers[pos]
            assert mult == oracle_class_multiplicity(parts, model, x, y), (model, parts, x, y)
            fixed[pos].append(mult)
        for pos, parts in enumerate(scen.special_fibers):
            want = oracle_self_multiplicities(parts, model)
            assert len(rep["special_fibers"][pos]["classes"]) == len(want)
            got = sorted(fixed[pos])
            # the fixed classes, Delta.D and the candidates of the fiber
            assert got == [v for v in want if v >= 1], (model, parts)
            assert sum(got) == sum(want), (model, parts)
            assert got.count(1) == want.count(1), (model, parts)
        total = sum(sum(oracle_self_multiplicities(p, model)) for p in scen.special_fibers)
        assert rep["delta_dot_d"] == total
        simple = oracle_self_multiplicities((2,) + (1,) * n, model)
        assert rep["simple_fibers_fixed_free"] is (max(simple) == 0)


def test_closed_form_candidate_counts_at_n40():
    # the default (2, ..., 2) profile of 42 sheets
    parts = (2,) * 21
    for model, candidates in ((MERGED, 210), (ORBIT, 420)):
        assert oracle_self_multiplicities(parts, model).count(1) == candidates
