"""A report cannot depend on how the sheets or the special fibers are named.

Branch points are anonymous, so listing the special fibers in another order
describes the same covering; renaming the sheets by a permutation sigma
conjugates every monodromy generator by sigma and describes the same
covering too.  Neither may change a verdict or any number the report derives.
"""

import dataclasses

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prymtyurin.perms import Permutation, orbits
from prymtyurin.report import assemble
from prymtyurin.scenario import MODEL_CHOICES, InvalidScenario, subset_scenario


def cycle_type(images):
    """The profile of a local monodromy: its cycle lengths, largest first."""
    return tuple(sorted(map(len, orbits((Permutation(images),))), reverse=True))


def conjugate(images, sigma):
    """sigma g sigma^-1 in one-line notation: sigma(x) goes to sigma(g(x))."""
    out = [0] * len(images)
    for x, gx in enumerate(images, start=1):
        out[sigma[x - 1] - 1] = sigma[gx - 1]
    return tuple(out)


@st.composite
def relabeled_pairs(draw):
    n = draw(st.integers(2, 7))
    degree = n + 2
    labels = tuple(range(1, degree + 1))
    profiles = st.permutations(labels).map(cycle_type).filter(lambda p: max(p) >= 2)
    fibers = draw(st.lists(profiles, max_size=3))
    monodromy = draw(st.none() | st.lists(st.permutations(labels), min_size=1, max_size=3))
    try:
        scen = subset_scenario(
            n,
            draw(st.integers(0, 4)),
            special_fibers=fibers,
            model=draw(st.sampled_from(MODEL_CHOICES)),
            monodromy=monodromy,
        )
    except InvalidScenario:
        assume(False)
    order = draw(st.permutations(range(len(fibers))))
    sigma = draw(st.permutations(labels))
    relabeled = dataclasses.replace(
        scen,
        special_fibers=tuple(scen.special_fibers[i] for i in order),
        monodromy=None if monodromy is None else [conjugate(g, sigma) for g in monodromy],
    )
    return scen, relabeled


def invariants(report):
    """Everything in a report that names no sheet and no fiber position."""
    out = {
        "irreducible": report["irreducibility"]["transitive"],
        "q": report["correspondence"]["exponent"],
    }
    for model, rep in report["models"].items():
        nesting = rep["nesting"]
        out[model] = (
            rep["induced"]["genus"],
            rep["delta_dot_d"],
            rep["dim_p"],
            rep["epsilon_degree"],
            report["verdict"][model],
            nesting["certified"],
            "memo_misses" in nesting,
            rep["induced"]["ramification"],
            rep["simple_fibers_fixed_free"],
            (nesting["fibers_searched"], nesting["orderings_tried"])
            if "orderings_tried" in nesting
            else None,
        )
    return out


@settings(max_examples=150, deadline=None)
@given(relabeled_pairs())
def test_report_is_invariant_under_relabeling(pair):
    scen, relabeled = pair
    assert invariants(assemble(relabeled)) == invariants(assemble(scen))
