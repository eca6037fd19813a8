import contextlib
import copy
import enum
import functools
import gc
import hashlib
import io
import json
import pickle
import random
import re
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prymtyurin import cli, correspondence, fixed_points, induced_curve, perms
from prymtyurin import report as report_module
from prymtyurin import scenario as scenario_module
from prymtyurin.correspondence import build_grid_matrix, build_subset_matrix
from prymtyurin.fixed_points import check_certificate
from prymtyurin.induced_curve import MERGED, ORBIT, SpecialFiber, blocks_from_parts, subset_fiber
from prymtyurin.perms import Permutation
from prymtyurin.report import (
    DimensionError,
    assemble,
    canonical_json,
    epsilon_degree,
    fiber_layout,
    fiber_to_dict,
    keyed_verdict,
    models_for,
    prym_dimension,
    render_table,
    report_to_json,
)
from prymtyurin.scenario import grid_scenario, subset_scenario
import references
from references import package_lines, partitions, reference_fixed_point_scan, reference_w


def nesting_kind(rep: dict) -> str:
    """What a model's nesting entry records: a certificate, a failed search
    (it names its orderings tried) or an undecided one (its memo misses)."""
    nest = rep["nesting"]
    if nest["certified"]:
        return "certificate"
    return "undecided" if "memo_misses" in nest else "failure"


def certificate_holds(rep: dict, kind: str, parameter: int) -> bool:
    """check_certificate on a model's entries, as the report decides it."""
    fibers, delta = rep["special_fibers"], rep["delta_dot_d"]
    return check_certificate(rep["nesting"], fibers, delta, kind, parameter)


def test_prym_dimension_worked_cases():
    for g in range(2, 13):
        assert prym_dimension(3 * g - 2, 4, 6, 3) == g - 1
    for gx in range(0, 11):
        assert prym_dimension(2 * gx, 1, 2, 2) == gx
        assert prym_dimension(3 * gx + 2, 3, 2, 3) == gx
        assert prym_dimension(4 * gx + 3, 6, 6, 4) == gx


def test_prym_dimension_flags_non_integral():
    dim = prym_dimension(4 * 2 + 5, 6, 6, 4)
    assert dim == "5/2"
    assert not isinstance(dim, int)


def test_prym_dimension_errors():
    with pytest.raises(DimensionError, match="exponent"):
        prym_dimension(5, 1, 2, 1)
    with pytest.raises(DimensionError, match="non-negative"):
        prym_dimension(-1, 1, 2, 2)
    with pytest.raises(DimensionError, match="negative"):
        prym_dimension(0, 5, 0, 2)


def test_epsilon_degree():
    for g in range(0, 8):
        assert epsilon_degree(g, 0) == g - 1
    for g in range(2, 10):
        assert epsilon_degree(3 * g - 2, 6) == 3 * g
    for gx in range(0, 10):
        assert epsilon_degree(2 * gx, 2) == 2 * gx
    with pytest.raises(ValueError, match="even"):
        epsilon_degree(4, 3)
    with pytest.raises(ValueError, match="genus"):
        epsilon_degree(-1, 2)


def test_hyperelliptic_report():
    data = assemble(grid_scenario(3))
    corr = data["correspondence"]
    assert corr["exponent"] == 3
    assert corr["bidegree"] == 4
    assert corr["size"] == 9
    ident = corr["identity"]
    assert (ident["a"], ident["b"], ident["c"]) == (2, -1, 2)
    for m in data["models"].values():
        assert m["induced"]["ramification"] == 30
        assert m["induced"]["genus"] == 7
        assert m["delta_dot_d"] == 6
        assert m["dim_p"] == 2
        assert m["epsilon_degree"] == 9
        assert m["combinatorial_verified"]
        assert nesting_kind(m) == "certificate"
        assert m["certificate_checked"]
    assert keyed_verdict(data)


def test_grid_layout_counts():
    layouts, _ = fiber_layout(grid_scenario(4), build_grid_matrix(3))
    # both models read one layout object
    assert list(layouts) == [MERGED, ORBIT] and layouts[MERGED] is layouts[ORBIT]
    distinct, actions, positions, bodies, (_, _, simple_free, _, _) = layouts[MERGED]
    assert len(actions) == len(bodies) == len(distinct)
    assert simple_free is None
    assert len(positions) == 2 + 10
    assert all(distinct[i].w_contribution == 3 for i in positions)
    # one row-merge fiber and three pairing fibers, each built once
    assert len(distinct) == 4
    assert positions == bytes((0, 0, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1))


def test_layout_positions_fit_in_a_byte():
    # a layout's positions hold one byte per position, the index of its
    # fiber.  A subset layout names one fiber per distinct declared profile:
    # a ramified partition of the degree n + 2 (the unramified one is
    # refused), and no more profiles than MAX_SUBSET_FIBER_POINTS allows of
    # C(n + 2, 2) points each.  The grid layout names four fibers
    top = scenario_module.MAX_SUBSET_N + 2
    counts = [1] + [0] * top  # partitions of 0..top, by their largest part
    for part in range(1, top + 1):
        for total in range(part, top + 1):
            counts[total] += counts[total - part]
    assert counts[:10] == [sum(1 for _ in partitions(t)) for t in range(10)]
    limit = scenario_module.MAX_SUBSET_FIBER_POINTS
    bound = {
        n: min(counts[n + 2] - 1, limit // comb(n + 2, 2))
        for n in range(2, scenario_module.MAX_SUBSET_N + 1)
    }
    widest = max(bound, key=bound.get)
    assert (widest, bound[widest]) == (13, 164) and bound[widest] < 256
    # that many distinct profiles at n = 13 are accepted and fill positions
    # 0..163; one more profile is refused
    ramified = [p for p in partitions(15) if p[0] > 1]
    gx = sum(sum(p) - len(p) for p in ramified)  # a genus their ramification allows
    scenario = subset_scenario(13, gx, ramified[:164], model=MERGED)
    fibers, positions, _, _ = scenario_module.FAMILIES["subset"].layout(
        scenario, build_subset_matrix(13), (MERGED,)
    )[0][MERGED]
    assert len(fibers) == 164 and positions == bytes(range(164))
    with pytest.raises(scenario_module.InvalidScenario, match="at most 164 profiles"):
        subset_scenario(13, gx, ramified[:165], model=MERGED)
    grid = fiber_layout(grid_scenario(3), build_grid_matrix(3))[0][MERGED]
    assert len(grid[0]) == 4 and type(grid[2]) is bytes and max(grid[2]) == 3


@functools.cache
def _n4_fibers():
    # every ramified profile of degree 6 under both models
    corr = build_subset_matrix(4)
    pool = [subset_fiber(corr, p, m) for p in partitions(6) if p[0] > 1 for m in (MERGED, ORBIT)]
    # fibers with fixed classes and fibers without
    assert {any(fixed_points.class_action(corr, f)[0]) for f in pool} == {True, False}
    return corr, pool


def _outcome(func, *args):
    # a result, or the one exception a position that names no fiber raises
    try:
        return func(*args)
    except IndexError:
        return IndexError


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_byte_positions_match_the_tuple_gathers(data):
    # random layouts over subset n = 4 fibers, repeating fibers with and
    # without fixed classes, and now and then an index that names no fiber:
    # the scan over bytes (and over a tuple) and fiber_layout's w from counts
    # give what one gather per position gave, or both raise IndexError
    corr, pool = _n4_fibers()
    fibers = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    positions = data.draw(st.lists(st.integers(0, len(fibers) - 1), max_size=40))
    if data.draw(st.booleans()):
        stray = data.draw(st.integers(len(fibers), 255))
        positions.insert(data.draw(st.integers(0, len(positions))), stray)
    actions = [fixed_points.class_action(corr, f) for f in fibers]
    scanned = _outcome(reference_fixed_point_scan, actions, tuple(positions))
    assert _outcome(fixed_points.fixed_point_scan, actions, bytes(positions)) == scanned
    assert _outcome(fixed_points.fixed_point_scan, actions, tuple(positions)) == scanned
    w = _outcome(reference_w, [f.w_contribution for f in fibers], tuple(positions))
    expected = IndexError if IndexError in (scanned, w) else (scanned, w)

    def layout(scenario, corr, models):
        return dict.fromkeys(models, (fibers, bytes(positions), None, [None] * len(fibers))), ()

    family = scenario_module.FAMILIES["subset"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(scenario_module.FAMILIES, "subset", family._replace(layout=layout))
        facts = _outcome(lambda: fiber_layout(subset_scenario(4, 3, model=MERGED), corr))
    assert (facts if facts is IndexError else facts[0][MERGED][4][:2]) == expected


def test_subset_families_per_model():
    for gx in range(0, 6):
        models = assemble(subset_scenario(2, gx))["models"]
        merged, orbit = models[MERGED], models[ORBIT]
        assert merged["induced"]["genus"] == 2 * gx
        assert merged["delta_dot_d"] == 2
        assert merged["dim_p"] == gx
        assert merged["epsilon_degree"] == 2 * gx
        assert merged["combinatorial_verified"]
        if gx == 0:
            assert "negative genus" in orbit["error"]
            assert orbit["induced"]["genus"] is None
        else:
            assert orbit["induced"]["genus"] == 2 * gx - 1
            assert orbit["delta_dot_d"] == 4
            assert not orbit["hypotheses"]["n_le_d"]
            assert not orbit["combinatorial_verified"]

    for gx in range(0, 6):
        models = assemble(subset_scenario(3, gx))["models"]
        merged, orbit = models[MERGED], models[ORBIT]
        assert merged["induced"]["genus"] == 3 * gx + 2
        assert merged["dim_p"] == gx
        assert merged["combinatorial_verified"]
        assert orbit["induced"]["genus"] == 3 * gx + 1
        assert orbit["delta_dot_d"] == 4
        assert orbit["hypotheses"]["n_le_d"]
        assert nesting_kind(orbit) == "failure"
        assert not orbit["combinatorial_verified"]

    for gx in range(0, 6):
        models = assemble(subset_scenario(4, gx))["models"]
        merged, orbit = models[MERGED], models[ORBIT]
        assert merged["induced"]["genus"] == 4 * gx + 3
        assert merged["delta_dot_d"] == 6
        assert merged["dim_p"] == gx
        assert merged["combinatorial_verified"]
        assert orbit["induced"]["genus"] == 4 * gx
        assert orbit["delta_dot_d"] == 12
        assert nesting_kind(orbit) == "failure"
        assert not orbit["combinatorial_verified"]


def test_exponent_times_dim_identity():
    scenarios = [subset_scenario(n, gx) for n in (2, 3, 4) for gx in range(0, 5)]
    scenarios += [grid_scenario(g) for g in range(2, 7)]
    for scen in scenarios:
        data = assemble(scen)
        corr = data["correspondence"]
        for m in data["models"].values():
            if m["dim_p"] is None:
                continue
            assert corr["exponent"] * Fraction(m["dim_p"]) == Fraction(
                2 * (m["induced"]["genus"] - corr["bidegree"]) + m["delta_dot_d"], 2
            )


def test_n4_genus_crosscheck_note():
    data = assemble(subset_scenario(4, 2))
    note = next(n for n in data["notes"] if "cross-check" in n)
    assert "genus 11" in note
    assert "13" in note and "5/2" in note and "not consistent" in note


def test_degenerate_dim_zero():
    data = assemble(subset_scenario(3, 0))
    merged = data["models"][MERGED]
    assert merged["induced"]["genus"] == 2
    assert merged["dim_p"] == 0
    assert merged["combinatorial_verified"]
    assert any("degenerate" in n for n in data["notes"])


def test_a_model_error_note_is_the_error_itself():
    # the error already names its scenario and model, so the note adds no
    # second model prefix
    data = assemble(subset_scenario(2, 0))
    error = data["models"][ORBIT]["error"]
    assert error == (
        "subset scenario n=2, source genus 0, monodromy model:"
        " negative genus -1 from degree=6, base_genus=0, w=8"
    )
    assert data["notes"][-1] == error and error.count("model") == 1
    assert "error" not in data["models"][MERGED]


def test_all_simple_scenario():
    for n, gx in ((2, 0), (2, 1), (3, 1), (4, 2)):
        data = assemble(subset_scenario(n, gx, special_fibers=[]))
        for m in data["models"].values():
            assert m["induced"]["genus"] == n * gx + n * (n - 1) // 2
            assert m["delta_dot_d"] == 0
            assert nesting_kind(m) == "certificate"
            assert m["nesting"]["chain"] == []
            assert m["dim_p"] == gx
            assert m["combinatorial_verified"]
        # the checker accepts the empty chain at delta_dot_d = 0, and the
        # table says why it is empty
        rows = [line for line in render_table(data).splitlines() if line.startswith("nesting")]
        assert rows == [f"{'nesting':<22}trivial (no fixed points required)"] * 2


def _notes_input(dims: dict) -> dict:
    # the keys _notes reads, for a subset n = 3 report with the given dim P
    # per model
    models = {
        model: {"dim_p": dim, "dim_p_integral": type(dim) is int, "simple_fibers_fixed_free": True}
        for model, dim in dims.items()
    }
    return {
        "scenario": {"kind": "subset", "n": 3},
        "correspondence": {"bidegree": 3, "exponent": 2},
        "irreducibility": {"basis": "explicit"},
        "models": models,
    }


def test_notes_flag_a_non_integral_dimension_and_disagreeing_models():
    # no scenario found so far gives either (subset n = 2..7, grid g = 2..39)
    notes = report_module._notes(_notes_input({MERGED: "5/2", ORBIT: 3}))
    assert notes == [
        "inconsistency (paper model): dim P = 5/2 is not an integer, so the declared"
        " data cannot all be correct",
        "fiber models disagree on dim P: monodromy gives 3, paper gives 5/2",
    ]
    assert report_module._notes(_notes_input({MERGED: 3, ORBIT: 3})) == [
        "both fiber models give dim P = 3"
    ]


def test_explicit_monodromy_controls_irreducibility():
    intransitive = subset_scenario(2, 1, monodromy=[[2, 1, 3, 4]])
    data = assemble(intransitive)
    assert data["irreducibility"]["basis"] == "explicit"
    assert not data["irreducibility"]["transitive"]
    merged = data["models"][MERGED]
    assert not merged["hypotheses"]["irreducible"]
    assert not merged["combinatorial_verified"]

    transitive = subset_scenario(
        2, 1, monodromy=[[2, 1, 3, 4], [2, 3, 4, 1]]
    )
    data = assemble(transitive)
    assert data["irreducibility"]["transitive"]
    assert data["models"][MERGED]["combinatorial_verified"]
    assert not any("synthesized" in n for n in data["notes"])


def _transitive(generators, degree):
    # one breadth-first walk from point 1 under the generators' images
    reached, frontier = {1}, [1]
    for x in frontier:
        for g in generators:
            y = g.images[x - 1]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return len(reached) == degree


def _cycled_runs(parts):
    # the local monodromy of a padded profile, written out: each part,
    # largest first, cycles its own run of consecutive sheet labels
    images, start = [], 1
    for part in sorted(parts, reverse=True):
        images += [*range(start + 1, start + part), start]
        start += part
    return Permutation(tuple(images))


def _irreducibility_read(scenario, monkeypatch):
    # the report's irreducibility entry and the label moves its one check read
    read = []

    def record(moves, corr):
        read.append(moves)
        return original(moves, corr)

    original = report_module.irreducibility_check
    with monkeypatch.context() as patch:
        patch.setattr(report_module, "irreducibility_check", record)
        irr = assemble(scenario)["irreducibility"]
    (moves,) = read
    return irr, moves


def _subset_irreducibility_cases():
    # every single ramified profile and the defaults at n = 2..6, source
    # genus 0..3, and a seeded set of explicit bases: half of them fix
    # sheet 1, so the n-subsets holding it are a union of orbits
    for n in range(2, 7):
        for gx in range(4):
            for fibers in (None, *([p] for p in partitions(n + 2) if p[0] > 1)):
                yield n, gx, fibers, None
    rng = random.Random(7)
    for n in range(2, 7):
        for trial in range(6):
            fixed = trial % 2
            gens = []
            for _ in range(rng.randint(1, 3)):
                images = list(range(1 + fixed, n + 3))
                rng.shuffle(images)
                gens.append([1] * fixed + images)
            yield n, 3, None, gens


def test_subset_irreducibility_is_the_transitivity_of_the_induced_action(monkeypatch):
    # the basis written out from the scenario: the explicit generators, or
    # each distinct declared profile's local monodromy and the adjacent
    # transpositions (i, i + 1) of the simple branch points, i < min(simple
    # points, sheets - 1); the entry is whether the k-subset action they
    # induce (perms.induced_subset_action) is transitive.  Every orbit-model
    # fiber's label moves are among the moves a synthesized check reads
    outcomes = Counter()
    for n, gx, fibers, monodromy in _subset_irreducibility_cases():
        scenario = subset_scenario(n, gx, fibers, monodromy=monodromy)
        degree = n + 2
        if monodromy is None:
            basis = "synthesized"
            gens = [_cycled_runs(p) for p in scenario.special_fibers]
            simple = min(scenario.simple_extra, degree - 1)
            gens += [Permutation((*range(1, i), i + 1, i, *range(i + 2, degree + 1)))
                     for i in range(1, simple + 1)]
        else:
            basis = "explicit"
            gens = list(map(Permutation, map(tuple, monodromy)))
        index = perms.subset_index(degree, n)
        induced = [perms.induced_subset_action(g, n, index) for g in gens]
        want = _transitive(induced, comb(degree, n))
        irr, read = _irreducibility_read(scenario, monkeypatch)
        assert irr == {"transitive": want, "basis": basis}
        assert set(read) == set(gens) and len(read) == len(set(read))
        if monodromy is None:
            layouts, _ = fiber_layout(scenario, build_subset_matrix(n))
            assert {move for f in layouts[ORBIT][0] for move in f.moves} <= set(read)
        outcomes[basis, want] += 1
    # every synthesized basis here is transitive; the explicit ones go both ways
    assert set(outcomes) == {("synthesized", True), ("explicit", True), ("explicit", False)}


def test_grid_irreducibility_is_the_transitivity_of_its_cell_monodromies(monkeypatch):
    # the grid's basis, written out on the row-major cells: the row merge and
    # the three pairing shifts.  Every grid fiber's label moves are the moves
    # the check reads
    gens = [references.grid_row_cell_monodromy(3, (2, 1)),
            *(references.grid_pairing_cell_monodromy(3, shift) for shift in range(3))]
    want = _transitive(gens, 9)
    assert want
    for genus in range(2, 10):
        scenario = grid_scenario(genus)
        irr, read = _irreducibility_read(scenario, monkeypatch)
        assert irr == {"transitive": want, "basis": "synthesized"}
        layouts, _ = fiber_layout(scenario, build_grid_matrix(3))
        fibers = layouts[MERGED][0]
        assert read == tuple(move for f in fibers for move in f.moves)
        assert {g for f in fibers for g in f.generators} == set(gens)


def test_synthesized_generators_are_distinct(monkeypatch):
    seen = []
    original = report_module.irreducibility_check

    def record(gens, k):
        seen.append(gens)
        return original(gens, k)

    monkeypatch.setattr(report_module, "irreducibility_check", record)
    # 2,004 simple branch points, but only 4 distinct adjacent transpositions,
    # and the declared (2, 2, 1) twice, whose monodromy is induced once
    scenario = subset_scenario(3, 1000)
    irr = assemble(scenario)["irreducibility"]
    assert irr["transitive"] and irr["basis"] == "synthesized"
    (gens,) = seen
    assert len(set(gens)) == len(gens) == 1 + 4
    # fewer simple branch points than sheets - 1 keep one transposition each
    seen.clear()
    assemble(subset_scenario(3, 0, special_fibers=[[3, 2], [3, 2]]))
    (gens,) = seen
    assert len(set(gens)) == len(gens) == 1 + 2


def test_keyed_verdict_follows_model_choice():
    assert keyed_verdict(assemble(subset_scenario(2, 1, model="both")))
    assert keyed_verdict(assemble(subset_scenario(2, 1, model="paper")))
    assert not keyed_verdict(assemble(subset_scenario(2, 1, model="monodromy")))
    assert not keyed_verdict(assemble(subset_scenario(2, 0, model="monodromy")))


def test_unchecked_analytic_hypotheses_everywhere():
    for scen in (subset_scenario(3, 1), grid_scenario(2)):
        for m in assemble(scen)["models"].values():
            assert m["hypotheses"]["primitivity"] == "unchecked"
            assert m["hypotheses"]["smoothness"] == "unchecked"


def test_prym_dimension_is_an_int_or_a_reduced_ratio():
    # each value is the one Fraction((2 * (g - d) + f), 2 * q) writes, reduced
    # by the gcd with the sign on the numerator
    cases = {(5, 1, 2, 2): "5/2", (6, 1, 0, 2): "5/2", (7, 1, 0, 3): 2, (3, 3, 0, 2): 0}
    for args, want in cases.items():
        dim = prym_dimension(*args)
        assert dim == want and type(dim) is type(want)
        g, d, f, q = args
        assert str(Fraction(2 * (g - d) + f, 2 * q)) == str(dim)
    for g in range(0, 40):
        for q in range(2, 7):
            exact = Fraction(2 * g + 3, 2 * q)
            want = int(exact) if exact.denominator == 1 else str(exact)
            assert prym_dimension(g, 0, 3, q) == want
    with pytest.raises(DimensionError, match="negative: -7/3"):
        prym_dimension(0, 7, 0, 3)
    with pytest.raises(DimensionError, match="negative: -1$"):
        prym_dimension(0, 2, 0, 2)


def test_report_serialization_round_trip():
    # grid g = 300 repeats each fiber entry about 150 times; its json.loads
    # copy records no splice, so the writer's memo writes every repeat
    for scen in (subset_scenario(3, 1), subset_scenario(2, 0), grid_scenario(2), grid_scenario(300)):
        rep = assemble(scen)
        text = report_to_json(rep)
        assert canonical_json(json.loads(text)) == text
        data = json.loads(text)
        assert data["correspondence"]["exponent"] == rep["correspondence"]["exponent"]
        assert set(data["models"]) == set(rep["models"])
        for model, m in rep["models"].items():
            entry = data["models"][model]
            hyp = entry["hypotheses"]
            assert set(hyp) == {
                "quadratic_ok", "fixed_even", "n_le_d", "nesting_ok",
                "irreducible", "primitivity", "smoothness",
            }
            if "error" in m:
                assert entry["error"] == m["error"]


def reference_json(data) -> str:
    """The format canonical_json reproduces, written by the standard library."""
    return json.dumps(data, indent=2, sort_keys=True)


TRICKY_STRINGS = st.sampled_from(
    ["", '"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r", "é", "\u2028", "\U0001F600", "/"]
)
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.integers(-(10**40), 10**40)
    | st.text(max_size=6)
    | TRICKY_STRINGS
)


def json_containers(children):
    keys = st.text(max_size=4) | TRICKY_STRINGS
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4)
    )


SHARED_SUBTREES = json_containers(
    st.recursive(JSON_LEAVES, json_containers, max_leaves=8)
).filter(len)


@st.composite
def json_trees_with_shared_subtree(draw):
    # one container object held at several depths and positions, the way a
    # report repeats one fiber entry: at depths 1 and 3, and wherever the
    # drawn tree holds it, which itself sits at depths 1 and 3
    shared = draw(SHARED_SUBTREES)
    tree = draw(st.recursive(JSON_LEAVES | st.just(shared), json_containers, max_leaves=20))
    return [shared, tree, {"k": [tree, shared]}, shared]


SHARED_INTS = [3, -1, 10**40]


class Colour(enum.IntEnum):
    RED = 1


SHARED_TREE = {"a": [SHARED_INTS, None], "b": ({"c": "d"}, [])}


@settings(max_examples=100, deadline=None)
@given(data=json_trees_with_shared_subtree())
@example(data=[SHARED_INTS, {"k": [SHARED_INTS, [SHARED_INTS]]}, SHARED_INTS])
@example(data=[SHARED_TREE, 1, SHARED_TREE, SHARED_TREE, [SHARED_TREE], SHARED_TREE])
def test_canonical_json_matches_json_dumps(data):
    assert canonical_json(data) == reference_json(data)


def _fiber_like(w: int) -> dict:
    return {"w": w, "classes": [{"members": [[1, w], [2, w]], "index": 2, "block": None}]}


_ROWS, _P1, _P2, _P3 = (_fiber_like(w) for w in range(4))
_NESTED = [_P1, [_P1, _P1], {"k": _P1}]
# a list whose first element repeats later, so that element's text opens
# the list once and is copied from its span after a comma; the list, or the
# container that holds it, is met again at another depth and re-indented
_OPENS = [_P1, _P2, _P1, 5, _P1]
_HOLDS_OPENS = {"fibers": _OPENS, "w": 1}
# an element that holds a list with repeats, itself repeated in a list
_HOLDS_REPEATS = {"fibers": [_P1, _P2, _P1, _P1], "w": 0}


# a list that holds one element (by id) more than once, and that no Report
# records, is written element by element through the memo; every case must
# still be the bytes of json.dumps
@pytest.mark.parametrize(
    "data",
    [
        {"special_fibers": [_ROWS, _ROWS] + [_P1, _P2, _P3] * 7},
        ({"x": 1}, SHARED_INTS, {"x": 1}, SHARED_INTS, SHARED_INTS),
        [SHARED_INTS] * 5,
        [None, True, 1, "w", _P1, None, True, 1, "w", _P1, False, [], {}, [], 0, 0],
        [_NESTED, 7, _NESTED, {"again": [_NESTED, _NESTED]}],
        [_HOLDS_OPENS, [[_HOLDS_OPENS]], {"k": {"deeper": _HOLDS_OPENS}}],
        {"a": [[[_OPENS]]], "b": _OPENS, "c": [_OPENS, _OPENS]},
        [_P1, _P1, _P1, _P1, _P2, _P1, _P3, _P1, _P3],
        [_P2] * 1000,
        [_HOLDS_REPEATS, 3, _HOLDS_REPEATS, [_HOLDS_REPEATS], _HOLDS_REPEATS],
    ],
    ids=[
        "grid-shaped",
        "tuple-repeats",
        "repeated-int-list",
        "shared-scalars",
        "nested-repeats",
        "first-repeats-in-a-container-met-again",
        "first-repeats-in-a-list-met-again",
        "distinct-element-first-met-late",
        "one-element-1000-times",
        "repeated-list-in-a-repeated-element",
    ],
)
def test_canonical_json_splices_repeats_like_json_dumps(data):
    assert canonical_json(data) == reference_json(data)


def _fixed_then_classes(first: str, second: str, shared) -> dict:
    # the report's shape: a class's member list under a fixed point (depth 5)
    # and under its fiber entry's class (depth 7); the keys choose the order
    return {
        "models": {
            "paper": {
                first: [{"members": shared, "fiber": 0}],
                second: [{"classes": [{"members": shared, "index": 2}]}],
            }
        }
    }


_MEMBERS = [[1, 3, 5], [2, 4, 6]]
_SUBTREE = {"rows": _MEMBERS, "s": "a\nb", "t": [{"u": [None, [7]]}], "e": {}}
_INNER = {"k": [1, 2], "d": {"x": "y"}}
_SPLICED = {"inner": _INNER, "w": 3}


# the memo writes a container met again from its recorded span: sliced at
# the same depth, re-indented at another, its span still valid when met
# inside a repeated element and after it, and a cycle seen as an open span
@pytest.mark.parametrize(
    "data",
    [
        _fixed_then_classes("fixed_points", "special_fibers", _MEMBERS),
        _fixed_then_classes("special_fibers", "fixed_points", _MEMBERS),
        _fixed_then_classes("fixed_points", "special_fibers", _SUBTREE),
        _fixed_then_classes("special_fibers", "fixed_points", _SUBTREE),
        {"a": [_SPLICED, _SPLICED], "b": _INNER, "c": [[_INNER]], "d": [[[[_SPLICED]]]]},
        [[_INNER, 1, _INNER], _INNER, [[_SPLICED, _SPLICED]], _SPLICED],
        {"p": _SUBTREE, "q": _SUBTREE, "r": {"p": _SUBTREE}, "s": [_SUBTREE, 0, _SUBTREE]},
        [_MEMBERS, [_MEMBERS, {"m": _MEMBERS}], [[_MEMBERS, _MEMBERS]]],
    ],
    ids=[
        "depth-5-then-7",
        "depth-7-then-5",
        "subtree-5-then-7",
        "subtree-7-then-5",
        "met-inside-a-splice-then-after",
        "met-inside-a-splice-then-outside",
        "repeat-in-dict-and-list",
        "rows-at-three-depths",
    ],
)
def test_canonical_json_memo_writes_repeats_like_json_dumps(data):
    assert canonical_json(data) == reference_json(data)


def test_canonical_json_writes_past_its_separator_table_and_keeps_it():
    # the table holds depths 0 to 8, the deepest a report reaches; here
    # lists nest 12 deep, so deeper separators are built for the call.
    # shared is written at depth 1, then met at 12 and at 2, and low is
    # written at 12, then met at 1, so the memo re-indents both ways
    table = report_module._SEPARATORS
    shared, low = [{"k": [1, 2]}, ["s"]], [["t"], {"u": ["v"]}]
    deep = [shared, low]
    for _ in range(10):
        deep = [deep, "x"]
    data = [shared, deep, [shared], low]
    assert canonical_json(data) == json.dumps(data, indent=2, sort_keys=True)
    assert report_module._SEPARATORS is table
    assert table == tuple(map(report_module._separators, range(9)))


@st.composite
def json_dags(draw):
    # each container is built from leaves and containers built before it,
    # so one object recurs at many depths and positions, never in a cycle;
    # a list of the built ones repeats some, inside and after a splice
    built: list = []
    for _ in range(draw(st.integers(1, 6))):
        children = JSON_LEAVES | st.sampled_from(built) if built else JSON_LEAVES
        built.append(draw(json_containers(children)))
    reused = st.sampled_from(built)
    return draw(st.lists(reused, min_size=2, max_size=6) | json_containers(reused))


@settings(max_examples=150, deadline=None)
@given(data=json_dags())
def test_canonical_json_reused_containers_match_json_dumps(data):
    assert canonical_json(data) == reference_json(data)


def test_canonical_json_detects_cycles_through_memoized_spans():
    # each cycle closes on a container the memo already holds, met again
    # at another depth or inside a repeated element
    shared: dict = {}
    deeper = {"a": shared, "b": [[shared]]}
    shared["up"] = [deeper]
    spliced: dict = {"n": 1}
    outer = [[spliced, spliced], {"k": spliced}]
    spliced["back"] = outer
    rows = [[1, 2]]
    looped = [rows, {"r": rows}, [rows, rows]]
    looped.append([looped])
    for data in (deeper, outer, [outer, outer], looped):
        with pytest.raises(ValueError, match="Circular reference"):
            reference_json(data)
        with pytest.raises(ValueError, match="Circular reference"):
            canonical_json(data)


# a list or tuple of plain ints is written in one piece; bools, int
# subclasses and floats among ints must take the general path, which
# refuses a float (test_canonical_json_refuses_what_json_dumps_refuses)
@pytest.mark.parametrize(
    "data",
    [
        [True, 1],
        [1, True],
        (0, -(10**40)),
        [Colour.RED, 2],
        [[], [1]],
        [SHARED_INTS, [[SHARED_INTS]]],
        [[255, 256, -1, 0], [10**40, -256]],
        [[1, 2], [True]],
    ],
    ids=[
        "bool-first",
        "bool-last",
        "tuple",
        "int-enum",
        "empty-nested",
        "shared-depths-1-3",
        "rows-past-the-table",
        "rows-with-a-bool",
    ],
)
def test_canonical_json_int_lists_match_json_dumps(data):
    assert canonical_json(data) == reference_json(data)


def test_canonical_json_scalars_match_json_dumps():
    for value in (None, True, False, 0, -(2**100), "", "x\"y"):
        assert canonical_json(value) == reference_json(value)


@pytest.mark.parametrize(
    "data",
    [
        Fraction(1, 2),
        {"a": [Fraction(1, 2)]},
        {1, 2},
        [1, {"s": {3}}],
        object(),
        1.5,
        [0.1, -2.5e300],
        [1, 2.5],
    ],
)
def test_canonical_json_refuses_what_json_dumps_refuses(data):
    try:
        reference_json(data)
    except TypeError as exc:
        message = str(exc)
    else:
        # json.dumps writes a float, but a report is exact and never holds
        # one (test_report_json_has_no_floats): the writer refuses it with
        # the TypeError json gives a value it cannot write
        message = "Object of type float is not JSON serializable"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        canonical_json(data)


@pytest.mark.parametrize(
    "data",
    [
        Permutation((2, 1)),
        fixed_points.NestingFailure("no chain", 1, 0),
        {"nesting": [fixed_points.NestingFailure("no chain", 1, 0)]},
    ],
)
def test_canonical_json_refuses_records(data):
    # json.dumps writes a namedtuple record as a list; the writer accepts a
    # list or tuple by its exact type, so a record that strays into a report
    # is refused as a dataclass was
    with pytest.raises(TypeError, match="is not JSON serializable"):
        canonical_json(data)


def test_canonical_json_detects_cycles():
    looped: list = [1]
    looped.append(looped)
    inner: dict = {}
    cyclic = {"a": [inner]}
    inner["back"] = cyclic
    # cycles through an element that its list holds more than once
    back: list = [1]
    repeated = [back, 2, back]
    back.append(repeated)
    shared: dict = {}
    spliced = {"r": [shared, shared, shared]}
    shared["x"] = [spliced]
    for data in (looped, cyclic, [[looped]], repeated, spliced, [repeated, repeated]):
        with pytest.raises(ValueError, match="Circular reference"):
            reference_json(data)
        with pytest.raises(ValueError, match="Circular reference"):
            canonical_json(data)


def test_canonical_json_writes_a_str_subclass_as_its_text():
    class Label(str):
        pass

    data = {"a": [Label("x\ny"), {"b": Label("\u00e9")}], "c": Label(""), "d": [Label("z")] * 2}
    assert canonical_json(data) == json.dumps(data, indent=2, sort_keys=True)


def test_canonical_json_refuses_non_string_keys():
    # json.dumps would write these keys as strings; reports never have them
    for data in ({1: "a"}, {"a": {None: 1}}, {"a": 1, 2: "b"}):
        with pytest.raises(TypeError):
            canonical_json(data)


@pytest.mark.parametrize(
    "scenario",
    [grid_scenario(g) for g in (2, 20, 300)] + [subset_scenario(n, 2) for n in range(2, 8)],
    ids=lambda s: f"{s.kind}-{s.parameter}-g{s.upstairs_genus}",
)
def test_report_to_json_matches_json_dumps(scenario):
    rep = assemble(scenario)
    assert set(rep["models"]) == {MERGED, ORBIT}
    assert report_to_json(rep) == reference_json(rep)


# four edits of one model's fiber list, each leaving a list its splice
# record no longer describes: another model's entry in place of one, a copy
# of an entry in its own place, one entry more and one fewer; and an entry
# changed in place, which its record still describes, since a record holds
# the entry objects, never their text
FIBER_LIST_EDITS = {
    "other-entry": lambda fibers, other: fibers.__setitem__(1, other[0]),
    "copied-entry": lambda fibers, other: fibers.__setitem__(1, copy.deepcopy(fibers[1])),
    "appended": lambda fibers, other: fibers.append(fibers[0]),
    "deleted": lambda fibers, other: fibers.__delitem__(0),
    "entry-changed-in-place": lambda fibers, other: fibers[1].__setitem__("w", -1),
}


# the subset n = 3 default declares its one profile twice
@pytest.mark.parametrize("build", [lambda: grid_scenario(20), lambda: subset_scenario(3, 1)],
                         ids=["grid-g20", "subset-n3"])
@pytest.mark.parametrize("edit", FIBER_LIST_EDITS.values(), ids=FIBER_LIST_EDITS)
def test_an_edited_fiber_list_writes_what_json_dumps_writes(build, edit):
    data = assemble(build())
    merged, orbit = (data["models"][m]["special_fibers"] for m in (MERGED, ORBIT))
    assert len(merged) >= 2 and len(set(map(id, merged))) < len(merged)
    edit(merged, orbit)
    assert canonical_json(data) == reference_json(data)


@pytest.mark.parametrize("scenario", [grid_scenario(20), subset_scenario(3, 1)],
                         ids=["grid-g20", "subset-n3"])
def test_a_copied_report_writes_the_report_s_own_bytes(scenario):
    data = assemble(scenario)
    text = canonical_json(data)
    assert text == reference_json(data)
    # a dict copy carries no splice record; a deep copy and a pickle round
    # trip carry theirs, pointing at their own copied lists
    assert canonical_json({**data}) == text
    for copied in (copy.deepcopy(data), pickle.loads(pickle.dumps(data))):
        assert type(copied) is report_module.Report
        held = [rep["special_fibers"] for rep in copied["models"].values()]
        assert [id(splice[0]) for splice in copied.splices] == list(map(id, held))
        assert canonical_json(copied) == text


_RUN = report_module._RUN


def _spliced_report(positions: bytes) -> report_module.Report:
    """A Report whose one recorded fiber list names its entries by
    positions, with a splice record as assemble keeps one.  Each entry
    holds a member list that the report also holds before the list (at
    another depth) and after it, so the memo serves the entries too."""
    shared = [[1, 2], [3, 4]]
    entries = [{"model": "paper", "w": i, "classes": [{"members": shared}]}
               for i in range(max(positions) + 1)]
    snapshot = tuple(map(entries.__getitem__, positions))
    fibers = list(snapshot)
    rep = report_module.Report(
        {"a": shared, "models": {"paper": {"special_fibers": fibers, "w": 1}}, "z": [shared]})
    rep.splices = ((fibers, entries, positions, snapshot),)
    return rep


def _spliced_pieces(positions: bytes) -> int:
    """The pieces the fiber list adds: a list of at most one run adds one per
    position; a longer list, cut into runs of _RUN positions, adds one per
    run met more than once and one per position of a run met once."""
    if len(positions) <= _RUN:
        return len(positions)
    runs = [positions[i:i + _RUN] for i in range(0, len(positions), _RUN)]
    return sum(1 if runs.count(run) > 1 else len(run) for run in runs)


# lengths about the run: one position, a run less one, one run, a run and
# one, two runs, and k runs and a remainder
_SPLICE_LENGTHS = (1, _RUN - 1, _RUN, _RUN + 1, 2 * _RUN, 5 * _RUN + 7)
_SPLICE_ORDERS = {
    "periodic": lambda n: bytes(i % 3 for i in range(n)),
    # the grid's shape: a first position of its own, then period 3
    "grid-like": lambda n: bytes([0]) + bytes(1 + i % 3 for i in range(n - 1)),
    "one-entry": lambda n: bytes(n),
    "random": lambda n: bytes(random.Random(n).randrange(4) for _ in range(n)),
    "all-distinct": lambda n: bytes(i % 251 for i in range(n)),
}


@pytest.mark.parametrize("n", _SPLICE_LENGTHS)
@pytest.mark.parametrize("order", _SPLICE_ORDERS.values(), ids=_SPLICE_ORDERS)
def test_a_spliced_fiber_list_writes_what_json_dumps_writes_in_runs(order, n):
    positions = order(n)
    rep = _spliced_report(positions)
    pieces = report_module.json_pieces(rep)
    assert "".join(pieces) == reference_json(rep)
    # the pieces outside the list are those of a one-position list less its one
    outside = len(report_module.json_pieces(_spliced_report(positions[:1]))) - 1
    assert len(pieces) == outside + _spliced_pieces(positions)


# the edits that leave a list its record no longer describes
_LIST_EDITS = {k: e for k, e in FIBER_LIST_EDITS.items() if k != "entry-changed-in-place"}


@pytest.mark.parametrize("n", [_RUN + 1, 5 * _RUN + 7])
@pytest.mark.parametrize("edit", _LIST_EDITS.values(), ids=_LIST_EDITS)
def test_an_edited_list_of_runs_goes_through_the_memo(edit, n):
    rep = _spliced_report(_SPLICE_ORDERS["grid-like"](n))
    edit(rep["models"]["paper"]["special_fibers"], [{"model": "monodromy", "w": -2}])
    pieces = report_module.json_pieces(rep)
    assert "".join(pieces) == reference_json(rep)
    # a dict copy carries no record: its pieces are the memo's, piece for piece
    assert pieces == report_module.json_pieces({**rep})


@pytest.mark.parametrize("genus", [3000, 10_000])
def test_a_grid_report_splices_its_runs_in_few_pieces(genus):
    # 2g + 4 positions per model: one piece per position would be 12,320
    # pieces at g = 3000; runs that recur are one piece each
    pieces = report_module.json_pieces(assemble(grid_scenario(genus)))
    assert len(pieces) < 1_500


def test_repeated_fibers_share_one_entry():
    cases = (
        (grid_scenario(5), 4),
        (subset_scenario(3, 2), 1),
        # the simple profile declared between two others: its position holds
        # the layout's one simple fiber, which is a layout fiber only here
        (subset_scenario(3, 1, special_fibers=[[3, 2], [2, 1, 1, 1], [3, 2]]), 2),
    )
    for scen, distinct in cases:
        corr = build_subset_matrix(3) if scen.kind == "subset" else build_grid_matrix(3)
        layouts, _ = fiber_layout(scen, corr)
        for model, rep in assemble(scen)["models"].items():
            fibers, _, positions, _, _ = layouts[model]
            entries = [id(e) for e in rep["special_fibers"]]
            # the same fiber always gets the same entry object
            assert len(set(zip(positions, entries))) == len(set(entries)) == distinct
            # and each entry holds the fiber of its position, a merged subset
            # entry with the block multisets of its profile; a subset
            # layout's fibers are exactly its distinct declared profiles, in
            # declaration order, and the simple fiber is not among them
            # unless it is declared
            blocks = [None] * len(fibers)
            if scen.kind == "subset":
                profiles = dict.fromkeys(scen.special_fibers)
                assert fibers == tuple(subset_fiber(corr, p, model) for p in profiles)
                if model == MERGED:
                    blocks = [blocks_from_parts(p, scen.degree) for p in profiles]
            assert rep["special_fibers"] == [
                {"model": model, **fiber_to_dict(fibers[i], blocks[i])} for i in positions
            ]


def test_model_entries_share_each_fiber_body():
    # the grid's two models carry one fiber_to_dict body per distinct fiber,
    # so each position's entries hold one classes list
    data = assemble(grid_scenario(5))
    merged, orbit = (data["models"][m]["special_fibers"] for m in (MERGED, ORBIT))
    assert len(merged) == len(orbit) == 14
    for a, b in zip(merged, orbit):
        assert a is not b and a["model"] != b["model"]
        assert a["classes"] is b["classes"]
    assert len({id(e["classes"]) for e in merged}) == 4
    assert json.loads(report_to_json(data)) == data


@pytest.mark.parametrize(
    "scenario, calls",
    [
        (grid_scenario(5), 4),
        (grid_scenario(5, model="paper"), 4),
        (subset_scenario(5, 3), 2),
        (subset_scenario(5, 3, model="paper"), 1),
        (subset_scenario(3, 1, special_fibers=[[3, 2], [2, 2, 1]]), 4),
        (subset_scenario(3, 1, special_fibers=[]), 0),
    ],
    ids=["grid-both", "grid-paper", "subset-5-both", "subset-5-paper", "subset-3-three-profiles",
         "subset-3-no-declared-fibers"],
)
def test_each_fiber_body_is_built_once_per_report(scenario, calls, monkeypatch):
    # the grid's one layout builds four bodies for both models; a subset
    # layout builds one per declared profile and model, since only the
    # merged body writes block multisets, and none for its simple fiber,
    # which no entry names
    built = []
    original = report_module.fiber_to_dict

    def record(fiber, blocks):
        built.append(original(fiber, blocks))
        return built[-1]

    monkeypatch.setattr(report_module, "fiber_to_dict", record)
    data = assemble(scenario)
    assert len(built) == calls
    # the model entries hold the classes of exactly those bodies: each is written
    held = {id(e["classes"]) for rep in data["models"].values() for e in rep["special_fibers"]}
    assert held == {id(body["classes"]) for body in built}
    # a subset layout still checks the simple fiber it writes no entry for
    free = {rep["simple_fibers_fixed_free"] for rep in data["models"].values()}
    assert free == ({None} if scenario.kind == "grid" else {True})


@pytest.mark.parametrize(
    "scenario, runs",
    [(grid_scenario(5), 1), (grid_scenario(300), 1), (subset_scenario(4, 2), 2)],
    ids=["grid-5", "grid-300", "subset-4"],
)
def test_layout_facts_are_computed_once_per_layout(scenario, runs, monkeypatch):
    # a grid report's two models share one layout object, so its scan and
    # nesting search run once; a subset layout differs between models, so
    # each runs its own.  The independent re-check runs once per model, on
    # that model's own entries
    calls = Counter()
    for name in ("fixed_point_scan", "nesting_search", "check_certificate"):
        def count(*args, original=getattr(report_module, name), name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(report_module, name, count)
    data = assemble(scenario)
    assert len(data["models"]) == 2
    assert calls == {"fixed_point_scan": runs, "nesting_search": runs, "check_certificate": 2}


def test_a_report_builds_its_points_and_their_index_once(monkeypatch):
    # every fiber and the irreducibility check induce their label moves
    # through the report's correspondence, so the n-subsets and the grid
    # cells are each built once, by the matrix's label rule, and no colex
    # index of the perms module is built
    built = Counter()
    for module, name in ((perms, "all_subsets"), (perms, "subset_index"),
                         (correspondence, "grid_points")):
        original = getattr(module, name)

        def count(*args, original=original, name=name):
            built[name, *args] += 1
            return original(*args)

        for bound in [m for key, m in sys.modules.items() if key.startswith("prymtyurin")]:
            if getattr(bound, name, None) is original:
                monkeypatch.setattr(bound, name, count)
    assemble(subset_scenario(4, 2, model="both"))
    assert built == {("all_subsets", 6, 4): 1}
    built.clear()
    assemble(grid_scenario(5))
    assert built == {("grid_points", 3): 1}


def test_subset_layout_builds_one_fiber_per_profile(monkeypatch):
    built, acted = [], []
    original, original_action = scenario_module.subset_fiber, report_module.class_action

    def record(n, parts, model):
        built.append(parts)
        return original(n, parts, model)

    def record_action(corr, fiber):
        acted.append(fiber)
        return original_action(corr, fiber)

    monkeypatch.setattr(scenario_module, "subset_fiber", record)
    monkeypatch.setattr(report_module, "class_action", record_action)
    assemble(subset_scenario(3, 2, model="paper"))
    # the declared (2,2,1) twice and the simple (2,1,1,1) once
    assert len(built) == len(acted) == 2
    # both models: (2,2,1) once per model, and the simple fiber, the same
    # under both, once for the two
    for model in ("both", "monodromy"):
        built.clear(), acted.clear()
        assemble(subset_scenario(3, 1, model=model))
        assert len(built) == len(acted) == (3 if model == "both" else 2)
    # a declared simple profile is the simple-branch representative itself
    built.clear()
    data = assemble(subset_scenario(3, 1, special_fibers=[[2], [2, 2]], model="paper"))
    assert len(built) == 2
    (merged,) = data["models"].values()
    assert merged["simple_fibers_fixed_free"] is True
    built.clear()
    assemble(subset_scenario(3, 1, special_fibers=[[2]], model="both"))
    assert built == [(2, 1, 1, 1)]


def test_a_subset_report_walks_each_fiber_s_orbits_once(monkeypatch):
    # a fiber's classes are its generators' orbits, walked where it is
    # built; class_action reads the orbits the fiber keeps and walks none
    walks, acting = [], []
    original_walk, original_action = induced_curve.orbits, report_module.class_action

    def walk(generators, degree):
        walks.append(bool(acting))
        return original_walk(generators, degree)

    def act(corr, fiber):
        acting.append(fiber)
        try:
            return original_action(corr, fiber)
        finally:
            acting.pop()

    monkeypatch.setattr(induced_curve, "orbits", walk)
    monkeypatch.setattr(report_module, "class_action", act)
    for n in (3, 6):
        walks.clear()
        assemble(subset_scenario(n, 1))
        # the declared profile under each model and the shared simple fiber
        assert walks == [False] * 3


def test_nesting_search_counts_each_distinct_fiber_s_cliques_once(monkeypatch):
    # the default profiles repeat one fiber, which fails under the
    # monodromy model: its cliques are counted at its first position, and
    # the failure still counts both positions
    calls = []
    original = fixed_points._clique_counts

    def counted(adjacent, n):
        calls.append(n)
        return original(adjacent, n)

    monkeypatch.setattr(fixed_points, "_clique_counts", counted)
    for n in (3, 10):
        calls.clear()
        data = assemble(subset_scenario(n, 3, model="monodromy"))
        nest = data["models"][ORBIT]["nesting"]
        assert len(calls) == 1
        assert not nest["certified"] and nest["fibers_searched"] == 2
    # a certified model counts only the fiber whose chain it finds
    calls.clear()
    assemble(subset_scenario(4, 2, model="paper"))
    assert len(calls) == 1


@pytest.mark.parametrize("doctored", ["first-class", "empty"])
def test_a_chain_that_misses_the_fixed_point_count_fails_the_model(monkeypatch, doctored):
    # subset n = 4, gx = 2 certifies a chain of 3 fixed points at
    # delta_dot_d = 6; a search that returned that chain cut to its first
    # class, or an empty chain, would make a certificate that holds every
    # entry check, and the report must still refuse it
    scenario = subset_scenario(4, 2, model=MERGED)
    honest = assemble(scenario)
    assert honest["verdict"][MERGED] == "verified"
    original = report_module.nesting_search

    def search(*args):
        cert = original(*args)
        if doctored == "empty":
            return fixed_points.NestingCertificate(fiber=-1, chain=(), multiplicities=())
        return fixed_points.NestingCertificate(cert.fiber, cert.chain[:1], cert.multiplicities[:1])

    monkeypatch.setattr(report_module, "nesting_search", search)
    data = assemble(scenario)
    rep = data["models"][MERGED]
    assert rep["delta_dot_d"] == 6 and rep["nesting"]["certified"]
    assert len(rep["nesting"]["chain"]) == (0 if doctored == "empty" else 1)
    assert rep["certificate_checked"] is False
    assert rep["hypotheses"]["nesting_ok"] is False
    assert data["verdict"][MERGED] == "failed"
    # the table follows the checker: the chain was re-checked and refused,
    # and an empty chain at delta_dot_d = 6 is not trivial
    row = next(line for line in render_table(data).splitlines() if line.startswith("nesting"))
    assert row.endswith("(refused by the re-check)") and "trivial" not in row


def test_declared_simple_profile_shares_its_fiber_between_models():
    # the simple profile's one fiber serves both models; only the merged
    # entry writes block multisets, from the profile's blocks
    data = assemble(subset_scenario(3, 1, special_fibers=[[2]], model="both"))
    merged, orbit = (data["models"][m]["special_fibers"][0] for m in (MERGED, ORBIT))
    assert merged["w"] == orbit["w"] == 3
    # the blocks differ, so the two entries get two bodies
    assert merged["classes"] is not orbit["classes"]
    assert json.loads(report_to_json(data)) == data
    assert [c["members"] for c in merged["classes"]] == [c["members"] for c in orbit["classes"]]
    assert all(c["block_multiset"] is not None for c in merged["classes"])
    assert all(c["block_multiset"] is None for c in orbit["classes"])
    for n in range(2, 8):
        simple = (2,) + (1,) * n
        corr = build_subset_matrix(n)
        assert subset_fiber(corr, simple, MERGED) == subset_fiber(corr, simple, ORBIT)


@pytest.mark.parametrize(
    "scenario",
    [subset_scenario(n, 1) for n in (2, 3, 4, 6)] + [grid_scenario(g) for g in (2, 5)],
    ids=lambda s: f"{s.kind}-{s.parameter}-g{s.upstairs_genus}",
)
def test_members_are_the_fiber_entry_lists(scenario):
    # every fixed point and chain row lists its members as the fiber entry
    # it names does: one list object, built once.  Each scenario here
    # certifies a chain under at least one model
    certified = 0
    for rep in assemble(scenario)["models"].values():
        entries = rep["special_fibers"]
        for fixed in rep["fixed_points"]:
            named = entries[fixed["fiber"]]["classes"][fixed["class"]]
            assert fixed["members"] is named["members"]
        nest = rep["nesting"]
        if nest["certified"] and nest["chain"]:
            certified += 1
            classes = entries[nest["fiber"]]["classes"]
            for q, members in zip(nest["chain"], nest["chain_members"], strict=True):
                assert members is classes[q]["members"]
    assert certified


def test_grid_g3000_serializes_under_a_second():
    rep = assemble(grid_scenario(3000))
    start = time.monotonic()
    text = report_to_json(rep)
    assert time.monotonic() - start < 1.0
    assert len(text) == 19_400_382


def test_grid_g3000_json_peak_memory_stays_near_its_length():
    # canonical_json joins json_pieces' list, so its peak is the joined text;
    # each of the four distinct fibers is written once into its own text and
    # the list of fiber entries splices references to those texts and to the
    # few runs of them that recur, so the pieces hold little beyond them
    data = assemble(grid_scenario(3000))
    tracemalloc.start()
    try:
        text = canonical_json(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * len(text)


def _retained_by_json_pieces(data, error=None) -> int:
    """The bytes still allocated after json_pieces(data) returns or raises
    error and its pieces are dropped, with the garbage collector off."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        try:
            pieces = report_module.json_pieces(data)
        except Exception as exc:
            assert type(exc) is error
        else:
            assert error is None
            del pieces
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()


@pytest.mark.parametrize("data", [
    pytest.param(lambda: assemble(subset_scenario(20, 3)), id="subset-n20-gx3"),
    pytest.param(lambda: assemble(grid_scenario(300)), id="grid-g300"),
])
def test_json_pieces_frees_its_memory_without_the_collector(data):
    # the writer's recursive closure refers to itself; the cycle is cut when
    # the call ends, so its memo and buffers go with the last reference to
    # the pieces, on a raise too, and never wait for the collector
    data = data()
    report_module.json_pieces(data)  # fills per-process caches
    assert _retained_by_json_pieces(data) < 64 * 1024
    # refused inputs, each met after the whole report was written
    assert _retained_by_json_pieces({**data, "~": 0.5}, TypeError) < 64 * 1024
    cyclic = {**data, "~": []}
    cyclic["~"].append(cyclic)
    assert _retained_by_json_pieces(cyclic, ValueError) < 64 * 1024


class _CharCount(io.TextIOBase):
    """A text stream that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


def _cli_json(genus: int) -> int:
    """The characters the CLI writes for the grid report of genus, as JSON."""
    sink = _CharCount()
    with contextlib.redirect_stdout(sink):
        assert cli.main(["builtin", "hyperelliptic", "--g", str(genus), "--format", "json"]) == 0
    return sink.chars


def test_cli_grid_g3000_json_peak_memory_is_far_below_its_length():
    # the CLI hands the writer's pieces to stdout unjoined: the four distinct
    # fiber texts and the few runs of them that recur, each joined once, are
    # referenced where they occur and never copied into one 19.4 MB string,
    # so the peak, assemble's included, is a small part of the text.  The
    # warm-up call fills import-time and per-process caches
    _cli_json(3000)
    tracemalloc.start()
    try:
        chars = _cli_json(3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chars == 19_400_383
    assert peak <= 0.1 * chars


@pytest.mark.parametrize("output", [report_to_json, render_table], ids=["json", "table"])
def test_grid_report_python_work_does_not_grow_with_genus(output):
    # the grid layout repeats four distinct fibers over 2g + 4 positions;
    # every per-position step (the layout, w, the fixed-point scan, the
    # nesting search, the entry list and the JSON splice) runs at C level,
    # so the Python lines of a whole report are the same at every genus.  A
    # subset layout grows only in its simple branch points, which no
    # position holds.  The CLI's JSON path writes the grid report's pieces
    # to stdout; the sink's own writes are not package lines.  The warm-up
    # call keeps any first-call work out of the count
    # (tests/test_calls_keep_no_state.py holds that there is none)
    runs = [lambda genus, build=build: output(assemble(build(genus)))
            for build in (grid_scenario, lambda genus: subset_scenario(5, genus))]
    if output is report_to_json:
        runs.append(_cli_json)
    for run in runs:
        run(300)
        assert package_lines(run, 300) == package_lines(run, 3000)


@pytest.mark.parametrize(
    "build, sizes", [(build_subset_matrix, (12, 40)), (build_grid_matrix, (8, 30))],
    ids=["subset", "grid"],
)
def test_construction_checks_run_the_same_python_lines_at_every_size(build, sizes):
    # symmetry, the empty diagonal and each symmetry are checked by C-level
    # gathers, slices and list compares, so neither the constructor nor
    # check_moves runs a Python line per row or per column
    counts = []
    for corr in map(build, sizes):
        fields = corr._asdict()
        counts.append((
            package_lines(lambda: correspondence.FiberCorrespondence(**fields)),
            package_lines(corr.check_moves, corr.symmetries, "symmetry"),
        ))
    assert counts[0] == counts[1]


def test_grid_g3000_computes_each_fiber_fact_once(monkeypatch):
    # 2g + 4 layout positions per model read the facts of four distinct
    # fibers, built once for both models: each fiber is built once, which
    # sets its w, and each is acted on once.
    # The report keeps no fiber, so the counted ones are held here: a freed
    # fiber's id could be reused
    counts = Counter()
    held = []

    def constructed(cls, *args, new=SpecialFiber.__new__):
        fiber = new(cls, *args)
        counts["SpecialFiber", id(fiber)] += 1
        held.append(fiber)
        return fiber

    def acted(corr, fiber, action=report_module.class_action):
        counts["class_action", id(fiber)] += 1
        held.append(fiber)
        return action(corr, fiber)

    monkeypatch.setattr(SpecialFiber, "__new__", staticmethod(constructed))
    monkeypatch.setattr(report_module, "class_action", acted)
    built = Counter()
    for name in ("grid_row_merge_fiber", "grid_pairing_fiber"):
        def build(*args, original=getattr(scenario_module, name), name=name):
            built[name] += 1
            return original(*args)

        monkeypatch.setattr(scenario_module, name, build)
    data = assemble(grid_scenario(3000))
    assert len(data["models"]) == 2
    assert set(counts.values()) == {1}
    # the two models share the four grid fibers and their facts
    assert Counter(name for name, _ in counts) == {"SpecialFiber": 4, "class_action": 4}
    assert {key for name, key in counts if name == "class_action"} == {
        key for name, key in counts if name == "SpecialFiber"
    }
    assert built == {"grid_row_merge_fiber": 1, "grid_pairing_fiber": 3}


# the merged n = 4 fiber has classes of sizes 1, 4, 1, 4, 4, 1 and its chain
# is classes 1, 3 and 4
@pytest.mark.parametrize("ci", [1, 2], ids=["chain-class", "off-chain-singleton"])
def test_certificate_is_checked_against_the_reported_fiber_entry(ci, monkeypatch):
    # the search runs on the fiber objects and still certifies, but the
    # check reads the entry the report carries, which lost a member
    original = report_module.fiber_to_dict

    def drop_a_member(fiber, blocks):
        entry = original(fiber, blocks)
        entry["classes"][ci]["members"].pop()
        return entry

    scenario = subset_scenario(4, 2, model="paper")
    data = assemble(scenario)
    assert data["models"][MERGED]["certificate_checked"] is True
    assert data["verdict"][MERGED] == "verified"
    monkeypatch.setattr(report_module, "fiber_to_dict", drop_a_member)
    data = assemble(scenario)
    merged = data["models"][MERGED]
    assert merged["nesting"]["chain"] == [1, 3, 4]
    assert merged["certificate_checked"] is False
    assert merged["hypotheses"]["nesting_ok"] is False
    assert data["verdict"][MERGED] == "failed"


def test_report_json_has_no_floats():
    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(assemble(subset_scenario(4, 1)))


def test_fiber_serialization_shape():
    data = assemble(subset_scenario(3, 1, model="paper"))
    fiber = data["models"]["paper"]["special_fibers"][0]
    assert fiber["w"] == 5
    big = next(c for c in fiber["classes"] if c["index"] == 4)
    assert big["members"] == [[1, 3, 5], [1, 4, 5], [2, 3, 5], [2, 4, 5]]
    assert big["block_multiset"] is not None
    assert sum(c["index"] for c in fiber["classes"]) == 10
    firsts = [c["members"][0] for c in fiber["classes"]]
    assert firsts == sorted(firsts)  # classes ordered by first member


def test_render_table_mentions_verdict_split():
    text = render_table(assemble(subset_scenario(3, 1)))
    assert "combinatorial hypotheses verified" in text
    assert "analytic hypotheses" in text
    assert "primitivity unchecked" in text
    text = render_table(assemble(subset_scenario(2, 0)))
    assert "error" in text


def _view_cases():
    # scenario, nesting budget (None keeps the default), a row the table must show
    for n in range(2, 8):
        for model in ("paper", "monodromy", "both"):
            scen = subset_scenario(n, 3, model=model)
            shows = f"== model: {models_for(model)[-1]} =="
            yield pytest.param(scen, None, shows, id=f"subset-n{n}-{model}")
    for g in (2, 20):
        yield pytest.param(grid_scenario(g), None, "3x3 grid", id=f"grid-g{g}")
    gens = [[2, 1, 3, 4, 5], [2, 3, 4, 5, 1]]
    scen = subset_scenario(3, 2, monodromy=gens)
    yield pytest.param(scen, None, "(explicit generators)", id="explicit-monodromy")
    yield pytest.param(subset_scenario(6, 3), 11, "verdict               undecided: ", id="undecided")
    yield pytest.param(subset_scenario(2, 0), None, "\nerror ", id="model-error")


@pytest.mark.parametrize("scenario, budget, shows", _view_cases())
def test_render_table_is_a_view_of_the_canonical_json(scenario, budget, shows, monkeypatch):
    # the table reads only the canonical dict, so the dict read back from the
    # canonical text, whose keys are sorted, renders the same bytes
    if budget is not None:
        monkeypatch.setattr(fixed_points, "NESTING_CLIQUE_BUDGET", budget)
    data = assemble(scenario)
    want = render_table(data)
    assert shows in want
    assert render_table(json.loads(canonical_json(data))) == want


def test_subset_n8_both_models_decided():
    data = assemble(subset_scenario(8, 3))
    assert keyed_verdict(data)
    merged = data["models"][MERGED]
    assert data["verdict"][MERGED] == "verified"
    assert nesting_kind(merged) == "certificate" and merged["nesting"]["chain"]
    assert certificate_holds(merged, "subset", 8)
    orbit = data["models"][ORBIT]
    assert data["verdict"][ORBIT] == "failed"
    assert nesting_kind(orbit) == "failure"
    assert orbit["nesting"]["orderings_tried"] == 128_655_846_080


# the sha256 of each large report's canonical JSON and of its table
LARGE_N_DIGESTS = {
    10: (
        "91d02f54d0ec02c3a560ab61955662b3d10d5ce60790e2db2336172686d8ccf9",
        "8011d602a714feeb4750eb9134ec760ee65c101462ffb18392c4f76d4942618e",
    ),
    12: (
        "b3c1e96f8a64fc98fa94284b254895320e970554757e2a6e14e6e47ade55e948",
        "cba4da00395b57e2683ac902a9ac58f048577a31db948c275002b4efd932d58a",
    ),
    16: (
        "cc2401adbf8993c220cc9a7797b269df92df1dc9a4a813e05e289659e0424459",
        "14257468f35f7223d83c69eca1f550d8d826312d3620343b6c298c2b373980c0",
    ),
    20: (
        "495b5a5bd941cc474df7671713026e912de8c31621902f9db8d56d8b718ce606",
        "5363d4d4aad4d2c27783c4e8f4362438937ee987a90f9cbd0dee62f7af32a2e9",
    ),
    30: (
        "3e4db239d8b66a94293f2029d30df7840d188e39298c825145e1c075d420ba13",
        "8ad0501e7a638f4c34bdb298c51a9773ecf41cb4abf901507883c828bdd65a4f",
    ),
    40: (
        "0467cb98fb46aaaeee8a1a72a716aa2de024082a8552c983af9e2d5395fdbc8b",
        "fbce3c19655b25f68fb99e8f0e7dd5cdb6516e646eb3b7160ff77211feee5f1c",
    ),
}


@pytest.mark.parametrize("n, pairs", [(10, 15), (12, 21), (16, 36), (20, 55), (30, 120), (40, 210)])
def test_subset_large_n_both_models_decided(n, pairs):
    start = time.monotonic()
    data = assemble(subset_scenario(n, 3))
    elapsed = time.monotonic() - start
    merged = data["models"][MERGED]
    assert data["verdict"][MERGED] == "verified"
    assert nesting_kind(merged) == "certificate" and merged["nesting"]["chain"]
    assert certificate_holds(merged, "subset", n)
    orbit = data["models"][ORBIT]
    assert data["verdict"][ORBIT] == "failed"
    assert nesting_kind(orbit) == "failure"
    # two orbit fibers of `pairs` pairs of fixed classes, as in
    # test_fixed_points.test_orderings_tried_closed_forms
    per_fiber = sum(
        comb(pairs, k) * 2**k * factorial(k) * (2 * pairs - k) for k in range(pairs + 1)
    )
    assert orbit["nesting"]["orderings_tried"] == 2 * per_fiber
    assert elapsed < 2.0
    json_digest, table_digest = LARGE_N_DIGESTS[n]
    assert hashlib.sha256(report_to_json(data).encode()).hexdigest() == json_digest
    assert hashlib.sha256(render_table(data).encode()).hexdigest() == table_digest


def test_exhausted_nesting_budget_is_undecided(monkeypatch):
    # below the 12 memo misses of counting an n = 6 orbit fiber, so the count
    # stops unfinished on the first one
    monkeypatch.setattr(fixed_points, "NESTING_CLIQUE_BUDGET", 11)
    data = assemble(subset_scenario(6, 3))
    assert data["verdict"][MERGED] == "verified"
    orbit = data["models"][ORBIT]
    assert nesting_kind(orbit) == "undecided"
    assert not orbit["combinatorial_verified"] and data["verdict"][ORBIT] == "undecided"
    assert data["verdict"] == {"paper": "verified", "monodromy": "undecided"}
    assert data["models"]["monodromy"]["nesting"]["memo_misses"] == 11
    assert "cliques_visited" not in data["models"]["monodromy"]["nesting"]
    assert "orderings_tried" not in data["models"]["monodromy"]["nesting"]
    orbit_table = render_table(data).split("== model: monodromy ==")[1]
    assert "nesting               undecided: " in orbit_table
    assert "| nesting undecided |" in orbit_table
    assert "verdict               undecided: " in orbit_table
    assert "NOT verified" not in orbit_table


def test_undecided_nesting_does_not_hide_a_failed_hypothesis(monkeypatch):
    monkeypatch.setattr(fixed_points, "NESTING_CLIQUE_BUDGET", 11)
    # a single transposition does not act transitively on 6-subsets
    data = assemble(subset_scenario(6, 3, model="monodromy", monodromy=[[2, 1, 3, 4, 5, 6, 7, 8]]))
    assert nesting_kind(data["models"][ORBIT]) == "undecided"
    assert not data["irreducibility"]["transitive"]
    assert data["verdict"][ORBIT] == "failed"
