import enum
import hashlib
import json
import os
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prymtyurin import fixed_points
from prymtyurin import report as report_module
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


def nesting_kind(rep: dict) -> str:
    """What a model's nesting entry records: a certificate, a failed search
    (it names its orderings tried) or an undecided one (its memo misses)."""
    nest = rep["nesting"]
    if nest["certified"]:
        return "certificate"
    return "undecided" if "memo_misses" in nest else "failure"


def certificate_holds(rep: dict, kind: str, parameter: int) -> bool:
    """check_certificate on a model's nesting entry and the fiber entry it names."""
    nest = rep["nesting"]
    return check_certificate(nest, rep["special_fibers"][nest["fiber"]], kind, parameter)


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
    layouts = fiber_layout(grid_scenario(4), build_grid_matrix(3))
    # both models read one layout object
    assert list(layouts) == [MERGED, ORBIT] and layouts[MERGED] is layouts[ORBIT]
    distinct, actions, positions, simple, profiles = layouts[MERGED]
    assert len(actions) == len(distinct)
    assert simple is None and profiles is None
    assert len(positions) == 2 + 10
    assert all(distinct[i].w_contribution == 3 for i in positions)
    # one row-merge fiber and three pairing fibers, each built once
    assert len(distinct) == 4
    assert positions == (0, 0, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1)


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


def test_all_simple_scenario():
    for n, gx in ((2, 1), (3, 1), (4, 2)):
        for m in assemble(subset_scenario(n, gx, special_fibers=[]))["models"].values():
            assert m["induced"]["genus"] == n * gx + n * (n - 1) // 2
            assert m["delta_dot_d"] == 0
            assert nesting_kind(m) == "certificate"
            assert m["nesting"]["chain"] == []
            assert m["dim_p"] == gx
            assert m["combinatorial_verified"]


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
    for scen in (subset_scenario(3, 1), subset_scenario(2, 0), grid_scenario(2)):
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


# a list that holds one element (by id) more than once is written by
# splicing each distinct element's text; every case must still be the
# bytes of json.dumps
@pytest.mark.parametrize(
    "data",
    [
        {"special_fibers": [_ROWS, _ROWS] + [_P1, _P2, _P3] * 7},
        ({"x": 1}, SHARED_INTS, {"x": 1}, SHARED_INTS, SHARED_INTS),
        [SHARED_INTS] * 5,
        [None, True, 1, "w", _P1, None, True, 1, "w", _P1, False, [], {}, [], 0, 0],
        [_NESTED, 7, _NESTED, {"again": [_NESTED, _NESTED]}],
    ],
    ids=["grid-shaped", "tuple-repeats", "repeated-int-list", "shared-scalars", "nested-repeats"],
)
def test_canonical_json_splices_repeats_like_json_dumps(data):
    assert canonical_json(data) == reference_json(data)


# a list or tuple of plain ints is written in one piece; bools, int
# subclasses and floats among ints must take the general path
@pytest.mark.parametrize(
    "data",
    [
        [True, 1],
        [1, True],
        (0, -(10**40)),
        [1, 2.5],
        [Colour.RED, 2],
        [[], [1]],
        [SHARED_INTS, [[SHARED_INTS]]],
    ],
    ids=[
        "bool-first", "bool-last", "tuple", "float", "int-enum", "empty-nested", "shared-depths-1-3"
    ],
)
def test_canonical_json_int_lists_match_json_dumps(data):
    assert canonical_json(data) == reference_json(data)


def test_canonical_json_scalars_match_json_dumps():
    for value in (None, True, False, 0, -(2**100), "", "x\"y", 1.5, [0.1, -2.5e300]):
        assert canonical_json(value) == reference_json(value)


@pytest.mark.parametrize(
    "data", [Fraction(1, 2), {"a": [Fraction(1, 2)]}, {1, 2}, [1, {"s": {3}}], object()]
)
def test_canonical_json_refuses_what_json_dumps_refuses(data):
    with pytest.raises(TypeError):
        reference_json(data)
    with pytest.raises(TypeError):
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


def test_repeated_fibers_share_one_entry():
    for scen, distinct in ((grid_scenario(5), 4), (subset_scenario(3, 2), 1)):
        corr = build_subset_matrix(3) if scen.kind == "subset" else build_grid_matrix(3)
        layouts = fiber_layout(scen, corr)
        for model, rep in assemble(scen)["models"].items():
            fibers, _, positions, _, profiles = layouts[model]
            entries = [id(e) for e in rep["special_fibers"]]
            # the same fiber always gets the same entry object
            assert len(set(zip(positions, entries))) == len(set(entries)) == distinct
            # and each entry holds the fiber of its position, a merged subset
            # entry with the block multisets of its profile
            blocks = [None] * len(fibers)
            if model == MERGED and profiles is not None:
                blocks = [blocks_from_parts(p, 5) for p in profiles]
            assert rep["special_fibers"] == [
                {"model": model, **fiber_to_dict(fibers[i], blocks[i])} for i in positions
            ]


def test_subset_layout_builds_one_fiber_per_profile(monkeypatch):
    built, acted = [], []
    original, original_action = report_module.subset_fiber, report_module.class_action

    def record(n, parts, model):
        built.append(parts)
        return original(n, parts, model)

    def record_action(corr, fiber):
        acted.append(fiber)
        return original_action(corr, fiber)

    monkeypatch.setattr(report_module, "subset_fiber", record)
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


def test_declared_simple_profile_shares_its_fiber_between_models():
    # the simple profile's one fiber serves both models; only the merged
    # entry writes block multisets, from the profile's blocks
    data = assemble(subset_scenario(3, 1, special_fibers=[[2]], model="both"))
    merged, orbit = (data["models"][m]["special_fibers"][0] for m in (MERGED, ORBIT))
    assert merged["w"] == orbit["w"] == 3
    assert [c["members"] for c in merged["classes"]] == [c["members"] for c in orbit["classes"]]
    assert all(c["block_multiset"] is not None for c in merged["classes"])
    assert all(c["block_multiset"] is None for c in orbit["classes"])
    for n in range(2, 8):
        simple = (2,) + (1,) * n
        assert subset_fiber(n, simple, MERGED) == subset_fiber(n, simple, ORBIT)


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
    # every piece goes to one list joined once at the end; each of the four
    # distinct fibers is written once into its own text and the list of
    # fiber entries splices references to those texts, so the pieces hold
    # little beyond them and the peak is about the text
    data = assemble(grid_scenario(3000))
    tracemalloc.start()
    try:
        text = canonical_json(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * len(text)


def _package_lines(func, *args) -> int:
    """The number of lines of the package that func(*args) runs.

    Code outside the package (a garbage-collection callback, say) is not
    counted, so the count does not depend on when a collection happens.
    """
    package = os.path.dirname(report_module.__file__) + os.sep
    count = 0

    def line(frame, event, arg):
        nonlocal count
        count += event == "line"
        return line

    def tracer(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        func(*args)
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("output", [report_to_json, render_table], ids=["json", "table"])
def test_grid_report_python_work_does_not_grow_with_genus(output):
    # the grid layout repeats four distinct fibers over 2g + 4 positions;
    # every per-position step (the layout, w, the fixed-point scan, the
    # nesting search, the entry list and the JSON splice) runs at C level,
    # so the Python lines of a whole report are the same at every genus.  A
    # subset layout grows only in its simple branch points, which no
    # position holds.  The warm-up call fills import-time and per-process
    # caches
    for build in (grid_scenario, lambda genus: subset_scenario(5, genus)):
        def run(genus, build=build):
            return output(assemble(build(genus)))

        run(300)
        assert _package_lines(run, 300) == _package_lines(run, 3000)


def test_grid_g3000_computes_each_fiber_fact_once(monkeypatch):
    # 2g + 4 layout positions per model read the facts of four distinct
    # fibers, built once for both models: each fiber's w is computed once
    # and each is acted on once.
    # The report keeps no fiber, so the counted ones are held here: a freed
    # fiber's id could be reused
    counts = Counter()
    held = []
    prop = SpecialFiber.__dict__["w_contribution"]

    def counted(self, func=prop.func):
        counts["w_contribution", id(self)] += 1
        held.append(self)
        return func(self)

    def acted(corr, fiber, action=report_module.class_action):
        counts["class_action", id(fiber)] += 1
        held.append(fiber)
        return action(corr, fiber)

    monkeypatch.setattr(prop, "func", counted)
    monkeypatch.setattr(report_module, "class_action", acted)
    built = Counter()
    for name in ("grid_row_merge_fiber", "grid_pairing_fiber"):
        def build(*args, original=getattr(report_module, name), name=name):
            built[name] += 1
            return original(*args)

        monkeypatch.setattr(report_module, name, build)
    data = assemble(grid_scenario(3000))
    assert len(data["models"]) == 2
    assert set(counts.values()) == {1}
    # the two models share the four grid fibers and their facts
    assert Counter(name for name, _ in counts) == {"w_contribution": 4, "class_action": 4}
    assert built == {"grid_row_merge_fiber": 1, "grid_pairing_fiber": 3}


# the merged n = 4 fiber has classes of sizes 1, 4, 1, 4, 4, 1 and its chain
# is classes 1, 3 and 4
@pytest.mark.parametrize("ci", [1, 2], ids=["chain-class", "off-chain-singleton"])
def test_certificate_is_checked_against_the_reported_fiber_entry(ci, monkeypatch):
    # the search runs on the fiber objects and still certifies, but the
    # check reads the entry the report carries, which lost a member
    original = report_module.fiber_to_dict

    def drop_a_member(fiber, blocks=None):
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
