import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prymtyurin.covering import CoveringData
from prymtyurin.report import assemble, canonical_json, covering_to_dict
from prymtyurin import scenario as scenario_module
from prymtyurin.scenario import (
    BOTH,
    GRID,
    KINDS,
    MAX_GRID_GENUS,
    MAX_SUBSET_GENUS_EXPONENT,
    MAX_SUBSET_N,
    MODEL_CHOICES,
    SUBSET,
    InvalidScenario,
    Scenario,
    default_subset_fibers,
    grid_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
    subset_scenario,
)


def test_default_fibers_pair_profiles():
    assert default_subset_fibers(2) == ((2, 2), (2, 2))
    assert default_subset_fibers(3) == ((2, 2, 1), (2, 2, 1))
    assert default_subset_fibers(4) == ((2, 2, 2), (2, 2, 2))
    assert default_subset_fibers(5) == ((2, 2, 2, 1), (2, 2, 2, 1))


def test_subset_scenario_defaults():
    s = subset_scenario(3, 1)
    assert s.kind == SUBSET
    assert s.model == BOTH
    assert s.special_fibers == ((2, 2, 1), (2, 2, 1))
    assert s.covering.degree == 5


def test_subset_scenario_pads_and_sorts_profiles():
    s = subset_scenario(3, 1, special_fibers=[[2, 2], [1, 2, 2]])
    assert s.special_fibers == ((2, 2, 1), (2, 2, 1))


def test_constructor_normalizes_its_input():
    # the constructor, not its callers, sorts and pads profiles and turns
    # generator lists into tuples
    raw = Scenario(
        kind=SUBSET,
        upstairs_genus=1,
        parameter=3,
        special_fibers=([2, 2], [1, 2, 2]),
        monodromy=[[2, 1, 3, 4, 5]],
    )
    assert raw.special_fibers == ((2, 2, 1), (2, 2, 1))
    assert raw.monodromy == ((2, 1, 3, 4, 5),)
    assert raw == subset_scenario(3, 1, monodromy=[[2, 1, 3, 4, 5]])


def test_grid_scenario():
    s = grid_scenario(4)
    assert s.kind == GRID
    assert s.parameter == 3
    assert s.covering.degree == 2


def test_scenario_covering():
    # subset n = 3, gx = 2: w = 2*2 - 2 + 2*5 = 12 is needed, the two (2,2,1)
    # fibers give 4, so 8 simple branch points are left
    s = subset_scenario(3, 2)
    assert s.covering == CoveringData(5, ((2, 2, 1), (2, 2, 1)), simple_extra=8)
    # grid g = 5: one simple branch point per pairing fiber, 2g + 2 of them
    g = grid_scenario(5)
    assert g.covering == CoveringData(2, simple_extra=12)
    for scenario in (s, g):
        models = assemble(scenario)["models"].values()
        assert len(models) == 2
        assert all(rep["covering"] == covering_to_dict(scenario.covering) for rep in models)


def test_grid_rejects_low_genus_and_extras():
    with pytest.raises(InvalidScenario, match="hyperelliptic"):
        grid_scenario(1)
    with pytest.raises(InvalidScenario, match="fiber layout"):
        Scenario(kind=GRID, upstairs_genus=3, parameter=3, special_fibers=((2, 1),))
    with pytest.raises(InvalidScenario, match="side 3"):
        Scenario(kind=GRID, upstairs_genus=3, parameter=4)


def test_subset_validation():
    with pytest.raises(InvalidScenario, match=">= 2"):
        subset_scenario(1, 1)
    with pytest.raises(InvalidScenario, match="upstairs_genus"):
        subset_scenario(2, -1)
    with pytest.raises(InvalidScenario, match="special_fibers\\[0\\]"):
        subset_scenario(2, 1, special_fibers=[[2, 2, 2]])
    with pytest.raises(InvalidScenario, match="unramified"):
        subset_scenario(2, 1, special_fibers=[[1, 1, 1, 1]])
    with pytest.raises(InvalidScenario, match="model"):
        subset_scenario(2, 1, model="merged")


def test_size_ceilings(monkeypatch):
    def refuse(n):
        raise AssertionError(f"built the default profiles of n = {n}")

    monkeypatch.setattr(scenario_module, "default_subset_fibers", refuse)
    for n in (MAX_SUBSET_N + 1, 2_000_000, 10**12):
        with pytest.raises(InvalidScenario, match=f"n must be at most {MAX_SUBSET_N}, got {n}"):
            subset_scenario(n, 1)
        with pytest.raises(InvalidScenario, match=f"n must be at most {MAX_SUBSET_N}"):
            parse_scenario({"kind": SUBSET, "n": n, "upstairs_genus": 1, "special_fibers": []})
    for genus in (MAX_GRID_GENUS + 1, 10**9):
        with pytest.raises(
            InvalidScenario, match=f"upstairs_genus must be at most {MAX_GRID_GENUS}, got {genus}"
        ):
            grid_scenario(genus)
    ceiling = 10**MAX_SUBSET_GENUS_EXPONENT
    with pytest.raises(
        InvalidScenario, match=rf"upstairs_genus must be at most 10\*\*{MAX_SUBSET_GENUS_EXPONENT}$"
    ):
        subset_scenario(2, ceiling + 1, special_fibers=[])
    # the limits themselves are accepted
    assert Scenario(kind=SUBSET, upstairs_genus=10**12, parameter=MAX_SUBSET_N).parameter == 40
    assert subset_scenario(MAX_SUBSET_N, ceiling, special_fibers=[]).upstairs_genus == ceiling
    assert grid_scenario(MAX_GRID_GENUS).covering.simple_extra == 2 * MAX_GRID_GENUS + 2


def test_infeasible_budget_rejected():
    # five (2,2) fibers force more ramification than genus 0 allows
    with pytest.raises(InvalidScenario, match="upstairs_genus"):
        subset_scenario(2, 0, special_fibers=[[2, 2]] * 5)


def test_monodromy_validation():
    s = subset_scenario(2, 1, monodromy=[[2, 1, 3, 4], [1, 2, 4, 3]])
    assert s.monodromy == ((2, 1, 3, 4), (1, 2, 4, 3))
    with pytest.raises(InvalidScenario, match="monodromy\\[0\\]"):
        subset_scenario(2, 1, monodromy=[[1, 1, 3, 4]])
    with pytest.raises(InvalidScenario, match="degree"):
        subset_scenario(2, 1, monodromy=[[2, 1, 3]])


@pytest.mark.parametrize(
    "extra, field",
    [
        ({"monodromy": [[2, 1, 3, 4, 5.0]]}, "monodromy\\[0\\]"),
        ({"monodromy": [[2, 1, 3, 4, 5], [2, True, 3, 4, 5]]}, "monodromy\\[1\\]"),
        ({"special_fibers": [[2, 2, 1], [2, True, True]]}, "special_fibers\\[1\\]"),
        # parts that cannot even be compared are named, not sorted
        ({"special_fibers": [[2, "a"]]}, "special_fibers\\[0\\]: parts must be"),
        ({"special_fibers": [[2, None]]}, "special_fibers\\[0\\]: parts must be"),
        ({"special_fibers": [[2, [1]]]}, "special_fibers\\[0\\]: parts must be"),
        # an empty profile is judged before padding, which would make it unramified
        ({"special_fibers": [[]]}, "special_fibers\\[0\\]: profile is empty$"),
    ],
)
def test_parse_rejects_non_integer_labels_and_parts(extra, field):
    with pytest.raises(InvalidScenario, match=field):
        parse_scenario({"kind": "subset", "n": 3, "upstairs_genus": 2, **extra})


SUBSET_FILE = {"kind": "subset", "n": 3, "upstairs_genus": 2}


@pytest.mark.parametrize(
    "build, field",
    [
        # Python callers get the same type checks as files
        (lambda: subset_scenario(3, True), "upstairs_genus must be an integer, got True"),
        (lambda: subset_scenario(3, 2.0), "upstairs_genus must be an integer, got 2.0"),
        (lambda: subset_scenario(3.0, 2), "n must be an integer >= 2, got 3.0"),
        (lambda: grid_scenario(5.0), "upstairs_genus must be an integer, got 5.0"),
        (
            lambda: Scenario(kind=GRID, upstairs_genus=3, parameter=3.0),
            "grid scenarios require side 3: m must be 3, got 3.0",
        ),
        (
            lambda: Scenario(kind=GRID, upstairs_genus=3, parameter=3, monodromy=((2, 1),)),
            "grid scenarios fix their own monodromy",
        ),
        (lambda: subset_scenario(3, 2, special_fibers=5), "special_fibers must be a list"),
        (lambda: subset_scenario(3, 2, special_fibers=[5]), "special_fibers\\[0\\]: profile must be a list"),
        (lambda: subset_scenario(3, 2, monodromy=5), "monodromy must be a list"),
        (lambda: subset_scenario(3, 2, monodromy=[5]), "monodromy\\[0\\] must be a list"),
        (lambda: parse_scenario({**SUBSET_FILE, "special_fibers": {}}), "special_fibers must be a list"),
        (lambda: parse_scenario({**SUBSET_FILE, "special_fibers": ["22"]}), "special_fibers\\[0\\]"),
        (lambda: parse_scenario({**SUBSET_FILE, "monodromy": "21345"}), "monodromy must be a list"),
        (lambda: parse_scenario({**SUBSET_FILE, "monodromy": [{}]}), "monodromy\\[0\\]"),
        # keys that cannot be sorted together are still named
        (lambda: parse_scenario({**SUBSET_FILE, 1: 2, "x": 3}), "unknown keys for kind 'subset': 1, x"),
    ],
)
def test_every_entry_point_names_the_bad_field(build, field):
    with pytest.raises(InvalidScenario, match=field):
        build()


def test_parse_strict_keys():
    good = {"kind": "subset", "n": 2, "upstairs_genus": 1}
    assert parse_scenario(good).parameter == 2
    with pytest.raises(InvalidScenario, match="unknown keys"):
        parse_scenario({**good, "extra": 1})
    with pytest.raises(InvalidScenario, match="unknown keys"):
        parse_scenario({"kind": "grid", "upstairs_genus": 3, "special_fibers": []})
    with pytest.raises(InvalidScenario, match="kind"):
        parse_scenario({"kind": "other"})
    with pytest.raises(InvalidScenario, match="object"):
        parse_scenario([1])
    with pytest.raises(InvalidScenario, match="n must be an integer"):
        parse_scenario({"kind": "subset", "n": "3", "upstairs_genus": 1})
    with pytest.raises(InvalidScenario, match="n must be an integer"):
        parse_scenario({"kind": "subset", "n": True, "upstairs_genus": 1})
    with pytest.raises(InvalidScenario, match="upstairs_genus"):
        parse_scenario({"kind": "subset", "n": 3, "upstairs_genus": 1.5})
    with pytest.raises(InvalidScenario, match="m must be 3"):
        parse_scenario({"kind": "grid", "upstairs_genus": 3, "m": 4})
    with pytest.raises(InvalidScenario, match="m must be 3, got 3.0"):
        parse_scenario({"kind": "grid", "upstairs_genus": 3, "m": 3.0})
    with pytest.raises(InvalidScenario, match="model must be one of"):
        parse_scenario({**good, "model": "merged"})
    with pytest.raises(InvalidScenario, match="model must be one of"):
        parse_scenario({"kind": "grid", "upstairs_genus": 3, "model": "merged"})


def test_parse_round_trip():
    s = subset_scenario(4, 2, model="paper", monodromy=[[2, 1, 3, 4, 5, 6]])
    again = parse_scenario(json.loads(canonical_json(scenario_to_dict(s))))
    assert again == s
    g = grid_scenario(5, model="monodromy")
    assert parse_scenario(scenario_to_dict(g)) == g


def test_load_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(canonical_json(scenario_to_dict(subset_scenario(3, 1))))
    assert load_scenario(path) == subset_scenario(3, 1)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidScenario, match="JSON"):
        load_scenario(bad)


SCHEMA_KEYS = ("kind", "n", "upstairs_genus", "m", "model", "special_fibers", "monodromy")
# mostly small integers, but up to 10**12: a value past a size ceiling is
# refused before anything of that size is built
INTS = st.integers(-3, 12) | st.integers(-3, 10**12)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | INTS
    | st.floats(-3, 12)
    | st.text(max_size=3)
    | st.sampled_from(KINDS + MODEL_CHOICES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
# dicts of the right shape for each kind, so that many draws are accepted
MODELS = st.sampled_from(MODEL_CHOICES)
SUBSET_DICTS = st.fixed_dictionaries(
    {"kind": st.just(SUBSET), "n": INTS, "upstairs_genus": INTS},
    optional={
        "model": MODELS,
        "special_fibers": st.lists(st.lists(st.integers(0, 4), max_size=5), max_size=3),
        "monodromy": st.lists(
            st.integers(3, 8).flatmap(lambda d: st.permutations(range(1, d + 1))).map(list),
            max_size=2,
        ),
    },
)
GRID_DICTS = st.fixed_dictionaries(
    {"kind": st.just(GRID), "upstairs_genus": INTS},
    optional={"m": st.just(3) | INTS, "model": MODELS},
)
# then any schema key or an extra key may be overwritten with any JSON value
SCENARIO_DICTS = st.tuples(
    SUBSET_DICTS | GRID_DICTS,
    st.just({})
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=4), JSON_VALUES, max_size=2),
).map(lambda pair: {**pair[0], **pair[1]})


@settings(max_examples=400, deadline=None)
@given(data=SCENARIO_DICTS | JSON_VALUES)
def test_parse_scenario_accepts_or_names_the_fault(data):
    # nothing is assembled here.  The Python constructors get the same drawn
    # values: a dict's own, or any other drawn value as every field
    fields = data if isinstance(data, dict) else dict.fromkeys(SCHEMA_KEYS, data)
    genus, model = fields.get("upstairs_genus"), fields.get("model", BOTH)
    builds = (
        lambda: parse_scenario(data),
        lambda: Scenario(
            kind=fields.get("kind"),
            upstairs_genus=genus,
            parameter=fields.get("n", fields.get("m")),
            special_fibers=fields.get("special_fibers", ()),
            model=model,
            monodromy=fields.get("monodromy"),
        ),
        lambda: subset_scenario(
            fields.get("n"), genus, fields.get("special_fibers"), model, fields.get("monodromy")
        ),
        lambda: grid_scenario(genus, model),
    )
    for build in builds:
        try:
            scenario = build()
        except InvalidScenario:
            continue
        assert isinstance(scenario, Scenario)
        assert parse_scenario(scenario_to_dict(scenario)) == scenario
