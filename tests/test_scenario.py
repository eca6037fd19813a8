import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prymtyurin.correspondence import build_subset_matrix
from prymtyurin.covering import CoveringData
from prymtyurin.induced_curve import MERGED, partition_monodromy
from prymtyurin.perms import transposition
from prymtyurin.report import assemble, canonical_json, covering_to_dict
from prymtyurin import scenario as scenario_module
from prymtyurin.scenario import (
    BOTH,
    GRID,
    KINDS,
    MAX_GRID_GENUS,
    MAX_SUBSET_FIBER_POINTS,
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


def test_both_models_write_one_covering_dict():
    # assemble builds the covering's dict once, so the writer's memo writes
    # it once for the two models
    for scenario in (subset_scenario(3, 2), grid_scenario(5)):
        first, second = assemble(scenario)["models"].values()
        assert first["covering"] is second["covering"]


@pytest.mark.parametrize("kind", [[], {}, ["subset"], {"grid": 3}])
def test_unhashable_kinds_are_invalid_scenarios(kind):
    # a kind selects its family from a dict, where an unhashable key would
    # raise TypeError; every entry point names the kind instead
    for build in (
        lambda: parse_scenario({"kind": kind}),
        lambda: parse_scenario({"kind": kind, "n": 3, "upstairs_genus": 1}),
        lambda: Scenario(kind=kind, upstairs_genus=1, parameter=3),
    ):
        with pytest.raises(InvalidScenario, match=r"^kind must be one of \('subset', 'grid'\), got "):
            build()


def test_scenario_builds_its_covering_once(monkeypatch):
    # the budget reads the degree and the padded profiles directly, so the
    # constructor builds the one covering it keeps, for either kind
    built = []

    def counted(*args):
        built.append(args)
        return CoveringData(*args)

    monkeypatch.setattr(scenario_module, "CoveringData", counted)
    for make in (
        lambda: subset_scenario(3, 2),
        lambda: subset_scenario(4, 1, special_fibers=[[3], [2, 2]], monodromy=[[2, 1, 3, 4, 5, 6]]),
        lambda: grid_scenario(5),
        lambda: parse_scenario({"kind": "grid", "upstairs_genus": 3}),
    ):
        built.clear()
        scenario = make()
        assert len(built) == 1
        assert scenario.covering == CoveringData(*built[0])


def test_subset_irreducibility_builds_each_declared_profile_once(monkeypatch):
    # a repeated profile (the defaults declare one twice) builds one
    # monodromy; the synthesized basis the layout returns is the declared
    # profiles' moves and the simple branch points' transpositions, in
    # order, each once.  They are built as they are read, so a report on an
    # explicit basis builds none of them
    built = []

    def counted(parts, degree):
        built.append(parts)
        return partition_monodromy(parts, degree)

    monkeypatch.setattr(scenario_module, "partition_monodromy", counted)
    for scenario in (subset_scenario(3, 2),
                     subset_scenario(4, 5, special_fibers=[[3], [2, 2], [3]])):
        built.clear()
        degree = scenario.covering.degree
        corr = build_subset_matrix(scenario.parameter)
        _, moves = scenario_module.FAMILIES[SUBSET].layout(scenario, corr, (MERGED,))
        assert built == []
        moves = list(moves)
        assert len(built) < len(scenario.special_fibers)
        assert built == list(dict.fromkeys(scenario.special_fibers))
        want = [partition_monodromy(p, degree) for p in scenario.special_fibers]
        want += [transposition(degree, i, i + 1)
                 for i in range(1, 1 + min(scenario.covering.simple_extra, degree - 1))]
        assert moves == list(dict.fromkeys(want))
    built.clear()
    assemble(subset_scenario(4, 5, special_fibers=[[3], [2, 2]], monodromy=[[2, 1, 3, 4, 5, 6]]))
    assert built == []


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


def test_declared_fiber_ceiling_counts_points():
    # the ceiling bounds declared fibers times the C(n+2, 2) points of each,
    # so a small n admits many more fibers than n = 40
    for n, points in ((2, 6), (MAX_SUBSET_N, 861)):
        limit = MAX_SUBSET_FIBER_POINTS // points
        profile = (2,) + (1,) * n
        assert len(subset_scenario(n, 10**6, special_fibers=[profile] * limit).special_fibers) == limit
        with pytest.raises(
            InvalidScenario,
            match=f"^special_fibers must hold at most {limit} profiles of {points} points each,"
            f" got {limit + 1}$",
        ):
            subset_scenario(n, 10**6, special_fibers=[profile] * (limit + 1))


HUGE = 10**5000  # past Python's 4,300-digit limit for printing an int
SHOWN, NEGATIVE = "an integer of 16610 bits", "a negative integer of 16610 bits"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: grid_scenario(HUGE), f"upstairs_genus must be at most 10000, got {SHOWN}"),
        (lambda: grid_scenario(-HUGE), f"upstairs_genus must be >= 2, got {NEGATIVE}"),
        (lambda: subset_scenario(3, -HUGE), f"upstairs_genus must be >= 0, got {NEGATIVE}"),
        (lambda: subset_scenario(HUGE, 1), f"n must be at most 40, got {SHOWN}"),
        (lambda: subset_scenario(-HUGE, 1), f"n must be an integer >= 2, got {NEGATIVE}"),
        (lambda: Scenario(kind=GRID, upstairs_genus=3, parameter=HUGE), f"m must be 3, got {SHOWN}"),
        (
            lambda: subset_scenario(3, 1, special_fibers=[[HUGE]]),
            rf"special_fibers\[0\]: parts sum to {SHOWN}, covering degree is 5",
        ),
        (
            lambda: subset_scenario(3, 1, monodromy=[[HUGE, "1"]]),
            r"monodromy\[0\] must be a list of integer sheet labels, got a value too long to print",
        ),
        (
            lambda: subset_scenario(3, 1, monodromy=[[HUGE, 1, 2, 3, 4]]),
            r"monodromy\[0\]: not a bijection of 1..5: a value too long to print",
        ),
        (
            lambda: Scenario(kind=HUGE, upstairs_genus=1, parameter=3),
            rf"kind must be one of \('subset', 'grid'\), got {SHOWN}",
        ),
        (
            lambda: parse_scenario({"kind": HUGE}),
            rf"kind must be one of \('subset', 'grid'\), got {SHOWN}",
        ),
    ],
)
def test_unprintable_integers_are_named(build, message):
    # an int too long to print gets a stand-in in the message, which still
    # names the field, instead of the bare ValueError of printing it
    with pytest.raises(InvalidScenario, match=f"{message}$"):
        build()


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


def _rotations(degree, count):
    return [[(label + shift) % degree + 1 for label in range(degree)] for shift in range(count)]


def test_monodromy_ceiling_counts_points():
    # explicit generators share the declared fibers' budget: each is induced
    # on all C(n+2, 2) points, so n = 40 admits 20 and n = 2 far more
    for n, points in ((2, 6), (MAX_SUBSET_N, 861)):
        limit = MAX_SUBSET_FIBER_POINTS // points
        gens = _rotations(n + 2, limit + 1)
        assert len(subset_scenario(n, 1, model="paper", monodromy=gens[:limit]).monodromy) == limit
        with pytest.raises(
            InvalidScenario,
            match=f"^monodromy must hold at most {limit} generators of {points} points each,"
            f" got {limit + 1}$",
        ):
            subset_scenario(n, 1, model="paper", monodromy=gens)


def test_monodromy_is_bounded_before_any_generator_is_read(monkeypatch):
    # the count and then each generator's length are checked before any
    # generator is sorted into a Permutation
    def refuse(images):
        raise AssertionError(f"built a permutation of {len(images)} labels")

    monkeypatch.setattr(scenario_module, "Permutation", refuse)
    with pytest.raises(InvalidScenario, match="^monodromy must hold at most 20 generators"):
        subset_scenario(MAX_SUBSET_N, 1, monodromy=[[1] * 10**5] * 21)
    with pytest.raises(
        InvalidScenario,
        match=r"^monodromy\[0\]: permutation degree 100000 does not match covering degree 42$",
    ):
        subset_scenario(MAX_SUBSET_N, 1, monodromy=[[1] * 10**5])


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


@pytest.mark.parametrize("text, key", [
    ('{"kind": "subset", "n": 3, "n": 4, "upstairs_genus": 1}', "n"),
    # the first key that repeats is named, wherever its repeat falls
    ('{"kind": "subset", "n": 3, "upstairs_genus": 1, "model": "paper", "kind": "grid", "n": 3}',
     "kind"),
    # every object of the file, a nested one too
    ('{"kind": "subset", "n": 3, "upstairs_genus": 1, "monodromy": [{"a": 1, "a": 1}]}', "a"),
])
def test_load_scenario_refuses_a_repeated_key(tmp_path, text, key):
    # json.load alone would read the last value; the refusal names the key
    # and is not reported as JSON the decoder could not read
    path = tmp_path / "repeated.json"
    path.write_text(text)
    with pytest.raises(InvalidScenario, match=f"^key '{key}' is repeated$"):
        load_scenario(path)


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
