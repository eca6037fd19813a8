import json

import pytest

from prymtyurin.covering import CoveringData
from prymtyurin.report import assemble
from prymtyurin.scenario import (
    BOTH,
    GRID,
    SUBSET,
    InvalidScenario,
    Scenario,
    default_subset_fibers,
    grid_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
    scenario_to_json,
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


def test_grid_scenario():
    s = grid_scenario(4)
    assert s.kind == GRID
    assert s.parameter == 3
    assert s.covering.degree == 2


def test_scenario_covering():
    # subset n = 3, gx = 2: w = 2*2 - 2 + 2*5 = 12 is needed, the two (2,2,1)
    # fibers give 4, so 8 simple branch points are left
    s = subset_scenario(3, 2)
    assert s.covering == CoveringData(5, 0, ((2, 2, 1), (2, 2, 1)), simple_extra=8)
    # grid g = 5: one simple branch point per pairing fiber, 2g + 2 of them
    g = grid_scenario(5)
    assert g.covering == CoveringData(2, 0, simple_extra=12)
    for scenario in (s, g):
        report = assemble(scenario)
        assert len(report.models) == 2
        assert all(rep.covering is scenario.covering for rep in report.models)


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
    ],
)
def test_parse_rejects_non_integer_labels_and_parts(extra, field):
    with pytest.raises(InvalidScenario, match=field):
        parse_scenario({"kind": "subset", "n": 3, "upstairs_genus": 2, **extra})


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
    with pytest.raises(InvalidScenario, match="model must be one of"):
        parse_scenario({**good, "model": "merged"})
    with pytest.raises(InvalidScenario, match="model must be one of"):
        parse_scenario({"kind": "grid", "upstairs_genus": 3, "model": "merged"})


def test_parse_round_trip():
    s = subset_scenario(4, 2, model="paper", monodromy=[[2, 1, 3, 4, 5, 6]])
    again = parse_scenario(json.loads(scenario_to_json(s)))
    assert again == s
    g = grid_scenario(5, model="monodromy")
    assert parse_scenario(scenario_to_dict(g)) == g


def test_load_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(scenario_to_json(subset_scenario(3, 1)))
    assert load_scenario(path) == subset_scenario(3, 1)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidScenario, match="JSON"):
        load_scenario(bad)
