"""The package's records are namedtuples, and none of them may be fooled.

Each record runs its checks in __new__ and takes its equality from
perms.Record: a record equals only a record of its own class with equal
fields, under == and != alike, and stays hashable.  _replace and _make skip
__new__, so no module of the package may call them.
"""

import ast
from pathlib import Path

import pytest

from prymtyurin.correspondence import FiberCorrespondence, build_grid_matrix, build_subset_matrix
from prymtyurin.covering import CoveringData
from prymtyurin.fixed_points import NestingCertificate, NestingFailure, NestingUndecided
from prymtyurin.induced_curve import MERGED, subset_fiber
from prymtyurin.perms import Permutation, Record
from prymtyurin.scenario import InvalidScenario, Scenario, grid_scenario, subset_scenario

SRC = Path(__file__).resolve().parents[1] / "src" / "prymtyurin"


def one_of_each():
    """One record of each of the eight classes, built twice over."""
    return [
        Permutation((2, 1, 3)),
        CoveringData(4, ((2, 2),), 2),
        build_grid_matrix(3),
        subset_fiber(2, (2, 2), MERGED),
        subset_scenario(3, 1),
        NestingCertificate(0, (1,), ((1,),)),
        NestingFailure("no chain", 1, 0),
        NestingUndecided("no chain", 1, 0),
    ]


def test_every_record_class_is_covered():
    classes = {type(r) for r in one_of_each()}
    assert len(classes) == 8
    assert all(issubclass(c, Record) and issubclass(c, tuple) for c in classes)


def test_a_record_equals_only_its_own_class_with_equal_fields():
    for first, second in zip(one_of_each(), one_of_each()):
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
        # the same fields as a plain tuple, from either side
        plain = tuple(first)
        assert first != plain and not first == plain
        assert plain != first and not plain == first
    reason = "no chain"
    failure, undecided = NestingFailure(reason, 1, 0), NestingUndecided(reason, 1, 0)
    assert failure != undecided and not failure == undecided
    assert undecided != failure and not undecided == failure
    assert Permutation((2, 1)) != ((2, 1),) and not Permutation((2, 1)) == ((2, 1),)
    assert ((2, 1),) != Permutation((2, 1)) and not ((2, 1),) == Permutation((2, 1))
    assert Permutation((2, 1)) != Permutation((1, 2))


def test_records_are_hashable_and_immutable():
    records = one_of_each()
    assert len(set(records + one_of_each())) == len(records)
    for record in records:
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_correspondence_bits_stay_out_of_fields_and_equality():
    corr = build_subset_matrix(3)
    assert "bits" not in corr._fields and "bits" not in repr(corr)
    twin = FiberCorrespondence(**corr._asdict())
    assert twin == corr and twin.bits == corr.bits and twin.bits is not corr.bits
    with pytest.raises(AttributeError):
        corr.bits = []


def test_cached_properties_stay_cached():
    corr, fiber = build_grid_matrix(3), subset_fiber(3, (2, 2, 1), MERGED)
    # a correspondence reads its points by position and keeps no index of
    # its own: index is the tuple method
    assert "index" not in vars(corr) and type(corr).index is tuple.index
    assert fiber.w_contribution == sum(map(len, fiber.classes)) - len(fiber.classes)
    # a scenario of either kind keeps the covering its constructor built
    scen = grid_scenario(4)
    assert "covering" in vars(scen)
    assert scen.covering is scen.covering
    assert scen.covering == CoveringData(2, (), 10)
    # a subset scenario keeps the covering its checks built
    subset = subset_scenario(3, 1)
    assert "covering" in vars(subset)
    assert subset.covering == Scenario(**subset._asdict()).covering


def test_every_record_runs_its_checks_when_built():
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation((1, 1))
    with pytest.raises(ValueError, match="does not sum to the degree 4"):
        CoveringData(4, ((2, 1),))
    corr = build_grid_matrix(3)
    with pytest.raises(ValueError, match="does not preserve the relation"):
        FiberCorrespondence(**{**corr._asdict(), "symmetries": (Permutation((2, 1, *range(3, 10))),)})
    with pytest.raises(InvalidScenario, match="upstairs_genus must be an integer"):
        Scenario("subset", 1.0, 3)
    # a scenario normalizes its fields in __new__ and keyword calls reach it
    scen = Scenario(kind="subset", upstairs_genus=1, parameter=3, special_fibers=[[2, 2]])
    assert scen.special_fibers == ((2, 2, 1),)


def calls_of(tree: ast.AST, names: set[str]):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in names:
                yield node


def test_no_module_skips_the_checks_in_new():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 9
    found = [
        f"{path.name}:{node.lineno} calls .{node.func.attr}"
        for path in paths
        for node in calls_of(ast.parse(path.read_text(encoding="utf-8")), {"_replace", "_make"})
    ]
    assert not found, "; ".join(found)


def test_the_ast_check_sees_a_replace_call():
    tree = ast.parse("x = record._replace(model='paper')\ny = Scenario._make(fields)\n")
    assert [node.func.attr for node in calls_of(tree, {"_replace", "_make"})] == [
        "_replace",
        "_make",
    ]

