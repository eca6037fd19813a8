"""End-to-end tests for the command-line front end.

Everything drives ``main(argv)`` directly so exit codes and streams are
asserted in-process; one smoke test exercises the installed console script.
"""

import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prymtyurin
from prymtyurin import cli, correspondence, fixed_points, report
from prymtyurin import scenario as scenario_module
from prymtyurin.cli import (
    EXIT_HYPOTHESIS,
    EXIT_VALIDATION,
    EXIT_VERIFIED,
    main,
)
from prymtyurin.correspondence import FiberCorrespondence, build_grid_matrix, build_subset_matrix
from prymtyurin.perms import all_subsets
from prymtyurin.report import DimensionError, canonical_json, identity_rows
from prymtyurin.scenario import (
    MAX_SUBSET_FIBER_POINTS,
    MAX_SUBSET_GENUS_EXPONENT,
    MODEL_CHOICES,
    grid_scenario,
    load_scenario,
)
from references import build_parser


def write_scenario(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


STANDARD_N3 = {"kind": "subset", "n": 3, "upstairs_genus": 1}


# --- run: happy paths -------------------------------------------------------


def test_run_table_verified(tmp_path, capsys):
    path = write_scenario(tmp_path, "s.json", STANDARD_N3)
    assert main(["run", path]) == EXIT_VERIFIED
    out = capsys.readouterr().out
    assert "verified" in out
    assert "exponent" in out


def test_run_json_is_canonical(tmp_path, capsys):
    path = write_scenario(tmp_path, "s.json", STANDARD_N3)
    assert main(["run", path, "--format", "json"]) == EXIT_VERIFIED
    out = capsys.readouterr().out
    # canonical form: re-serializing the parsed payload reproduces the bytes
    assert out == canonical_json(json.loads(out)) + "\n"


def test_run_model_override(tmp_path, capsys):
    path = write_scenario(tmp_path, "s.json", dict(STANDARD_N3, model="paper"))
    assert main(["run", path, "--model", "paper", "--format", "json"]) == EXIT_VERIFIED
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["models"]) == {"paper"}

    assert main(["run", path, "--model", "both", "--format", "json"]) == EXIT_VERIFIED
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["models"]) == {"paper", "monodromy"}


def test_run_subset_n8_both_models(tmp_path, capsys):
    path = write_scenario(
        tmp_path, "s.json", {"kind": "subset", "n": 8, "upstairs_genus": 3, "model": "both"}
    )
    start = time.monotonic()
    assert main(["run", path, "--format", "json"]) == EXIT_VERIFIED
    assert time.monotonic() - start < 5.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == {"paper": "verified", "monodromy": "failed"}


# --- run: hypothesis failures exit 2 but still report ------------------------


def test_run_monodromy_model_fails_hypothesis(tmp_path, capsys):
    path = write_scenario(
        tmp_path, "s.json", {"kind": "subset", "n": 2, "upstairs_genus": 1}
    )
    assert main(["run", path, "--model", "monodromy"]) == EXIT_HYPOTHESIS
    out = capsys.readouterr().out
    assert out  # the report is still printed


def test_run_too_many_fixed_points(tmp_path, capsys):
    data = {
        "kind": "subset",
        "n": 2,
        "upstairs_genus": 1,
        "special_fibers": [[2, 2], [2, 2], [2, 2], [2, 2]],
    }
    path = write_scenario(tmp_path, "s.json", data)
    assert main(["run", path, "--format", "json"]) == EXIT_HYPOTHESIS
    payload = json.loads(capsys.readouterr().out)
    merged = payload["models"]["paper"]
    assert merged["delta_dot_d"] == 4
    assert merged["hypotheses"]["n_le_d"] is False
    assert payload["verdict"]["paper"] == "failed"


def test_run_undecided_nesting_exits_two(tmp_path, capsys, monkeypatch):
    # below the 12 memo misses of counting an n = 6 orbit fiber, so the count
    # stops unfinished on the first one
    monkeypatch.setattr(fixed_points, "NESTING_CLIQUE_BUDGET", 11)
    path = write_scenario(tmp_path, "s.json", {"kind": "subset", "n": 6, "upstairs_genus": 3})
    assert main(["run", path, "--model", "monodromy", "--format", "json"]) == EXIT_HYPOTHESIS
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == {"monodromy": "undecided"}


def test_a_dimension_error_fails_its_model_and_exits_two(capsys, monkeypatch):
    # no scenario the CLI admits has been found to give an inconsistent
    # dimension; a refusing formula stands in for one
    def refuse(genus, bidegree, fixed_count, exponent):
        raise DimensionError("dimension came out negative: -1")

    monkeypatch.setattr(report, "prym_dimension", refuse)
    argv = ["builtin", "hyperelliptic", "--g", "3", "--model", "paper", "--format", "json"]
    assert main(argv) == EXIT_HYPOTHESIS
    payload = json.loads(capsys.readouterr().out)
    merged = payload["models"]["paper"]
    error = "grid scenario, paper model: dimension came out negative: -1"
    assert merged["error"] == error and error in payload["notes"]
    # the facts computed before the failure are kept
    assert merged["induced"]["genus"] == 7 and merged["epsilon_degree"] == 9
    assert merged["dim_p"] is None and merged["dim_p_integral"] is None
    assert not merged["combinatorial_verified"]
    assert payload["verdict"] == {"paper": "failed"}


# --- run: validation failures exit 1 -----------------------------------------


def test_run_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == EXIT_VALIDATION
    assert "invalid scenario" in capsys.readouterr().err


def test_run_deeply_nested_json(tmp_path):
    # deeper than the recursion limit of the JSON decoder; run in a child so
    # a traceback would show on its stderr
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = _run_child(["run", str(path)])
    assert proc.returncode == EXIT_VALIDATION
    assert "invalid scenario" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_refuses_a_repeated_key_by_name(tmp_path):
    # json.load alone keeps a repeated key's last value, so this file ran as
    # n = 4; it is refused with one line that names the key, not as JSON the
    # decoder could not read.  Run in a child so a traceback would show
    path = tmp_path / "repeated.json"
    path.write_text('{"kind": "subset", "n": 3, "n": 4, "upstairs_genus": 1}\n')
    proc = _run_child(["run", str(path)])
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr == "invalid scenario: key 'n' is repeated\n"
    assert proc.stdout == ""


def test_run_unknown_kind(tmp_path, capsys):
    path = write_scenario(tmp_path, "s.json", {"kind": "torus", "upstairs_genus": 1})
    assert main(["run", path]) == EXIT_VALIDATION
    assert "kind" in capsys.readouterr().err


def test_run_unknown_keys(tmp_path, capsys):
    path = write_scenario(tmp_path, "s.json", dict(STANDARD_N3, extra=1))
    assert main(["run", path]) == EXIT_VALIDATION
    assert "unknown keys" in capsys.readouterr().err


def test_run_infeasible_budget(tmp_path, capsys):
    # genus 0 upstairs cannot absorb this much ramification
    data = {
        "kind": "subset",
        "n": 2,
        "upstairs_genus": 0,
        "special_fibers": [[2, 2]] * 6,
    }
    path = write_scenario(tmp_path, "s.json", data)
    assert main(["run", path]) == EXIT_VALIDATION
    assert "special_fibers vs upstairs_genus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, field",
    [
        ({"n": 3, "upstairs_genus": 2, "monodromy": [[2, 1, 3, 4, 5.0]]}, "monodromy[0]"),
        ({"n": 3, "upstairs_genus": 2, "monodromy": [[2, True, 3, 4, 5]]}, "monodromy[0]"),
        ({"n": 2, "upstairs_genus": 1, "special_fibers": [[2, True, True]]}, "special_fibers[0]"),
        ({"n": 2, "upstairs_genus": 1, "special_fibers": [[2, "a"]]}, "special_fibers[0]"),
        ({"n": 2, "upstairs_genus": 1, "special_fibers": [[2, None]]}, "special_fibers[0]"),
        ({"n": 2, "upstairs_genus": 1, "special_fibers": [[2, [1]]]}, "special_fibers[0]"),
        ({"kind": "grid", "upstairs_genus": 3, "m": 3.0}, "m must be 3, got 3.0"),
        ({"n": 3, "upstairs_genus": 2, "special_fibers": [[]]}, "special_fibers[0]: profile is empty"),
    ],
)
def test_run_rejects_non_integer_labels_and_parts(tmp_path, capsys, data, field):
    path = write_scenario(tmp_path, "s.json", {"kind": "subset", **data})
    assert main(["run", path]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert field in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == EXIT_VALIDATION
    assert "cannot read input" in capsys.readouterr().err


def test_run_directory_is_an_unreadable_input(tmp_path, capsys):
    # open() refuses a directory with an OSError, named where the file is read
    assert main(["run", str(tmp_path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot read input: ")
    assert len(captured.err.splitlines()) == 1


# --- builtin ------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_builtin_pn_case_verified(n, capsys):
    assert main(["builtin", "pn-case", "--n", str(n), "--gx", "1"]) == EXIT_VERIFIED
    assert "verified" in capsys.readouterr().out


def test_builtin_pn_case_n4_flags_nonintegral_dimension(capsys):
    code = main(["builtin", "pn-case", "--n", "4", "--gx", "2", "--format", "json"])
    assert code == EXIT_VERIFIED
    payload = json.loads(capsys.readouterr().out)
    merged = payload["models"]["paper"]
    assert merged["dim_p_integral"] is True
    assert any("not consistent" in note for note in payload["notes"])


def test_builtin_pn_case_rejects_unsupported_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["builtin", "pn-case", "--n", "5", "--gx", "1"])
    assert exc.value.code == EXIT_VALIDATION
    assert "invalid choice" in capsys.readouterr().err


def test_builtin_pn_case_requires_gx(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["builtin", "pn-case", "--n", "2"])
    assert exc.value.code == EXIT_VALIDATION


def test_builtin_hyperelliptic_verified(capsys):
    assert main(["builtin", "hyperelliptic", "--g", "3"]) == EXIT_VERIFIED
    out = capsys.readouterr().out
    assert "verified" in out


def test_builtin_hyperelliptic_rejects_small_genus(capsys):
    assert main(["builtin", "hyperelliptic", "--g", "1"]) == EXIT_VALIDATION
    assert "invalid scenario" in capsys.readouterr().err


def test_builtin_hyperelliptic_json_numbers(capsys):
    assert (
        main(["builtin", "hyperelliptic", "--g", "4", "--format", "json"])
        == EXIT_VERIFIED
    )
    payload = json.loads(capsys.readouterr().out)
    model = payload["models"]["paper"]
    assert model["induced"]["genus"] == 3 * 4 - 2
    assert model["delta_dot_d"] == 6
    assert payload["correspondence"]["exponent"] == 3
    assert model["dim_p"] == 4 - 1


# --- verify-identity ----------------------------------------------------------


def test_verify_identity_subset_table(capsys):
    assert main(["verify-identity", "--kind", "subset", "--n", "4"]) == EXIT_VERIFIED
    out = capsys.readouterr().out
    assert "exponent q" in out
    assert "verified entrywise" in out


def test_verify_identity_subset_json_round_trip(capsys):
    code = main(
        ["verify-identity", "--kind", "subset", "--n", "4", "--format", "json"]
    )
    assert code == EXIT_VERIFIED
    out = capsys.readouterr().out
    assert out == canonical_json(json.loads(out)) + "\n"
    payload = json.loads(out)
    assert payload["exponent"] == 4
    assert payload["identity"] == {
        "form": "D^2 = a*I + b*D + c*U",
        "a": 3,
        "b": -2,
        "c": 3,
    }


def test_verify_identity_grid_three(capsys):
    code = main(["verify-identity", "--kind", "grid", "--m", "3", "--format", "json"])
    assert code == EXIT_VERIFIED
    payload = json.loads(capsys.readouterr().out)
    assert payload["exponent"] == 3
    assert payload["bidegree"] == 4


def test_verify_identity_grid_other_sides_fail_exponent(capsys):
    # the quadratic identity exists for every side, but only side 3 yields
    # a consistent exponent
    code = main(["verify-identity", "--kind", "grid", "--m", "4", "--format", "json"])
    assert code == EXIT_HYPOTHESIS
    payload = json.loads(capsys.readouterr().out)
    assert payload["identity_verified"] is True
    assert payload["exponent"] is None


def test_verify_identity_without_an_identity_exits_two(capsys, monkeypatch):
    # every correspondence the CLI builds has an identity; a discovery that
    # finds none stands in for one that does not
    monkeypatch.setattr(correspondence, "discover_identity", lambda corr: None)
    assert main(["verify-identity", "--kind", "subset", "--n", "3"]) == EXIT_HYPOTHESIS
    out = capsys.readouterr().out
    assert f"{'identity':<22}none found\n{'exponent q':<22}none\n" in out
    assert "no quadratic identity exists" in out


def test_verify_identity_dump_matrix(capsys):
    cases = (("grid", "--m", 3, 9, 4), ("subset", "--n", 6, 28, 15))
    for kind, flag, size, points, degree in cases:
        argv = ["verify-identity", "--kind", kind, flag, str(size), "--dump-matrix"]
        assert main([*argv, "--format", "json"]) == EXIT_VERIFIED
        out = capsys.readouterr().out
        # the bytes the standard library writes, not only canonical_json's own
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        matrix = json.loads(out)["matrix"]
        assert len(matrix) == points
        assert all(sum(row) == degree for row in matrix)
        assert all(matrix[i][i] == 0 for i in range(points))


DUMP_SIZES = [("subset", "--n", n) for n in range(2, 7)] + [
    ("grid", "--m", m) for m in range(2, 6)
]


@pytest.mark.parametrize(
    "kind, flag, size", DUMP_SIZES, ids=[f"{k}-{f[2:]}{s}" for k, f, s in DUMP_SIZES]
)
def test_dump_matrix_is_the_bit_walk(kind, flag, size, capsys):
    # the dumped matrix is read off each row's binary text; both formats
    # print byte for byte what a walk over the bits of every row gives
    corr = (build_subset_matrix if kind == "subset" else build_grid_matrix)(size)
    matrix = [[row >> j & 1 for j in range(corr.size)] for row in corr.rows]
    argv = ["verify-identity", "--kind", kind, flag, str(size)]
    outputs = {}
    for fmt in ("json", "table"):
        for dump in ([], ["--dump-matrix"]):
            main([*argv, *dump, "--format", fmt])
            outputs[fmt, bool(dump)] = capsys.readouterr().out
    summary = {**json.loads(outputs["json", False]), "matrix": matrix}
    assert outputs["json", True] == canonical_json(summary) + "\n"
    lines = "".join(f"  {' '.join(map(str, row))}\n" for row in matrix)
    assert outputs["table", True] == f"{outputs['table', False]}matrix:\n{lines}"


# the sizes of the benchmark's identity workload
IDENTITY_SIZES = [("subset", "--n", n) for n in range(2, 13)] + [
    ("grid", "--m", m) for m in range(2, 9)
]


@pytest.mark.parametrize(
    "kind, flag, size", IDENTITY_SIZES, ids=[f"{k}-{f[2:]}{s}" for k, f, s in IDENTITY_SIZES]
)
def test_verify_identity_table_is_a_view_of_the_json(kind, flag, size, capsys):
    # both formats print one summary dict: the table's identity rows are
    # those of the JSON summary, and its matrix rows the JSON matrix
    for dump in ([], ["--dump-matrix"]):
        argv = ["verify-identity", "--kind", kind, flag, str(size), *dump]
        code = main([*argv, "--format", "json"])
        summary = json.loads(capsys.readouterr().out)
        assert main([*argv, "--format", "table"]) == code
        rows, _, matrix = capsys.readouterr().out.partition("matrix:\n")
        assert "\n".join(identity_rows(summary)) in rows
        if dump:
            assert [[int(x) for x in line.split()] for line in matrix.splitlines()] == summary["matrix"]
        else:
            assert matrix == "" and "matrix" not in summary


# argv -> what stderr must name; the matrix builders name the size bounds
MIXUP_MESSAGES = {
    ("verify-identity", "--kind", "subset", "--m", "3"): "requires --n",  # stray --m
    ("verify-identity", "--kind", "grid", "--n", "2"): "requires --m",  # stray --n
    ("verify-identity", "--kind", "subset", "--n", "1"): "--n must be at least 2, got 1",  # size too small
    ("verify-identity", "--kind", "grid", "--m", "1"): "--m must be at least 2, got 1",  # side too small
    # a stray --n next to the grid's --m
    ("verify-identity", "--kind", "grid", "--m", "3", "--n", "2"): "--n only applies to --kind subset",
    # the floor is named with its flag, as the ceiling is, and is checked
    # before a builder is reached
    ("verify-identity", "--kind", "subset", "--n", "-5"): "invalid scenario: --n must be at least 2, got -5",
}


@pytest.mark.parametrize("argv", [list(argv) for argv in MIXUP_MESSAGES])
def test_verify_identity_argument_mixups(argv, capsys):
    assert main(argv) == EXIT_VALIDATION
    assert MIXUP_MESSAGES[tuple(argv)] in capsys.readouterr().err


# argv, or a scenario file for `run`, -> the ceiling message stderr must name
CEILING_MESSAGES = {
    ("verify-identity", "--kind", "subset", "--n", "41"): "--n must be at most 40, got 41",
    ("verify-identity", "--kind", "grid", "--m", "31"): "--m must be at most 30, got 31",
    ("builtin", "hyperelliptic", "--g", "10001"): "upstairs_genus must be at most 10000",
    ("builtin", "hyperelliptic", "--g", str(10**9)): "upstairs_genus must be at most 10000",
}
CEILING_FILES = (
    ({"kind": "subset", "n": 41, "upstairs_genus": 1}, "n must be at most 40, got 41"),
    ({"kind": "subset", "n": 2_000_000, "upstairs_genus": 1}, "n must be at most 40"),
    ({"kind": "grid", "upstairs_genus": 10**9}, "upstairs_genus must be at most 10000"),
    (
        # default profiles are a builder too, so the file declares none
        {"kind": "subset", "n": 40, "upstairs_genus": 10**MAX_SUBSET_GENUS_EXPONENT + 1,
         "special_fibers": []},
        f"upstairs_genus must be at most 10**{MAX_SUBSET_GENUS_EXPONENT}",
    ),
    (
        # 5 KB of file that would ask for about 2.4 GB of report
        {"kind": "subset", "n": 40, "upstairs_genus": 1000, "special_fibers": [[2]] * 1000},
        f"special_fibers must hold at most {MAX_SUBSET_FIBER_POINTS // 861} profiles"
        " of 861 points each, got 1000",
    ),
    (
        # one generator past the budget the declared fibers share: each would
        # be induced on all 861 points and kept; no default profiles either
        {"kind": "subset", "n": 40, "upstairs_genus": 3, "model": "paper", "special_fibers": [],
         "monodromy": [[(label + shift) % 42 + 1 for label in range(42)] for shift in range(21)]},
        f"monodromy must hold at most {MAX_SUBSET_FIBER_POINTS // 861} generators"
        " of 861 points each, got 21",
    ),
)


def test_size_ceilings_reject_through_validation_alone(tmp_path, monkeypatch, capsys):
    # every builder of an n-, m- or genus-sized object fails loudly
    def refuse(*args):
        raise AssertionError(f"built an object for {args}")

    for module, name in (
        (scenario_module, "build_subset_matrix"),
        (scenario_module, "build_grid_matrix"),
        (report, "fiber_layout"),
        (scenario_module, "default_subset_fibers"),
    ):
        monkeypatch.setattr(module, name, refuse)
    cases = [(list(argv), want) for argv, want in CEILING_MESSAGES.items()]
    for pos, (data, want) in enumerate(CEILING_FILES):
        cases.append((["run", write_scenario(tmp_path, f"big{pos}.json", data)], want))
    for argv, want in cases:
        assert main(argv) == EXIT_VALIDATION, argv
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario: ") and want in err, (argv, err)


def test_size_ceilings_admit_their_limits(monkeypatch, capsys):
    # at each limit validation passes and the builder is reached
    built = []

    def record(size):
        built.append(size)
        raise ValueError("stopped at the builder")

    monkeypatch.setattr(scenario_module, "build_subset_matrix", record)
    monkeypatch.setattr(scenario_module, "build_grid_matrix", record)
    assert main(["verify-identity", "--kind", "subset", "--n", "40"]) == EXIT_VALIDATION
    assert main(["verify-identity", "--kind", "grid", "--m", "30"]) == EXIT_VALIDATION
    assert built == [40, 30]
    assert "stopped at the builder" in capsys.readouterr().err


def test_fiber_point_ceiling_admits_its_limit(tmp_path, monkeypatch, capsys):
    # the most declared fibers n = 40 admits pass validation and reach the builder
    built = []

    def record(size):
        built.append(size)
        raise ValueError("stopped at the builder")

    monkeypatch.setattr(scenario_module, "build_subset_matrix", record)
    fibers = [[2]] * (MAX_SUBSET_FIBER_POINTS // 861)
    data = {"kind": "subset", "n": 40, "upstairs_genus": 1000, "special_fibers": fibers}
    assert main(["run", write_scenario(tmp_path, "limit.json", data)]) == EXIT_VALIDATION
    assert built == [40] and "stopped at the builder" in capsys.readouterr().err


def test_subset_genus_ceiling_prints_an_n40_report(tmp_path, capsys):
    # the induced genus is about n times the source genus: at the ceiling
    # every number of an n = 40 report is still short of the interpreter's
    # limit on printing an int
    genus = 10**MAX_SUBSET_GENUS_EXPONENT
    data = {"kind": "subset", "n": 40, "model": "paper", "upstairs_genus": genus}
    path = write_scenario(tmp_path, "ceiling.json", data)
    for fmt in ("table", "json"):
        assert main(["run", path, "--format", fmt]) == EXIT_VERIFIED
        captured = capsys.readouterr()
        assert captured.err == "" and f"genus {genus}" in captured.out.replace('": ', " ")


def test_oversize_json_integer_is_invalid_json(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"kind": "subset", "n": ' + "9" * 5000 + ', "upstairs_genus": 1}')
    assert main(["run", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    # interpreters without a digit limit parse the literal, then the ceiling names it
    want = "not valid JSON" if hasattr(sys, "get_int_max_str_digits") else "n must be at most"
    assert err.startswith("invalid scenario: ") and want in err


def test_closed_form_mismatch_fails_with_exit_two(capsys, monkeypatch):
    # the triangular graph T(5) labeled as the subset family with n = 3: its
    # identity factors with q = 3 but is not the Kneser closed form
    pts = tuple(all_subsets(5, 3))
    t5 = FiberCorrespondence(
        kind="subset",
        parameter=3,
        rows=tuple(
            sum(1 << j for j, r in enumerate(pts) if len(set(p) & set(r)) == 2) for p in pts
        ),
        points=pts,
    )
    monkeypatch.setattr(scenario_module, "build_subset_matrix", lambda n: t5)
    want = "(a, b, c) = (2, -1, 4) differs from the strongly regular closed form (2, -1, 1)"

    assert main(["verify-identity", "--kind", "subset", "--n", "3"]) == EXIT_HYPOTHESIS
    captured = capsys.readouterr()
    assert want in captured.out
    assert captured.err == ""

    assert main(["builtin", "pn-case", "--n", "3", "--gx", "1", "--format", "json"]) == (
        EXIT_HYPOTHESIS
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["correspondence"]["exponent"] is None
    assert want in payload["correspondence"]["exponent_derivation"]
    assert set(payload["verdict"].values()) == {"failed"}


# --- argv fuzz ----------------------------------------------------------------

# integers up to 10**12, mostly from the sizes every command accepts or
# near them: values past a size ceiling must be refused before anything of
# that size is built
FUZZ_INTS = (st.integers(2, 4) | st.integers(-3, 12) | st.integers(-3, 10**12)).map(str)
# flag -> its value, or None for a switch
FUZZ_FLAGS = {
    "--kind": st.sampled_from(["subset", "grid"]),
    "--n": FUZZ_INTS,
    "--m": FUZZ_INTS,
    "--gx": FUZZ_INTS,
    "--g": FUZZ_INTS,
    "--model": st.sampled_from(MODEL_CHOICES),
    "--format": st.sampled_from(["json", "table"]),
    "--dump-matrix": None,
}
FUZZ_COMMANDS = (
    (("verify-identity",), ("--kind", "--n", "--dump-matrix", "--format")),
    (("verify-identity",), ("--kind", "--m", "--dump-matrix", "--format")),
    (("builtin", "pn-case"), ("--n", "--gx", "--model", "--format")),
    (("builtin", "hyperelliptic"), ("--g", "--model", "--format")),
)


@st.composite
def cli_argv(draw):
    command, own = draw(st.sampled_from(FUZZ_COMMANDS))
    # each flag of the command is missing a quarter of the time, a quarter
    # of the draws add a flag of any command, and the order is shuffled
    names = [name for name in own if draw(st.integers(0, 3))]
    if not draw(st.integers(0, 3)):
        names.append(draw(st.sampled_from(sorted(FUZZ_FLAGS))))
    argv = list(command)
    for name in draw(st.permutations(names)):
        argv.append(name)
        if FUZZ_FLAGS[name] is not None:
            argv.append(draw(FUZZ_FLAGS[name]))
    return argv


def _captured_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # the parser rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(argv=cli_argv())
def test_argv_fuzz_exits_cleanly(argv):
    code, _, err = _captured_main(argv)
    assert code in (EXIT_VERIFIED, EXIT_VALIDATION, EXIT_HYPOTHESIS)
    assert "Traceback" not in err


# --- argument parsing ---------------------------------------------------------


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "file.json", "--bogus"])
    assert exc.value.code == EXIT_VALIDATION


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_VALIDATION


def test_unknown_model_choice_exits_one(tmp_path, capsys):
    path = write_scenario(tmp_path, "s.json", STANDARD_N3)
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--model", "quantum"])
    assert exc.value.code == EXIT_VALIDATION


def test_shared_parser_carries_no_state_between_calls(tmp_path):
    path = write_scenario(tmp_path, "s.json", STANDARD_N3)
    calls = (
        ["run", path, "--model", "quantum"],
        ["verify-identity", "--kind", "grid", "--m", "3", "--format", "json"],
        ["run", path, "--model", "paper", "--format", "json"],
        ["run", path, "--format", "json"],
    )
    # the four calls twice over, each call's second run after all the others
    results = [_captured_main(argv) for argv in calls * 2]
    first, second = results[:4], results[4:]
    assert second == first
    assert [code for code, _, _ in first] == [EXIT_VALIDATION] + [EXIT_VERIFIED] * 3
    # the default model, both, came back after the --model paper call
    assert set(json.loads(first[3][1])["models"]) == {"paper", "monodromy"}


# argv the table parser must read as the argparse definition it replaced
# (references.build_parser) reads it.  Exit codes are compared, not
# messages, whose wording varies across Python versions, and the corpus
# leaves out what argparse itself reads differently across them: -hx, a --
# before the command, a -- after the positional and an option, and an
# ambiguous --=x after -h.  The argv that exact flag names read apart from
# argparse are in DECLARED_DIFFERENCES, and their test asserts the
# difference
PARITY_ARGV = [
    # every command
    ["run", "s.json"],
    ["run", "s.json", "--model", "paper", "--format", "json"],
    ["builtin", "pn-case", "--n", "3", "--gx", "2"],
    ["builtin", "hyperelliptic", "--g", "3", "--model", "both"],
    ["verify-identity", "--kind", "subset", "--n", "5"],
    ["verify-identity", "--kind", "grid", "--m", "3", "--dump-matrix", "--format", "json"],
    # --dump names no flag of pn-case, as a prefix or exactly
    ["builtin", "pn-case", "--n", "2", "--gx", "1", "--dump"],
    # --flag=value, and repeated flags, where the last one wins
    ["run", "s.json", "--format=json", "--model=monodromy"],
    ["builtin", "hyperelliptic", "--g=4", "--g", "5", "--format", "json", "--format", "table"],
    ["verify-identity", "--kind=grid", "--m=3", "--dump-matrix", "--dump-matrix"],
    ["verify-identity", "--kind", "grid", "--dump-matrix=yes"],
    ["run", "s.json", "--format="],
    # a flag's value may begin with "-"; -x names no flag
    ["builtin", "pn-case", "--n", "2", "--gx", "-1"],
    ["verify-identity", "--kind", "subset", "--n", "-5"],
    ["builtin", "hyperelliptic", "--g", "-1.5"],
    ["run", "s.json", "--format", "-x"],
    # -- ends the options
    ["run", "--", "s.json"],
    ["run", "--format", "json", "--", "s.json"],
    ["run", "--format", "--", "s.json"],
    # missing, unknown and extra arguments
    ["run"],
    ["run", "--format", "json"],
    ["builtin", "pn-case", "--n", "2"],
    ["verify-identity"],
    ["verify-identity", "--kind"],
    ["run", "s.json", "--bogus"],
    ["--bogus", "run", "s.json"],
    ["builtin", "--bogus", "hyperelliptic", "--g", "3"],
    ["run", "s.json", "t.json"],
    ["verify-identity", "--kind", "grid", "--m", "3", "extra"],
    ["builtin", "hyperelliptic", "--g", "3", "--gx", "1"],
    ["builtin", "hyperelliptic", "--g", "3", "-x"],
    ["run", "s.json", "--model", "--format", "json"],
    # bad ints and bad choices
    ["builtin", "pn-case", "--n", "x", "--gx", "1"],
    ["builtin", "hyperelliptic", "--g", "3.0"],
    ["builtin", "pn-case", "--n", "5", "--gx", "1"],
    ["run", "s.json", "--model", "quantum"],
    ["verify-identity", "--kind", "torus"],
    ["bogus"],
    ["builtin", "bogus"],
    ["builtin", "pn"],
    # an empty argv and builtin alone
    [],
    ["builtin"],
    # help at each level; at a leaf it wins over an unknown flag or a
    # missing one
    ["-h"],
    ["--help"],
    ["builtin", "-h"],
    ["builtin", "--help"],
    ["run", "-h"],
    ["run", "s.json", "--help"],
    ["builtin", "pn-case", "-h"],
    ["builtin", "pn-case", "--n", "2", "--help"],
    ["builtin", "hyperelliptic", "--help"],
    ["verify-identity", "-h"],
    ["verify-identity", "--kind", "grid", "--help"],
    ["run", "s.json", "--bogus", "-h"],
    ["builtin", "pn-case", "-h", "--n", "9"],
]

ACCEPTED = None
# the argv that exact flag names read apart from argparse: each with the
# exit code argparse gave it (None where it was accepted), its exit code
# now, and the word the refusal names (None for help)
DECLARED_DIFFERENCES = {
    # a prefix of a flag: under pn-case, --format and --gx
    ("builtin", "pn-case", "--n", "2", "--gx", "1", "--form", "json"):
        (ACCEPTED, EXIT_VALIDATION, "--form"),
    ("builtin", "pn-case", "--n", "2", "--g", "5"): (ACCEPTED, EXIT_VALIDATION, "--g"),
    ("verify-identity", "--kind", "grid", "--m", "3", "--dump"):
        (ACCEPTED, EXIT_VALIDATION, "--dump"),
    ("run", "s.json", "--mod", "paper"): (ACCEPTED, EXIT_VALIDATION, "--mod"),
    # a negative number, which argparse read as the positional
    ("run", "-1"): (ACCEPTED, EXIT_VALIDATION, "-1"),
    # a prefix of --help
    ("--he",): (EXIT_VERIFIED, EXIT_VALIDATION, "--he"),
    # an unknown option before the command is refused at once, not after -h
    ("--bogus", "-h"): (EXIT_VERIFIED, EXIT_VALIDATION, "--bogus"),
    # -h at a leaf wins over a bad value before it
    ("builtin", "pn-case", "--n", "9", "-h"): (EXIT_VALIDATION, EXIT_VERIFIED, None),
}


def _parse(parse, argv):
    """(exit code, attributes, stdout, stderr) of one parse; the exit code is
    None and the attributes a dict when argv is accepted."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, attributes = None, vars(parse(argv))
        except SystemExit as exc:
            code, attributes = exc.code, None
    return code, attributes, out.getvalue(), err.getvalue()


def _assert_shape(code, out, err):
    if code == EXIT_VERIFIED:  # help, on stdout alone
        assert out and not err
    elif code == EXIT_VALIDATION:  # a usage line and the error, on stderr alone
        assert not out and err.startswith("usage: prymtyurin")
        assert err.splitlines()[-1].startswith("prymtyurin")
        assert ": error: " in err.splitlines()[-1]


def _assert_parity(argv):
    code, attributes, out, err = _parse(cli.parse_args, argv)
    want_code, want_attributes, _, _ = _parse(build_parser().parse_args, argv)
    assert (code, attributes) == (want_code, want_attributes), argv
    _assert_shape(code, out, err)


@pytest.mark.parametrize("argv", PARITY_ARGV + [list(argv) for argv in DECLARED_DIFFERENCES],
                         ids=" ".join)
def test_parser_reads_argv_as_argparse_did(argv):
    if tuple(argv) not in DECLARED_DIFFERENCES:
        return _assert_parity(argv)
    # a declared difference: argparse's outcome is computed here, so the
    # table holds on every Python version the package supports
    old, new, named = DECLARED_DIFFERENCES[tuple(argv)]
    assert _parse(build_parser().parse_args, argv)[0] == old
    code, _, out, err = _parse(cli.parse_args, argv)
    assert code == new
    _assert_shape(code, out, err)
    if named is not None:
        assert err.splitlines()[-1] == f"prymtyurin: error: unrecognized arguments: {named}"


@settings(max_examples=300, deadline=None)
@given(argv=cli_argv())
def test_parser_reads_fuzzed_argv_as_argparse_did(argv):
    # a quarter of the draws carry a flag of any command; under pn-case,
    # argparse read --g as a prefix of --gx, and exact names refuse it
    if argv[:2] == ["builtin", "pn-case"] and "--g" in argv:
        code, _, out, err = _parse(cli.parse_args, argv)
        assert code == EXIT_VALIDATION, argv
        _assert_shape(code, out, err)
    else:
        _assert_parity(argv)


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("path", list(cli.COMMANDS), ids=" ".join)
def test_help_lists_each_command_and_flag_of_its_level(path, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*path, flag])
    assert exc.value.code == EXIT_VERIFIED
    out = capsys.readouterr().out
    assert out.startswith(f"usage: {' '.join(('prymtyurin', *path))} [-h]")
    command = cli.COMMANDS[path]
    rows = [below[-1] for below in cli.COMMANDS if below[:-1] == path and below != ()]
    if command.positional and command.flags is not None:
        rows.append(command.positional.name)
    rows += [flag.name for flag in command.flags or ()]
    rows.append("-h, --help")
    for row in rows:
        assert f"\n  {row} " in out, row


def _readme_usage():
    """The argv of each prymtyurin line in README's usage block, once with
    every bracketed option left out and once with each expanded to its first
    choice; a choice written as ... is the first of the flag's in the table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    first = {flag.name: flag.choices[0] for command in cli.COMMANDS.values()
             for flag in command.flags or () if flag.choices}
    for line in block.splitlines():
        if not line.startswith("prymtyurin "):
            continue
        words = re.findall(r"\[[^]]*\]|\S+", line)[1:]
        yield [word for word in words if not word.startswith("[")]
        expanded = []
        for word in words:
            if not word.startswith("["):
                expanded.append(word)
                continue
            name, *choices = word[1:-1].split()
            expanded.append(name)
            if choices:
                choice = choices[0].split("|")[0]
                expanded.append(str(first[name]) if choice == "..." else choice)
        yield expanded


README_USAGE = list(_readme_usage())


def test_readme_usage_block_was_read():
    # five usage lines, each twice
    assert len(README_USAGE) == 10


@pytest.mark.parametrize("argv", README_USAGE, ids=" ".join)
def test_readme_usage_parses(argv):
    code, attributes, out, err = _parse(cli.parse_args, argv)
    assert (code, out, err) == (None, "", ""), argv
    assert attributes["command"] == argv[0]


# --- installed console script -------------------------------------------------


def _run_child(argv, stdout=subprocess.PIPE, program=("-m", "prymtyurin.cli"), **options):
    # the child imports the same package as this test, installed or not
    source = str(Path(prymtyurin.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (source, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *program, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **options,
    )


def test_json_through_a_real_stdout_is_the_writers_text(tmp_path):
    # the digest and golden tests capture stdout with StringIO; here the
    # child's pieces go through TextIOWrapper.writelines, once to a file and
    # once to a pipe, and each output is the in-process text and a newline
    path = write_scenario(tmp_path, "subset.json",
                          {"kind": "subset", "n": 5, "upstairs_genus": 3, "model": "both"})
    corr = build_grid_matrix(8)
    matrix = [[int(bit) for bit in row] for row in corr.bits]
    summary = {"kind": "grid", "m": 8, **report.correspondence_to_dict(corr), "matrix": matrix}
    runs = [
        (["builtin", "hyperelliptic", "--g", "3000", "--format", "json"],
         report.report_to_json(report.assemble(grid_scenario(3000))), EXIT_VERIFIED),
        (["run", path, "--format", "json"],
         report.report_to_json(report.assemble(load_scenario(path))), EXIT_VERIFIED),
        # at m = 8 the exponent q = 2 - b is below 2, so the exit code is 2
        (["verify-identity", "--kind", "grid", "--m", "8", "--dump-matrix", "--format", "json"],
         canonical_json(summary), EXIT_HYPOTHESIS),
    ]
    assert summary["exponent"] is None
    for argv, text, code in runs:
        expected = (text + "\n").encode()
        with open(tmp_path / "out.json", "wb") as out:
            proc = _run_child(argv, stdout=out)
        assert (proc.returncode, proc.stderr) == (code, ""), argv
        assert (tmp_path / "out.json").read_bytes() == expected, argv
        proc = _run_child(argv)
        assert (proc.returncode, proc.stderr) == (code, ""), argv
        assert proc.stdout.encode() == expected, argv


def test_console_script_smoke():
    proc = _run_child(["builtin", "pn-case", "--n", "3", "--gx", "2"])
    assert proc.returncode == EXIT_VERIFIED, proc.stderr
    assert "verified" in proc.stdout


@pytest.mark.parametrize("kind", [[], {}])
def test_run_names_an_unhashable_kind(tmp_path, kind):
    # the console script, not main in process: a TypeError would print a traceback
    path = write_scenario(tmp_path, "kind.json", {"kind": kind, "n": 3, "upstairs_genus": 1})
    proc = _run_child(["run", path])
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr.startswith("invalid scenario: kind must be one of")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def _assert_output_named(proc):
    assert proc.returncode == EXIT_VALIDATION
    # one line, with no traceback and no error from the flush at exit
    assert proc.stderr.startswith("cannot write output:")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        # far larger than a pipe buffer: the failed write is in writelines
        ["builtin", "hyperelliptic", "--g", "3000", "--format", "json"],
        # smaller than stdout's buffer: the failed write is in its flush
        ["builtin", "hyperelliptic", "--g", "3", "--format", "table"],
        # the parser writes the help text and exits before any subcommand runs
        ["--help"],
        ["builtin", "--help"],
    ],
)
def test_a_closed_output_pipe_is_named_as_the_output(argv, monkeypatch):
    # stdout block-buffered, as it is by default on a pipe
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    # the pipe's read end is closed before the child starts
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_child(argv, stdout=write)
    finally:
        os.close(write)
    _assert_output_named(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "argv",
    [
        ["builtin", "hyperelliptic", "--g", "3"],
        ["verify-identity", "--kind", "grid", "--m", "3"],
        ["--help"],
        # the JSON pieces overflow stdout's buffer, so the write fails inside
        # writelines, not in main's flush
        ["builtin", "hyperelliptic", "--g", "3000", "--format", "json"],
    ],
)
def test_a_full_output_device_is_named_as_the_output(argv, monkeypatch):
    # /dev/full fails every write, however small, with ENOSPC
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    with open("/dev/full", "w") as full:
        proc = _run_child(argv, stdout=full)
    _assert_output_named(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["builtin", "--help"],
        ["builtin", "hyperelliptic", "--g", "3"],
        ["verify-identity", "--kind", "grid", "--m", "3", "--format", "json"],
    ],
)
def test_an_unbuffered_full_output_device_is_named_as_the_output(argv, monkeypatch):
    # an unbuffered stdout fails inside the write itself, for the help text
    # before the parser exits, not in main's flush
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    with open("/dev/full", "w") as full:
        proc = _run_child(argv, stdout=full)
    _assert_output_named(proc)


@pytest.mark.parametrize("argv", [["--help"], ["builtin", "--help"]])
def test_help_to_a_closed_stdout_is_named_as_the_output(argv):
    # sys.stdout is None, so the help text has nowhere to go: none of it
    # reaches stderr, which holds the one error line
    proc = _run_child(argv, stdout=subprocess.DEVNULL, preexec_fn=functools.partial(os.close, 1))
    _assert_output_named(proc)


def test_a_closed_stdout_is_named_as_the_output():
    # the child starts with fd 1 closed, so its sys.stdout is None
    proc = _run_child(
        ["builtin", "hyperelliptic", "--g", "3"],
        stdout=subprocess.DEVNULL,
        preexec_fn=functools.partial(os.close, 1),
    )
    _assert_output_named(proc)


def test_json_to_a_closed_stdout_is_named_as_the_output():
    # sys.stdout is None, so the JSON path fails before its first piece
    proc = _run_child(
        ["builtin", "hyperelliptic", "--g", "3", "--format", "json"],
        stdout=subprocess.DEVNULL,
        preexec_fn=functools.partial(os.close, 1),
    )
    _assert_output_named(proc)


# main with a closed file object as sys.stdout, its arguments from the command line
_CLOSED_STDOUT_MAIN = """
import io, sys
from prymtyurin.cli import main
sys.stdout = io.StringIO()
sys.stdout.close()
raise SystemExit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["builtin", "hyperelliptic", "--g", "3", "--format", "json"],
        ["builtin", "hyperelliptic", "--g", "3"],
        ["--help"],
    ],
    ids=["json", "table", "help"],
)
def test_a_closed_stdout_object_is_named_as_the_output(argv):
    # a write to a closed file object raises ValueError, which is no bad
    # input: the JSON pieces, the table and the help text all name the output
    proc = _run_child(argv, program=("-c", _CLOSED_STDOUT_MAIN))
    _assert_output_named(proc)


class _RecordingStdout:
    """A stdout that records each call by its method's name and the text it
    was given."""

    closed = False

    def __init__(self):
        self.calls = []

    def writelines(self, lines):
        self.calls.append(("writelines", "".join(lines)))

    def write(self, text):
        self.calls.append(("write", text))

    def flush(self):
        self.calls.append(("flush", ""))


ONE_VIEW_ARGV = [
    *(["run", "{file}", *fmt] for fmt in ([], ["--format", "json"])),
    *(["builtin", "pn-case", "--n", "3", "--gx", "1", *fmt] for fmt in ([], ["--format", "json"])),
    *(["builtin", "hyperelliptic", "--g", "3", *fmt] for fmt in ([], ["--format", "json"])),
    *(["verify-identity", "--kind", "grid", "--m", "3", *dump, *fmt]
      for dump in ([], ["--dump-matrix"]) for fmt in ([], ["--format", "json"])),
    *([*path, "-h"] for path in cli.COMMANDS),
]


@pytest.mark.parametrize("argv", ONE_VIEW_ARGV, ids=" ".join)
def test_each_view_is_one_writelines_and_one_flush(argv, tmp_path, monkeypatch, capsys):
    # every view reaches stdout through one helper: one writelines of the
    # whole view, then one flush, and never a write
    path = write_scenario(tmp_path, "s.json", STANDARD_N3)
    argv = [word.format(file=path) for word in argv]

    def call():
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    code = call()
    captured = capsys.readouterr()
    recorder = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert call() == code
    assert recorder.calls == [("writelines", captured.out), ("flush", "")]
    assert capsys.readouterr().err == captured.err == ""


def test_a_failed_write_in_process_leaves_the_callers_descriptors(monkeypatch, capsys):
    # main with a closed sys.stdout opens no descriptor it leaves open, and
    # leaves fd 1 on the caller's file: nothing is left to flush at exit
    def lowest_free_fd():
        fd = os.open(os.devnull, os.O_RDONLY)
        os.close(fd)
        return fd

    def fd1():
        stat = os.fstat(1)
        return stat.st_dev, stat.st_ino

    before = lowest_free_fd(), fd1()
    closed = io.StringIO()
    closed.close()
    monkeypatch.setattr(sys, "stdout", closed)
    for _ in range(5):
        assert main(["verify-identity", "--kind", "grid", "--m", "3"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("cannot write output:")
    assert (lowest_free_fd(), fd1()) == before
