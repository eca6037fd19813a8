"""End-to-end tests for the command-line front end.

Everything drives ``main(argv)`` directly so exit codes and streams are
asserted in-process; one smoke test exercises the installed console script.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prymtyurin
from prymtyurin import cli, fixed_points, report
from prymtyurin import scenario as scenario_module
from prymtyurin.cli import (
    EXIT_HYPOTHESIS,
    EXIT_VALIDATION,
    EXIT_VERIFIED,
    main,
)
from prymtyurin.correspondence import FiberCorrespondence
from prymtyurin.perms import all_subsets
from prymtyurin.report import canonical_json, identity_rows
from prymtyurin.scenario import MAX_SUBSET_GENUS_EXPONENT, MODEL_CHOICES


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
    ("verify-identity", "--kind", "subset", "--n", "1"): "n >= 2",  # size too small
    ("verify-identity", "--kind", "grid", "--m", "1"): "m >= 2",  # side too small
    # a stray --n next to the grid's --m
    ("verify-identity", "--kind", "grid", "--m", "3", "--n", "2"): "--n only applies to --kind subset",
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
)


def test_size_ceilings_reject_through_validation_alone(tmp_path, monkeypatch, capsys):
    # every builder of an n-, m- or genus-sized object fails loudly
    def refuse(*args):
        raise AssertionError(f"built an object for {args}")

    for module, name in (
        (cli, "build_subset_matrix"),
        (cli, "build_grid_matrix"),
        (report, "build_subset_matrix"),
        (report, "build_grid_matrix"),
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

    monkeypatch.setattr(cli, "build_subset_matrix", record)
    monkeypatch.setattr(cli, "build_grid_matrix", record)
    assert main(["verify-identity", "--kind", "subset", "--n", "40"]) == EXIT_VALIDATION
    assert main(["verify-identity", "--kind", "grid", "--m", "30"]) == EXIT_VALIDATION
    assert built == [40, 30]
    assert "stopped at the builder" in capsys.readouterr().err


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
    monkeypatch.setattr(cli, "build_subset_matrix", lambda n: t5)
    monkeypatch.setattr(report, "build_subset_matrix", lambda n: t5)
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
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(argv=cli_argv())
def test_argv_fuzz_exits_cleanly(argv):
    code, _, err = _captured_main(argv)
    assert code in (EXIT_VERIFIED, EXIT_VALIDATION, EXIT_HYPOTHESIS)
    assert "Traceback" not in err


# --- argparse plumbing --------------------------------------------------------


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
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(_captured_main(argv))
    cli.build_parser.cache_clear()
    shared = [_captured_main(argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [EXIT_VALIDATION] + [EXIT_VERIFIED] * 3
    # the default model, both, came back after the --model paper call
    assert set(json.loads(shared[3][1])["models"]) == {"paper", "monodromy"}


# --- installed console script -------------------------------------------------


def _run_child(argv):
    # the child imports the same package as this test, installed or not
    source = str(Path(prymtyurin.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (source, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "prymtyurin.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_script_smoke():
    proc = _run_child(["builtin", "pn-case", "--n", "3", "--gx", "2"])
    assert proc.returncode == EXIT_VERIFIED, proc.stderr
    assert "verified" in proc.stdout
