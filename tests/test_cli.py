"""End-to-end tests for the command-line front end.

Everything drives ``main(argv)`` directly so exit codes and streams are
asserted in-process; one smoke test exercises the installed console script.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import prymtyurin
from prymtyurin import fixed_points
from prymtyurin.cli import (
    EXIT_HYPOTHESIS,
    EXIT_VALIDATION,
    EXIT_VERIFIED,
    main,
)
from prymtyurin.report import canonical_json


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
    monkeypatch.setattr(fixed_points, "NESTING_CLIQUE_BUDGET", 100)
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
    code = main(
        [
            "verify-identity",
            "--kind",
            "grid",
            "--m",
            "3",
            "--dump-matrix",
            "--format",
            "json",
        ]
    )
    assert code == EXIT_VERIFIED
    payload = json.loads(capsys.readouterr().out)
    matrix = payload["matrix"]
    assert len(matrix) == 9
    assert all(sum(row) == 4 for row in matrix)
    assert all(matrix[i][i] == 0 for i in range(9))


# argv -> what stderr must name; the matrix builders name the size bounds
MIXUP_MESSAGES = {
    ("verify-identity", "--kind", "subset", "--m", "3"): "requires --n",  # stray --m
    ("verify-identity", "--kind", "grid", "--n", "2"): "requires --m",  # stray --n
    ("verify-identity", "--kind", "subset", "--n", "1"): "n >= 2",  # size too small
    ("verify-identity", "--kind", "grid", "--m", "1"): "m >= 2",  # side too small
}


@pytest.mark.parametrize("argv", [list(argv) for argv in MIXUP_MESSAGES])
def test_verify_identity_argument_mixups(argv, capsys):
    assert main(argv) == EXIT_VALIDATION
    assert MIXUP_MESSAGES[tuple(argv)] in capsys.readouterr().err


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


def test_verbose_echoes_scenario(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PRYMTYURIN_VERBOSE", "1")
    path = write_scenario(tmp_path, "s.json", STANDARD_N3)
    assert main(["run", path]) == EXIT_VERIFIED
    assert "scenario:" in capsys.readouterr().err


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
