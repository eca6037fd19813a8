"""Correctness checks on one input's run: golden digest and closed-form oracles.

The oracles come from the strongly-regular-graph identity
A^2 = (k - mu) I + (lambda - mu) A + mu J (Brouwer-Haemers, Spectra of
Graphs, ch. 9), not from the program:

- subset n: the Kneser graph K(n+2, 2) gives (a, b, c) = (n-1, -(n-2),
  C(n-1, 2)) and exponent q = 2 - b = n, on C(n+2, 2) points of degree
  C(n, 2);
- grid m: the rook's graph gives (a, b, c) = (2m-4, m-4, 2); the exponent
  q = 6 - m needs a = q - 1, so it exists only at m = 3, where q = 3;
- grid scenario at genus g: the induced curve has genus 3g - 2, dim P = g - 1
  and Delta.D = 6 under every model.
"""

from __future__ import annotations

import json
import re
from math import comb

# how a record ends; a record that hit the per-input limit is undecided,
# never failed
DECIDED = "decided"
UNDECIDED = "undecided"


def subset_oracle(n: int) -> dict:
    return {"a": n - 1, "b": -(n - 2), "c": comb(n - 1, 2), "q": n,
            "size": comb(n + 2, 2), "bidegree": comb(n, 2)}


def grid_oracle(m: int) -> dict:
    return {"a": 2 * m - 4, "b": m - 4, "c": 2, "q": 3 if m == 3 else None,
            "size": m * m, "bidegree": 2 * (m - 1)}


def _identity_problems(block: dict, want: dict) -> list[str]:
    got = {"size": block.get("size"), "bidegree": block.get("bidegree"),
           "q": block.get("exponent")}
    ident = block.get("identity") or {}
    got.update({k: ident.get(k) for k in "abc"})
    return [f"{k} = {got[k]!r}, oracle says {v!r}" for k, v in want.items() if got[k] != v]


def _grid_model_problems(text: str, g: int) -> list[str]:
    data = json.loads(text)
    problems = _identity_problems(data["correspondence"], grid_oracle(3))
    for name, rep in sorted(data["models"].items()):
        got = (rep["induced"]["genus"], rep["dim_p"], rep["delta_dot_d"])
        if got != (3 * g - 2, g - 1, 6):
            problems.append(f"{name} model: (genus, dim P, Delta.D) = {got},"
                            f" oracle says {(3 * g - 2, g - 1, 6)}")
    return problems


def _grid_table_problems(text: str, g: int) -> list[str]:
    want = grid_oracle(3)
    models = len(re.findall(r"^== model: ", text, re.M))
    expected = [  # (pattern, times it must appear)
        (re.escape(f"D^2 = ({want['a']})*I + ({want['b']})*D + ({want['c']})*U"), 1),
        (rf"^exponent q +{want['q']}$", 1),
        (rf"^curve genus +{3 * g - 2}$", models),
        (r"^fixed points +Delta\.D = 6 ", models),
        (rf"^dim P +{g - 1} +\[integral\]$", models),
    ]
    problems = [] if models else ["table: no model sections"]
    for pattern, times in expected:
        found = len(re.findall(pattern, text, re.M))
        if found != times:
            problems.append(f"table: /{pattern}/ found {found} times, oracle expects {times}")
    return problems


def oracle_problems(oracle: tuple, text: str) -> list[str]:
    """Closed-form checks of one output; [] when they all hold."""
    if not oracle:
        return []
    name, param = oracle
    try:
        if name == "identity-subset":
            return _identity_problems(json.loads(text), subset_oracle(param))
        if name == "identity-grid":
            return _identity_problems(json.loads(text), grid_oracle(param))
        if name == "run-subset":
            return _identity_problems(json.loads(text)["correspondence"], subset_oracle(param))
        if name == "run-grid":
            return _grid_model_problems(text, param)
        if name == "table-grid":
            return _grid_table_problems(text, param)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"output does not have the expected shape: {exc!r}"]
    raise ValueError(f"unknown oracle {name!r}")


def keyed_verdict(text: str, table: bool) -> str | None:
    """The verdict the exit code follows, read from the printed report: the
    merged ("paper") model when present, else the only model; for
    verify-identity, whether an exponent exists."""
    if table:
        sections = re.split(r"^== model: (\S+) ==$", text, flags=re.M)
        verdicts = {}
        for model, body in zip(sections[1::2], sections[2::2]):
            verdicts[model] = "failed" if "hypotheses NOT verified" in body else "verified"
    else:
        try:
            data = json.loads(text)
        except ValueError:
            return None
        if "verdict" not in data:
            return "verified" if data.get("exponent") is not None else "failed"
        verdicts = data["verdict"]
    if "paper" in verdicts:
        return verdicts["paper"]
    return next(iter(verdicts.values()), None)


def record_problems(inp, rec: dict, golden: dict | None) -> list[str]:
    """Checks that need only the record: exit code, traceback, digest."""
    if rec["outcome"] == UNDECIDED:
        return []
    problems = []
    if rec["traceback"]:
        problems.append("raised a traceback")
    if inp.hostile_field is not None:
        if rec["exit"] != 1:
            problems.append(f"exit code {rec['exit']}, a hostile input must exit 1")
        if inp.hostile_field not in rec["stderr"]:
            problems.append(f"stderr does not name the field {inp.hostile_field!r}")
    elif inp.undecided:
        if rec["exit"] not in (0, 2):
            problems.append(f"exit code {rec['exit']}, expected 0 or 2")
    elif golden is None:
        problems.append("no golden entry")
    else:
        if rec["exit"] != golden["exit"]:
            problems.append(f"exit code {rec['exit']}, golden {golden['exit']}")
        if rec["sha256"] != golden["sha256"]:
            problems.append("report digest differs from golden")
    return problems


def text_problems(inp, text: str, golden: dict | None) -> list[str]:
    """Checks that read the printed report: keyed verdict and oracles."""
    if inp.hostile_field is not None:
        return []
    problems = []
    if golden is not None:
        verdict = keyed_verdict(text, "table" in inp.argv)
        if verdict != golden["verdict"]:
            problems.append(f"keyed verdict {verdict!r}, golden {golden['verdict']!r}")
    return problems + oracle_problems(inp.oracle, text)
