"""Run configurations: which covering, which fibers, which fiber model.

A scenario pins down everything needed to assemble a verification report:
the family (subset exchange on a small covering, or the 3x3 grid built
from a hyperelliptic curve), the genus of the source curve, the special
fiber profiles, and which fiber model(s) to evaluate.  It carries the input
covering these data determine, built once.

Scenarios are plain data, and the constructor is the one place raw input
becomes a scenario, for files and Python callers alike: it checks the type
and value of every field and names the bad one.  Each special-fiber profile
goes through covering.normalize_profile, the one check of a profile's parts,
then is checked against the covering degree and padded with unramified
sheets, and monodromy generators become tuples.  parse_scenario adds only
the object, kind and unknown-key checks and maps n or m to the parameter,
so a malformed file never turns into a confusing error halfway through a
report.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .covering import CoveringData, GenusValidationError, is_int, normalize_profile, simple_budget
from .induced_curve import MODELS
from .perms import Permutation, Record, shown

SUBSET = "subset"
GRID = "grid"
KINDS = (SUBSET, GRID)

BOTH = "both"
MODEL_CHOICES = MODELS + (BOTH,)

GRID_SIZE = 3  # the only grid side with a usable exponent

# size ceilings, checked before anything is built: a subset matrix has C(n+2, 2)
# rows, and a grid layout and report grow with the genus (65 MB of JSON at 10,000)
MAX_SUBSET_N = 40
MAX_GRID_GENUS = 10_000
# a subset report prints numbers up to about n times the source genus, and
# Python refuses to print an int of more than 4,300 digits; the ceiling is
# named by its exponent, since a genus past it may not print either
MAX_SUBSET_GENUS_EXPONENT = 4_000


class InvalidScenario(ValueError):
    """Scenario data failed validation; the message names the field."""


class Scenario(
    Record,
    namedtuple("Scenario", "kind upstairs_genus parameter special_fibers model monodromy"),
):
    """One verification run.

    kind            "subset" or "grid"
    upstairs_genus  genus of the source curve (subset: the curve carrying
                    the small covering; grid: the hyperelliptic curve)
    parameter       subset size n, or the grid side (always 3)
    special_fibers  partition profiles of the small covering's non-simple
                    fibers (subset only; the grid fiber layout is implied),
                    stored sorted and padded with 1s to the degree n + 2
    model           which fiber model(s) to evaluate
    monodromy       optional explicit generators of the small covering's
                    monodromy group, used for the irreducibility check in
                    place of the synthesized representative choice
    covering        not a field: the input covering, built once by the
                    constructor for either kind
    """

    def __new__(cls, kind: str, upstairs_genus: int, parameter: int, special_fibers=(),
                model: str = BOTH, monodromy=None):
        if kind not in KINDS:
            raise InvalidScenario(f"kind must be one of {KINDS}, got {shown(kind)}")
        if model not in MODEL_CHOICES:
            raise InvalidScenario(f"model must be one of {MODEL_CHOICES}, got {shown(model)}")
        if not is_int(upstairs_genus):
            raise InvalidScenario(
                f"upstairs_genus must be an integer, got {shown(upstairs_genus)}"
            )
        if not isinstance(special_fibers, (list, tuple)):
            raise InvalidScenario("special_fibers must be a list of profiles")
        if kind == GRID:
            if not is_int(parameter) or parameter != GRID_SIZE:
                raise InvalidScenario(
                    f"grid scenarios require side {GRID_SIZE}:"
                    f" m must be {GRID_SIZE}, got {shown(parameter)}"
                )
            if upstairs_genus < 2:
                raise InvalidScenario(
                    "grid scenarios need a hyperelliptic curve, so upstairs_genus"
                    f" must be >= 2, got {shown(upstairs_genus)}"
                )
            if upstairs_genus > MAX_GRID_GENUS:
                raise InvalidScenario(
                    f"upstairs_genus must be at most {MAX_GRID_GENUS},"
                    f" got {shown(upstairs_genus)}"
                )
            if special_fibers:
                raise InvalidScenario(
                    "grid scenarios fix their own fiber layout;"
                    " special_fibers must be empty"
                )
            if monodromy is not None:
                raise InvalidScenario(
                    "grid scenarios fix their own monodromy;"
                    " an explicit generator list is not accepted"
                )
            special_fibers = ()
            covering = _input_covering(2, special_fibers, upstairs_genus)
        else:
            if not is_int(parameter) or parameter < 2:
                raise InvalidScenario(f"n must be an integer >= 2, got {shown(parameter)}")
            if parameter > MAX_SUBSET_N:
                raise InvalidScenario(f"n must be at most {MAX_SUBSET_N}, got {shown(parameter)}")
            if upstairs_genus < 0:
                raise InvalidScenario(f"upstairs_genus must be >= 0, got {shown(upstairs_genus)}")
            if upstairs_genus > 10**MAX_SUBSET_GENUS_EXPONENT:
                raise InvalidScenario(
                    f"upstairs_genus must be at most 10**{MAX_SUBSET_GENUS_EXPONENT}"
                )
            degree = parameter + 2
            fibers = []
            for pos, profile in enumerate(special_fibers):
                try:
                    parts = normalize_profile(profile)
                except ValueError as exc:
                    raise InvalidScenario(f"special_fibers[{pos}]: {exc}") from exc
                if sum(parts) > degree:
                    raise InvalidScenario(
                        f"special_fibers[{pos}]: parts sum to {shown(sum(parts))},"
                        f" covering degree is {degree}"
                    )
                # pad with unramified sheets
                fibers.append(parts + (1,) * (degree - sum(parts)))
            special_fibers = tuple(fibers)
            try:
                covering = _input_covering(degree, special_fibers, upstairs_genus)
            except (GenusValidationError, ValueError) as exc:
                raise InvalidScenario(f"special_fibers vs upstairs_genus: {exc}") from exc
            if monodromy is not None:
                if not isinstance(monodromy, (list, tuple)):
                    raise InvalidScenario("monodromy must be a list of image lists")
                for pos, images in enumerate(monodromy):
                    if not isinstance(images, (list, tuple)) or not all(map(is_int, images)):
                        raise InvalidScenario(
                            f"monodromy[{pos}] must be a list of integer sheet labels,"
                            f" got {shown(images)}"
                        )
                    try:
                        perm = Permutation(images=tuple(images))
                    except ValueError as exc:
                        raise InvalidScenario(f"monodromy[{pos}]: {exc}") from exc
                    if perm.degree != degree:
                        raise InvalidScenario(
                            f"monodromy[{pos}]: permutation degree {perm.degree}"
                            f" does not match covering degree {degree}"
                        )
                monodromy = tuple(tuple(g) for g in monodromy)
        self = super().__new__(
            cls, kind, upstairs_genus, parameter, special_fibers, model, monodromy
        )
        self.__dict__["covering"] = covering
        return self


def _input_covering(degree: int, special_fibers, upstairs_genus: int) -> CoveringData:
    """The covering with the simple branch points simple_budget says the
    source genus needs: 2g + 2 for the grid's double covering."""
    bare = CoveringData(degree, special_fibers)
    return CoveringData(degree, special_fibers, simple_budget(bare, upstairs_genus))


def default_subset_fibers(n: int) -> tuple[tuple[int, ...], ...]:
    """Two fibers of the maximal pair profile: (2,..,2) padded with a 1
    when the covering degree n+2 is odd."""
    degree = n + 2
    profile = (2,) * (degree // 2) + (1,) * (degree % 2)
    return (profile, profile)


def subset_scenario(
    n: int,
    upstairs_genus: int,
    special_fibers=None,
    model: str = BOTH,
    monodromy=None,
) -> Scenario:
    if special_fibers is None:
        # a non-integer or out-of-range n gets no default profiles; the constructor names it
        special_fibers = default_subset_fibers(n) if is_int(n) and 2 <= n <= MAX_SUBSET_N else ()
    return Scenario(
        kind=SUBSET,
        upstairs_genus=upstairs_genus,
        parameter=n,
        special_fibers=special_fibers,
        model=model,
        monodromy=monodromy,
    )


def grid_scenario(upstairs_genus: int, model: str = BOTH) -> Scenario:
    return Scenario(
        kind=GRID,
        upstairs_genus=upstairs_genus,
        parameter=GRID_SIZE,
        model=model,
    )


_COMMON_KEYS = {"kind", "upstairs_genus", "model"}
_SUBSET_KEYS = _COMMON_KEYS | {"n", "special_fibers", "monodromy"}
_GRID_KEYS = _COMMON_KEYS | {"m"}


def parse_scenario(data) -> Scenario:
    """Build a Scenario from decoded JSON, rejecting anything off-schema."""
    if not isinstance(data, dict):
        raise InvalidScenario(f"scenario must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in KINDS:
        raise InvalidScenario(f"kind must be one of {KINDS}, got {shown(kind)}")

    allowed = _SUBSET_KEYS if kind == SUBSET else _GRID_KEYS
    unknown = sorted(map(str, set(data) - allowed))
    if unknown:
        raise InvalidScenario(f"unknown keys for kind {kind!r}: {', '.join(unknown)}")

    genus = data.get("upstairs_genus")
    model = data.get("model", BOTH)
    if kind == GRID:
        side = data.get("m", GRID_SIZE)
        return Scenario(kind=GRID, upstairs_genus=genus, parameter=side, model=model)
    return subset_scenario(
        n=data.get("n"),
        upstairs_genus=genus,
        special_fibers=data.get("special_fibers"),
        model=model,
        monodromy=data.get("monodromy"),
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    out = {
        "kind": scenario.kind,
        "upstairs_genus": scenario.upstairs_genus,
        "model": scenario.model,
    }
    if scenario.kind == GRID:
        out["m"] = scenario.parameter
    else:
        out["n"] = scenario.parameter
        out["special_fibers"] = [list(p) for p in scenario.special_fibers]
        if scenario.monodromy is not None:
            out["monodromy"] = [list(g) for g in scenario.monodromy]
    return out


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # a decode error, an integer literal past the interpreter's digit
            # limit, or nesting deeper than its recursion limit
            raise InvalidScenario(f"not valid JSON: {exc}") from exc
    return parse_scenario(data)
