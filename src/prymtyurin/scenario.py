"""Run configurations: which covering, which fibers, which fiber model.

A scenario pins down everything needed to assemble a verification report:
the family (subset exchange on a small covering, or the 3x3 grid built
from a hyperelliptic curve), the genus of the source curve, the special
fiber profiles, and which fiber model(s) to evaluate.  It carries the input
covering these data determine, built once.

Scenarios are plain data.  They are parsed strictly: unknown keys and
out-of-range values are rejected up front with the offending field named,
so a malformed input file never turns into a confusing arithmetic error
halfway through a report.
"""

from __future__ import annotations

import dataclasses
import json
from functools import cached_property

from .covering import CoveringData, GenusValidationError, simple_budget
from .induced_curve import MODELS
from .perms import Permutation

SUBSET = "subset"
GRID = "grid"
KINDS = (SUBSET, GRID)

BOTH = "both"
MODEL_CHOICES = MODELS + (BOTH,)

GRID_SIZE = 3  # the only grid side with a usable exponent


class InvalidScenario(ValueError):
    """Scenario data failed validation; the message names the field."""


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One verification run.

    kind            "subset" or "grid"
    upstairs_genus  genus of the source curve (subset: the curve carrying
                    the small covering; grid: the hyperelliptic curve)
    parameter       subset size n, or the grid side (always 3)
    special_fibers  partition profiles of the small covering's non-simple
                    fibers (subset only; the grid fiber layout is implied)
    model           which fiber model(s) to evaluate
    monodromy       optional explicit generators of the small covering's
                    monodromy group, used for the irreducibility check in
                    place of the synthesized representative choice
    """

    kind: str
    upstairs_genus: int
    parameter: int
    special_fibers: tuple[tuple[int, ...], ...] = ()
    model: str = BOTH
    monodromy: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidScenario(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.model not in MODEL_CHOICES:
            raise InvalidScenario(
                f"model must be one of {MODEL_CHOICES}, got {self.model!r}"
            )
        if self.kind == GRID:
            if self.parameter != GRID_SIZE:
                raise InvalidScenario(
                    f"grid scenarios require side {GRID_SIZE}, got {self.parameter}"
                )
            if self.upstairs_genus < 2:
                raise InvalidScenario(
                    "grid scenarios need a hyperelliptic curve, so upstairs_genus"
                    f" must be >= 2, got {self.upstairs_genus}"
                )
            if self.special_fibers:
                raise InvalidScenario(
                    "grid scenarios fix their own fiber layout;"
                    " special_fibers must be empty"
                )
            if self.monodromy is not None:
                raise InvalidScenario(
                    "grid scenarios fix their own monodromy;"
                    " an explicit generator list is not accepted"
                )
        else:
            if self.parameter < 2:
                raise InvalidScenario(
                    f"subset size must be >= 2, got {self.parameter}"
                )
            if self.upstairs_genus < 0:
                raise InvalidScenario(
                    f"upstairs_genus must be >= 0, got {self.upstairs_genus}"
                )
            degree = self.parameter + 2
            for pos, profile in enumerate(self.special_fibers):
                _check_profile(profile, degree, f"special_fibers[{pos}]")
            try:
                self.covering
            except (GenusValidationError, ValueError) as exc:
                raise InvalidScenario(
                    f"special_fibers vs upstairs_genus: {exc}"
                ) from exc
            if self.monodromy is not None:
                for pos, images in enumerate(self.monodromy):
                    if not all(_is_int(x) for x in images):
                        raise InvalidScenario(
                            f"monodromy[{pos}]: sheet labels must be integers,"
                            f" got {list(images)!r}"
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

    @cached_property
    def covering(self) -> CoveringData:
        """The input covering of the base line, built once.

        subset: degree n + 2 with the declared special fibers and as many
        simple branch points as the source genus needs; grid: the
        hyperelliptic double covering, one simple branch point per pairing
        fiber.
        """
        if self.kind == GRID:
            return CoveringData(degree=2, base_genus=0, simple_extra=2 * self.upstairs_genus + 2)
        bare = CoveringData(
            degree=self.parameter + 2, base_genus=0, special_fibers=self.special_fibers
        )
        return dataclasses.replace(bare, simple_extra=simple_budget(bare, self.upstairs_genus))


def _is_int(value) -> bool:
    # JSON true/false decode to bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _check_parts(profile, field):
    if not all(_is_int(part) and part >= 1 for part in profile):
        raise InvalidScenario(f"{field}: parts must be positive integers")


def _check_profile(profile, degree, field):
    if not profile:
        raise InvalidScenario(f"{field}: profile is empty")
    _check_parts(profile, field)
    if sum(profile) != degree:
        raise InvalidScenario(
            f"{field}: parts sum to {sum(profile)}, covering degree is {degree}"
        )
    if max(profile) == 1:
        raise InvalidScenario(f"{field}: profile is unramified (all parts 1)")


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
        special_fibers = default_subset_fibers(n)
    degree = n + 2
    fibers = []
    for pos, profile in enumerate(special_fibers):
        # parts are sorted and summed before Scenario validates them
        _check_parts(profile, f"special_fibers[{pos}]")
        parts = tuple(sorted(profile, reverse=True))
        short = degree - sum(parts)
        if short > 0:  # pad with unramified sheets
            parts = parts + (1,) * short
        fibers.append(parts)
    fibers = tuple(fibers)
    gens = None if monodromy is None else tuple(tuple(g) for g in monodromy)
    return Scenario(
        kind=SUBSET,
        upstairs_genus=upstairs_genus,
        parameter=n,
        special_fibers=fibers,
        model=model,
        monodromy=gens,
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
        raise InvalidScenario(f"kind must be one of {KINDS}, got {kind!r}")

    allowed = _SUBSET_KEYS if kind == SUBSET else _GRID_KEYS
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise InvalidScenario(f"unknown keys for kind {kind!r}: {', '.join(unknown)}")

    genus = data.get("upstairs_genus")
    if not _is_int(genus):
        raise InvalidScenario("upstairs_genus must be an integer")
    model = data.get("model", BOTH)

    if kind == GRID:
        side = data.get("m", GRID_SIZE)
        if side != GRID_SIZE:
            raise InvalidScenario(f"m must be {GRID_SIZE}, got {side!r}")
        return Scenario(
            kind=GRID, upstairs_genus=genus, parameter=GRID_SIZE, model=model
        )

    n = data.get("n")
    if not _is_int(n):
        raise InvalidScenario("n must be an integer")
    fibers = data.get("special_fibers")
    if fibers is not None:
        if not isinstance(fibers, list):
            raise InvalidScenario("special_fibers must be a list of profiles")
        parsed = []
        for pos, profile in enumerate(fibers):
            if not isinstance(profile, list):
                raise InvalidScenario(
                    f"special_fibers[{pos}] must be a list of integer parts"
                )
            parsed.append(tuple(profile))
        fibers = parsed
    gens = data.get("monodromy")
    if gens is not None:
        if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
            raise InvalidScenario("monodromy must be a list of image lists")
    try:
        return subset_scenario(
            n=n,
            upstairs_genus=genus,
            special_fibers=fibers,
            model=model,
            monodromy=gens,
        )
    except InvalidScenario:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidScenario(str(exc)) from exc


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


def scenario_to_json(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            # nesting deeper than the interpreter's recursion limit
            raise InvalidScenario(f"not valid JSON: {exc}") from exc
    return parse_scenario(data)
