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

import dataclasses
import json
from functools import cached_property

from .covering import CoveringData, GenusValidationError, is_int, normalize_profile, simple_budget
from .induced_curve import MODELS
from .perms import Permutation

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


@dataclasses.dataclass(frozen=True)
class Scenario:
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
        if not is_int(self.upstairs_genus):
            raise InvalidScenario(
                f"upstairs_genus must be an integer, got {self.upstairs_genus!r}"
            )
        if not isinstance(self.special_fibers, (list, tuple)):
            raise InvalidScenario("special_fibers must be a list of profiles")
        if self.kind == GRID:
            if not is_int(self.parameter) or self.parameter != GRID_SIZE:
                raise InvalidScenario(
                    f"grid scenarios require side {GRID_SIZE}:"
                    f" m must be {GRID_SIZE}, got {self.parameter!r}"
                )
            if self.upstairs_genus < 2:
                raise InvalidScenario(
                    "grid scenarios need a hyperelliptic curve, so upstairs_genus"
                    f" must be >= 2, got {self.upstairs_genus}"
                )
            if self.upstairs_genus > MAX_GRID_GENUS:
                raise InvalidScenario(
                    f"upstairs_genus must be at most {MAX_GRID_GENUS}, got {self.upstairs_genus}"
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
            object.__setattr__(self, "special_fibers", ())
        else:
            if not is_int(self.parameter) or self.parameter < 2:
                raise InvalidScenario(f"n must be an integer >= 2, got {self.parameter!r}")
            if self.parameter > MAX_SUBSET_N:
                raise InvalidScenario(f"n must be at most {MAX_SUBSET_N}, got {self.parameter}")
            if self.upstairs_genus < 0:
                raise InvalidScenario(
                    f"upstairs_genus must be >= 0, got {self.upstairs_genus}"
                )
            if self.upstairs_genus > 10**MAX_SUBSET_GENUS_EXPONENT:
                raise InvalidScenario(
                    f"upstairs_genus must be at most 10**{MAX_SUBSET_GENUS_EXPONENT}"
                )
            degree = self.parameter + 2
            fibers = []
            for pos, profile in enumerate(self.special_fibers):
                try:
                    parts = normalize_profile(profile)
                except ValueError as exc:
                    raise InvalidScenario(f"special_fibers[{pos}]: {exc}") from exc
                if sum(parts) > degree:
                    raise InvalidScenario(
                        f"special_fibers[{pos}]: parts sum to {sum(parts)},"
                        f" covering degree is {degree}"
                    )
                # pad with unramified sheets
                fibers.append(parts + (1,) * (degree - sum(parts)))
            object.__setattr__(self, "special_fibers", tuple(fibers))
            try:
                self.covering
            except (GenusValidationError, ValueError) as exc:
                raise InvalidScenario(
                    f"special_fibers vs upstairs_genus: {exc}"
                ) from exc
            if self.monodromy is not None:
                if not isinstance(self.monodromy, (list, tuple)):
                    raise InvalidScenario("monodromy must be a list of image lists")
                for pos, images in enumerate(self.monodromy):
                    if not isinstance(images, (list, tuple)) or not all(map(is_int, images)):
                        raise InvalidScenario(
                            f"monodromy[{pos}] must be a list of integer sheet labels,"
                            f" got {images!r}"
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
                object.__setattr__(self, "monodromy", tuple(tuple(g) for g in self.monodromy))

    @cached_property
    def covering(self) -> CoveringData:
        """The input covering of the base line, built once: degree n + 2 with
        the declared special fibers (subset) or the hyperelliptic double
        covering (grid), and as many simple branch points as simple_budget
        says the source genus needs, 2g + 2 for the double covering.
        """
        degree = 2 if self.kind == GRID else self.parameter + 2
        bare = CoveringData(degree=degree, special_fibers=self.special_fibers)
        return dataclasses.replace(bare, simple_extra=simple_budget(bare, self.upstairs_genus))


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
        # a non-integer or oversize n gets no default profiles; the constructor names it
        special_fibers = default_subset_fibers(n) if is_int(n) and n <= MAX_SUBSET_N else ()
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
        raise InvalidScenario(f"kind must be one of {KINDS}, got {kind!r}")

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
