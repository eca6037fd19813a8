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
the object, kind and unknown-key checks and reads the parameter under its
family's key, so a malformed file never turns into a confusing error
halfway through a report.

A family is described in one place, its record in FAMILIES (Family): the
parameter's key and bounds, the genus bounds and covering degree, the
default profiles and whether declared fibers and monodromy are accepted,
the matrix builder, the fiber layout with the label moves of its
synthesized irreducibility basis, the report's texts and the
verify-identity ceiling.  The validator, the report, its table and the
CLI read a scenario's family from its record and branch on no kind.  The correspondence's label rule and closed form, one
table below the fiber builders, and the independent certificate checker's
own rule are the other two descriptions.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from itertools import chain, repeat

from .correspondence import FiberCorrespondence, build_grid_matrix, build_subset_matrix
from .covering import CoveringData, is_int, normalize_profile, simple_budget
from .induced_curve import (
    MERGED,
    MODELS,
    blocks_from_parts,
    grid_pairing_fiber,
    grid_row_merge_fiber,
    partition_monodromy,
    subset_fiber,
)
from .perms import Permutation, Record, shown, transposition

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
MAX_SUBSET_GENUS = 10**MAX_SUBSET_GENUS_EXPONENT
# each declared fiber writes the labels of all C(n+2, 2) points again, so the
# declared fibers times their points are bounded: 20 fibers at n = 40.  The
# heaviest profiles found there, (4, 2, .., 2) and (3, 3, 2, .., 2), write
# 62.7 MB of JSON under "both" at the genus ceiling (21 fibers: 65.8 MB), no
# more than the grid's 64.6 MB at MAX_GRID_GENUS.  Explicit monodromy
# generators are bounded by the same budget: each is induced on every point
# and kept for the irreducibility check
MAX_SUBSET_FIBER_POINTS = 20 * 861
# verify-identity builds and checks an m^2-point relation; m = 30 takes about as long as
# subset n = MAX_SUBSET_N: 2.9-3.3 ms in process, 29-37 ms with a JSON --dump-matrix
# (2 vCPUs, Python 3.11, best and median of 9 runs of each)
MAX_IDENTITY_M = 30


class InvalidScenario(ValueError):
    """Scenario data failed validation; the message names the field."""


class Family(namedtuple("Family", "key default_parameter check default_profiles matrix layout"
                        " label error_prefix identity_max")):
    """A family's record, the one place a family is described outside the
    correspondence's label rule and the independent certificate checker:
    each field is a fact in which the subset and grid families differ.
    FAMILIES holds one per kind, and every per-kind step reads its kind's
    record.  The builders are called by name from the record's functions,
    never stored in it, so a wrapper bound over the module's name (the
    bench tracer's) sees every call.

    key                the parameter's name in files, reports and flags
    default_parameter  the parameter a file may leave out, or None
    check              (parameter, upstairs_genus) -> the covering degree,
                       raising InvalidScenario on a value out of bounds
    default_profiles   parameter -> the special-fiber profiles a scenario
                       gets when it declares none, or None for a family that
                       fixes its own fiber layout and monodromy, which then
                       accepts neither
    matrix             parameter -> the correspondence
    layout             (scenario, corr, models) -> (each model's (fibers,
                       layout positions, simple fiber or None, label blocks
                       per fiber), one object for models that share it; the
                       label moves of the synthesized irreducibility basis):
                       the fibers are the distinct ones the positions name,
                       the positions are bytes, one per position holding the
                       index of its fiber (a layout has fewer than 256
                       distinct fibers under the scenario ceilings), and
                       the simple fiber, over the covering's simple branch
                       points, is kept beside them (None when the layout
                       declares every fiber).  The moves are an iterable,
                       repeats allowed, which the report reads only when
                       the scenario gives no explicit monodromy
    label              the scenario row of the text table, formatted with
                       the scenario's dict
    error_prefix       the scenario part of a model's genus error, likewise
    identity_max       the parameter ceiling of verify-identity
    """


def _check_subset(n, upstairs_genus) -> int:
    if not is_int(n) or n < 2:
        raise InvalidScenario(f"n must be an integer >= 2, got {shown(n)}")
    if n > MAX_SUBSET_N:
        raise InvalidScenario(f"n must be at most {MAX_SUBSET_N}, got {shown(n)}")
    if upstairs_genus < 0:
        raise InvalidScenario(f"upstairs_genus must be >= 0, got {shown(upstairs_genus)}")
    if upstairs_genus > MAX_SUBSET_GENUS:
        raise InvalidScenario(f"upstairs_genus must be at most 10**{MAX_SUBSET_GENUS_EXPONENT}")
    return n + 2


def _check_grid(m, upstairs_genus) -> int:
    if not is_int(m) or m != GRID_SIZE:
        raise InvalidScenario(
            f"grid scenarios require side {GRID_SIZE}: m must be {GRID_SIZE}, got {shown(m)}"
        )
    if upstairs_genus < 2:
        raise InvalidScenario(
            "grid scenarios need a hyperelliptic curve, so upstairs_genus"
            f" must be >= 2, got {shown(upstairs_genus)}"
        )
    if upstairs_genus > MAX_GRID_GENUS:
        raise InvalidScenario(
            f"upstairs_genus must be at most {MAX_GRID_GENUS}, got {shown(upstairs_genus)}"
        )
    # the double covering of the hyperelliptic curve
    return 2


def _subset_layout(scenario: Scenario, corr: FiberCorrespondence, models) -> tuple:
    """One fiber per distinct declared profile, and the simple fiber beside
    them, built once: both models move the simple profile's pair by (1 2)
    alone, so they share its fiber, wherever the simple profile is declared
    too.  A merged fiber gets its profile's blocks, whose multisets its
    entry writes, an orbit fiber none.  The synthesized basis is a
    representative choice: each distinct profile's local monodromy, then
    one adjacent transposition per simple branch point, which repeat after
    degree - 1.  Its moves are built as they are read, so an explicit
    basis builds none."""
    degree = scenario.covering.degree
    simple_profile = (2,) + (1,) * scenario.parameter
    simple = subset_fiber(corr, simple_profile, MERGED)
    profiles = tuple(dict.fromkeys(scenario.special_fibers))
    positions = bytes(map(profiles.index, scenario.special_fibers))
    merged = [blocks_from_parts(p, degree) for p in profiles]
    last = 1 + min(scenario.covering.simple_extra, degree - 1)
    moves = chain(map(partition_monodromy, profiles, repeat(degree)),
                  map(transposition, repeat(degree), range(1, last), range(2, last + 1)))
    return {
        m: (tuple(simple if p == simple_profile else subset_fiber(corr, p, m) for p in profiles),
            positions, simple, merged if m == MERGED else [None] * len(profiles))
        for m in models
    }, moves


def _grid_layout(scenario: Scenario, corr: FiberCorrespondence, models) -> tuple:
    """Two row-merge fibers, then one pairing fiber per simple branch point
    of the double covering (its simple_budget) cycling the diagonal shift:
    four distinct fibers and one layout object for both models.  The
    positions are bytes built at C level, so no layout costs a Python step
    per branch point.  The synthesized basis is the four fibers' label
    moves, the grid's local monodromies."""
    side = corr.parameter
    distinct = (grid_row_merge_fiber(corr), *(grid_pairing_fiber(corr, s) for s in range(side)))
    extra = scenario.covering.simple_extra
    positions = bytes((0, 0)) + (bytes(range(1, side + 1)) * (extra // side + 1))[:extra]
    layout = (distinct, positions, None, (None,) * len(distinct))
    return dict.fromkeys(models, layout), chain.from_iterable(f.moves for f in distinct)


FAMILIES = {
    SUBSET: Family(
        key="n", default_parameter=None, check=_check_subset,
        default_profiles=lambda n: default_subset_fibers(n),
        matrix=lambda n: build_subset_matrix(n), layout=_subset_layout,
        label="subset exchange, n = {n}, source genus {upstairs_genus}",
        error_prefix="subset scenario n={n}, source genus {upstairs_genus}",
        identity_max=MAX_SUBSET_N,
    ),
    GRID: Family(
        key="m", default_parameter=GRID_SIZE, check=_check_grid, default_profiles=None,
        matrix=lambda m: build_grid_matrix(m), layout=_grid_layout,
        label="{m}x{m} grid over a genus {upstairs_genus} hyperelliptic curve",
        error_prefix="grid scenario, genus {upstairs_genus}",
        identity_max=MAX_IDENTITY_M,
    ),
}


def _family_of(kind) -> Family:
    """The record of a kind; any other value, an unhashable one included,
    raises InvalidScenario."""
    if kind not in KINDS:
        raise InvalidScenario(f"kind must be one of {KINDS}, got {shown(kind)}")
    return FAMILIES[kind]


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
                    stored sorted and padded with 1s to the degree n + 2;
                    None gives the family's default profiles
    model           which fiber model(s) to evaluate
    monodromy       optional explicit generators of the small covering's
                    monodromy group, used for the irreducibility check in
                    place of the synthesized representative choice
    covering        not a field: the input covering, built once by the
                    constructor for either kind
    """

    def __new__(cls, kind: str, upstairs_genus: int, parameter: int, special_fibers=(),
                model: str = BOTH, monodromy=None):
        family = _family_of(kind)
        if model not in MODEL_CHOICES:
            raise InvalidScenario(f"model must be one of {MODEL_CHOICES}, got {shown(model)}")
        if not is_int(upstairs_genus):
            raise InvalidScenario(
                f"upstairs_genus must be an integer, got {shown(upstairs_genus)}"
            )
        if special_fibers is not None and not isinstance(special_fibers, (list, tuple)):
            raise InvalidScenario("special_fibers must be a list of profiles")
        degree = family.check(parameter, upstairs_genus)
        if family.default_profiles is None:
            if special_fibers:
                raise InvalidScenario(
                    f"{kind} scenarios fix their own fiber layout;"
                    " special_fibers must be empty"
                )
            if monodromy is not None:
                raise InvalidScenario(
                    f"{kind} scenarios fix their own monodromy;"
                    " an explicit generator list is not accepted"
                )
        elif special_fibers is None:
            special_fibers = family.default_profiles(parameter)
        points = degree * (degree - 1) // 2
        if len(special_fibers or ()) * points > MAX_SUBSET_FIBER_POINTS:
            raise InvalidScenario(
                f"special_fibers must hold at most {MAX_SUBSET_FIBER_POINTS // points} profiles"
                f" of {points} points each, got {len(special_fibers)}"
            )
        fibers = []
        for pos, profile in enumerate(special_fibers or ()):
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
        # the simple branch points simple_budget says the source genus needs:
        # 2g + 2 for the grid's double covering
        try:
            extra = simple_budget(degree, special_fibers, upstairs_genus)
            covering = CoveringData(degree, special_fibers, extra)
        except ValueError as exc:
            raise InvalidScenario(f"special_fibers vs upstairs_genus: {exc}") from exc
        # a family with a fixed monodromy refused any above
        if monodromy is not None:
            if not isinstance(monodromy, (list, tuple)):
                raise InvalidScenario("monodromy must be a list of image lists")
            # bounded, like the declared fibers, before any is read
            if len(monodromy) * points > MAX_SUBSET_FIBER_POINTS:
                raise InvalidScenario(
                    f"monodromy must hold at most {MAX_SUBSET_FIBER_POINTS // points} generators"
                    f" of {points} points each, got {len(monodromy)}"
                )
            for pos, images in enumerate(monodromy):
                if not isinstance(images, (list, tuple)) or not all(map(is_int, images)):
                    raise InvalidScenario(
                        f"monodromy[{pos}] must be a list of integer sheet labels,"
                        f" got {shown(images)}"
                    )
                # the length first, so a long list is never sorted
                if len(images) != degree:
                    raise InvalidScenario(
                        f"monodromy[{pos}]: permutation degree {len(images)}"
                        f" does not match covering degree {degree}"
                    )
                try:
                    Permutation(images=tuple(images))
                except ValueError as exc:
                    raise InvalidScenario(f"monodromy[{pos}]: {exc}") from exc
            monodromy = tuple(tuple(g) for g in monodromy)
        self = super().__new__(
            cls, kind, upstairs_genus, parameter, special_fibers, model, monodromy
        )
        self.__dict__["covering"] = covering
        return self


def default_subset_fibers(n: int) -> tuple[tuple[int, ...], ...]:
    """Two fibers of the maximal pair profile: (2,..,2) padded with a 1
    when the covering degree n+2 is odd."""
    degree = n + 2
    profile = (2,) * (degree // 2) + (1,) * (degree % 2)
    return (profile, profile)


def subset_scenario(n: int, upstairs_genus: int, special_fibers=None, model: str = BOTH,
                    monodromy=None) -> Scenario:
    return Scenario(SUBSET, upstairs_genus, n, special_fibers, model, monodromy)


def grid_scenario(upstairs_genus: int, model: str = BOTH) -> Scenario:
    return Scenario(GRID, upstairs_genus, GRID_SIZE, model=model)


_COMMON_KEYS = {"kind", "upstairs_genus", "model"}
# the keys of a family that accepts declared fibers and monodromy
_DECLARED_KEYS = {"special_fibers", "monodromy"}


def parse_scenario(data) -> Scenario:
    """Build a Scenario from decoded JSON, rejecting anything off-schema."""
    if not isinstance(data, dict):
        raise InvalidScenario(f"scenario must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    family = _family_of(kind)
    declared = _DECLARED_KEYS if family.default_profiles is not None else set()
    allowed = _COMMON_KEYS | {family.key} | declared
    unknown = sorted(map(str, set(data) - allowed))
    if unknown:
        raise InvalidScenario(f"unknown keys for kind {kind!r}: {', '.join(unknown)}")
    return Scenario(
        kind=kind,
        upstairs_genus=data.get("upstairs_genus"),
        parameter=data.get(family.key, family.default_parameter),
        special_fibers=data.get("special_fibers"),
        model=data.get("model", BOTH),
        monodromy=data.get("monodromy"),
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    family = FAMILIES[scenario.kind]
    out = {
        "kind": scenario.kind,
        "upstairs_genus": scenario.upstairs_genus,
        "model": scenario.model,
        family.key: scenario.parameter,
    }
    if family.default_profiles is not None:
        out["special_fibers"] = [list(p) for p in scenario.special_fibers]
    if scenario.monodromy is not None:
        out["monodromy"] = [list(g) for g in scenario.monodromy]
    return out


def _unique_keys(pairs: list) -> dict:
    # json.load's object_pairs_hook: a repeated key is refused by name, where
    # json.load alone would keep its last value
    data = dict(pairs)
    if len(data) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise InvalidScenario(f"key {next(k for k in data if counts[k] > 1)!r} is repeated")
    return data


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except InvalidScenario:
            raise
        except (ValueError, RecursionError) as exc:
            # a decode error, an integer literal past the interpreter's digit
            # limit, or nesting deeper than its recursion limit
            raise InvalidScenario(f"not valid JSON: {exc}") from exc
    return parse_scenario(data)
