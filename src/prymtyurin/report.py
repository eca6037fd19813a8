"""End-to-end verdict assembly.

Runs a scenario through the whole pipeline -- covering bookkeeping, induced
curve genus, quadratic identity and exponent, fixed classes, nesting
certificate, dimension and auxiliary line-bundle degree -- under one or both
fiber models, and packages everything into a report.  Both families run
through the same per-model pipeline; each supplies only its fiber layout.
assemble returns the report's canonical dict, the one source of both of its
views: canonical JSON and an aligned text table.

All arithmetic is exact.  The dimension is an int, or a ratio reduced by
math.gcd and written as a "p/q" string with the sign on p; a non-integral
value is reported as an inconsistency diagnostic, never rounded.  Verdicts only
ever claim the combinatorial hypotheses: the analytic ones (primitivity of
the correspondence class, smoothness of the curve) are marked unchecked.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from math import gcd

from .correspondence import (
    FiberCorrespondence,
    build_grid_matrix,
    build_subset_matrix,
    identity_and_exponent,
)
from .covering import (
    CoveringData,
    GenusValidationError,
    ramification_degree,
    riemann_hurwitz_genus,
    upstairs_genus,
)
from .fixed_points import (
    NestingCertificate,
    NestingUndecided,
    check_certificate,
    class_action,
    fixed_point_scan,
    nesting_search,
)
from .induced_curve import (
    MERGED,
    ORBIT,
    SpecialFiber,
    blocks_from_parts,
    grid_pairing_fiber,
    grid_row_merge_fiber,
    irreducibility_check,
    partition_monodromy,
    subset_fiber,
)
from .perms import Permutation, is_transitive, transposition
from .scenario import BOTH, GRID, GRID_SIZE, SUBSET, Scenario, scenario_to_dict

UNCHECKED = "unchecked"
VERIFIED = "verified"
FAILED = "failed"
UNDECIDED = "undecided"
SYNTHESIZED = "synthesized"
EXPLICIT = "explicit"

# the profile of the rows the grid layout's row-merge fibers glue
GRID_ROW_PROFILE = (2, 1)


class DimensionError(ValueError):
    """The dimension formula was fed inconsistent inputs."""


def prym_dimension(genus: int, bidegree: int, fixed_count: int, exponent: int) -> int | str:
    """(genus - bidegree + fixed_count/2) / exponent, exact, as the report
    writes it: an int, or the reduced ratio "p/q" with the sign on p.

    fixed_count is the full weighted number of fixed points, the quantity
    whose half enters the formula.  Integrality of the result (whether it is
    an int) is the caller's diagnostic; this function only rejects outright
    nonsense.

    >>> prym_dimension(13, 6, 6, 4), prym_dimension(11, 6, 6, 4)
    ('5/2', 2)
    """
    if exponent < 2:
        raise DimensionError(f"exponent must be >= 2, got {exponent}")
    if genus < 0 or bidegree < 0 or fixed_count < 0:
        raise DimensionError("genus, bidegree and fixed count must all be non-negative")
    p, q = 2 * (genus - bidegree) + fixed_count, 2 * exponent
    common = gcd(p, q)
    p, q = p // common, q // common
    dim = p if q == 1 else f"{p}/{q}"
    if p < 0:
        raise DimensionError(f"dimension came out negative: {dim}")
    return dim


def epsilon_degree(genus: int, fixed_count: int) -> int:
    """Degree of the auxiliary line bundle: genus + fixed_count/2 - 1."""
    if fixed_count < 0 or fixed_count % 2 != 0:
        raise ValueError(f"fixed-point count must be even and non-negative, got {fixed_count}")
    if genus < 0:
        raise ValueError(f"genus must be non-negative, got {genus}")
    return genus + fixed_count // 2 - 1


def models_for(choice: str) -> tuple[str, ...]:
    return (MERGED, ORBIT) if choice == BOTH else (choice,)


def keyed_verdict(data: dict) -> bool:
    """The verdict the exit code follows: the merged-class model when it was
    evaluated, otherwise the single model requested."""
    return data["verdict"][models_for(data["scenario"]["model"])[0]] == VERIFIED


def assemble(scenario: Scenario) -> dict:
    """Run the full pipeline for every requested fiber model.

    Returns the report's canonical dict.  It holds JSON values only, so
    json.loads of its canonical text equals it.
    """
    if scenario.kind == SUBSET:
        corr = build_subset_matrix(scenario.parameter)
    else:
        corr = build_grid_matrix(scenario.parameter)
    ident, q, note = identity_and_exponent(corr)
    layouts = fiber_layout(scenario, corr)
    irreducible, basis = _irreducibility(scenario, layouts)
    models = {m: _model(scenario, corr, layout, m, q, irreducible) for m, layout in layouts.items()}
    data = {
        "scenario": scenario_to_dict(scenario),
        "correspondence": correspondence_to_dict(corr.size, corr.bidegree, ident, q, note),
        "irreducibility": {"transitive": irreducible, "basis": basis},
        "models": {model: rep for model, (rep, _) in models.items()},
        "notes": [],
        "verdict": {model: verdict for model, (_, verdict) in models.items()},
    }
    data["notes"] = _notes(data)
    return data


def fiber_layout(scenario: Scenario, corr: FiberCorrespondence) -> dict[str, tuple]:
    """Each requested model's layout, in the order models_for names them:
    (distinct, actions, positions, simple, profiles), the distinct fibers,
    each built and acted on once per report; their class actions on corr;
    the index of each layout position's fiber among them, in report order;
    the index of a fiber over a simple branch point of the input covering,
    or None when the layout declares them all; and the distinct fibers'
    subset profiles (None for the grid).

    A subset layout has one fiber per distinct profile, the simple one
    included.  Each model builds its own, but both move the simple
    profile's pair by (1 2) alone and share its fiber.  The grid layout has
    two row-merge fibers, then one pairing fiber per simple branch point of
    the double covering (its simple_budget) cycling the diagonal shift: four
    distinct fibers, one layout object for both models.  The positions are
    built at C level, so no layout costs a Python step per branch point.
    """
    models = models_for(scenario.model)
    if scenario.kind == GRID:
        pairings = tuple(grid_pairing_fiber(GRID_SIZE, s) for s in range(GRID_SIZE))
        distinct = (grid_row_merge_fiber(GRID_SIZE, GRID_ROW_PROFILE), *pairings)
        extra = scenario.covering.simple_extra
        cycle = (tuple(range(1, GRID_SIZE + 1)) * (extra // GRID_SIZE + 1))[:extra]
        actions = [class_action(corr, f) for f in distinct]
        return dict.fromkeys(models, (distinct, actions, (0, 0) + cycle, None, None))
    n = scenario.parameter
    simple_profile = (2,) + (1,) * n
    profiles = tuple(dict.fromkeys((*scenario.special_fibers, simple_profile)))
    index = {p: i for i, p in enumerate(profiles)}
    positions, simple = tuple(index[p] for p in scenario.special_fibers), index[simple_profile]
    # each model's fibers by (profile, model); the simple one has one key
    keys = {m: [(p, MERGED if p == simple_profile else m) for p in profiles] for m in models}
    fibers = {k: subset_fiber(n, *k) for k in dict.fromkeys(chain.from_iterable(keys.values()))}
    actions = {k: class_action(corr, f) for k, f in fibers.items()}
    return {
        m: (tuple(map(fibers.get, ks)), list(map(actions.get, ks)), positions, simple, profiles)
        for m, ks in keys.items()
    }


def _irreducibility(scenario: Scenario, layouts: dict) -> tuple[bool, str]:
    if scenario.kind == GRID:
        # the four local monodromies are the generators of the grid fibers
        distinct = next(iter(layouts.values()))[0]
        gens = tuple(chain.from_iterable(f.generators for f in distinct))
        return is_transitive(gens, GRID_SIZE ** 2), SYNTHESIZED
    n = scenario.parameter
    degree = n + 2
    if scenario.monodromy is not None:
        gens, basis = [Permutation(images=g) for g in scenario.monodromy], EXPLICIT
    else:
        # representative choice: the declared fibers' monodromies and one adjacent
        # transposition per simple branch point, which repeat after degree - 1
        gens = [partition_monodromy(p, degree) for p in scenario.special_fibers]
        for i in range(1, 1 + min(scenario.covering.simple_extra, degree - 1)):
            gens.append(transposition(degree, i, i + 1))
        basis = SYNTHESIZED
    # a repeated label move generates nothing new, so each is induced once
    return irreducibility_check(tuple(dict.fromkeys(gens)), n), basis


def _model(
    scenario: Scenario,
    corr: FiberCorrespondence,
    layout: tuple,
    model: str,
    q: int | None,
    irreducible: bool,
) -> tuple[dict, str]:
    """Everything one fiber model says, from its fiber layout on (as
    fiber_layout gives it): the model's canonical dict and its verdict.

    error is set when the model's own arithmetic is inconsistent (genus
    validation, negative dimension); the facts computed before the failure
    are kept for diagnosis, the rest are None.  The verdict is undecided when
    the nesting search ran out of budget and every other check held, so the
    model is neither verified nor refuted.
    """
    distinct, actions, positions, simple, profiles = layout
    # the scan and the search read each position's action through
    # positions, and w is gathered by position at C level
    ws = [f.w_contribution for f in distinct]
    fixed = fixed_point_scan(actions, positions)
    w_induced = sum(map(ws.__getitem__, positions))
    simple_free = None
    if simple is not None:
        w_induced += scenario.covering.simple_extra * ws[simple]
        # the fixed-point count only scans declared special fibers, so check
        # on a representative that a simple branch point has no fixed class
        simple_free = not fixed_point_scan(actions, (simple,))

    genus = error = None
    try:
        genus = riemann_hurwitz_genus(corr.size, w_induced)
    except GenusValidationError as exc:
        where = f" n={scenario.parameter}, source" if scenario.kind == SUBSET else ","
        error = f"{scenario.kind} scenario{where} genus {scenario.upstairs_genus}, {model} model: {exc}"

    bidegree = corr.bidegree
    delta = sum(mult for _, _, mult in fixed)
    even = delta % 2 == 0
    nesting = nesting_search(actions, positions, delta, bidegree)
    # the fiber does not know its model; its model entry does, and a merged
    # subset entry writes its block multisets from its profile.  Each
    # distinct fiber gets one dict, repeated in layout order, which
    # canonical_json writes once
    blocks = repeat(None)
    if model == MERGED and profiles is not None:
        blocks = (blocks_from_parts(p, scenario.parameter + 2) for p in profiles)
    entries = [{"model": model, **fiber_to_dict(f, b)} for f, b in zip(distinct, blocks)]
    special_fibers = list(map(entries.__getitem__, positions))
    nest = nesting_to_dict(nesting, special_fibers)
    # the certificate is checked as the report carries it: its nesting entry
    # and the fiber entry at the position that entry names
    checked = nest["certified"] and (
        not nest["chain"]
        or check_certificate(
            nest, special_fibers[nest["fiber"]], scenario.kind, scenario.parameter
        )
    )
    hyp = {
        "quadratic_ok": q is not None,
        "fixed_even": even,
        "n_le_d": even and delta // 2 <= bidegree,
        "nesting_ok": checked,
        "irreducible": irreducible,
        "primitivity": UNCHECKED,
        "smoothness": UNCHECKED,
    }

    dim = integral = eps = None
    if error is None and q is not None and even:
        eps = epsilon_degree(genus, delta)
        try:
            dim = prym_dimension(genus, bidegree, delta, q)
            integral = isinstance(dim, int)
        except DimensionError as exc:
            error = f"{scenario.kind} scenario, {model} model: {exc}"

    # everything but the nesting condition, which may be left undecided
    rest_ok = (
        error is None
        and all(hyp[key] for key in ("quadratic_ok", "fixed_even", "n_le_d", "irreducible"))
        and integral is True
        and simple_free is not False
    )
    rep = {
        "model": model,
        "covering": covering_to_dict(scenario.covering),
        "induced": {"degree": corr.size, "ramification": w_induced, "genus": genus},
        "special_fibers": special_fibers,
        "fixed_points": [
            {
                "fiber": pos,
                "class": ci,
                "multiplicity": mult,
                "members": special_fibers[pos]["classes"][ci]["members"],
            }
            for pos, ci, mult in fixed
        ],
        "delta_dot_d": delta,
        "simple_fibers_fixed_free": simple_free,
        "nesting": nest,
        "certificate_checked": checked,
        "dim_p": dim,
        "dim_p_integral": integral,
        "epsilon_degree": eps,
        "hypotheses": hyp,
        "combinatorial_verified": rest_ok and checked,
    }
    if error is not None:
        rep["error"] = error
    if rest_ok and checked:
        return rep, VERIFIED
    return rep, UNDECIDED if rest_ok and isinstance(nesting, NestingUndecided) else FAILED


# --- notes -------------------------------------------------------------------


def _notes(data: dict) -> list[str]:
    notes: list[str] = []
    scen, corr, models = data["scenario"], data["correspondence"], data["models"]

    if data["irreducibility"]["basis"] == SYNTHESIZED:
        notes.append(
            "irreducibility was tested against a synthesized representative"
            " choice of local monodromies, not data supplied by the scenario"
        )

    for model, rep in models.items():
        if "error" in rep:
            notes.append(f"{model} model: {rep['error']}")
        if rep["dim_p_integral"] is False:
            notes.append(
                f"inconsistency ({model} model): dim P = {rep['dim_p']} is not an"
                " integer, so the declared data cannot all be correct"
            )
        if rep["dim_p"] == 0:
            notes.append(
                f"degenerate ({model} model): dim P = 0, the target abelian"
                " variety is a point"
            )
        if rep["simple_fibers_fixed_free"] is False:
            notes.append(
                f"{model} model: a simple branch fiber carries a fixed class,"
                " so the fixed-point count over the declared special fibers is"
                " incomplete"
            )

    dims = {model: rep["dim_p"] for model, rep in models.items() if rep["dim_p"] is not None}
    if len(dims) == 2:
        vals = sorted(dims.items())
        if vals[0][1] == vals[1][1]:
            notes.append(f"both fiber models give dim P = {vals[0][1]}")
        else:
            notes.append(
                "fiber models disagree on dim P: "
                + ", ".join(f"{m} gives {v}" for m, v in vals)
            )

    if scen["kind"] == GRID:
        # every model entry carries the scenario's covering
        branch_points = 2 + next(iter(models.values()))["covering"]["simple_extra"]
        notes.append(
            f"informational: the {branch_points} branch locations on the base"
            f" line move in a ({branch_points} - 3)-dimensional family once the"
            f" line's automorphisms are normalized away, i.e. dimension {branch_points - 3}"
        )

    q = corr["exponent"]
    if scen["kind"] == SUBSET and scen["n"] == 4 and q is not None:
        rep = models.get(MERGED)
        if rep is not None and rep["induced"]["genus"] is not None and "error" not in rep:
            genus = rep["induced"]["genus"]
            alt_dim = prym_dimension(genus + 2, corr["bidegree"], rep["delta_dot_d"], q)
            notes.append(
                f"genus cross-check (merged model): the declared fiber data force"
                f" genus {genus} with dim P = {rep['dim_p']}; the nearby value"
                f" {genus + 2}, which would follow from counting one extra simple branch"
                f" point, gives dim P = {alt_dim} and is not consistent"
            )

    return notes


# --- serialization -----------------------------------------------------------


def covering_to_dict(cov: CoveringData) -> dict:
    return {
        "degree": cov.degree,
        "base_genus": 0,
        "special_fibers": [list(p) for p in cov.special_fibers],
        "upstairs_genus": upstairs_genus(cov),
        "simple_extra": cov.simple_extra,
        "ramification": ramification_degree(cov),
    }


def fiber_to_dict(fiber: SpecialFiber, blocks=None) -> dict:
    # given its profile's label blocks, a merged class's block_multiset: the
    # block ids its first member hits, with multiplicity; else None
    block_of = {x: i for i, b in enumerate(blocks or ()) for x in b}
    return {
        "w": fiber.w_contribution,
        "classes": [
            {
                "members": [list(m) for m in members],
                "block_multiset": blocks and sorted(map(block_of.__getitem__, members[0])),
                "index": len(members),
            }
            for members in fiber.classes
        ],
    }


def nesting_to_dict(nesting, special_fibers: list) -> dict:
    # a certificate's chain_members are the member lists of the fiber entry
    # it names, as its fixed points' members are
    if isinstance(nesting, NestingCertificate):
        named = (special_fibers[nesting.fiber]["classes"][q]["members"] for q in nesting.chain)
        return {
            "certified": True,
            "fiber": nesting.fiber,
            "chain": list(nesting.chain),
            "chain_members": list(named),
            "multiplicities": list(map(list, nesting.multiplicities)),
        }
    # a failed search names its orderings tried, an undecided one its memo misses
    return {"certified": False, **nesting._asdict()}


def correspondence_to_dict(
    size: int, bidegree: int, ident: tuple[int, int, int] | None, q: int | None, note: str
) -> dict:
    """The correspondence summary: size, bidegree, identity and exponent.

    A discovered identity has always been verified entrywise, so
    identity_verified says whether one was found.
    """
    return {
        "size": size,
        "bidegree": bidegree,
        "identity": None
        if ident is None
        else {"form": "D^2 = a*I + b*D + c*U", **dict(zip("abc", ident))},
        "identity_verified": ident is not None,
        "exponent": q,
        "exponent_derivation": note,
    }


def canonical_json(data) -> str:
    """The text json.dumps(data, indent=2, sort_keys=True) writes, byte for byte.

    Keys must be str: a key of any other type raises TypeError, where
    json.dumps would also write int, float, bool and None keys.  A list or
    tuple is accepted by its exact type, so a subclass of either (one of
    the package's namedtuple records) raises TypeError where json.dumps
    would write it as a list.  A float goes to json.dumps, so it is written
    as it writes it, and any other value that is not a str, int, None or
    dict (a Fraction, a set) raises TypeError; nothing is stringified by
    accident.

    Like json.dumps, every piece goes to one list, joined once at the end.
    Reports repeat one fiber dict many times (the grid layout has four
    distinct fibers at every genus), and the pure-Python encoder that indent
    selects would write every copy again.  Here a list or tuple that holds
    the same element (by id) more than once writes each distinct element
    once into its own text, then splices the texts and separators into the
    list in one C-level extend, so a repeated element costs no Python step.
    A list or tuple of plain ints (not bools) is written as one string.  A
    container met again while it is still being written raises ValueError,
    as json.dumps does on a cycle.
    """
    out: list[str] = []
    append = out.append
    open_ids: set[int] = set()

    # the recursion stays private: a recursive public call would be one more
    # serialize span per node to anything that wraps canonical_json
    def write(obj, depth: int) -> None:
        if isinstance(obj, str):
            return append(encode_basestring_ascii(obj))
        if obj is None:
            return append("null")
        if obj is True:
            return append("true")
        if obj is False:
            return append("false")
        if isinstance(obj, int):
            return append(int.__repr__(obj))
        is_dict = isinstance(obj, dict)
        if not is_dict and type(obj) not in (list, tuple):
            if isinstance(obj, float):
                return append(json.dumps(obj))
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        if not obj:
            return append("{}" if is_dict else "[]")
        pad = "  " * depth
        line = "\n  " + pad
        comma = "," + line
        if not is_dict and all(type(v) is int for v in obj):
            # an int list holds no container, so it needs no cycle check
            return append("[" + line + comma.join(map(int.__repr__, obj)) + "\n" + pad + "]")
        oid = id(obj)
        if oid in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(oid)
        sep = ("{" if is_dict else "[") + line
        if is_dict:
            for k, v in sorted(obj.items()):
                append(sep + encode_basestring_ascii(k) + ": ")
                sep = comma
                write(v, depth + 1)
        elif len(set(map(id, obj))) == len(obj):
            for v in obj:
                append(sep)
                sep = comma
                write(v, depth + 1)
        else:
            # write each distinct element once, cut its pieces out of the
            # list as one text, then splice the texts back in order
            ids = list(map(id, obj))
            texts = {}
            for eid, v in dict(zip(ids, obj)).items():
                start = len(out)
                write(v, depth + 1)
                texts[eid] = "".join(out[start:])
                del out[start:]
            separators = chain((sep,), repeat(comma))
            out.extend(chain.from_iterable(zip(separators, map(texts.__getitem__, ids))))
        append("\n" + pad + ("}" if is_dict else "]"))
        open_ids.remove(oid)

    write(data, 0)
    return "".join(out)


def report_to_json(data: dict) -> str:
    return canonical_json(data)


# --- text rendering ----------------------------------------------------------

_VERDICT_TEXT = {
    VERIFIED: "combinatorial hypotheses verified; analytic hypotheses"
    " (primitivity, smoothness) assumed, not checked",
    UNDECIDED: "undecided: the nesting search ran out of budget; every other"
    " combinatorial check holds",
    FAILED: "combinatorial hypotheses NOT verified",
}


def table_row(label: str, value) -> str:
    """One row of a text table: the label padded to the one column width."""
    return f"{label:<22}{value}"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def identity_rows(summary: dict) -> list[str]:
    """The table rows for a correspondence summary's identity and exponent."""
    ident, q = summary["identity"], summary["exponent"]
    if ident is None:
        found = "none found"
    else:
        a, b, c = ident["a"], ident["b"], ident["c"]
        found = f"D^2 = ({a})*I + ({b})*D + ({c})*U   [verified entrywise]"
    return [table_row("identity", found), table_row("exponent q", q if q is not None else "none")]


def render_table(data: dict) -> str:
    """The report as an aligned text table, a view of the canonical dict.

    Every row is read from the canonical dict, so the table claims nothing
    the JSON does not carry.  Models are taken in the order the scenario's
    model choice names them, not in the dict's key order, so a json.loads of
    the canonical text, whose keys are sorted, renders the same table.
    """
    scen, corr, irr = data["scenario"], data["correspondence"], data["irreducibility"]
    if scen["kind"] == SUBSET:
        kind = f"subset exchange, n = {scen['n']}, source genus {scen['upstairs_genus']}"
    else:
        kind = f"3x3 grid over a genus {scen['upstairs_genus']} hyperelliptic curve"
    lines = [
        "== correspondence ==",
        table_row("scenario", kind),
        table_row("fiber size", corr["size"]),
        table_row("bidegree d", corr["bidegree"]),
        *identity_rows(corr),
        table_row("irreducible", f"{_yesno(irr['transitive'])} ({irr['basis']} generators)"),
    ]

    for model in models_for(scen["model"]):
        rep = data["models"][model]
        lines += ["", f"== model: {model} =="]
        if "error" in rep:
            lines.append(table_row("error", rep["error"]))
        cov, induced = rep["covering"], rep["induced"]
        fiber_desc = ", ".join("(" + ",".join(map(str, p)) + ")" for p in cov["special_fibers"])
        lines.append(
            table_row(
                "input covering",
                f"degree {cov['degree']} over genus {cov['base_genus']},"
                f" special fibers [{fiber_desc}], {cov['simple_extra']} simple points",
            )
        )
        induced_desc = f"degree {induced['degree']}, ramification w = {induced['ramification']}"
        lines.append(table_row("induced covering", induced_desc))
        genus = induced["genus"]
        lines.append(table_row("curve genus", genus if genus is not None else "-"))
        fixed = rep["delta_dot_d"]
        half = f" (half = {fixed // 2})" if fixed % 2 == 0 else " (odd!)"
        lines.append(table_row("fixed points", f"Delta.D = {fixed}{half}"))
        nest = rep["nesting"]
        # only an undecided search names its memo misses
        undecided = "memo_misses" in nest
        if not nest["certified"]:
            nesting = f"{UNDECIDED if undecided else FAILED}: {nest['reason']}"
        elif not nest["chain"]:
            nesting = "trivial (no fixed points required)"
        else:
            chain = ", ".join(map(str, nest["chain"]))
            checked = "re-checked" if rep["certificate_checked"] else "NOT re-checked"
            nesting = f"certified in fiber {nest['fiber']}, chain [{chain}] ({checked})"
        lines.append(table_row("nesting", nesting))
        if rep["dim_p"] is not None:
            integral = "integral" if rep["dim_p_integral"] else "NOT AN INTEGER"
            lines.append(table_row("dim P", f"{rep['dim_p']}   [{integral}]"))
        if rep["epsilon_degree"] is not None:
            lines.append(table_row("epsilon degree", rep["epsilon_degree"]))
        hyp = rep["hypotheses"]
        nested = UNDECIDED if undecided else _yesno(hyp["nesting_ok"])
        lines.append(
            table_row(
                "hypotheses",
                f"quadratic {_yesno(hyp['quadratic_ok'])} | fixed even {_yesno(hyp['fixed_even'])}"
                f" | n<=d {_yesno(hyp['n_le_d'])} | nesting {nested}"
                f" | irreducible {_yesno(hyp['irreducible'])}"
                f" | primitivity {hyp['primitivity']} | smoothness {hyp['smoothness']}",
            )
        )
        lines.append(table_row("verdict", _VERDICT_TEXT[data["verdict"][model]]))

    if data["notes"]:
        lines += ["", "== notes =="]
        lines += [f"- {note}" for note in data["notes"]]
    return "\n".join(lines) + "\n"
