"""End-to-end verdict assembly.

Runs a scenario through the whole pipeline -- covering bookkeeping, induced
curve genus, quadratic identity and exponent, fixed classes, nesting
certificate, dimension and auxiliary line-bundle degree -- under one or both
fiber models, and packages everything into a report.  Both families run
through the same per-model pipeline; each supplies only its fiber layout.
The report's canonical dict, report_to_dict, is the one source of both of
its views: canonical JSON and an aligned text table.

All arithmetic is exact.  The dimension is a Fraction; a non-integral value
is reported as an inconsistency diagnostic, never rounded.  Verdicts only
ever claim the combinatorial hypotheses: the analytic ones (primitivity of
the correspondence class, smoothness of the curve) are marked unchecked.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .correspondence import (
    FiberCorrespondence,
    QuadraticIdentity,
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
    FixedPointReport,
    NestingCertificate,
    NestingFailure,
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
    grid_pairing_monodromy,
    grid_row_merge_fiber,
    grid_row_monodromy,
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

# the rows the grid layout's row-merge fibers glue
GRID_ROW_BLOCKS = ((1, 2), (3,))


class DimensionError(ValueError):
    """The dimension formula was fed inconsistent inputs."""


def prym_dimension(genus: int, bidegree: int, fixed_count: int, exponent: int) -> Fraction:
    """(genus - bidegree + fixed_count/2) / exponent, exact.

    fixed_count is the full weighted number of fixed points, the quantity
    whose half enters the formula.  Integrality of the result is the
    caller's diagnostic; this function only rejects outright nonsense.
    """
    if exponent < 2:
        raise DimensionError(f"exponent must be >= 2, got {exponent}")
    if genus < 0 or bidegree < 0 or fixed_count < 0:
        raise DimensionError("genus, bidegree and fixed count must all be non-negative")
    dim = Fraction(2 * (genus - bidegree) + fixed_count, 2 * exponent)
    if dim < 0:
        raise DimensionError(f"dimension came out negative: {dim}")
    return dim


def epsilon_degree(genus: int, fixed_count: int) -> int:
    """Degree of the auxiliary line bundle: genus + fixed_count/2 - 1."""
    if fixed_count < 0 or fixed_count % 2 != 0:
        raise ValueError(f"fixed-point count must be even and non-negative, got {fixed_count}")
    if genus < 0:
        raise ValueError(f"genus must be non-negative, got {genus}")
    return genus + fixed_count // 2 - 1


@dataclasses.dataclass(frozen=True)
class Hypotheses:
    quadratic_ok: bool
    fixed_even: bool
    n_le_d: bool
    nesting_ok: bool
    irreducible: bool
    primitivity: str = UNCHECKED
    smoothness: str = UNCHECKED


@dataclasses.dataclass(frozen=True)
class ModelReport:
    """Everything a single fiber model says about the scenario.

    Its layout holds each distinct special fiber once; positions[i] is the
    index into distinct_fibers of the fiber at layout position i.  error is
    set when the model's own arithmetic is inconsistent (genus validation,
    negative dimension); fields computed before the failure are kept for
    diagnosis, the rest are None.  undecided is set when the
    nesting search ran out of budget and every other check held, so the
    model is neither verified nor refuted.
    """

    model: str
    covering: CoveringData
    induced_deg: int
    distinct_fibers: tuple[SpecialFiber, ...]
    positions: tuple[int, ...]
    total_ramification: int
    fixed: FixedPointReport
    simple_fibers_fixed_free: bool | None
    error: str | None
    genus: int | None
    nesting: NestingCertificate | NestingFailure | NestingUndecided
    dim_p: Fraction | None
    dim_integral: bool | None
    epsilon_deg: int | None
    hypotheses: Hypotheses
    verified: bool
    undecided: bool

    @property
    def fibers(self) -> tuple[SpecialFiber, ...]:
        """The special fibers in layout order, the index space of fixed
        classes and certificates."""
        return tuple(self.distinct_fibers[i] for i in self.positions)

    @property
    def certificate_checked(self) -> bool:
        """A nesting certificate was found and re-checked independently."""
        return self.hypotheses.nesting_ok

    @property
    def verdict(self) -> str:
        if self.verified:
            return VERIFIED
        return UNDECIDED if self.undecided else FAILED


@dataclasses.dataclass(frozen=True)
class PrymReport:
    scenario: Scenario
    size: int
    bidegree: int
    identity: QuadraticIdentity | None
    q: int | None
    exponent_note: str
    irreducible: bool
    irreducibility_basis: str
    models: tuple[ModelReport, ...]
    notes: tuple[str, ...]

    def model_report(self, model: str) -> ModelReport | None:
        for rep in self.models:
            if rep.model == model:
                return rep
        return None

    @property
    def keyed_verdict(self) -> bool:
        """The verdict the exit code follows: the merged-class model when it
        was evaluated, otherwise the single model requested."""
        keyed = self.model_report(MERGED)
        if keyed is None:
            keyed = self.models[0]
        return keyed.verified


def models_for(choice: str) -> tuple[str, ...]:
    return (MERGED, ORBIT) if choice == BOTH else (choice,)


def assemble(scenario: Scenario) -> PrymReport:
    """Run the full pipeline for every requested fiber model."""
    if scenario.kind == SUBSET:
        corr = build_subset_matrix(scenario.parameter)
    else:
        corr = build_grid_matrix(scenario.parameter)
    ident, q, note = identity_and_exponent(corr)
    irreducible, basis = _irreducibility(scenario)
    models = tuple(
        _model(scenario, corr, model, q, irreducible)
        for model in models_for(scenario.model)
    )
    report = PrymReport(
        scenario=scenario,
        size=corr.size,
        bidegree=corr.bidegree,
        identity=ident,
        q=q,
        exponent_note=note,
        irreducible=irreducible,
        irreducibility_basis=basis,
        models=models,
        notes=(),
    )
    return dataclasses.replace(report, notes=_notes(report))


def fiber_layout(
    scenario: Scenario, model: str
) -> tuple[tuple[SpecialFiber, ...], tuple[int, ...], int | None]:
    """One model's special fibers over the base line: the distinct fibers,
    each built once; the index of each layout position's fiber among them,
    in report order; and the index of a fiber over a simple branch point of
    the input covering, or None when the layout declares them all.

    A subset layout has one fiber per distinct profile, the simple one
    included.  The grid layout has two row-merge fibers, then one pairing
    fiber per simple branch point of the double covering (its simple_budget)
    cycling the diagonal shift: every ramified fiber, four distinct ones.
    The positions are built at C level, so no layout costs a Python step per
    branch point.
    """
    if scenario.kind == GRID:
        rows = grid_row_merge_fiber(GRID_SIZE, GRID_ROW_BLOCKS)
        pairings = tuple(grid_pairing_fiber(GRID_SIZE, s) for s in range(GRID_SIZE))
        extra = scenario.covering.simple_extra
        cycle = (tuple(range(1, GRID_SIZE + 1)) * (extra // GRID_SIZE + 1))[:extra]
        return (rows, *pairings), (0, 0) + cycle, None
    n = scenario.parameter
    simple_profile = (2,) + (1,) * n
    profiles = dict.fromkeys((*scenario.special_fibers, simple_profile))
    index = {p: i for i, p in enumerate(profiles)}
    distinct = tuple(subset_fiber(n, blocks_from_parts(p, n + 2), model) for p in profiles)
    return distinct, tuple(index[p] for p in scenario.special_fibers), index[simple_profile]


def _irreducibility(scenario: Scenario) -> tuple[bool, str]:
    if scenario.kind == GRID:
        gens = tuple(grid_pairing_monodromy(GRID_SIZE, s) for s in range(GRID_SIZE))
        gens += (grid_row_monodromy(GRID_SIZE, GRID_ROW_BLOCKS),)
        return is_transitive(gens, GRID_SIZE ** 2), SYNTHESIZED
    n = scenario.parameter
    degree = n + 2
    if scenario.monodromy is not None:
        gens = tuple(Permutation(images=g) for g in scenario.monodromy)
        return irreducibility_check(gens, n), EXPLICIT
    # representative choice: the declared special-fiber monodromies plus one
    # adjacent transposition per simple branch point; they repeat after
    # degree - 1, so only the distinct ones are kept
    gens = [
        partition_monodromy(blocks_from_parts(p, degree), degree)
        for p in scenario.special_fibers
    ]
    for i in range(1, 1 + min(scenario.covering.simple_extra, degree - 1)):
        gens.append(transposition(degree, i, i + 1))
    return irreducibility_check(tuple(gens), n), SYNTHESIZED


def _model(
    scenario: Scenario,
    corr: FiberCorrespondence,
    model: str,
    q: int | None,
    irreducible: bool,
) -> ModelReport:
    """Everything one fiber model says, from the family's fiber layout on."""
    distinct, positions, simple = fiber_layout(scenario, model)
    # each distinct fiber is acted on once and its action and w reused in
    # layout order by C-level gathers
    actions = [class_action(corr, f) for f in distinct]
    ws = [f.w_contribution for f in distinct]
    scan = fixed_point_scan(tuple(map(actions.__getitem__, positions)))
    w_induced = sum(map(ws.__getitem__, positions))
    simple_free = None
    if simple is not None:
        w_induced += scenario.covering.simple_extra * ws[simple]
        # the fixed-point count only scans declared special fibers, so check
        # on a representative that a simple branch point has no fixed class
        simple_free = actions[simple].fixed_class_indices == ()

    genus = error = None
    try:
        genus = riemann_hurwitz_genus(corr.size, w_induced)
    except GenusValidationError as exc:
        where = f" n={scenario.parameter}, source" if scenario.kind == SUBSET else ","
        error = f"{scenario.kind} scenario{where} genus {scenario.upstairs_genus}, {model} model: {exc}"

    bidegree = corr.bidegree
    even = scan.is_even
    nesting = nesting_search(scan, bidegree)
    certified = isinstance(nesting, NestingCertificate)
    checked = certified and (
        nesting.length == 0
        or check_certificate(
            nesting, distinct[positions[nesting.fiber_index]], scenario.kind, scenario.parameter
        )
    )
    hyp = Hypotheses(
        quadratic_ok=q is not None,
        fixed_even=even,
        n_le_d=bool(even and scan.half <= bidegree),
        nesting_ok=checked,
        irreducible=irreducible,
    )

    dim = integral = eps = None
    if error is None and q is not None and even:
        eps = epsilon_degree(genus, scan.delta_dot_d)
        try:
            dim = prym_dimension(genus, bidegree, scan.delta_dot_d, q)
            integral = dim.denominator == 1
        except DimensionError as exc:
            error = f"{scenario.kind} scenario, {model} model: {exc}"

    # everything but the nesting condition, which may be left undecided
    rest_ok = (
        error is None
        and hyp.quadratic_ok
        and hyp.fixed_even
        and hyp.n_le_d
        and hyp.irreducible
        and integral is True
        and simple_free is not False
    )
    return ModelReport(
        model=model,
        covering=scenario.covering,
        induced_deg=corr.size,
        distinct_fibers=distinct,
        positions=positions,
        total_ramification=w_induced,
        fixed=scan,
        simple_fibers_fixed_free=simple_free,
        error=error,
        genus=genus,
        nesting=nesting,
        dim_p=dim,
        dim_integral=integral,
        epsilon_deg=eps,
        hypotheses=hyp,
        verified=rest_ok and hyp.nesting_ok,
        undecided=rest_ok and isinstance(nesting, NestingUndecided),
    )


# --- notes -------------------------------------------------------------------


def _notes(report: PrymReport) -> tuple[str, ...]:
    notes: list[str] = []
    scen = report.scenario

    if report.irreducibility_basis == SYNTHESIZED:
        notes.append(
            "irreducibility was tested against a synthesized representative"
            " choice of local monodromies, not data supplied by the scenario"
        )

    for rep in report.models:
        if rep.error is not None:
            notes.append(f"{rep.model} model: {rep.error}")
        if rep.dim_integral is False:
            notes.append(
                f"inconsistency ({rep.model} model): dim P = {rep.dim_p} is not an"
                " integer, so the declared data cannot all be correct"
            )
        if rep.dim_p == 0:
            notes.append(
                f"degenerate ({rep.model} model): dim P = 0, the target abelian"
                " variety is a point"
            )
        if rep.simple_fibers_fixed_free is False:
            notes.append(
                f"{rep.model} model: a simple branch fiber carries a fixed class,"
                " so the fixed-point count over the declared special fibers is"
                " incomplete"
            )

    dims = {rep.model: rep.dim_p for rep in report.models if rep.dim_p is not None}
    if len(dims) == 2:
        vals = sorted(dims.items())
        if vals[0][1] == vals[1][1]:
            notes.append(f"both fiber models give dim P = {vals[0][1]}")
        else:
            notes.append(
                "fiber models disagree on dim P: "
                + ", ".join(f"{m} gives {v}" for m, v in vals)
            )

    if scen.kind == GRID:
        branch_points = 2 + scen.covering.simple_extra
        notes.append(
            f"informational: the {branch_points} branch locations on the base"
            f" line move in a ({branch_points} - 3)-dimensional family once the"
            f" line's automorphisms are normalized away, i.e. dimension {branch_points - 3}"
        )

    if scen.kind == SUBSET and scen.parameter == 4 and report.q is not None:
        rep = report.model_report(MERGED)
        if rep is not None and rep.genus is not None and rep.error is None:
            alt = rep.genus + 2
            alt_dim = prym_dimension(alt, report.bidegree, rep.fixed.delta_dot_d, report.q)
            notes.append(
                f"genus cross-check (merged model): the declared fiber data force"
                f" genus {rep.genus} with dim P = {rep.dim_p}; the nearby value"
                f" {alt}, which would follow from counting one extra simple branch"
                f" point, gives dim P = {alt_dim} and is not consistent"
            )

    return tuple(notes)


# --- serialization -----------------------------------------------------------


def rational_json(x) -> int | str:
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def covering_to_dict(cov: CoveringData) -> dict:
    return {
        "degree": cov.degree,
        "base_genus": 0,
        "special_fibers": [list(p) for p in cov.special_fibers],
        "upstairs_genus": upstairs_genus(cov),
        "simple_extra": cov.simple_extra,
        "ramification": ramification_degree(cov),
    }


def fiber_to_dict(fiber: SpecialFiber) -> dict:
    return {
        "w": fiber.w_contribution,
        "classes": [
            {
                "members": [list(m) for m in cls.members],
                "block_multiset": None
                if cls.block_multiset is None
                else list(cls.block_multiset),
                "index": cls.size,
            }
            for cls in fiber.classes
        ],
    }


def nesting_to_dict(nesting) -> dict:
    if isinstance(nesting, NestingCertificate):
        return {
            "certified": True,
            "fiber": nesting.fiber_index,
            "chain": list(nesting.chain),
            "chain_members": [[list(m) for m in ms] for ms in nesting.chain_members],
            "multiplicities": [list(row) for row in nesting.memberships],
        }
    if isinstance(nesting, NestingUndecided):
        return {
            "certified": False,
            "reason": nesting.reason,
            "fibers_searched": nesting.fibers_searched,
            "memo_misses": nesting.memo_misses,
        }
    return {
        "certified": False,
        "reason": nesting.reason,
        "fibers_searched": nesting.fibers_searched,
        "orderings_tried": nesting.orderings_tried,
    }


def model_to_dict(rep: ModelReport) -> dict:
    # the fiber does not know its model; its model report does.  Each
    # distinct fiber gets one dict, repeated in layout order, which
    # canonical_json writes once
    entries = [{"model": rep.model, **fiber_to_dict(f)} for f in rep.distinct_fibers]
    out: dict = {
        "model": rep.model,
        "covering": covering_to_dict(rep.covering),
        "induced": {
            "degree": rep.induced_deg,
            "ramification": rep.total_ramification,
            "genus": rep.genus,
        },
        "special_fibers": list(map(entries.__getitem__, rep.positions)),
        "fixed_points": [
            {
                "fiber": fc.fiber_index,
                "class": fc.class_index,
                "multiplicity": fc.multiplicity,
                "members": [list(m) for m in fc.members],
            }
            for fc in rep.fixed.fixed
        ],
        "delta_dot_d": rep.fixed.delta_dot_d,
        "simple_fibers_fixed_free": rep.simple_fibers_fixed_free,
        "nesting": nesting_to_dict(rep.nesting),
        "certificate_checked": rep.certificate_checked,
        "dim_p": None if rep.dim_p is None else rational_json(rep.dim_p),
        "dim_p_integral": rep.dim_integral,
        "epsilon_degree": rep.epsilon_deg,
        "hypotheses": dataclasses.asdict(rep.hypotheses),
        "combinatorial_verified": rep.verified,
    }
    if rep.error is not None:
        out["error"] = rep.error
    return out


def correspondence_to_dict(
    size: int, bidegree: int, ident: QuadraticIdentity | None, q: int | None, note: str
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
        else {
            "form": "D^2 = a*I + b*D + c*U",
            "a": ident.a,
            "b": ident.b,
            "c": ident.c,
        },
        "identity_verified": ident is not None,
        "exponent": q,
        "exponent_derivation": note,
    }


def report_to_dict(report: PrymReport) -> dict:
    return {
        "scenario": scenario_to_dict(report.scenario),
        "correspondence": correspondence_to_dict(
            report.size, report.bidegree, report.identity, report.q, report.exponent_note
        ),
        "irreducibility": {
            "transitive": report.irreducible,
            "basis": report.irreducibility_basis,
        },
        "models": {rep.model: model_to_dict(rep) for rep in report.models},
        "notes": list(report.notes),
        "verdict": {rep.model: rep.verdict for rep in report.models},
    }


def canonical_json(data) -> str:
    """The text json.dumps(data, indent=2, sort_keys=True) writes, byte for byte.

    Keys must be str: a key of any other type raises TypeError, where
    json.dumps would also write int, float, bool and None keys.  A value that
    is not a str, int, None, list, tuple or dict goes to json.dumps, so a
    float is written as it writes it and anything else (a Fraction, a set)
    raises its TypeError; nothing is stringified by accident.

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
        if not is_dict and not isinstance(obj, (list, tuple)):
            return append(json.dumps(obj))
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


def report_to_json(report: PrymReport) -> str:
    return canonical_json(report_to_dict(report))


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


def render_table(report: PrymReport) -> str:
    """The report as an aligned text table, a view of report_to_dict.

    Every row is read from the canonical dict, so the table claims nothing
    the JSON does not carry.  Models are taken in the order the scenario's
    model choice names them, not in the dict's key order, so a json.loads of
    the canonical text, whose keys are sorted, renders the same table.
    """
    data = report_to_dict(report)
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
        lines.append(
            table_row(
                "induced covering",
                f"degree {induced['degree']}, ramification w = {induced['ramification']}",
            )
        )
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
