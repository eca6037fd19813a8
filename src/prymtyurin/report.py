"""End-to-end verdict assembly.

Runs a scenario through the whole pipeline -- covering bookkeeping, induced
curve genus, quadratic identity and exponent, fixed classes, nesting
certificate, dimension and auxiliary line-bundle degree -- under one or both
fiber models, and packages everything into a report that serializes to
canonical JSON or an aligned text table.  Both families run through the same
per-model pipeline; each supplies only its fiber layout.

All arithmetic is exact.  The dimension is a Fraction; a non-integral value
is reported as an inconsistency diagnostic, never rounded.  Verdicts only
ever claim the combinatorial hypotheses: the analytic ones (primitivity of
the correspondence class, smoothness of the curve) are marked unchecked.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

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
    with_model,
)
from .perms import Permutation, is_transitive, transposition
from .scenario import BOTH, GRID, SUBSET, Scenario, scenario_to_dict

UNCHECKED = "unchecked"
VERIFIED = "verified"
FAILED = "failed"
UNDECIDED = "undecided"
SYNTHESIZED = "synthesized"
EXPLICIT = "explicit"

# the grid family's fixed fiber layout: two fibers merging rows {1,2} of the
# grid, then one pairing fiber per branch point of the double covering,
# cycling through the three diagonal shifts
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

    error is set when the model's own arithmetic is inconsistent (genus
    validation, negative dimension); fields computed before the failure are
    kept for diagnosis, the rest stay None.  undecided is set when the
    nesting search ran out of budget and every other check held, so the
    model is neither verified nor refuted.
    """

    model: str
    covering: CoveringData
    induced_deg: int
    fibers: tuple[SpecialFiber, ...]
    total_ramification: int
    fixed: FixedPointReport
    simple_fibers_fixed_free: bool | None
    error: str | None = None
    genus: int | None = None
    nesting: object | None = None
    certificate_checked: bool = False
    dim_p: Fraction | None = None
    dim_integral: bool | None = None
    epsilon_deg: int | None = None
    hypotheses: Hypotheses | None = None
    verified: bool = False
    undecided: bool = False

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


def grid_fiber_layout(genus: int, model: str = MERGED) -> tuple[SpecialFiber, ...]:
    """The grid scenario's special fibers over the base line: two row-merge
    fibers, then 2*genus + 2 pairing fibers cycling the diagonal shift.  The
    four distinct fibers are built once and repeated."""
    rows = with_model(grid_row_merge_fiber(3, GRID_ROW_BLOCKS), model)
    pairings = tuple(with_model(grid_pairing_fiber(3, s), model) for s in (0, 1, 2))
    return (rows, rows) + tuple(pairings[k % 3] for k in range(2 * genus + 2))


# A layout is (declared special fibers, a representative fiber over one of
# the input covering's simple branch points or None when the layout declares
# them all, and the prefix of a genus error message).


def _subset_layout(scenario: Scenario, model: str):
    n = scenario.parameter
    degree = n + 2
    fibers = tuple(
        subset_fiber(n, blocks_from_parts(p, degree), model)
        for p in scenario.special_fibers
    )
    simple = subset_fiber(n, blocks_from_parts((2,) + (1,) * n, degree), model)
    prefix = f"subset scenario n={n}, source genus {scenario.upstairs_genus}"
    return fibers, simple, prefix


def _grid_layout(scenario: Scenario, model: str):
    g = scenario.upstairs_genus
    # one pairing fiber per simple branch point of the double covering: the
    # layout declares every ramified fiber of the induced covering
    return grid_fiber_layout(g, model), None, f"grid scenario, genus {g}"


def _irreducibility(scenario: Scenario) -> tuple[bool, str]:
    if scenario.kind == GRID:
        gens = tuple(grid_pairing_monodromy(3, s) for s in (0, 1, 2))
        gens += (grid_row_monodromy(3, GRID_ROW_BLOCKS),)
        return is_transitive(gens, 9), SYNTHESIZED
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
    layout = _subset_layout if scenario.kind == SUBSET else _grid_layout
    fibers, simple, prefix = layout(scenario, model)
    scan = fixed_point_scan(class_action(corr, f) for f in fibers)
    w_induced = sum(f.w_contribution for f in fibers)
    simple_free = None
    if simple is not None:
        w_induced += scenario.covering.simple_extra * simple.w_contribution
        # the fixed-point count only scans declared special fibers, so check
        # on a representative that a simple branch point has no fixed class
        simple_free = class_action(corr, simple).fixed_class_indices() == ()

    genus = error = None
    try:
        genus = riemann_hurwitz_genus(corr.size, 0, w_induced)
    except GenusValidationError as exc:
        error = f"{prefix}, {model} model: {exc}"

    bidegree = corr.bidegree
    even = scan.is_even
    nesting = nesting_search(scan, bidegree)
    certified = isinstance(nesting, NestingCertificate)
    checked = certified and (
        nesting.length == 0
        or check_certificate(
            nesting, fibers[nesting.fiber_index], scenario.kind, scenario.parameter
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
        fibers=fibers,
        total_ramification=w_induced,
        fixed=scan,
        simple_fibers_fixed_free=simple_free,
        error=error,
        genus=genus,
        nesting=nesting,
        certificate_checked=checked,
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
        g = scen.upstairs_genus
        branch_points = 2 * g + 4
        notes.append(
            f"informational: the {branch_points} branch locations on the base"
            f" line move in a ({branch_points} - 3)-dimensional family once the"
            f" line's automorphisms are normalized away, i.e. dimension {2 * g + 1}"
        )

    if scen.kind == SUBSET and scen.parameter == 4 and report.q is not None:
        rep = report.model_report(MERGED)
        if rep is not None and rep.genus is not None and rep.error is None:
            alt = rep.genus + 2
            alt_dim = Fraction(
                2 * (alt - report.bidegree) + rep.fixed.delta_dot_d, 2 * report.q
            )
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
        "base_genus": cov.base_genus,
        "special_fibers": [list(p) for p in cov.special_fibers],
        "upstairs_genus": upstairs_genus(cov),
        "simple_extra": cov.simple_extra,
        "ramification": ramification_degree(cov),
    }


def fiber_to_dict(fiber: SpecialFiber) -> dict:
    return {
        "model": fiber.model,
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


def nesting_to_dict(nesting) -> dict | None:
    if nesting is None:
        return None
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
            "cliques_visited": nesting.cliques_visited,
        }
    return {
        "certified": False,
        "reason": nesting.reason,
        "fibers_searched": nesting.fibers_searched,
        "orderings_tried": nesting.orderings_tried,
    }


def model_to_dict(rep: ModelReport) -> dict:
    out: dict = {
        "model": rep.model,
        "covering": covering_to_dict(rep.covering),
        "induced": {
            "degree": rep.induced_deg,
            "ramification": rep.total_ramification,
            "genus": rep.genus,
        },
        "special_fibers": [fiber_to_dict(f) for f in rep.fibers],
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
        "hypotheses": None
        if rep.hypotheses is None
        else dataclasses.asdict(rep.hypotheses),
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
            "a": rational_json(ident.a),
            "b": rational_json(ident.b),
            "c": rational_json(ident.c),
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
    return json.dumps(data, indent=2, sort_keys=True)


def report_to_json(report: PrymReport) -> str:
    return canonical_json(report_to_dict(report))


# --- text rendering ----------------------------------------------------------


def _row(label: str, value) -> str:
    return f"{label:<22}{value}"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def render_table(report: PrymReport) -> str:
    scen = report.scenario
    lines = ["== correspondence =="]
    if scen.kind == SUBSET:
        kind = f"subset exchange, n = {scen.parameter}, source genus {scen.upstairs_genus}"
    else:
        kind = f"3x3 grid over a genus {scen.upstairs_genus} hyperelliptic curve"
    lines.append(_row("scenario", kind))
    lines.append(_row("fiber size", report.size))
    lines.append(_row("bidegree d", report.bidegree))
    if report.identity is None:
        lines.append(_row("identity", "none found"))
    else:
        a, b, c = (rational_json(x) for x in report.identity.coefficients())
        lines.append(_row("identity", f"D^2 = ({a})*I + ({b})*D + ({c})*U   [verified entrywise]"))
    lines.append(_row("exponent q", report.q if report.q is not None else "none"))
    lines.append(
        _row(
            "irreducible",
            f"{_yesno(report.irreducible)} ({report.irreducibility_basis} generators)",
        )
    )

    for rep in report.models:
        lines.append("")
        lines.append(f"== model: {rep.model} ==")
        if rep.error is not None:
            lines.append(_row("error", rep.error))
        cov = rep.covering
        fiber_desc = ", ".join("(" + ",".join(map(str, p)) + ")" for p in cov.special_fibers)
        lines.append(
            _row(
                "input covering",
                f"degree {cov.degree} over genus {cov.base_genus},"
                f" special fibers [{fiber_desc}], {cov.simple_extra} simple points",
            )
        )
        lines.append(
            _row(
                "induced covering",
                f"degree {rep.induced_deg}, ramification w = {rep.total_ramification}",
            )
        )
        lines.append(_row("curve genus", rep.genus if rep.genus is not None else "-"))
        half = rep.fixed.half
        lines.append(
            _row(
                "fixed points",
                f"Delta.D = {rep.fixed.delta_dot_d}"
                + (f" (half = {half})" if half is not None else " (odd!)"),
            )
        )
        nest = rep.nesting
        if isinstance(nest, NestingCertificate):
            if nest.length == 0:
                lines.append(_row("nesting", "trivial (no fixed points required)"))
            else:
                chain = ", ".join(str(i) for i in nest.chain)
                checked = "re-checked" if rep.certificate_checked else "NOT re-checked"
                lines.append(
                    _row("nesting", f"certified in fiber {nest.fiber_index}, chain [{chain}] ({checked})")
                )
        elif isinstance(nest, NestingUndecided):
            lines.append(_row("nesting", f"undecided: {nest.reason}"))
        elif nest is not None:
            lines.append(_row("nesting", f"failed: {nest.reason}"))
        if rep.dim_p is not None:
            integral = "integral" if rep.dim_integral else "NOT AN INTEGER"
            lines.append(_row("dim P", f"{rational_json(rep.dim_p)}   [{integral}]"))
        if rep.epsilon_deg is not None:
            lines.append(_row("epsilon degree", rep.epsilon_deg))
        hyp = rep.hypotheses
        if hyp is not None:
            nesting = UNDECIDED if isinstance(nest, NestingUndecided) else _yesno(hyp.nesting_ok)
            lines.append(
                _row(
                    "hypotheses",
                    f"quadratic {_yesno(hyp.quadratic_ok)} | fixed even {_yesno(hyp.fixed_even)}"
                    f" | n<=d {_yesno(hyp.n_le_d)} | nesting {nesting}"
                    f" | irreducible {_yesno(hyp.irreducible)}"
                    f" | primitivity {hyp.primitivity} | smoothness {hyp.smoothness}",
                )
            )
        if rep.verified:
            verdict = (
                "combinatorial hypotheses verified; analytic hypotheses"
                " (primitivity, smoothness) assumed, not checked"
            )
        elif rep.undecided:
            verdict = (
                "undecided: the nesting search ran out of budget; every other"
                " combinatorial check holds"
            )
        else:
            verdict = "combinatorial hypotheses NOT verified"
        lines.append(_row("verdict", verdict))

    if report.notes:
        lines.append("")
        lines.append("== notes ==")
        for note in report.notes:
            lines.append(f"- {note}")
    return "\n".join(lines) + "\n"
