"""End-to-end verdict assembly.

Runs a scenario through the whole pipeline -- covering bookkeeping, induced
curve genus, quadratic identity and exponent, fixed classes, nesting
certificate, dimension and auxiliary line-bundle degree -- under one or both
fiber models, and packages everything into a report.  Both families run
through the same per-model pipeline.  A scenario's family record
(scenario.FAMILIES), the place a family is described, supplies the matrix,
the fiber layout with the label moves of its synthesized irreducibility
basis, and the texts of the table's scenario row and of a genus error; the
one per-kind test left here is the grid's informational note on its branch
locations.  assemble alone chooses the irreducibility basis, an explicit
monodromy or those moves, and runs irreducibility_check on it once, the
one transitivity test for both families.  fiber_layout builds
each distinct layout in one pass: its fibers' class actions, the bodies
their entries write and the facts no model changes (the fixed-point scan,
w, Delta.D, the simple-fiber check and the nesting search).  The criterion
counts Delta.D over the declared special fibers only, so a fiber over a
simple branch point is kept beside them: it enters w and must carry no
fixed class, but no entry is written for it.  assemble returns the
report's canonical dict, the one source of both of its views: canonical
JSON and an aligned text table.

All arithmetic is exact.  The dimension is an int, or a ratio reduced by
math.gcd and written as a "p/q" string with the sign on p; a non-integral
value is reported as an inconsistency diagnostic, never rounded.  Verdicts only
ever claim the combinatorial hypotheses: the analytic ones (primitivity of
the correspondence class, smoothness of the curve) are marked unchecked.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from math import gcd

from .correspondence import FiberCorrespondence, identity_and_exponent
from .covering import (
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
from .induced_curve import MERGED, ORBIT, SpecialFiber, irreducibility_check
from .perms import Permutation
from .scenario import BOTH, FAMILIES, GRID, Scenario, scenario_to_dict

UNCHECKED = "unchecked"
VERIFIED = "verified"
FAILED = "failed"
UNDECIDED = "undecided"

# the basis of a report's irreducibility check
SYNTHESIZED = "synthesized"
EXPLICIT = "explicit"


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
    corr = FAMILIES[scenario.kind].matrix(scenario.parameter)
    summary = correspondence_to_dict(corr)
    q = summary["exponent"]
    layouts, moves = fiber_layout(scenario, corr)
    basis = SYNTHESIZED
    if scenario.monodromy is not None:
        moves, basis = map(Permutation, scenario.monodromy), EXPLICIT
    # a repeated label move generates nothing new, so each is induced once
    irreducible = irreducibility_check(tuple(dict.fromkeys(moves)), corr)
    # every model writes the one covering dict, which the writer then writes once
    covering = covering_to_dict(scenario)
    models = {
        m: _model(scenario, corr, layout, m, q, irreducible, covering)
        for m, layout in layouts.items()
    }
    data = {
        "scenario": scenario_to_dict(scenario),
        "correspondence": summary,
        "irreducibility": {"transitive": irreducible, "basis": basis},
        "models": {model: rep for model, (rep, _) in models.items()},
        "notes": [],
        "verdict": {model: verdict for model, (_, verdict) in models.items()},
    }
    data["notes"] = _notes(data)
    return data


def fiber_layout(scenario: Scenario, corr: FiberCorrespondence) -> tuple:
    """Each requested model's layout, in the order models_for names them,
    and beside them the label moves of the synthesized irreducibility
    basis, passed on from the family record's layout unread.  A model's
    layout is (fibers, actions, positions, bodies, facts), the distinct
    fibers the layout positions name; their class actions on corr; the
    positions, in report order, as bytes: one byte per position, the index
    of its fiber among them; their fiber_to_dict bodies, which the model's
    entries write; and the facts the layout decides without its model,
    (fixed, w_induced, simple_free, delta, nesting): the fixed-point scan,
    the induced ramification w, whether the simple fiber's diagonal is free
    of fixed classes (None when the layout declares every fiber), the
    weighted fixed-point count Delta.D and the nesting search's result.

    The family record's layout gives the fibers, the positions, the simple
    fiber and each fiber's label blocks, per model.  The simple fiber
    enters w and is checked for fixed classes, but no position names it, so
    it gets no body.  A fiber object that several models hold (the subset
    simple fiber, the four grid fibers) is acted on once, and models given
    one layout object (the grid's) share one layout here, built in one
    pass, so its scan and search run once for them.  A subset model gets
    one body per profile: a merged body writes the block multisets of its
    profile's blocks, an orbit body none, so the two never share one.  The
    scan and the search visit only the positions whose fiber they need, and
    w is each fiber's w times its count of positions, counted at memchr
    speed, so no step per position is taken in Python.
    """
    specs, moves = FAMILIES[scenario.kind].layout(scenario, corr, models_for(scenario.model))
    held = {id(f): f for fibers, _, simple, _ in specs.values() for f in (*fibers, simple)}
    actions = {key: class_action(corr, f) for key, f in held.items() if f is not None}
    built = {}
    for key, (fibers, positions, simple, blocks) in {id(s): s for s in specs.values()}.items():
        acted = [actions[id(f)] for f in fibers]
        ws = [f.w_contribution for f in fibers]
        fixed = fixed_point_scan(acted, positions)
        w_induced = sum(map(int.__mul__, ws, map(positions.count, range(len(ws)))))
        simple_free = None
        if simple is not None:
            w_induced += scenario.simple_extra * simple.w_contribution
            # the fixed-point count only scans declared special fibers, so check
            # that the simple fiber's diagonal holds no fixed class
            simple_free = not any(actions[id(simple)][0])
        delta = sum(mult for _, _, mult in fixed)
        nesting = nesting_search(acted, positions, delta, corr.bidegree)
        bodies = list(map(fiber_to_dict, fibers, blocks))
        built[key] = fibers, acted, positions, bodies, (fixed, w_induced, simple_free, delta, nesting)
    return {m: built[id(spec)] for m, spec in specs.items()}, moves


def _model(
    scenario: Scenario,
    corr: FiberCorrespondence,
    layout: tuple,
    model: str,
    q: int | None,
    irreducible: bool,
    covering: dict,
) -> tuple[dict, str]:
    """Everything one fiber model says, from its fiber layout and the facts
    it carries (as fiber_layout gives them, shared by the models of one
    layout object): the model's canonical dict and its verdict.  It writes
    each fiber the positions name through its body alone, and re-checks the
    nesting claim on its own entries.

    error is set when the model's own arithmetic is inconsistent (genus
    validation, negative dimension); the facts computed before the failure
    are kept for diagnosis, the rest are None.  The verdict is undecided when
    the nesting search ran out of budget and every other check held, so the
    model is neither verified nor refuted.
    """
    _, _, positions, bodies, (fixed, w_induced, simple_free, delta, nesting) = layout

    genus = error = None
    try:
        genus = riemann_hurwitz_genus(corr.size, w_induced)
    except GenusValidationError as exc:
        prefix = FAMILIES[scenario.kind].error_prefix.format_map(scenario_to_dict(scenario))
        error = f"{prefix}, {model} model: {exc}"

    bidegree = corr.bidegree
    even = delta % 2 == 0
    # the fiber does not know its model; its model entry does.  Each distinct
    # fiber gets one entry per model, repeated in layout order: canonical_json
    # writes each of them once
    entries = [{"model": model, **body} for body in bodies]
    special_fibers = list(map(entries.__getitem__, positions))
    nest = nesting_to_dict(nesting, special_fibers)
    # the nesting claim is decided as the report carries it, by its checker alone
    checked = check_certificate(nest, special_fibers, delta, scenario.kind, scenario.parameter)
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
        "covering": covering,
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
            # the error names its scenario and model
            notes.append(rep["error"])
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
    # the subset family's n = 4, the one family with an n
    if scen.get("n") == 4 and q is not None:
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


def covering_to_dict(scenario: Scenario) -> dict:
    return {
        "degree": scenario.degree,
        "base_genus": 0,
        "special_fibers": [list(p) for p in scenario.special_fibers],
        "upstairs_genus": upstairs_genus(scenario),
        "simple_extra": scenario.simple_extra,
        "ramification": ramification_degree(scenario),
    }


def fiber_to_dict(fiber: SpecialFiber, blocks) -> dict:
    # given its profile's label blocks, a merged class's block_multiset: the
    # block ids its first member hits, with multiplicity; None for no blocks
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


def correspondence_to_dict(corr: FiberCorrespondence) -> dict:
    """The summary of corr: size, bidegree, and the identity and exponent
    identity_and_exponent finds, the one place a report reads them.

    A discovered identity has always been verified entrywise, so
    identity_verified says whether one was found.
    """
    ident, q, note = identity_and_exponent(corr)
    return {
        "size": corr.size,
        "bidegree": corr.bidegree,
        "identity": None
        if ident is None
        else {"form": "D^2 = a*I + b*D + c*U", **dict(zip("abc", ident))},
        "identity_verified": ident is not None,
        "exponent": q,
        "exponent_derivation": note,
    }


class _IntText(dict):
    # a miss is written by int.__repr__ itself, with no Python frame
    __missing__ = staticmethod(int.__repr__)


# the text of a plain int, the ints 0..255 read from a table at C level
_INT_TEXT = _IntText((i, int.__repr__(i)) for i in range(256)).__getitem__
# the writer of each scalar a report holds, by its exact type
_LITERAL = {True: "true", False: "false", None: "null"}.__getitem__
_SCALARS = {str: encode_basestring_ascii, int: _INT_TEXT, bool: _LITERAL, type(None): _LITERAL}
# the separators of a container written at each depth, a list's and then a
# dict's, so that is_dict indexes them: (opening and first line break, comma
# and line break between elements, line break and closing), extended on
# demand by _separators
_SEPARATORS: list[tuple[tuple[str, str, str], tuple[str, str, str]]] = []


def _separators(depth: int) -> tuple:
    while len(_SEPARATORS) <= depth:
        pad = "  " * len(_SEPARATORS)
        line, end = "\n  " + pad, "\n" + pad
        _SEPARATORS.append((("[" + line, "," + line, end + "]"), ("{" + line, "," + line, end + "}")))
    return _SEPARATORS[depth]


def canonical_json(data) -> str:
    """The text json.dumps(data, indent=2, sort_keys=True) writes, byte for
    byte: json_pieces(data) joined."""
    return "".join(json_pieces(data))


def json_pieces(data) -> list[str]:
    """The pieces of canonical_json(data), in order, not joined.

    Keys must be str: a key of any other type raises TypeError, where
    json.dumps would also write int, float, bool and None keys.  A list or
    tuple is accepted by its exact type, so a subclass of either (one of
    the package's namedtuple records) raises TypeError where json.dumps
    would write it as a list.  Any other value that is not a str, int, None
    or dict raises json's own TypeError: a float (reports are exact and hold
    none) as well as a Fraction or a set, so nothing is stringified by
    accident.

    Every piece goes to one list, which is returned unjoined: the CLI hands
    it to stdout's writelines, so the whole text is never one string there,
    and canonical_json joins it.  A report names one object in many places:
    a fiber entry at every layout position, a body of classes in both
    models' entries, a class's member list in its fixed point and in the
    certificate's chain.  The pure-Python
    encoder that indent selects would write every copy again.  Here one memo
    for the whole call maps each container's id to its written span: its
    depth, the buffer it went to and its first and last piece.  A container
    met again at the same depth costs one C-level slice-extend of those
    pieces; at another depth, one join and one str.replace of its newlines,
    which re-indents it, since encode_basestring_ascii escapes a newline
    inside a string and every newline in a container's text is structural.
    A span that is still open is a cycle, and raises ValueError as
    json.dumps does.  A list or tuple that holds the same element (by id)
    more than once writes each distinct element once into a buffer of its
    own that opens with its comma separator, and splices the texts in one
    C-level extend of a map over its ids; the first piece's comma is then
    swapped for the opening bracket.  One C-level list of the ids serves
    the whole list: the dict it keys tells whether an element repeats (it
    is shorter than the list), holds the distinct elements in order of
    first occurrence, and the splice maps the same list.  So a repeated
    element costs no Python step, no separator is written per element, and
    no recorded span is ever cut.  The splice is what keeps the writer's
    Python work flat in the genus: the memo alone costs one Python step per
    repeated fiber entry.  Scalars are
    written inline, each key's prefix is encoded once per call, and a list
    or tuple of plain ints (not bools) is written as one string at C level;
    the text of the ints 0..255 is read from a table, and each depth's
    separators from another (_separators).
    """
    out: list[str] = []
    # id -> [depth, buffer, start, end]; end is None while the span is open
    spans: dict[int, list] = {}
    prefixes: dict[str, str] = {}
    scalar = _SCALARS.get

    # the recursion stays private: a recursive public call would be one more
    # serialize span per node to anything that wraps the writer
    def write(obj, depth: int, buf: list) -> None:
        kind = type(obj)
        encode = scalar(kind)
        if encode is not None:
            return buf.append(encode(obj))
        # the exact container types first, then the subclasses json accepts
        if kind is dict:
            is_dict = True
        elif kind is list or kind is tuple:
            is_dict = False
        elif isinstance(obj, str):
            return buf.append(encode_basestring_ascii(obj))
        elif isinstance(obj, int):
            return buf.append(int.__repr__(obj))
        elif isinstance(obj, dict):
            is_dict = True
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        if not obj:
            return buf.append("{}" if is_dict else "[]")
        seps = _SEPARATORS[depth] if depth < len(_SEPARATORS) else _separators(depth)
        opening, comma, closing = seps[is_dict]
        if not is_dict and type(obj[0]) is int and {*map(type, obj)} == {int}:
            # an int list holds no container, so it needs no memo; its
            # types are read as one set at C level
            return buf.append(opening + comma.join(map(_INT_TEXT, obj)) + closing)
        span = spans.get(id(obj))
        if span is not None:
            written, source, start, end = span
            if end is None:
                raise ValueError("Circular reference detected")
            if written == depth:
                return buf.extend(source[start:end])
            text = "".join(source[start:end])
            if written < depth:
                return buf.append(text.replace("\n", "\n" + "  " * (depth - written)))
            return buf.append(text.replace("\n" + "  " * (written - depth), "\n"))
        span = spans[id(obj)] = [depth, buf, len(buf), None]
        sep = opening
        if is_dict:
            for k, v in sorted(obj.items()):
                prefix = prefixes.get(k)
                if prefix is None:
                    prefix = prefixes[k] = encode_basestring_ascii(k) + ": "
                encode = scalar(type(v))
                if encode is None:
                    buf.append(sep + prefix)
                    write(v, depth + 1, buf)
                else:
                    buf.append(sep + prefix + encode(v))
                sep = comma
        else:
            # one list of ids serves the distinct test, the first occurrences
            # (in order, as a dict keeps them) and the splice
            ids = list(map(id, obj))
            distinct = dict(zip(ids, obj))
            if len(distinct) == len(obj):
                for v in obj:
                    buf.append(sep)
                    sep = comma
                    write(v, depth + 1, buf)
            else:
                # write each distinct element once, its comma first, into a
                # buffer of its own, then splice the texts into this one in
                # order; the first text opens the list, so its comma becomes "["
                texts = {}
                for eid, v in distinct.items():
                    own = [comma]
                    write(v, depth + 1, own)
                    texts[eid] = "".join(own)
                first = len(buf)
                buf.extend(map(texts.__getitem__, ids))
                buf[first] = "[" + buf[first][1:]
        buf.append(closing)
        span[3] = len(buf)

    try:
        write(data, 0, out)
    finally:
        # write's closure holds write itself: without this cut, spans and
        # every buffer would wait for the garbage collector, even on a raise
        write = None
    return out


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
    lines = [
        "== correspondence ==",
        table_row("scenario", FAMILIES[scen["kind"]].label.format_map(scen)),
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
        elif not nest["chain"] and rep["certificate_checked"]:
            nesting = "trivial (no fixed points required)"
        else:
            chain = ", ".join(map(str, nest["chain"]))
            checked = "re-checked" if rep["certificate_checked"] else "refused by the re-check"
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
