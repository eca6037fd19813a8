"""Fixed points of a correspondence on special fibers, and nesting certificates.

On a special fiber the points of the induced curve are classes of generic
fiber points, the orbits of the fiber's generators (see induced_curve).
class_action proves from the generators that the correspondence descends to
the classes, with one comparison of the classes against their orbits, and
reads one representative row per class, and only what the criterion reads:
each class's multiplicity in its own image, and the block of multiplicities
among the classes where that is 1.

A class Q is a fixed point when Q appears in its own image D(Q); the
multiplicity of the appearance is the local intersection number with the
diagonal.  The criterion needs, for 2n fixed points in total, an ordering
p_1, ..., p_n of n distinct fixed points with

    p_1, ..., p_i  in  D(p_i)   and   mult(p_i in D(p_i)) = 1   for each i.

Since images stay inside the fiber of the base point, such a chain lives in a
single special fiber.  The correspondence is symmetric, so "p in D(q)" holds
exactly when "q in D(p)" does, and a chain is any ordering of an n-clique in
the graph of fixed classes of self multiplicity 1 joined when each lies in
the image of the other.  The search counts the cliques of each fiber by
size with a memoized split on the lowest candidate.  A fiber without an
n-clique fails from its counts alone, which also give, in closed form, how
many orderings a backtracking search would have tried there.  On the first
fiber with an n-clique the lexicographically first chain is read off the
same memo, by descending the split tree, which makes certificates
deterministic.  The count makes at most NESTING_CLIQUE_BUDGET memo misses
per fiber, the one budget of the search; beyond it the search is reported
undecided.

The scan and the search read only the class actions of a layout's distinct
fibers and, for each layout position, the index of its fiber among them
(report.fiber_layout).  A certificate's fields are its report keys; the
report adds the chain's members from the fiber entry it names, and
check_certificate recomputes every multiplicity from those entries and the
family's label rule alone.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, compress, count
from math import factorial
from operator import ne

from .correspondence import FiberCorrespondence, Matrix
from .induced_curve import SpecialFiber, orbit_classes
from .perms import Record


def candidates(diagonal) -> list[int]:
    """The classes a nesting chain may use: fixed, of self multiplicity 1."""
    return list(compress(count(), map((1).__eq__, diagonal)))


def class_action(corr: FiberCorrespondence, fiber: SpecialFiber) -> tuple[tuple, Matrix]:
    """The correspondence descended to a special fiber's classes, where the
    criterion reads it: (diagonal, block), with diagonal[q] the multiplicity
    of class q in its own image and block[i][j] that of class c_j in the
    image of class c_i, for c_0 < c_1 < ... the candidates(diagonal).

    Each generator must have degree N and preserve D (corr.check_moves), and
    the classes must equal orbit_classes of the generators on corr.points,
    order included, or ValueError: a member that is not a point or lies in
    two classes, classes that miss a point and classes out of order all fail
    that one comparison.  So for g in the group the generators span, a
    point p and a class M, |D(gp) & M| = |D(p) & g^-1 M| = |D(p) & M|: the
    action does not depend on the representative, and every count is read
    off one representative per class, the first position of its orbit.
    """
    corr.check_moves(fiber.generators, "generator")
    classes, walked = zip(*orbit_classes(fiber.generators, corr.points))
    if fiber.classes != classes:
        # the first class that differs, or the first orbit the classes miss
        declared = fiber.classes
        q = next(compress(count(), map(ne, declared, classes)), min(len(declared), len(classes)))
        if q < len(declared):
            raise ValueError(f"class {q} is not an orbit of the fiber's generators")
        raise ValueError(f"the classes miss orbit {q} of the fiber's generators")

    masks = [sum(map((1).__lshift__, orbit)) >> 1 for orbit in walked]
    reps = [corr.rows[orbit[0] - 1] for orbit in walked]
    diagonal = tuple(map(int.bit_count, map(int.__and__, reps, masks)))
    chosen = candidates(diagonal)
    within = list(map(masks.__getitem__, chosen))
    block = tuple(tuple(map(int.bit_count, map(reps[q].__and__, within))) for q in chosen)
    return diagonal, block


def fixed_point_scan(actions, positions) -> list[tuple[int, int, int]]:
    """The fixed classes of a layout, in layout order: (position, class q,
    multiplicity diagonal[q]) for every class q that lies in its own image,
    at every position.  actions holds the class actions of the distinct
    fibers and positions[p] the index of position p's fiber among them.
    """
    fixed = [list(compress(enumerate(diagonal), diagonal)) for diagonal, _ in actions]
    # only the positions whose fiber has a fixed class are visited: a layout
    # that repeats a fixed-point-free fiber at every simple branch point
    # costs no Python step
    return [
        (p, q, mult)
        for p in compress(count(), map(fixed.__getitem__, positions))
        for q, mult in fixed[positions[p]]
    ]


class NestingCertificate(Record, namedtuple("NestingCertificate", "fiber chain multiplicities")):
    """A chain p_1..p_n of classes, by index, witnessing the nesting
    condition on the fiber at layout position fiber (-1 for the empty chain).

    multiplicities[i][j] is the multiplicity of p_{j+1} in D(p_{i+1}) for
    j <= i; the last entry of each row is the self multiplicity, always 1.
    """

    __slots__ = ()


class NestingFailure(
    Record, namedtuple("NestingFailure", "reason fibers_searched orderings_tried")
):
    """No chain exists: the search was exhaustive.

    orderings_tried counts what a backtracking search over orderings would
    have tried: one attempt per candidate outside the partial chain, at every
    ordering of every clique shorter than the chain.
    """

    __slots__ = ()


class NestingUndecided(
    Record, namedtuple("NestingUndecided", "reason fibers_searched memo_misses")
):
    """The clique count ran out of its budget before deciding either way."""

    __slots__ = ()


# memo misses of the clique count on one fiber: the one bound on the work of
# a nesting search.  On the orbit fiber of a (2, ..., 2) profile with m pairs
# of fixed classes the count makes 2m misses where the fiber has 3^m cliques
# (m = 15 at n = 10, 55 at n = 20).
NESTING_CLIQUE_BUDGET = 1_000_000


def _clique_counts(adjacent: list[int], n: int) -> dict[int, int]:
    """The memo of clique counts by size, keyed by vertex bitset, of the graph
    on len(adjacent) vertices whose neighbours are the bitsets adjacent[v];
    it lacks the full set when counting needs more than NESTING_CLIQUE_BUDGET
    memo misses.

    Splitting a vertex set S on its lowest vertex v gives
    count(S) = count(S - v) + x * count(S & adjacent[v]) as polynomials whose
    x^k coefficient, kept for k <= n, counts k-cliques.  No set has more than
    2^c cliques, so the coefficients pack into one int at c + 1 bits each.
    An explicit stack keeps any number of vertices clear of the recursion
    limit.
    """
    c = len(adjacent)
    width = c + 1
    keep = (1 << (width * (n + 1))) - 1
    memo = {0: 1}
    stack = [(1 << c) - 1]
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
            continue
        low = s & -s
        rest = s ^ low
        inner = rest & adjacent[low.bit_length() - 1]
        if rest not in memo or inner not in memo:
            stack += (rest, inner)  # a memoized one is popped at once
            continue
        if len(memo) > NESTING_CLIQUE_BUDGET:
            break
        memo[s] = (memo[rest] + (memo[inner] << width)) & keep
        stack.pop()
    return memo


def nesting_search(actions, positions, delta_dot_d: int, bidegree: int):
    """Find the lexicographically first nesting chain of length delta_dot_d / 2.

    actions are the class actions of a layout's distinct fibers as
    class_action returns them, positions[p] the index of position p's fiber
    among them, and delta_dot_d the layout's weighted fixed-point count; the
    search reads nothing else, so a certificate names its classes by index.
    Positions are searched in layout order, a repeated fiber at each of its
    positions.

    The correspondence is symmetric and its class action does not depend on
    the representative, so |q| * action[q][p] = |p| * action[p][q] for class
    sizes |p|, |q|: "p in D(q)" holds exactly when "q in D(p)" does.  A chain
    is therefore any ordering of an n-clique of the graph joining two
    candidates (fixed classes of self multiplicity 1) when each lies in the
    image of the other, and the lexicographically first ordering of an
    n-clique is that clique in increasing order.  The search counts the
    cliques of each fiber by size (_clique_counts); a fiber without an
    n-clique fails there.  On the first fiber with one, the chain is read off
    the memo down the split tree from the full candidate set S: the lowest v
    in S joins the chain and S becomes S & adjacent[v] when that set still
    holds a clique of the missing size; otherwise v leaves S.

    Returns a NestingCertificate; a NestingFailure when the hypotheses on the
    fixed-point count already fail or no fiber has an n-clique; or a
    NestingUndecided once counting a fiber needs more than
    NESTING_CLIQUE_BUDGET memo misses.  On failure orderings_tried is sum
    over cliques S with |S| < n of |S|! * (c - |S|), over the searched fibers
    with c candidates each.  An empty chain (no fixed points at all)
    certifies trivially.
    """
    if delta_dot_d % 2:
        return NestingFailure(
            reason=f"fixed-point count {delta_dot_d} is odd",
            fibers_searched=0,
            orderings_tried=0,
        )
    n = delta_dot_d // 2
    if n > bidegree:
        return NestingFailure(
            reason=f"chain length {n} exceeds the bidegree {bidegree}",
            fibers_searched=0,
            orderings_tried=0,
        )
    if n == 0:
        return NestingCertificate(fiber=-1, chain=(), multiplicities=())

    # chain members must share a fiber: every D(p_i) lies in the fiber of p_i
    candidates_of = [candidates(diagonal) for diagonal, _ in actions]
    searchable = [len(chosen) >= n for chosen in candidates_of]
    tried = 0
    searched = 0
    for pos in compress(count(), map(searchable.__getitem__, positions)):
        fi = positions[pos]
        (_, block), chosen = actions[fi], candidates_of[fi]
        c = len(chosen)
        searched += 1
        # the candidate graph's row bitsets from the nonzero entries of the
        # block, which must equal its column bitsets; each candidate's own
        # bit (self multiplicity 1) is dropped
        bit = [1 << j for j in range(c)]
        nonzero = [sum(compress(bit, row)) for row in block]
        mirror = [sum(compress(bit, column)) for column in zip(*block)]
        if nonzero != mirror:
            cells = ((i, j) for i in range(c) for j in range(c))
            i, j = next((i, j) for i, j in cells if bool(block[i][j]) != bool(block[j][i]))
            q, p = chosen[i], chosen[j]
            raise ValueError(
                f"class action of fiber {pos} is not symmetric:"
                f" action[{q}][{p}] = {block[i][j]},"
                f" action[{p}][{q}] = {block[j][i]}"
            )
        adjacent = list(map(int.__xor__, nonzero, bit))
        memo = _clique_counts(adjacent, n)
        s = (1 << c) - 1
        if s not in memo:
            return NestingUndecided(
                reason=(
                    f"the search for a chain of {n} fixed points ran out of its"
                    f" budget of {NESTING_CLIQUE_BUDGET} memo misses"
                ),
                fibers_searched=searched,
                memo_misses=len(memo) - 1,
            )
        width = c + 1
        digit = (1 << width) - 1
        counts = [(memo[s] >> (width * k)) & digit for k in range(n + 1)]
        if not counts[n]:
            # what a search over orderings tries at each ordering of a k-clique
            tried += sum(count * factorial(k) * (c - k) for k, count in enumerate(counts[:n]))
            continue

        chain: list[int] = []
        while len(chain) < n:
            low = s & -s
            s ^= low
            v = low.bit_length() - 1
            inner = s & adjacent[v]
            if (memo[inner] >> (width * (n - 1 - len(chain)))) & digit:
                chain.append(v)
                s = inner
        return NestingCertificate(
            fiber=pos,
            chain=tuple(chosen[i] for i in chain),
            multiplicities=tuple(
                tuple(block[i][j] for j in chain[: k + 1]) for k, i in enumerate(chain)
            ),
        )
    return NestingFailure(
        reason=f"no ordering of {n} fixed points nests on any special fiber",
        fibers_searched=searched,
        orderings_tried=tried,
    )


# --- independent certificate checking ---------------------------------------
#
# check_certificate recomputes every claimed multiplicity from the raw fiber
# data by one label rule: each point is the bitmask of its labels (an n-subset
# its labels in 1..n+2, a grid cell (i, j) the labels i and m + j), and two
# points are related exactly when they share n - 2 labels (subset) or one
# label (grid: a row or a column).  It reads only the report's entries, never
# the correspondence module or the class action that produced the
# certificate.


def check_certificate(nesting: dict, fiber: dict, kind: str, parameter: int) -> bool:
    """Re-verify a report's nesting certificate from its fiber entry alone.

    nesting is a report's certified nesting entry and fiber the
    special_fibers entry at the position it names; kind is "subset"
    (parameter n, labels 1..n+2) or "grid" (parameter m, labels 1..2m).  The
    label bitmasks of the family's points are built once, and the entry's
    classes must partition them: every point in exactly one class and no
    member that is not a point.  Every multiplicity is then recomputed at
    every representative by counting, per class, the points that share the
    related number of labels with it.  A certificate whose chain_members or
    multiplicities rows do not fit its chain is refused.
    """
    chain, chain_members = nesting["chain"], nesting["chain_members"]
    rows = nesting["multiplicities"]
    classes = [cls["members"] for cls in fiber["classes"]]
    length = len(chain)
    if len(chain_members) != length or [len(row) for row in rows] != list(range(1, length + 1)):
        return False
    if length == 0:
        return True
    # distinct classes, each named by its index: a negative one would alias another
    if len(set(chain)) != length or not set(chain) <= set(range(len(classes))):
        return False
    if kind == "subset":
        subsets = combinations(range(1, parameter + 3), parameter)
        mask_of = {s: sum(1 << x for x in s) for s in subsets}
        shared = parameter - 2
    elif kind == "grid":
        cells = range(1, parameter + 1)
        mask_of = {(i, j): 1 << i | 1 << (parameter + j) for i in cells for j in cells}
        shared = 1
    else:
        raise ValueError(f"unknown correspondence kind {kind!r}")
    masks = [[mask_of.get(tuple(member)) for member in members] for members in classes]
    listed = [mask for row in masks for mask in row]
    if None in listed or sorted(listed) != sorted(mask_of.values()):
        return False

    for i, qi in enumerate(chain):
        if chain_members[i] != classes[qi]:
            return False
        expected = dict(zip(chain[: i + 1], rows[i]))
        for here in masks[qi]:
            for qj, mult in expected.items():
                if sum((here & there).bit_count() == shared for there in masks[qj]) != mult:
                    return False
        # the self multiplicity must be exactly 1 and every listed point present
        if rows[i][i] != 1:
            return False
        if any(m < 1 for m in rows[i]):
            return False
    return True
