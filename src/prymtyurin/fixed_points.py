"""Fixed points of a correspondence on special fibers, and nesting certificates.

On a special fiber the points of the induced curve are classes of generic
fiber points (see induced_curve).  The correspondence descends to classes by
picking a representative, reading its row bitset through the correspondence's
own point descriptors and counting its image points in each class by a
popcount.  That projection must not depend on the representative; the constructor checks
every representative and refuses the fiber otherwise, as it refuses a member
that is not a point of the correspondence.

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
undecided.  Certificates carry enough raw data to be re-verified by
check_certificate, which recomputes every multiplicity from the fiber
classes and the family's label rule alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress, count
from math import factorial
from operator import attrgetter

from .correspondence import FiberCorrespondence, Matrix
from .induced_curve import SpecialFiber


@dataclass(frozen=True)
class ClassAction:
    """The correspondence on one special fiber, as a matrix over classes.

    action[q][r] is the multiplicity of class r in the image of class q.
    Every row sums to the correspondence's bidegree: images have constant
    total degree.
    """

    fiber: SpecialFiber
    action: Matrix

    def self_multiplicity(self, q: int) -> int:
        return self.action[q][q]

    @cached_property
    def fixed_class_indices(self) -> tuple[int, ...]:
        return tuple(q for q in range(len(self.action)) if self.action[q][q] > 0)


def class_action(corr: FiberCorrespondence, fiber: SpecialFiber) -> ClassAction:
    """Descend a generic-fiber correspondence to the classes of a special fiber.

    Class members are looked up among corr.points; a member that is not a
    point of the correspondence raises ValueError.  Every representative of
    every class is checked to produce the same class multiset; a discrepancy
    means the identification is not compatible with the correspondence and
    raises ValueError.  The classes partition the points, so every row of
    the action sums to the bidegree.
    """
    masks, seen = [], 0
    for cls in fiber.classes:
        before = seen
        for member in cls.members:
            row = corr.index.get(member)
            if row is None:
                raise ValueError(
                    f"member {member} is not a point of the {corr.kind} correspondence"
                )
            if seen >> row & 1:
                raise ValueError(f"member {member} appears in two classes")
            seen |= 1 << row
        masks.append(seen ^ before)
    covered = sum(len(c.members) for c in fiber.classes)
    if covered != corr.size:
        raise ValueError(f"classes cover {covered} points, matrix has {corr.size}")

    rows = []
    for ci, cls in enumerate(fiber.classes):
        projected = None
        for member in cls.members:
            image = corr.rows[corr.index[member]]
            counts = [(image & mask).bit_count() for mask in masks]
            if projected is None:
                projected = counts
            elif projected != counts:
                raise ValueError(
                    f"class action depends on the representative in class {ci}: "
                    f"{projected} vs {counts} at {member}"
                )
        rows.append(tuple(projected))
    return ClassAction(fiber=fiber, action=tuple(rows))


@dataclass(frozen=True)
class FixedClass:
    fiber_index: int
    class_index: int
    multiplicity: int
    members: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FixedPointReport:
    """All fixed classes over all special fibers, with the actions as evidence."""

    fixed: tuple[FixedClass, ...]
    actions: tuple[ClassAction, ...]

    @property
    def delta_dot_d(self) -> int:
        return sum(f.multiplicity for f in self.fixed)

    @property
    def is_even(self) -> bool:
        return self.delta_dot_d % 2 == 0

    @property
    def half(self) -> int | None:
        return self.delta_dot_d // 2 if self.is_even else None


def fixed_point_scan(actions) -> FixedPointReport:
    actions = tuple(actions)
    fixed = []
    # only the fibers with a fixed class are visited: a layout that repeats a
    # fixed-point-free fiber at every simple branch point costs no Python step
    for fi in compress(count(), map(attrgetter("fixed_class_indices"), actions)):
        act = actions[fi]
        for ci in act.fixed_class_indices:
            fixed.append(
                FixedClass(
                    fiber_index=fi,
                    class_index=ci,
                    multiplicity=act.self_multiplicity(ci),
                    members=act.fiber.classes[ci].members,
                )
            )
    return FixedPointReport(fixed=tuple(fixed), actions=actions)


@dataclass(frozen=True)
class NestingCertificate:
    """A chain p_1..p_n witnessing the nesting condition on one fiber.

    memberships[i][j] is the multiplicity of p_{j+1} in D(p_{i+1}) for j <= i;
    the last entry of each row is the self multiplicity, always 1.
    """

    fiber_index: int
    chain: tuple[int, ...]
    chain_members: tuple[tuple[tuple[int, ...], ...], ...]
    memberships: tuple[tuple[int, ...], ...]

    @property
    def length(self) -> int:
        return len(self.chain)


@dataclass(frozen=True)
class NestingFailure:
    """No chain exists: the search was exhaustive.

    orderings_tried counts what a backtracking search over orderings would
    have tried: one attempt per candidate outside the partial chain, at every
    ordering of every clique shorter than the chain.
    """

    reason: str
    fibers_searched: int
    orderings_tried: int


@dataclass(frozen=True)
class NestingUndecided:
    """The clique count ran out of its budget before deciding either way."""

    reason: str
    fibers_searched: int
    memo_misses: int


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


def nesting_search(report: FixedPointReport, bidegree: int):
    """Find the lexicographically first nesting chain of length delta/2.

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
    if not report.is_even:
        return NestingFailure(
            reason=f"fixed-point count {report.delta_dot_d} is odd",
            fibers_searched=0,
            orderings_tried=0,
        )
    n = report.half
    if n > bidegree:
        return NestingFailure(
            reason=f"chain length {n} exceeds the bidegree {bidegree}",
            fibers_searched=0,
            orderings_tried=0,
        )
    if n == 0:
        return NestingCertificate(fiber_index=-1, chain=(), chain_members=(), memberships=())

    tried = 0
    searched = 0
    for fi, act in enumerate(report.actions):
        # chain members must share a fiber: every D(p_i) lies in the fiber of p_i
        candidates = [q for q in act.fixed_class_indices if act.self_multiplicity(q) == 1]
        c = len(candidates)
        if c < n:
            continue
        searched += 1
        # row bitsets of the candidate graph, each read once from the set
        # entries of its action row and mirrored into the transpose
        index = {q: i for i, q in enumerate(candidates)}
        adjacent, mirror = [0] * c, [0] * c
        for i, q in enumerate(candidates):
            for p in compress(range(len(act.action)), act.action[q]):
                j = index.get(p, i)
                if j != i:
                    adjacent[i] |= 1 << j
                    mirror[j] |= 1 << i
        for i, one_sided in enumerate(a ^ b for a, b in zip(adjacent, mirror)):
            if one_sided:
                q, p = candidates[i], candidates[(one_sided & -one_sided).bit_length() - 1]
                raise ValueError(
                    f"class action of fiber {fi} is not symmetric:"
                    f" action[{q}][{p}] = {act.action[q][p]},"
                    f" action[{p}][{q}] = {act.action[p][q]}"
                )
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
        block = (1 << width) - 1
        counts = [(memo[s] >> (width * k)) & block for k in range(n + 1)]
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
            if (memo[inner] >> (width * (n - 1 - len(chain)))) & block:
                chain.append(v)
                s = inner
        found = tuple(candidates[i] for i in chain)
        return NestingCertificate(
            fiber_index=fi,
            chain=found,
            chain_members=tuple(act.fiber.classes[q].members for q in found),
            memberships=tuple(
                tuple(act.action[qi][qj] for qj in found[: i + 1]) for i, qi in enumerate(found)
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
# label (grid: a row or a column).  It never consults the correspondence
# module or the ClassAction that produced the certificate.


def check_certificate(cert: NestingCertificate, fiber: SpecialFiber, kind: str, parameter: int) -> bool:
    """Re-verify a nesting certificate from the fiber classes alone.

    kind is "subset" (parameter n, labels 1..n+2) or "grid" (parameter m,
    labels 1..2m).  The label bitmasks of the family's points are built once,
    and the declared classes must partition them: every point in exactly one
    class and no member that is not a point.  Every membership multiplicity
    is then recomputed at every representative by counting, per class, the
    points that share the related number of labels with it.  A certificate
    whose chain_members or membership rows do not fit its chain is refused.
    """
    shape = [len(row) for row in cert.memberships]
    if len(cert.chain_members) != cert.length or shape != list(range(1, cert.length + 1)):
        return False
    if cert.length == 0:
        return True
    chain = set(cert.chain)
    # distinct classes, each named by its index: a negative one would alias another
    if len(chain) != cert.length or not chain <= set(range(len(fiber.classes))):
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
    masks = [[mask_of.get(member) for member in cls.members] for cls in fiber.classes]
    listed = [mask for row in masks for mask in row]
    if None in listed or sorted(listed) != sorted(mask_of.values()):
        return False

    for i, qi in enumerate(cert.chain):
        if cert.chain_members[i] != fiber.classes[qi].members:
            return False
        expected = dict(zip(cert.chain[: i + 1], cert.memberships[i]))
        for here in masks[qi]:
            for qj, mult in expected.items():
                if sum((here & there).bit_count() == shared for there in masks[qj]) != mult:
                    return False
        # the self multiplicity must be exactly 1 and every listed point present
        if cert.memberships[i][i] != 1:
            return False
        if any(m < 1 for m in cert.memberships[i]):
            return False
    return True
