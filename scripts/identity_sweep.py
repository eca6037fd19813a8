#!/usr/bin/env python3
"""Sweep the quadratic identity D^2 = a*I + b*D + c*U across correspondence sizes.

For each subset correspondence (size parameter n) and each square-grid
correspondence (side m), discover the identity coefficients exactly, then try
to extract a consistent exponent q (q = 2 - b with a = q - 1).  Families that
admit the identity but no consistent exponent are shown with the reason: this
is how one sees at a glance that only the 3x3 grid works while every subset
size does.

Three brute-force checks run beside the table.  Two are on what the
package proves instead of checking: each correspondence's symmetries form
one orbit (so verify_identity squares row 0 alone), and every generator of
the default subset layout's fibers, the simple fiber included, passes
check_moves's N^2 compare under both models (which class_action proves
from the label moves).  The third holds that compare to a plain double
loop over D's entries: check_moves accepts the transposition of the first
and the last point exactly when the loop finds that it preserves D, which
some correspondences' swaps do and most do not.  A failure is named on
stderr, and the sweep exits 1.

Usage:
    python3 scripts/identity_sweep.py [--max-n 12] [--max-m 8]
"""

import argparse
import sys
from itertools import chain

from prymtyurin.correspondence import build_grid_matrix, build_subset_matrix
from prymtyurin.induced_curve import MODELS, subset_fiber
from prymtyurin.perms import Permutation, orbits
from prymtyurin.report import correspondence_to_dict
from prymtyurin.scenario import default_subset_fibers


def describe(corr):
    summary = correspondence_to_dict(corr)
    ident, q = summary["identity"], summary["exponent"]
    if ident is None:
        return "-", "-", "-", "-", "no quadratic identity"
    if q is None:
        return ident["a"], ident["b"], ident["c"], "-", summary["exponent_derivation"]
    return ident["a"], ident["b"], ident["c"], q, "ok"


def subset_profiles(n):
    """The profiles of the default subset layout: its declared fibers and
    the simple fiber."""
    return (*dict.fromkeys(default_subset_fibers(n)), (2,) + (1,) * n)


def preserves(corr, images):
    """Whether the permutation with these 0-based images preserves D, entry
    by entry."""
    n, rows = corr.size, corr.rows
    for i in range(n):
        for j in range(n):
            if (rows[images[i]] >> images[j] & 1) != (rows[i] >> j & 1):
                return False
    return True


def problems(corr, profiles):
    """What the brute-force checks find wrong with corr, one line each."""
    found = []
    if len(orbits(corr.symmetries, corr.size)) != 1:
        found.append("the symmetries are not transitive")
    n = corr.size
    swap = Permutation((n, *range(2, n), 1))
    try:
        corr.check_moves((swap,), "swap")
        accepted = True
    except ValueError:
        accepted = False
    if accepted != preserves(corr, [p - 1 for p in swap.images]):
        found.append(f"check_moves {'accepts' if accepted else 'refuses'} the swap of"
                     f" points 1 and {n}, and the entries say otherwise")
    for parts in profiles:
        for model in MODELS:
            try:
                corr.check_moves(subset_fiber(corr, parts, model).generators, "generator")
            except ValueError as exc:
                found.append(f"fiber {parts}, {model} model: {exc}")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=12, help="largest subset size")
    parser.add_argument("--max-m", type=int, default=8, help="largest grid side")
    args = parser.parse_args()

    header = f"{'family':<14}{'points':>7}{'bideg':>7}{'a':>6}{'b':>6}{'c':>6}{'q':>4}  note"
    print(header)
    print("-" * len(header))
    # each correspondence is built in its own pass and dropped before the next
    families = chain(
        (("subset n=", build_subset_matrix, n, subset_profiles(n))
         for n in range(2, args.max_n + 1)),
        (("grid m=", build_grid_matrix, m, ()) for m in range(2, args.max_m + 1)),
    )
    failed = 0
    for family, build, size, profiles in families:
        corr = build(size)
        a, b, c, q, note = describe(corr)
        print(
            f"{family + str(size):<14}{corr.size:>7}{corr.bidegree:>7}"
            f"{a:>6}{b:>6}{c:>6}{q:>4}  {note}"
        )
        for problem in problems(corr, profiles):
            print(f"{family}{size}: {problem}", file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    raise SystemExit(main())
