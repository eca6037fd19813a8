"""Calibration of the benchmark's times to the speed of the host.

The benchmark runs on small VMs that share a host.  There, the same code
runs up to 1.7 times slower for seconds or minutes at a time, and the
process's CPU time slows with its wall time, so neither clock hides it.  A
fixed piece of pure-Python work (`reference_work`) slows by about as much.

So the benchmark times that work before every input, and reports each
input's time scaled to a host on which the reference work takes
`REF_NOMINAL_S`:

    calibrated = measured * REF_NOMINAL_S / (median reference time nearby)

The references nearby are the ones timed just before and just after the
input and any others timed within `NEAR_S` of it.  The host's speed changes
within a second, so for a long input the references on either side of it
are the best estimate of the speed it ran at; for a short one, the median
of the few around it evens out the noise of a single reference.

The result is still in seconds.  On a host running at the nominal speed it
equals the measured time.  A change to the program does not touch the
reference work, so its effect on the calibrated times is the same as on the
measured ones.  The measured times and the speed factor go to the result
file beside the calibrated metrics.

Set-up runs in fresh interpreters, where the time goes to starting a
process and reading files more than to Python code, and the reference work
does not follow its slow spells.  It is calibrated the same way by the time
of a bare interpreter start (`python3 -c pass`), nominally `START_NOMINAL_S`.
"""

from __future__ import annotations

import gc
import json
import statistics
from fractions import Fraction
from time import perf_counter

# about the median time of reference_work on the 2-core x86-64 VM
# (Python 3.11) the benchmark was developed on
REF_NOMINAL_S = 0.0060
# and of a bare interpreter start there
START_NOMINAL_S = 0.070

# references timed this close to an input calibrate its time
NEAR_S = 0.5

_ROWS = [{"a": i, "b": [i, i + 1, 3 * i], "c": str(i)} for i in range(1500)]


def reference_work() -> int:
    """A few ms of the kinds of work the verifier does: small integer
    matrix products, Fraction sums, dict and set churn and JSON output."""
    n = 20
    a = [[(i * 7 + j * 3) % 11 - 5 for j in range(n)] for i in range(n)]
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in a]
    total = sum(Fraction(i, i + 1) for i in range(1, 100))
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i * 31 % 997] = counts.get(i * 31 % 997, 0) + i
    pairs = {frozenset((i, i * 3 % 17)) for i in range(1500)}
    text = json.dumps(_ROWS)
    return len(product) + len(counts) + len(pairs) + len(text) + total.denominator % 7


def time_reference() -> float:
    """Seconds one call of reference_work takes, on a freshly collected heap."""
    gc.collect()
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def factors(records: list[dict]) -> list[float]:
    """For each record, in the order they ran, REF_NOMINAL_S over the
    median reference time near it; multiply its time by this to calibrate
    it.  A record holds `ref`, the reference time taken just before the
    input, `at`, when that ended and the input began, and `elapsed`."""
    out = []
    for i, rec in enumerate(records):
        lo, hi = rec["at"] - NEAR_S, rec["at"] + rec["elapsed"] + NEAR_S
        near = [other["ref"] for j, other in enumerate(records)
                if j in (i, i + 1) or lo <= other["at"] <= hi]
        out.append(REF_NOMINAL_S / statistics.median(near))
    return out
