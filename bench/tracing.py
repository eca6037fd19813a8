"""Spans around each layer's public functions, installed from outside the package.

`Tracer` replaces every binding of each target function, in every loaded
`prymtyurin` module, with a wrapper that records a span (name, start, end,
parent, request) plus a few counters, and puts the original objects back on
exit.  The package source is never touched.  Hot inner helpers
(`subset_rank`, the point-rank lambdas, `Permutation` methods, `with_model`)
are left alone: a wrapper there would cost more than the work it measures,
so their time shows up as self time of the span that calls them.

A layer's self time is the duration of its spans minus the time their child
spans cover.  Counters are summed only over spans whose parent is not a
span of the same name, so a serializer calling another serializer counts
its bytes once.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter


def _calls(args, result, exc):
    return {"calls": 1}


def _mat_mul(args, result, exc):
    return {"calls": 1, "ops": len(args[0]) ** 3}


def _class_action(args, result, exc):
    return {"calls": 1, "pairs": args[0].size ** 2}


def _nesting(args, result, exc):
    return {
        "calls": 1,
        "certificates": int(hasattr(result, "chain")),
        "failed_orderings_tried": getattr(result, "orderings_tried", 0),
    }


def _fiber(args, result, exc):
    return {"built": 1, "classes": len(result.classes)} if result is not None else {}


def _generators(args, result, exc):
    return {"generators": len(args[0])}


def _rejected(args, result, exc):
    return {"rejected": int(type(exc).__name__ == "InvalidScenario")}


def _serialized(args, result, exc):
    # the reports are ASCII, so characters are bytes
    return {"bytes": len(result)} if isinstance(result, str) else {}


# (defining module, function, span name, counters)
TARGETS = (
    ("prymtyurin.scenario", "load_scenario", "scenario.load", _rejected),
    ("prymtyurin.correspondence", "build_subset_matrix", "correspondence.build", None),
    ("prymtyurin.correspondence", "build_grid_matrix", "correspondence.build", None),
    ("prymtyurin.correspondence", "discover_identity", "correspondence.discover", None),
    ("prymtyurin.correspondence", "verify_identity", "correspondence.verify", None),
    ("prymtyurin.correspondence", "mat_mul", "correspondence.mat_mul", _mat_mul),
    ("prymtyurin.perms", "induced_subset_action", "perms.induced_action", _calls),
    ("prymtyurin.perms", "is_transitive", "perms.transitivity", None),
    ("prymtyurin.covering", "riemann_hurwitz_genus", "covering.genus", None),
    ("prymtyurin.covering", "simple_budget", "covering.genus", None),
    ("prymtyurin.covering", "upstairs_genus", "covering.genus", None),
    ("prymtyurin.induced_curve", "subset_fiber", "induced_curve.fiber", _fiber),
    ("prymtyurin.induced_curve", "grid_row_merge_fiber", "induced_curve.fiber", _fiber),
    ("prymtyurin.induced_curve", "grid_pairing_fiber", "induced_curve.fiber", _fiber),
    ("prymtyurin.induced_curve", "irreducibility_check", "induced_curve.irreducibility", _generators),
    ("prymtyurin.fixed_points", "class_action", "fixed_points.class_action", _class_action),
    ("prymtyurin.fixed_points", "fixed_point_scan", "fixed_points.scan", None),
    ("prymtyurin.fixed_points", "nesting_search", "fixed_points.nesting", _nesting),
    ("prymtyurin.fixed_points", "check_certificate", "fixed_points.check", _calls),
    ("prymtyurin.report", "assemble", "report.assemble", None),
    ("prymtyurin.report", "report_to_json", "report.serialize", _serialized),
    ("prymtyurin.report", "render_table", "report.serialize", _serialized),
    ("prymtyurin.report", "canonical_json", "report.serialize", _serialized),
    ("prymtyurin.cli", "main", "cli.main", _calls),
)

# per-layer metric -> (span name, "self" for self time or a counter name)
LAYER_METRICS = {
    "scenario.load_s": ("scenario.load", "self"),
    "scenario.rejected": ("scenario.load", "rejected"),
    "correspondence.build_s": ("correspondence.build", "self"),
    "correspondence.discover_s": ("correspondence.discover", "self"),
    "correspondence.verify_s": ("correspondence.verify", "self"),
    "correspondence.mat_mul_s": ("correspondence.mat_mul", "self"),
    "correspondence.mat_mul_calls": ("correspondence.mat_mul", "calls"),
    "correspondence.mat_mul_ops": ("correspondence.mat_mul", "ops"),
    "perms.induced_action_s": ("perms.induced_action", "self"),
    "perms.induced_action_calls": ("perms.induced_action", "calls"),
    "perms.transitivity_s": ("perms.transitivity", "self"),
    "covering.genus_s": ("covering.genus", "self"),
    "induced_curve.fiber_s": ("induced_curve.fiber", "self"),
    "induced_curve.fibers_built": ("induced_curve.fiber", "built"),
    "induced_curve.classes_built": ("induced_curve.fiber", "classes"),
    "induced_curve.irreducibility_s": ("induced_curve.irreducibility", "self"),
    "induced_curve.generators": ("induced_curve.irreducibility", "generators"),
    "fixed_points.class_action_s": ("fixed_points.class_action", "self"),
    "fixed_points.class_action_calls": ("fixed_points.class_action", "calls"),
    "fixed_points.class_action_pairs": ("fixed_points.class_action", "pairs"),
    "fixed_points.scan_s": ("fixed_points.scan", "self"),
    "fixed_points.nesting_s": ("fixed_points.nesting", "self"),
    "fixed_points.nesting_calls": ("fixed_points.nesting", "calls"),
    "fixed_points.failed_orderings_tried": ("fixed_points.nesting", "failed_orderings_tried"),
    "fixed_points.check_s": ("fixed_points.check", "self"),
    "fixed_points.check_calls": ("fixed_points.check", "calls"),
    "report.assemble_self_s": ("report.assemble", "self"),
    "report.serialize_s": ("report.serialize", "self"),
    "report.serialize_bytes": ("report.serialize", "bytes"),
    "cli.main_self_s": ("cli.main", "self"),
    "cli.calls": ("cli.main", "calls"),
}
RATIO_METRICS = {
    # certificates found per nesting search; 0 when nothing was searched
    "fixed_points.certified_ratio": ("fixed_points.nesting", "certificates", "calls"),
}


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "prymtyurin" or name.startswith("prymtyurin.")]


class Tracer:
    """Context manager: while active, calls into the targets record spans.

    A span is [name, start, end, parent index or -1, request, counters].
    """

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = package_modules()
        try:
            for module, name, span, count in TARGETS:
                original = getattr(sys.modules[module], name)
                wrapper = self._wrap(original, span, count)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if count is not None:
                    span[5] = count(args, result, error)

        wrapper.__wrapped__ = fn
        return wrapper


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Self time and counters summed per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, _, counters) in enumerate(spans):
        totals[name]["self"] += end - start - child_time[i]
        if counters and (parent < 0 or spans[parent][0] != name):
            for key, value in counters.items():
                totals[name][key] += value
    return totals


def layer_metrics(spans: list[list]) -> dict[str, float]:
    totals = layer_totals(spans)
    out = {metric: totals.get(span, {}).get(key, 0.0)
           for metric, (span, key) in LAYER_METRICS.items()}
    for metric, (span, num, den) in RATIO_METRICS.items():
        t = totals.get(span, {})
        out[metric] = t.get(num, 0.0) / t[den] if t.get(den) else 0.0
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
