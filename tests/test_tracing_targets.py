"""The benchmark tracer's targets must name functions the package still has,
and a traced run must count them without changing what the CLI prints.

`bench/tracing.py` patches each `(module, function)` in `TARGETS` by name and
reads its counters from the wrapped calls' arguments and results; a renamed
function or a changed signature would only show up when a traced benchmark
run fails, so both are exercised here.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from prymtyurin import cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_tracer_target_resolves_to_a_callable():
    tracing = load_tracing()
    assert tracing.TARGETS
    for module, name, *_ in tracing.TARGETS:
        target = getattr(importlib.import_module(module), name, None)
        assert callable(target), f"{module}.{name}"


def _run_cli(argv):
    # cli.main is looked up at call time: the tracer patches module bindings
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-identity", "--kind", "subset", "--n", "5", "--format", "json"],
        ["builtin", "pn-case", "--n", "3", "--gx", "2", "--format", "json"],
        ["builtin", "hyperelliptic", "--g", "4", "--format", "table"],
    ],
)
def test_traced_run_counts_layers_and_prints_the_same(argv):
    tracing = load_tracing()
    plain = _run_cli(argv)
    with tracing.Tracer() as tracer:
        traced = _run_cli(argv)
    assert traced == plain
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["correspondence.mat_mul_calls"] == 1
    # discover_identity proves its identity through verify_identity, so the
    # verify layer has one span per run and its time is never a silent 0
    names = [span[0] for span in tracer.spans]
    assert names.count("correspondence.discover") == 1
    assert names.count("correspondence.verify") == 1
    assert metrics["cli.calls"] == 1
    if argv[0] == "builtin":
        assert metrics["fixed_points.class_action_calls"] >= 1
        assert metrics["fixed_points.nesting_calls"] >= 1
        # the covering layer: the scenario's simple_budget, the report's
        # upstairs_genus with its riemann_hurwitz_genus, and one
        # riemann_hurwitz_genus per model for the induced genus
        assert names.count("covering.genus") == 5


@pytest.mark.parametrize(
    "argv, fibers, classes, generators, induced, actions",
    [
        (["builtin", "pn-case", "--n", "3", "--gx", "1"], 3, 18, 5, 0, 3),
        (["builtin", "hyperelliptic", "--g", "5"], 4, 24, 4, 0, 4),
    ],
)
def test_traced_counters_read_the_fiber_and_irreducibility_signatures(
    argv, fibers, classes, generators, induced, actions
):
    # the counters read the fibers' results, the generators passed first to
    # irreducibility_check and every induced_subset_action call: the subset
    # run builds its fibers (2,2,1) and (2,1,1,1) under the merged model and
    # (2,2,1) under the orbit model, and checks 5 distinct label moves.  No
    # run calls induced_subset_action: every label move is induced through
    # the correspondence's own pair index, whose time counts in the self
    # time of the induced_curve spans.  The grid run builds its 4 fibers once
    # and checks their 4 label moves
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        _run_cli(argv)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["induced_curve.fibers_built"] == fibers
    assert metrics["induced_curve.classes_built"] == classes
    assert metrics["induced_curve.generators"] == generators
    assert metrics["perms.induced_action_calls"] == induced
    assert metrics["fixed_points.class_action_calls"] == actions
