"""The benchmark tracer's targets must name functions the package still has.

`bench/tracing.py` patches each `(module, function)` in `TARGETS` by name; a
renamed or deleted function would only show up when a traced benchmark run
fails, so the names are resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_tracer_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, name, *_ in tracing.TARGETS:
        target = getattr(importlib.import_module(module), name, None)
        assert callable(target), f"{module}.{name}"
