"""Exact verification of a Prym-Tyurin exponent criterion for symmetric
fiber correspondences with fixed points.

The top level re-exports the pieces most callers need: scenario
construction, report assembly and serialization.  assemble returns the
report as one canonical dict of JSON values; report_to_json and
render_table are its two views.  The submodules expose the full machinery
(permutations, coverings, correspondence matrices, special-fiber models,
fixed-point scans, nesting certificates).
"""

from .report import (
    assemble,
    canonical_json,
    render_table,
    report_to_json,
)
from .scenario import (
    InvalidScenario,
    Scenario,
    grid_scenario,
    load_scenario,
    parse_scenario,
    subset_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "InvalidScenario",
    "Scenario",
    "assemble",
    "canonical_json",
    "grid_scenario",
    "load_scenario",
    "parse_scenario",
    "render_table",
    "report_to_json",
    "subset_scenario",
    "__version__",
]
