"""Static fault analysis: resolve fault outcomes without emulating them.

Most faults in a FADES campaign are Silent.  This package finds them
before the campaign emulates them — by one lane-engine pass of
:mod:`repro.emu` against the golden run for every fault the lane engine
runs as the device does, plus two rules that simulate nothing (a
transient that covers no capture edge, a delay inside the timing slack)
— and feeds the verdicts back into the campaign as pruning, plus a
structural lint gate for the design zoo:

* :mod:`repro.sfa.graph` — structural graph, levels, loops, cones and
  the observability closure;
* :mod:`repro.sfa.observe` — stuck-value propagation and the
  truth-table entries of each LUT that no input assignment reaches;
* :mod:`repro.sfa.prune` — the campaign planner, whose
  ``workload-silent`` rule is the lane-engine pass;
* :mod:`repro.sfa.lint` — ``repro lint`` findings with severities.
"""

from .graph import StructuralGraph
from .lint import (Finding, LintReport, bundled_designs, lint_bundled,
                   lint_design)
from .observe import ConstantPropagation, ObservabilityAnalysis
from .prune import StaticFaultAnalysis

__all__ = [
    "ConstantPropagation",
    "Finding",
    "LintReport",
    "ObservabilityAnalysis",
    "StaticFaultAnalysis",
    "StructuralGraph",
    "bundled_designs",
    "lint_bundled",
    "lint_design",
]
