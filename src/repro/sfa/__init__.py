"""Static fault analysis: resolve fault outcomes without emulating them.

Most faults in a FADES campaign are Silent.  This package finds them
before the campaign emulates them — by one lane-engine pass of
:mod:`repro.emu` against the golden run for every fault the lane engine
runs as the device does, plus two rules that simulate nothing (a
transient that covers no capture edge, a delay inside the timing slack)
— and feeds the verdicts back into the campaign as pruning and
ATPG-style fault collapsing, plus a structural lint gate for the design
zoo:

* :mod:`repro.sfa.graph` — structural graph, levels, loops, cones and
  the observability closure;
* :mod:`repro.sfa.observe` — stuck-value propagation and the reachable
  truth-table entries of each LUT;
* :mod:`repro.sfa.collapse` — behavioural equivalence classes;
* :mod:`repro.sfa.prune` — the campaign planner, whose
  ``workload-silent`` rule is the lane-engine pass;
* :mod:`repro.sfa.lint` — ``repro lint`` findings with severities.
"""

from .collapse import FaultClass, behavioral_signature, collapse_faultload
from .graph import StructuralGraph
from .lint import (Finding, LintReport, bundled_designs, lint_bundled,
                   lint_design)
from .observe import ConstantPropagation, ObservabilityAnalysis
from .prune import PrunePlan, StaticFaultAnalysis

__all__ = [
    "ConstantPropagation",
    "FaultClass",
    "Finding",
    "LintReport",
    "ObservabilityAnalysis",
    "PrunePlan",
    "StaticFaultAnalysis",
    "StructuralGraph",
    "behavioral_signature",
    "bundled_designs",
    "collapse_faultload",
    "lint_bundled",
    "lint_design",
]
