"""Static fault analysis: prove fault outcomes without emulating them.

Most faults in a FADES campaign are Silent, and many provably so before
any emulation happens — the flipped state washes out of every
observability cone, the rewritten truth-table entry is unreachable, or
the injected delay sits inside the timing slack.  This package derives
those proofs from the netlist (and, for single bit-flips, from one
lane-engine pass of :mod:`repro.emu` against the golden run) and feeds
them back into the campaign as pruning and ATPG-style fault
collapsing, plus a structural lint gate for the design zoo:

* :mod:`repro.sfa.graph` — structural graph, levels, loops, cones,
  observability and sequential closures;
* :mod:`repro.sfa.observe` — stuck-value propagation, dead LUT entries
  and sequential washout;
* :mod:`repro.sfa.collapse` — behavioural equivalence classes;
* :mod:`repro.sfa.prune` — the campaign planner combining all rules,
  whose ``workload-silent`` rule runs bit-flips on the lane engine;
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
