"""Netlist lint: machine-readable structural findings with severities.

``repro lint <design>`` runs every check over a bundled design (or all
of them) and emits findings as a table or JSON.  Severities:

* ``error`` — the design is structurally broken for emulation:
  combinational loops (the settled-value simulators mis-simulate
  them), or an invariant violation caught by the IR's own ``check()``.
* ``warning`` — almost certainly a design bug: floating primary
  inputs, dead logic (cells feeding no observable sink).
* ``info`` — worth knowing when planning campaigns: truth-table
  entries unreachable under constant/tied inputs (un-gradable fault
  sites), outputs with a combinational input-to-output feedthrough
  path (no register isolates the pin from the pads).

The CI gate is ``repro lint --all --fail-on error``: bundled designs
must stay loop-free and invariant-clean, while warnings stay visible
in the JSON artifact without breaking the build.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..errors import ReproError
from ..hdl.netlist import Netlist
from ..synth.mapped import MappedNetlist
from .graph import StructuralGraph
from .observe import ObservabilityAnalysis

SEVERITIES = ("info", "warning", "error")

Design = Union[Netlist, MappedNetlist]


@dataclass
class Finding:
    """One lint finding, anchored to nets of the analysed design."""

    check: str
    severity: str
    message: str
    nets: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {"check": self.check, "severity": self.severity,
                "message": self.message, "nets": list(self.nets)}


@dataclass
class LintReport:
    """All findings over one design."""

    design: str
    findings: List[Finding] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        counts = {severity: 0 for severity in SEVERITIES}
        for finding in self.findings:
            counts[finding.severity] += 1
        return counts

    def worst(self) -> Optional[str]:
        present = {finding.severity for finding in self.findings}
        for severity in reversed(SEVERITIES):
            if severity in present:
                return severity
        return None

    def fails(self, threshold: str) -> bool:
        """Whether the report trips a ``--fail-on`` gate."""
        worst = self.worst()
        if worst is None:
            return False
        return SEVERITIES.index(worst) >= SEVERITIES.index(threshold)

    def to_dict(self) -> Dict[str, object]:
        return {"design": self.design,
                "counts": self.counts(),
                "findings": [finding.to_dict()
                             for finding in self.findings]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        lines = [f"lint {self.design}: " + ", ".join(
            f"{count} {severity}" for severity, count
            in sorted(self.counts().items()) if count)]
        if not self.findings:
            lines[0] = f"lint {self.design}: clean"
        for finding in sorted(
                self.findings,
                key=lambda f: -SEVERITIES.index(f.severity)):
            lines.append(f"  [{finding.severity:<7}] "
                         f"{finding.check}: {finding.message}")
        return "\n".join(lines)


def _net_names(design: Design, nets: Sequence[int]) -> str:
    """Human-readable labels for nets, via the design's name map."""
    of_net: Dict[int, str] = {}
    for name, name_nets in design.names.items():
        for position, net in enumerate(name_nets):
            of_net.setdefault(
                net, f"{name}[{position}]" if len(name_nets) > 1 else name)
    labels = [of_net.get(net, f"n{net}") for net in sorted(nets)]
    if len(labels) > 6:
        labels = labels[:6] + [f"... +{len(labels) - 6}"]
    return ", ".join(labels)


def lint_design(design: Design, name: str = "") -> LintReport:
    """Run every structural check over one design (either IR level)."""
    report = LintReport(design=name or design.name)

    try:
        design.check()
    except ReproError as error:
        report.findings.append(Finding(
            "invariants", "error", str(error)))
        return report  # the graph below assumes a well-formed design

    graph = StructuralGraph.from_design(design)
    for loop in graph.combinational_loops():
        report.findings.append(Finding(
            "comb-loop", "error",
            f"combinational loop through {_net_names(design, loop)}",
            nets=list(loop)))
    if graph.combinational_loops():
        return report  # downstream analyses assume a DAG

    for net in graph.floating_inputs():
        report.findings.append(Finding(
            "floating-input", "warning",
            f"primary input {_net_names(design, [net])} drives nothing",
            nets=[net]))
    dead = [graph.cells[index][0] for index in graph.dead_cells()]
    if dead:
        report.findings.append(Finding(
            "dead-logic", "warning",
            f"{len(dead)} cell(s) feed no output, flip-flop or memory: "
            f"{_net_names(design, dead)}", nets=dead))
    for net in graph.unregistered_outputs():
        report.findings.append(Finding(
            "unregistered-output", "info",
            f"output {_net_names(design, [net])} has a combinational "
            "path from a primary input (no register isolates the pin)",
            nets=[net]))

    if isinstance(design, MappedNetlist):
        analysis = ObservabilityAnalysis(design)
        dead_entries = 0
        sites: List[int] = []
        for index in range(len(design.luts)):
            lines = analysis.dead_entry_lines(index)
            if lines:
                dead_entries += len(lines)
                sites.append(design.luts[index].out)
        if dead_entries:
            report.findings.append(Finding(
                "dead-lut-entry", "info",
                f"{dead_entries} truth-table entr(ies) unreachable under "
                f"constant or tied inputs across {len(sites)} LUT(s): "
                f"{_net_names(design, sites)}", nets=sites))
    return report


# ----------------------------------------------------------------------
# bundled designs registry (lazy imports keep `repro lint` cheap)
# ----------------------------------------------------------------------
def _mc8051_netlist() -> Netlist:
    from ..mc8051 import build_mc8051, quick_bubblesort
    return build_mc8051(quick_bubblesort().rom).netlist


def bundled_designs() -> Dict[str, Callable[[], Netlist]]:
    """Every design shipped with the reproduction, by lint name."""
    from .. import designs

    return {
        "counter": designs.counter,
        "gray": designs.gray_counter,
        "lfsr": designs.lfsr,
        "majority": designs.majority_voter,
        "shift": designs.shift_register,
        "tmr": designs.tmr_counter,
        "fir": designs.fir_filter,
        "uart": designs.uart_tx,
        "mc8051": _mc8051_netlist,
    }


def lint_bundled(names: Optional[Sequence[str]] = None,
                 mapped: bool = True) -> List[LintReport]:
    """Lint bundled designs by name (all of them when *names* is None).

    With ``mapped`` set, each design is also synthesised and the mapped
    netlist linted separately — the truth-table checks only exist at
    that level.
    """
    registry = bundled_designs()
    selected = list(names) if names else sorted(registry)
    reports: List[LintReport] = []
    for name in selected:
        try:
            builder = registry[name]
        except KeyError:
            raise ReproError(
                f"unknown design {name!r}; bundled: "
                f"{', '.join(sorted(registry))}") from None
        netlist = builder()
        reports.append(lint_design(netlist, name))
        if mapped:
            from ..synth import synthesize
            result = synthesize(netlist)
            reports.append(lint_design(result.mapped, f"{name}:mapped"))
    return reports
