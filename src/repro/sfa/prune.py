"""Campaign pruning: resolve faults statically instead of emulating them.

:class:`StaticFaultAnalysis` is the campaign planner.  Given a
faultload it names the faults whose outcome is *provably Silent*, each
with the rule that proved it; they are journalled directly, with a
``pruned`` marker, and never touch the device.  Every other fault is
emulated.

Every rule errs on the side of emulating.  Two rules simulate nothing:

``window0-noop``
    A sub-cycle transient whose active window covers no clock edge is
    injected and removed with no intervening cycle; for mechanisms that
    only touch configuration (LUT rewrites, CB-input inversion, delay
    routing) the device provably returns to golden before the workload
    advances.  FF indeterminations are *excluded*: asserting the LSR
    line forces the flip-flop's state immediately, which removal does
    not undo.
``delay-slack``
    A fan-out delay whose worst-case extra propagation delay is below
    the timing slack of every combinationally reachable flip-flop
    endpoint: no new setup violation, hence no behavioural change at
    all (the device applies delay violations at FF capture only).

The third is the one Silent verdict for everything else the lane engine
runs exactly as the device does without the device's timing or the
injector's randomiser — single flip-flop and memory bit-flips, LUT and
CB-input pulses, and FF and LUT indeterminations with a drawn level
that do not oscillate:

``workload-silent``
    Each such fault runs on the lane engine (:func:`repro.emu.run_lanes`),
    one lane per fault and up to ``lane_width() - 1`` faults per pass,
    against the golden run in lane 0, its lane operations built by the
    compiled backend's own :func:`repro.emu.backend.schedule_fault`; a
    lane that ends with neither an output divergence nor a final-state
    difference is Silent by the very comparison
    :func:`repro.core.classify.classify` makes.  If the design does not
    compile, the rule is skipped and those faults are emulated.

The planner only runs ``delay-slack`` and ``workload-silent`` when the
golden configuration is ``trusted`` — no timing-violating flip-flops,
no broken nets and no combinational loops, the trust the compiled
backend asks of a campaign on lanes.  Skipping a fault never shifts another experiment's
injector draws: every experiment seeds its own from its faultload index.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # type-only: sfa has no runtime fpga dependency
    from ..fpga.timing import TimingAnalysis

from ..core.faults import Fault, FaultModel, TargetKind
from ..core.injector import delay_mechanism
from ..obs.logsetup import get_logger
from ..obs.metrics import counter
from ..synth.mapped import MappedNetlist
from .graph import StructuralGraph

log = get_logger("repro.sfa.prune")

_PRUNED = counter("faults_pruned_total",
                  "Faults statically resolved as Silent, by rule")

#: Margin below which timing slack is not trusted to absorb a delay.
SLACK_EPSILON = 1e-9


class StaticFaultAnalysis:
    """The planner over one design + workload; its structural graph is
    built on first use."""

    def __init__(self, mapped: MappedNetlist, cycles: int,
                 inputs: Optional[Dict[str, int]] = None,
                 timing: Optional["TimingAnalysis"] = None,
                 trusted: bool = True) -> None:
        self.mapped = mapped
        self.cycles = cycles
        self.inputs = dict(inputs or {})
        self.timing = timing
        self.trusted = trusted
        self._graph: Optional[StructuralGraph] = None

    # -- lazy layers ---------------------------------------------------
    @property
    def graph(self) -> StructuralGraph:
        if self._graph is None:
            self._graph = StructuralGraph.from_design(self.mapped)
        return self._graph

    # -- planning ------------------------------------------------------
    def plan(self, faults: Sequence[Fault]) -> Dict[int, str]:
        """The faults proven Silent: faultload index -> rule.

        Combinational loops disable the simulating rules (the reference
        simulator's settled values are undefined there), leaving
        ``window0-noop``.
        """
        trusted = self.trusted and not self.graph.combinational_loops()
        pruned: Dict[int, str] = {}
        judged: List[int] = []
        for index, fault in enumerate(faults):
            rule = self._prune_rule(fault, trusted)
            if rule is not None:
                pruned[index] = rule
            elif trusted and self._lane_judged(fault):
                judged.append(index)
        for index in self._workload_silent(faults, judged):
            pruned[index] = "workload-silent"
        for rule, count in sorted(Counter(pruned.values()).items()):
            _PRUNED.inc(count, rule=rule)
        return pruned

    # -- rules ---------------------------------------------------------
    def _prune_rule(self, fault: Fault, trusted: bool) -> Optional[str]:
        if fault.extra_targets:
            return None
        model = fault.model
        if fault.activation_window == 0 and (
                model is FaultModel.PULSE
                or model is FaultModel.DELAY
                or (model is FaultModel.INDETERMINATION
                    and fault.target.kind is TargetKind.LUT)):
            return "window0-noop"
        if trusted and model is FaultModel.DELAY:
            return self._delay_below_slack(fault)
        return None

    def _delay_below_slack(self, fault: Fault) -> Optional[str]:
        if self.timing is None:
            return None
        params = self.timing.params
        mechanism, loads = delay_mechanism(fault, params)
        if mechanism != "fanout":
            return None  # reroutes can slow the path arbitrarily
        if self.timing.violating_ffs():
            return None
        extra = loads * params.t_load
        endpoints = self.graph.affected_ffs(fault.target.index)
        if all(self.timing.ff_slack(ff) > extra + SLACK_EPSILON
               for ff in endpoints):
            return "delay-slack"
        return None

    def _lane_judged(self, fault: Fault) -> bool:
        """Whether the lane engine runs *fault* as the device would,
        needing neither the device's timing nor the injector's
        randomiser."""
        model = fault.model
        target = fault.target
        if fault.extra_targets or (
                model is FaultModel.INDETERMINATION
                and (fault.value is None or fault.oscillate)):
            return False
        if target.kind is TargetKind.FF:
            return model in (FaultModel.BITFLIP,
                             FaultModel.INDETERMINATION)
        if target.kind is TargetKind.LUT:
            # A line past the LUT's inputs is the injector's to reject.
            return (model in (FaultModel.PULSE, FaultModel.INDETERMINATION)
                    and target.line < len(self.mapped.luts[target.index].ins))
        if target.kind is TargetKind.CB_INPUT:
            return model is FaultModel.PULSE
        if target.kind is TargetKind.MEMORY_BIT:
            bram = self.mapped.brams[target.index]
            return (model is FaultModel.BITFLIP
                    and 0 <= target.addr < bram.depth
                    and 0 <= target.bit < bram.width)
        return False

    def _workload_silent(self, faults: Sequence[Fault],
                         judged: Sequence[int]) -> List[int]:
        """The *judged* indices whose fault leaves neither an output
        divergence nor a final-state difference on the lane engine
        (golden in lane 0, one fault per lane)."""
        if not judged:
            return []
        # Imported here so ``repro lint`` never loads the lane engine.
        from .. import emu
        from ..emu.backend import schedule_fault
        try:
            design = emu.compile_design(self.mapped)
        except Exception as error:
            log.warning("workload-silent rule skipped: the design does "
                        "not compile (%s: %s)", type(error).__name__,
                        error)
            return []
        silent: List[int] = []
        width = emu.lane_width() - 1
        for begin in range(0, len(judged), width):
            batch = judged[begin:begin + width]
            schedule = emu.BatchSchedule()
            for lane, index in enumerate(batch, start=1):
                schedule_fault(schedule, faults[index], lane, self.cycles,
                               self.mapped)
            result = emu.run_lanes(design, len(batch) + 1, self.cycles,
                                   inputs=self.inputs, schedule=schedule)
            seen = result.fail_mask | result.latent_mask
            silent.extend(index for lane, index in enumerate(batch, start=1)
                          if not (seen >> lane) & 1)
        return silent
