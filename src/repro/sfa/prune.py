"""Campaign pruning: resolve faults statically instead of emulating them.

:class:`StaticFaultAnalysis` combines every analysis in the package
into one planner.  Given a faultload it produces a :class:`PrunePlan`
naming (a) the faults whose outcome is *provably Silent* — they are
journalled directly, with a ``pruned`` marker, and never touch the
device — and (b) the equivalence classes whose members inherit their
representative's outcome (``collapsed`` marker).

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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # type-only: sfa has no runtime fpga dependency
    from ..fpga.timing import TimingAnalysis

from ..core.faults import Fault, FaultModel, TargetKind
from ..core.injector import delay_mechanism
from ..obs.logsetup import get_logger
from ..obs.metrics import counter
from ..synth.mapped import MappedNetlist
from .collapse import FaultClass, collapse_faultload
from .graph import StructuralGraph
from .observe import ObservabilityAnalysis

log = get_logger("repro.sfa.prune")

_PRUNED = counter("faults_pruned_total",
                  "Faults statically resolved as Silent, by rule")
_CLASSES = counter("fault_classes_total",
                   "Fault equivalence classes in planned campaigns")

#: Margin below which timing slack is not trusted to absorb a delay.
SLACK_EPSILON = 1e-9


@dataclass
class PrunePlan:
    """The planner's verdict over one faultload."""

    cycles: int
    #: Faultload index -> rule that proved the fault Silent.
    pruned: Dict[int, str] = field(default_factory=dict)
    #: Equivalence classes over the *whole* faultload (singletons too).
    classes: List[FaultClass] = field(default_factory=list)

    @property
    def collapsed(self) -> Dict[int, int]:
        """Member index -> representative index, for members of
        un-pruned multi-fault classes (the ones needing attribution)."""
        attribution: Dict[int, int] = {}
        for cls in self.classes:
            if cls.representative in self.pruned:
                continue
            for member in cls.collapsed:
                attribution[member] = cls.representative
        return attribution

    def survivors(self) -> List[int]:
        """Indices the campaign must actually emulate, in order."""
        skip = set(self.pruned)
        skip.update(self.collapsed)
        total = sum(len(cls.members) for cls in self.classes)
        return [index for index in range(total) if index not in skip]

    def stats(self) -> Dict[str, int]:
        rules: Dict[str, int] = {}
        for rule in self.pruned.values():
            rules[rule] = rules.get(rule, 0) + 1
        return {
            "faults": sum(len(cls.members) for cls in self.classes),
            "pruned": len(self.pruned),
            "collapsed": len(self.collapsed),
            "classes": len(self.classes),
            **{f"rule:{name}": count for name, count in sorted(rules.items())},
        }


class StaticFaultAnalysis:
    """All static analyses over one design + workload, lazily built."""

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
        self._analysis: Optional[ObservabilityAnalysis] = None

    # -- lazy layers ---------------------------------------------------
    @property
    def graph(self) -> StructuralGraph:
        if self._graph is None:
            self._graph = StructuralGraph.from_design(self.mapped)
        return self._graph

    @property
    def analysis(self) -> ObservabilityAnalysis:
        if self._analysis is None:
            self._analysis = ObservabilityAnalysis(
                self.mapped, assume_inputs=self.inputs)
        return self._analysis

    # -- planning ------------------------------------------------------
    def plan(self, faults: Sequence[Fault]) -> PrunePlan:
        """Classify every fault as pruned, collapsed or to-emulate.

        A pruned verdict on a class representative extends to every
        member — they are behaviourally identical by construction.
        Combinational loops disable the simulating rules (the reference
        simulator's settled values are undefined there), leaving
        ``window0-noop`` and collapsing by literal identity.
        """
        trusted = self.trusted and not self.graph.combinational_loops()
        classes = collapse_faultload(
            faults, self.cycles, self.analysis if trusted else None)
        plan = PrunePlan(cycles=self.cycles, classes=classes)
        judged: List[FaultClass] = []
        for cls in classes:
            fault = faults[cls.representative]
            rule = self._prune_rule(fault, trusted)
            if rule is not None:
                for member in cls.members:
                    plan.pruned[member] = rule
            elif trusted and self._lane_judged(fault):
                judged.append(cls)
        for cls in self._workload_silent(faults, judged):
            for member in cls.members:
                plan.pruned[member] = "workload-silent"
        for name, count in plan.stats().items():
            if name.startswith("rule:"):
                _PRUNED.inc(count, rule=name[len("rule:"):])
        _CLASSES.inc(len(classes))
        return plan

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
                         classes: Sequence[FaultClass]
                         ) -> List[FaultClass]:
        """The classes whose representative leaves neither an output
        divergence nor a final-state difference on the lane engine
        (golden in lane 0, one fault per lane)."""
        if not classes:
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
        silent: List[FaultClass] = []
        width = emu.lane_width() - 1
        for begin in range(0, len(classes), width):
            batch = classes[begin:begin + width]
            schedule = emu.BatchSchedule()
            for lane, cls in enumerate(batch, start=1):
                schedule_fault(schedule, faults[cls.representative], lane,
                               self.cycles, self.mapped)
            result = emu.run_lanes(design, len(batch) + 1, self.cycles,
                                   inputs=self.inputs, schedule=schedule)
            seen = result.fail_mask | result.latent_mask
            silent.extend(cls for lane, cls in enumerate(batch, start=1)
                          if not (seen >> lane) & 1)
        return silent
