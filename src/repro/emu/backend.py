"""Campaign adapter: the lane executor of the figure-1 experiment.

Every fault runs the same :class:`~repro.core.campaign.Experiment`
protocol as on the reference backend — the real
:class:`~repro.core.injector.Injection` is prepared, injected, ticked and
removed against the reference device, with the experiment's index seeding
its injector draws — so board transactions (and therefore the emulated
Table 2 costs), injector RNG consumption and delay-fault timing analysis
are bit-identical to the reference path.  What the adapter *skips* is the
per-experiment workload execution: it turns the experiment's activation
window into lane-masked operations on a
:class:`~repro.emu.lanes.BatchSchedule` (:func:`schedule_fault`, which
the SFA's ``workload-silent`` prune rule shares), and one lane-engine pass
evaluates up to ``lane_width() - 1`` experiments against the golden run
in lane 0.  That lane 0 is also the campaign's golden trace: the first
pass fills the golden cache, so a compiled campaign simulates its
golden workload once.

Faults whose effect cannot be expressed as lane operations
(configuration-memory upsets, permanent models) run the reference
experiment in place, in fault order.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence

from ..core.campaign import _EXPERIMENTS, Experiment, ExperimentResult
from ..core.classify import Outcome
from ..core.faults import Fault, FaultModel, TargetKind
from ..core.injector import invert_lut_line, stuck_lut_line
from ..hdl.trace import Trace
from ..obs import metrics as obs_metrics
from ..obs.logsetup import get_logger
from ..obs.tracing import span
from ..synth.mapped import MappedNetlist
from .compiler import compile_design
from .lanes import BatchSchedule, LaneResult, run_lanes

log = get_logger("repro.emu.backend")

_LANE_FAULTS = obs_metrics.counter(
    "emu_lane_faults_total",
    "Faults evaluated by the compiled backend, by execution mode.")
_FALLBACKS = obs_metrics.counter(
    "emu_backend_fallbacks_total",
    "Campaigns degraded from the compiled to the reference backend, "
    "by cause.")

#: Default lane count.  Lane 0 is the golden run, so a batch carries
#: ``lane_width() - 1`` fault experiments.  A pass's planes are only as
#: wide as its *live* faults (:mod:`repro.emu.lanes`: a fault holds a
#: slot from its first operation until it fails or re-converges), so a
#: wide default only makes batches fuller: fewer passes, each paying its
#: per-cycle overhead once.  Lane time per fault falls up to this width
#: and no further (4,095 FF flips over the 569-cycle sort on a 2-vCPU
#: host: 0.36 ms at 256 lanes, 0.14 ms at 1,024, 0.063 ms at 4,096 and
#: 0.064 ms at 8,192), and a paper-scale 3,000-fault experiment runs in
#: one pass.
DEFAULT_LANES = 4096


def lane_width() -> int:
    """Lanes per batch; override with ``REPRO_EMU_LANES`` (minimum 2)."""
    try:
        width = int(os.environ.get("REPRO_EMU_LANES", DEFAULT_LANES))
    except ValueError:
        width = DEFAULT_LANES
    return max(2, width)


def supports_fault(fault: Fault) -> bool:
    """Whether the lane engine can express this fault's effect.

    Everything in the paper's Table 1 is supported.  Configuration-memory
    upsets and the permanent extension models mutate logic or routing in
    ways the compiled design does not model, so they take the reference
    path.
    """
    model = fault.model
    kind = fault.target.kind
    if model is FaultModel.BITFLIP:
        kinds = {target.kind for target in fault.all_targets}
        return kinds in ({TargetKind.FF}, {TargetKind.MEMORY_BIT})
    if model is FaultModel.PULSE:
        return kind in (TargetKind.LUT, TargetKind.CB_INPUT)
    if model is FaultModel.DELAY:
        return kind is TargetKind.NET
    if model is FaultModel.INDETERMINATION:
        return kind in (TargetKind.FF, TargetKind.LUT)
    return False


def compile_or_fallback(campaign):
    """Compile the campaign's design, degrading gracefully on failure.

    Returns the compiled design, or ``None`` after switching the
    campaign to the reference backend — a compiler defect must cost a
    campaign its speed-up, never its results.  The ``compile_fail``
    chaos point fires inside the guarded region so the degradation path
    stays testable without a real compiler bug.
    """
    from .. import chaos
    try:
        chaos.check_raise("compile_fail")
        return compile_design(campaign.impl.mapped)
    except Exception as error:
        log.warning(
            "compiled backend unavailable (%s: %s); "
            "falling back to the reference backend",
            type(error).__name__, error)
        _FALLBACKS.inc(cause=type(error).__name__)
        campaign.backend = "reference"
        return None


def compiled_golden(campaign, cycles: int) -> Optional[Trace]:
    """Golden run through the lane engine (single lane, no faults).

    Only a compiled campaign that runs no lane batch needs this pass:
    every other one takes its golden trace from lane 0 of its first
    batch (:func:`run_lane_batch`).  Returns ``None`` when compilation
    fails; the campaign is then already degraded to the reference
    backend and the caller falls through to the reference simulation
    loop.
    """
    design = compile_or_fallback(campaign)
    if design is None:
        return None
    with span("run", cycles=cycles, lanes=1, backend="compiled"):
        lane_result = run_lanes(design, 1, cycles, inputs=campaign.inputs)
    return _lane0_trace(campaign, lane_result, cycles)


def _lane0_trace(campaign, lane_result: LaneResult, cycles: int) -> Trace:
    """Lane 0 of a pass, the golden run, as a :class:`Trace`."""
    trace = Trace(tuple(campaign.impl.mapped.outputs))
    for sample in lane_result.samples:
        trace.record(sample)
    trace.final_state = lane_result.final_state
    trace.cycles = cycles
    return trace


def schedule_fault(schedule: BatchSchedule, fault: Fault, lane: int,
                   cycles: int, mapped: MappedNetlist,
                   level: Optional[Callable[[int], int]] = None,
                   violating: Sequence[int] = ()) -> None:
    """Schedule *fault*'s effect on *lane* of a *cycles*-long pass.

    The one translation of a fault into lane operations, shared by the
    compiled backend's replay and the planner's ``workload-silent``
    pass (:mod:`repro.sfa.prune`).  A LUT fault rewrites the golden
    table of *mapped*, which is what the device's golden configuration
    holds.  ``level(cycle)`` is an indetermination's forced level at
    *cycle*, asked once per active cycle in order, or once at the
    injection cycle for a flip-flop force that covers no capture edge;
    without it the fault's own ``value`` is forced throughout.
    ``violating`` lists the flip-flops that miss setup while a delay
    fault is live.
    """
    start = fault.injection_cycle(cycles)
    active = fault.active_cycles(cycles)
    target = fault.target
    model = fault.model

    def forced(cycle: int) -> int:
        if level is not None:
            return level(cycle)
        assert fault.value is not None, "an unvalued fault needs a level"
        return fault.value

    if model is FaultModel.BITFLIP:
        for flipped in fault.all_targets:
            if flipped.kind is TargetKind.FF:
                schedule.xor_ff(start, flipped.index, lane)
            else:
                schedule.flip_mem(start, flipped.index, flipped.addr,
                                  flipped.bit, lane)
    elif model is FaultModel.PULSE:
        if target.kind is TargetKind.LUT:
            if active:
                faulty_tt = invert_lut_line(
                    mapped.luts[target.index].padded_tt(), target.line)
                for cycle in active:
                    schedule.override(cycle, target.index, lane, faulty_tt)
        else:  # CB_INPUT: the capture inverter on the FF's data path
            for cycle in active:
                schedule.invert_capture(cycle, target.index, lane)
    elif model is FaultModel.DELAY:
        for cycle in active:
            for ff in violating:
                schedule.violating_capture(cycle, ff, lane)
    elif target.kind is TargetKind.FF:  # INDETERMINATION
        if not active:
            # Sub-cycle, no capture edge: the asynchronous LSR force
            # lands and is released before the next evaluation.
            schedule.set_ff(start, target.index, lane, forced(start))
        for cycle in active:
            value = forced(cycle)
            schedule.set_ff(cycle, target.index, lane, value)
            schedule.pin_capture(cycle, target.index, lane, value)
    else:  # INDETERMINATION on a LUT
        golden_tt = mapped.luts[target.index].padded_tt()
        for cycle in active:
            schedule.override(cycle, target.index, lane,
                              stuck_lut_line(golden_tt, target.line,
                                             forced(cycle)))


def _replay(campaign, fault: Fault, cycles: int, lane: int,
            schedule: BatchSchedule, pool: int, index: int):
    """Run one fault's :class:`Experiment` protocol; schedule its lane ops.

    The workload stepping of the reference executor is replaced by
    operations on *schedule* for *lane*; returns the experiment's cost.
    """
    experiment = Experiment(campaign, fault, cycles, pool, index)
    experiment.inject()
    injection = experiment.injection

    def level(cycle: int) -> int:
        # The reference executor ticks before every active cycle; an
        # oscillating indetermination re-draws its level there.
        if cycle in experiment.active:
            experiment.tick(cycle)
        return injection.value

    # The injected loads/detour of a delay fault are live now; the
    # device's timing analysis says which flip-flops miss setup.
    schedule_fault(schedule, fault, lane, cycles, campaign.impl.mapped,
                   level=level, violating=sorted(campaign.device._violating))
    experiment.remove()
    return experiment.finish()


def run_lane_batch(campaign, faults: Sequence[Fault], cycles: int,
                   pool: int = 0,
                   indices: Optional[Sequence[int]] = None,
                   progress: Optional[Callable[[], None]] = None
                   ) -> List[ExperimentResult]:
    """Run a fault list through the lane engine; results in fault order.

    ``indices`` carries each fault's campaign index (default: its
    position), which seeds its experiment's injector draws.  Supported
    faults accumulate into lane batches; the others run the reference
    experiment in place.  ``progress`` (if given) is called after each
    fault's replay or reference experiment.  The golden run is not
    simulated on its own: lane 0 of the first pass becomes the
    campaign's golden trace (one ``golden_simulations``), unless one is
    cached already.
    """
    if indices is None:
        indices = range(len(faults))
    results: List[Optional[ExperimentResult]] = [None] * len(faults)
    design = (compile_or_fallback(campaign)
              if campaign.backend == "compiled" else None)
    width = lane_width()
    # Without a compiled design (compilation failed and degraded the
    # campaign), or when the device's *golden* configuration already has
    # timing violations or broken routes — outside the compiled model —
    # every fault takes the reference path, fast-forwarding from the
    # golden run's checkpoints.
    guard = not campaign.on_lanes
    if guard:
        campaign.golden_run(cycles)

    batch: List = []  # (result slot, fault, replay cost)
    schedule = BatchSchedule()

    def flush() -> None:
        nonlocal batch, schedule
        if not batch:
            return
        lanes = len(batch) + 1
        with span("run", cycles=cycles, lanes=lanes, backend="compiled"):
            lane_result = run_lanes(design, lanes, cycles,
                                    inputs=campaign.inputs,
                                    schedule=schedule)
        if campaign.cached_golden(cycles) is None:
            campaign.keep_golden(
                cycles, _lane0_trace(campaign, lane_result, cycles))
        with span("classify", backend="compiled"):
            for slot, (position, fault, cost) in enumerate(batch):
                bit = 1 << (slot + 1)
                if lane_result.fail_mask & bit:
                    outcome = Outcome.FAILURE
                elif lane_result.latent_mask & bit:
                    outcome = Outcome.LATENT
                else:
                    outcome = Outcome.SILENT
                _EXPERIMENTS.inc(outcome=outcome.value)
                results[position] = ExperimentResult(
                    fault=fault, outcome=outcome, cost=cost,
                    first_divergence=lane_result.first_divergence.get(
                        slot + 1))
        batch = []
        schedule = BatchSchedule()

    for position, (fault, index) in enumerate(zip(faults, indices)):
        if guard or not supports_fault(fault):
            _LANE_FAULTS.inc(mode="fallback")
            results[position] = campaign.run_experiment(
                fault, cycles, pool=pool, index=index)
        else:
            _LANE_FAULTS.inc(mode="packed")
            with span("experiment", index=index, model=fault.model.value,
                      target=fault.target.kind.value, backend="compiled"):
                cost = _replay(campaign, fault, cycles, len(batch) + 1,
                               schedule, pool, index)
            batch.append((position, fault, cost))
            if len(batch) >= width - 1:
                flush()
        if progress is not None:
            progress()
    flush()
    return results  # type: ignore[return-value]
