"""Campaign orchestration: the experiment loop of the paper's figure 1.

Each experiment follows the figure exactly::

    reset system to initial state
    workload execution            (until the fault injection time)
    FPGA reconfiguration          (fault injection purposes)
    workload execution            (until the fault duration expires)
    FPGA reconfiguration          (fault removal purposes)
    workload execution            (until the experiment end time)
    observation -> analysis of results

The observation process records the primary outputs every cycle plus the
final architectural state; classification against the golden run follows
:mod:`repro.core.classify`.

:class:`Experiment` owns that timeline's reconfiguration protocol once for
both executors: :meth:`FadesCampaign.run_experiment` steps the reference
device between its steps, :mod:`repro.emu.backend` turns its window into
lane operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import SimulationError
from ..fpga.board import Board
from ..fpga.device import Device
from ..fpga.implement import Implementation
from ..fpga.jbits import JBits
from ..hdl.trace import Trace
from ..obs import metrics as obs_metrics
from ..obs.tracing import span
from ..synth.locmap import LocationMap
from .classify import Outcome, OutcomeCounts, classify
from .config import FaultLoadSpec, generate_faultload, pool_size
from .faults import Fault
from .injector import FadesInjector
from .timing_model import EmulationTimeModel, ExperimentCost, FadesTimingParams

_RECONFIG_SECONDS = obs_metrics.histogram(
    "reconfig_seconds",
    "Emulated reconfiguration seconds per experiment by Table 1 mechanism.",
    buckets=(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0))
_EXPERIMENTS = obs_metrics.counter(
    "experiments_total", "Completed experiments by outcome.")


#: Simulator backends a campaign runs on: ``reference`` steps the
#: :class:`~repro.fpga.device.Device` model, ``compiled`` packs
#: experiments into the bit-lanes of the :mod:`repro.emu` engine.
BACKENDS = ("reference", "compiled")


def check_backend(backend: str) -> str:
    """Validate a backend name; returns it for chaining."""
    if backend not in BACKENDS:
        raise SimulationError(
            f"unknown simulator backend {backend!r} "
            f"(expected one of {', '.join(BACKENDS)})")
    return backend


@dataclass
class ExperimentResult:
    """One fault-injection experiment's record."""

    fault: Fault
    outcome: Outcome
    cost: ExperimentCost
    first_divergence: Optional[int] = None
    #: Statically proven Silent by :mod:`repro.sfa`; never emulated.
    pruned: bool = False
    #: Faultload index of the equivalence-class representative whose
    #: emulation produced this outcome (fault collapsing), if any.
    collapsed_from: Optional[int] = None
    #: Excised by the runtime after exhausting retries and bisection
    #: (:class:`Outcome.QUARANTINED`); ``error`` carries the failure
    #: fingerprint that condemned it.
    quarantined: bool = False
    error: Optional[str] = None


@dataclass
class CampaignResult:
    """All experiments of one campaign (one experiment class)."""

    spec_label: str
    golden: Trace
    experiments: List[ExperimentResult] = field(default_factory=list)
    mean_emulation_s: float = 0.0
    total_emulation_s: float = 0.0
    #: Stopping decision of an adaptive campaign (reason, achieved n,
    #: Wilson intervals — see :mod:`repro.faultload.sequential`); None
    #: for fixed-budget campaigns.
    stop: Optional[Dict] = None
    #: Per-stratum rate table of an adaptive campaign
    #: (:func:`repro.faultload.strata.summarize_strata`); None when the
    #: statistical planner was not engaged.
    strata: Optional[List[Dict]] = None

    def counts(self) -> OutcomeCounts:
        """Failure/Latent/Silent tally."""
        counts = OutcomeCounts()
        for experiment in self.experiments:
            counts.add(experiment.outcome)
        return counts

    def failure_percent(self) -> float:
        """Percentage of failures (the paper's headline metric)."""
        return self.counts().percent(Outcome.FAILURE)

    def pruned_count(self) -> int:
        """Experiments resolved statically instead of being emulated."""
        return sum(1 for experiment in self.experiments
                   if experiment.pruned)

    def collapsed_count(self) -> int:
        """Experiments attributed from an equivalence representative."""
        return sum(1 for experiment in self.experiments
                   if experiment.collapsed_from is not None)

    def emulated_count(self) -> int:
        """Experiments that actually ran on the device."""
        return (len(self.experiments) - self.pruned_count()
                - self.collapsed_count())


def derive_fault_seed(seed: int, index: int) -> int:
    """Injector seed of experiment *index*: a pure function of the campaign
    seed and the fault index, so an experiment's draws cannot depend on
    which process runs it or on which experiments ran before it."""
    mixed = (seed & 0x7FFFFFFF) * 0x9E3779B1 + (index + 1) * 0x85EBCA6B
    return (mixed ^ 0xFADE5) & 0x7FFFFFFF


class Experiment:
    """The reconfiguration protocol of one figure-1 experiment.

    Construction seeds the injector from :func:`derive_fault_seed`, takes
    the board-log marker the costs are measured from and prepares the
    injection;
    :meth:`inject`, :meth:`tick` and :meth:`remove` are the traced
    reconfiguration steps; :meth:`finish` reads back, restores the golden
    configuration and closes the emulated cost.  An executor supplies
    only the workload between the steps: the injection cycle
    :attr:`start`, then every cycle of the activation window
    :attr:`active` (each preceded by :meth:`tick`), then the rest.
    """

    def __init__(self, campaign: FadesCampaign, fault: Fault,
                 cycles: int, pool: int, index: int):
        self.campaign = campaign
        self.fault = fault
        self.cycles = cycles
        self.pool = pool
        campaign.injector.rng.seed(derive_fault_seed(campaign.seed, index))
        self._marker = campaign.time_model.begin_experiment()
        campaign.board.set_label(fault.model.value)
        self.injection = campaign.injector.prepare(fault)
        self.mechanism = self.injection.mechanism_label or fault.model.value
        self.start = fault.injection_cycle(cycles)
        self.window = fault.activation_window
        #: Cycles whose capture edge the fault is live at, clipped to the
        #: run (a window past the end is removed after the last cycle).
        self.active = range(self.start,
                            min(self.start + self.window, cycles))
        self._live = False

    def inject(self) -> None:
        """Reconfigure to activate the fault; a transient that covers no
        capture edge is removed again at once."""
        with span("reconfigure", mechanism=self.mechanism, op="inject"):
            self.injection.inject()
        self._live = True
        if self.window == 0:
            self.remove()

    def tick(self, cycle: int) -> None:
        """Injection hook before the capture edge of active *cycle*."""
        self.injection.tick(cycle - self.start)

    def remove(self) -> None:
        """Reconfigure to deactivate a live transient fault.  Idempotent;
        models whose effect persists (bit-flips, permanent faults) are
        never removed."""
        if not self._live or not self.fault.model.transient:
            return
        with span("reconfigure", mechanism=self.mechanism, op="remove"):
            self.injection.remove()
        self._live = False

    def finish(self, trace: Optional[Trace] = None) -> ExperimentCost:
        """Read back (the final state into *trace*, if given), restore the
        golden configuration and record the experiment's emulated cost."""
        campaign = self.campaign
        # Emulated board seconds this experiment spent on the link: every
        # injection/removal transaction since the marker (the host-side
        # golden restore below bypasses the board, so it never counts).
        _RECONFIG_SECONDS.observe(campaign.board.since(self._marker)[1],
                                  mechanism=self.mechanism)
        with span("readback", mechanism=self.mechanism):
            if trace is not None:
                trace.final_state = campaign.device.state_snapshot()
                trace.cycles = self.cycles
            # Restore the golden image for persistent faults (bit-flips
            # and permanent models leave frames modified) *before* any
            # golden run can execute on this device.
            campaign._restore_configuration()
        return campaign.time_model.end_experiment(self._marker, self.cycles,
                                                  self.pool)


class FadesCampaign:
    """Run fault-emulation campaigns on one implemented design."""

    def __init__(self, impl: Implementation, locmap: LocationMap,
                 board: Optional[Board] = None, seed: int = 0,
                 timing_params: FadesTimingParams = FadesTimingParams(),
                 full_download_delays: bool = True,
                 inputs: Optional[Dict[str, int]] = None,
                 checkpoint_interval: int = 0,
                 backend: str = "reference",
                 prune_silent: bool = False):
        self.impl = impl
        self.locmap = locmap
        self.inputs = dict(inputs or {})
        #: Static fault analysis (:mod:`repro.sfa`): resolve provably
        #: Silent faults without emulating them and collapse
        #: behaviourally identical faults onto one representative.
        self.prune_silent = prune_silent
        self._static: Dict[tuple, object] = {}
        #: Simulator backend: ``reference`` runs each experiment through
        #: the device simulator; ``compiled`` packs experiments into the
        #: bit-lanes of the :mod:`repro.emu` engine (golden in lane 0).
        self.backend = check_backend(backend)
        #: Fast-forward optimisation: with a positive interval, the golden
        #: run stores device snapshots every N cycles and experiments
        #: restore the nearest one at or before the injection instant
        #: instead of re-executing the fault-free prefix.  Purely a host
        #: optimisation — emulated time is unaffected (the real board
        #: would execute the prefix at full FPGA speed anyway).
        self.checkpoint_interval = checkpoint_interval
        self._checkpoints: Dict[tuple, Dict[int, object]] = {}
        self.device = Device(impl)
        locmap.attach_placement(impl.placement)
        self.board = board if board is not None else Board()
        self.jbits = JBits(self.device, self.board)
        #: Campaign seed: with the fault index it seeds every experiment's
        #: injector draws (:func:`derive_fault_seed`).
        self.seed = seed
        self.rng = random.Random(seed)
        self.injector = FadesInjector(
            self.jbits, full_download_delays=full_download_delays)
        self.injector.backend_label = self.backend
        self.time_model = EmulationTimeModel(self.board, timing_params)
        self._golden: Dict[tuple, Trace] = {}
        #: How many golden runs were actually *simulated* (as opposed to
        #: served from the cache) — multi-class reports should see 1.
        self.golden_simulations = 0

    # ------------------------------------------------------------------
    def _golden_key(self, cycles: int) -> tuple:
        """Cache key: the workload identity (the constant primary-input
        assignment), the experiment length and the simulator backend.
        Keying by workload means mutating ``self.inputs`` between
        campaigns can never serve a stale golden trace; keying by backend
        means switching ``--backend`` can never reuse the other backend's
        golden trace."""
        return (tuple(sorted(self.inputs.items())), cycles, self.backend)

    def golden_run(self, cycles: int) -> Trace:
        """Fault-free reference trace (cached per workload and length).

        Every campaign sharing this object — e.g. the experiment classes
        of a multi-class report — simulates the golden run exactly once.
        """
        key = self._golden_key(cycles)
        cached = self._golden.get(key)
        if cached is not None:
            return cached
        device = self.device
        if (self.backend == "compiled"
                and not device._violating and not device._broken_nets):
            from ..emu.backend import compiled_golden
            trace = compiled_golden(self, cycles)
            if trace is not None:
                self.golden_simulations += 1
                self._golden[key] = trace
                return trace
            # Compilation failed: the campaign has been degraded to the
            # reference backend — re-key the cache and simulate below.
            key = self._golden_key(cycles)
        device.reset_system()
        trace = Trace(tuple(device.mapped.outputs))
        interval = self.checkpoint_interval
        checkpoints: Dict[int, object] = {}
        for cycle in range(cycles):
            if interval and cycle % interval == 0:
                checkpoints[cycle] = device.save_state()
            trace.record(device.step(self.inputs if cycle == 0 else None))
        trace.final_state = device.state_snapshot()
        trace.cycles = cycles
        self.golden_simulations += 1
        self._golden[key] = trace
        if interval:
            self._checkpoints[key] = checkpoints
        return trace

    # ------------------------------------------------------------------
    def run_experiment(self, fault: Fault, cycles: int, pool: int = 0,
                       index: int = 0) -> ExperimentResult:
        """One experiment of figure 1; device ends restored to golden.

        ``index`` is the fault's campaign index: it seeds the injector's
        draws (:func:`derive_fault_seed`) and keys the trace spans to the
        journal record the experiment produces.
        """
        with span("experiment", index=index, model=fault.model.value,
                  target=fault.target.kind.value, backend="reference"):
            return self._run_experiment(
                Experiment(self, fault, cycles, pool, index))

    def _run_experiment(self, experiment: Experiment) -> ExperimentResult:
        device = self.device
        cycles, start = experiment.cycles, experiment.start
        trace = Trace(tuple(device.mapped.outputs))

        # Fast-forward over the fault-free prefix when a golden checkpoint
        # at or before the injection instant is available.
        first_cycle = 0
        checkpoints = self._checkpoints.get(self._golden_key(cycles), {})
        golden_cached = self._golden.get(self._golden_key(cycles))
        usable = [c for c in checkpoints if c <= start]
        if usable and golden_cached is not None and start > 0:
            first_cycle = max(usable)
            device.load_state(checkpoints[first_cycle])
            trace.samples = list(golden_cached.samples[:first_cycle])
        else:
            device.reset_system()

        def step(cycle: int) -> None:
            trace.record(device.step(self.inputs if cycle == 0 else None))

        with span("run", cycles=cycles, first_cycle=first_cycle,
                  backend="reference"):
            for cycle in range(first_cycle, start):
                step(cycle)
            experiment.inject()
            for cycle in experiment.active:
                experiment.tick(cycle)
                step(cycle)
            experiment.remove()
            for cycle in range(experiment.active.stop, cycles):
                step(cycle)
        cost = experiment.finish(trace)

        golden = self.golden_run(cycles)
        with span("classify", backend="reference"):
            outcome = classify(golden, trace)
            first_divergence = trace.first_divergence(golden)
        _EXPERIMENTS.inc(outcome=outcome.value)
        return ExperimentResult(
            fault=experiment.fault, outcome=outcome, cost=cost,
            first_divergence=first_divergence)

    def _restore_configuration(self) -> None:
        """Rewrite from the golden image every frame written since the
        last restore that differs from it: O(frames touched), since no
        other frame can differ."""
        golden = self.impl.golden_bitstream
        device = self.device
        frames = device.config.frames
        for addr in list(device.dirty_frames):
            if frames[addr] != golden.frames[addr]:
                # Host-side cleanup between experiments; not part of the
                # emulated per-fault cost (the paper reloads state, not
                # the full file, between experiments).
                device.write_frame(addr, golden.get_frame(addr))
        device.dirty_frames.clear()

    def recover(self) -> None:
        """Return to the golden system after an experiment raised part
        way: the golden routing database and frames, with every routing
        column and the timing re-decoded against them.  A completed
        experiment undoes its own routing changes, so only the failure
        path pays for this."""
        self.impl.routing.reset()
        self._restore_configuration()
        self.device.redecode_routing()

    # ------------------------------------------------------------------
    def run(self, spec: FaultLoadSpec, seed: Optional[int] = None
            ) -> CampaignResult:
        """Generate and run a whole faultload; returns the aggregate."""
        faults = generate_faultload(
            spec, self.locmap, seed=self.rng.randrange(2**31)
            if seed is None else seed,
            routed_nets=self.impl.routing.is_routed)
        return self.run_faults(faults, spec.workload_cycles,
                               label=spec.label(),
                               pool=pool_size(spec, self.locmap))

    def run_batch(self, faults: Sequence[Fault], cycles: int, pool: int = 0,
                  indices: Optional[Sequence[int]] = None
                  ) -> List[ExperimentResult]:
        """Run a fault list through the selected backend, in fault order.

        ``indices`` carries each fault's campaign index (default: its
        position), which seeds that experiment's injector draws — so a
        fault's result never depends on the batch it runs in.  The
        reference backend runs one experiment per fault; the compiled
        backend packs supported faults into bit-lane batches.
        """
        if indices is None:
            indices = range(len(faults))
        if self.backend == "compiled":
            from ..emu import run_lane_batch
            return run_lane_batch(self, faults, cycles, pool=pool,
                                  indices=indices)
        return [self.run_experiment(fault, cycles, pool=pool, index=index)
                for fault, index in zip(faults, indices)]

    def static_plan(self, faults: Sequence[Fault], cycles: int):
        """Static-analysis verdict over a faultload (:mod:`repro.sfa`).

        The analyses (structural graph, observability cones, workload
        profile) are cached per workload-and-length, like the golden
        trace; only the per-faultload planning repeats.  Imported
        lazily — :mod:`repro.sfa` depends on this package.
        """
        from ..sfa.prune import StaticFaultAnalysis
        key = (tuple(sorted(self.inputs.items())), cycles)
        sfa = self._static.get(key)
        if sfa is None:
            device = self.device
            sfa = StaticFaultAnalysis(
                self.locmap.mapped, cycles, inputs=self.inputs,
                timing=self.impl.timing,
                trusted=(not device._violating
                         and not device._broken_nets))
            self._static[key] = sfa
        return sfa.plan(faults)

    def _run_pruned(self, faults: Sequence[Fault], cycles: int,
                    pool: int) -> List[ExperimentResult]:
        """Emulate only what static analysis cannot resolve.

        Provably Silent faults are journalled directly (``pruned``);
        equivalence-class members inherit their representative's
        outcome (``collapsed_from``).  Survivors keep their faultload
        indices, so their injector draws are those of an unpruned run.
        """
        plan = self.static_plan(faults, cycles)
        survivors = plan.survivors()
        emulated = self.run_batch(
            [faults[index] for index in survivors], cycles, pool=pool,
            indices=survivors)
        by_index = dict(zip(survivors, emulated))
        collapsed = plan.collapsed
        results: List[ExperimentResult] = []
        for index, fault in enumerate(faults):
            if index in plan.pruned:
                results.append(ExperimentResult(
                    fault=fault, outcome=Outcome.SILENT,
                    cost=ExperimentCost(), pruned=True))
                continue
            representative = collapsed.get(index)
            if representative is not None:
                rep = by_index[representative]
                results.append(ExperimentResult(
                    fault=fault, outcome=rep.outcome,
                    cost=ExperimentCost(),
                    first_divergence=rep.first_divergence,
                    collapsed_from=representative))
                continue
            results.append(by_index[index])
        return results

    def run_faults(self, faults: Sequence[Fault], cycles: int,
                   label: str = "", pool: int = 0) -> CampaignResult:
        """Run a pre-generated fault list.

        With :attr:`prune_silent` the list first passes through
        :meth:`static_plan`; mean emulation time is computed over the
        experiments that actually ran (pruned and collapsed records
        carry zero cost — the board never saw them).
        """
        golden = self.golden_run(cycles)
        result = CampaignResult(spec_label=label, golden=golden)
        start_index = len(self.time_model.costs)
        if self.prune_silent:
            result.experiments = self._run_pruned(faults, cycles, pool)
        else:
            result.experiments = self.run_batch(faults, cycles, pool=pool)
        costs = self.time_model.costs[start_index:]
        result.total_emulation_s = sum(cost.total_s for cost in costs)
        if costs:
            result.mean_emulation_s = result.total_emulation_s / len(costs)
        return result

    # ------------------------------------------------------------------
    def screen_sensitive_ffs(self, cycles: int, samples_per_ff: int = 2,
                             seed: Optional[int] = None) -> List[int]:
        """Pre-screening experiment of section 6.3: find the flip-flops
        "susceptible of causing a failure when executing the selected
        workload" — the paper found 81 of 637 eligible.

        ``seed`` randomises the per-FF injection instants; ``None`` keeps
        the historical default (7) for backward compatibility.
        """
        rng = random.Random(7 if seed is None else seed)
        sensitive: List[int] = []
        from .faults import FaultModel, Target, TargetKind
        for ff_index in range(len(self.locmap.mapped.ffs)):
            for _ in range(samples_per_ff):
                fault = Fault(
                    model=FaultModel.BITFLIP,
                    target=Target(TargetKind.FF, ff_index),
                    start_cycle=rng.randrange(cycles),
                )
                outcome = self.run_experiment(fault, cycles).outcome
                if outcome is Outcome.FAILURE:
                    sensitive.append(ff_index)
                    break
        return sensitive
