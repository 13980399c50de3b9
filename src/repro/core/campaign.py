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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

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
from .config import FaultLoadSpec, check_cycles
from .faults import Fault
from .injector import FadesInjector
from .timing_model import EmulationTimeModel, ExperimentCost

if TYPE_CHECKING:  # type-only: both are imported on first use
    from ..emu.compiler import CompiledDesign
    from ..faultload import DrawnFaults

_INJECTIONS = obs_metrics.counter(
    "injections_total",
    "Prepared fault injections by model, target and simulator backend.")
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

    def _emulated(self) -> List[ExperimentResult]:
        """Experiments that ran on the device: neither pruned nor
        quarantined.  Only these paid emulated time."""
        return [experiment for experiment in self.experiments
                if not experiment.pruned and not experiment.quarantined]

    def emulated_count(self) -> int:
        """Experiments that actually ran on the device."""
        return len(self._emulated())

    @property
    def total_emulation_s(self) -> float:
        """Emulated seconds of the experiments that ran, summed left to
        right in fault-index order."""
        return sum((experiment.cost.total_s
                    for experiment in self._emulated()), 0.0)

    @property
    def mean_emulation_s(self) -> float:
        """Mean emulated seconds per experiment that ran."""
        count = self.emulated_count()
        return self.total_emulation_s / count if count else 0.0


def derive_fault_seed(seed: int, index: int) -> int:
    """Injector seed of experiment *index*: a pure function of the campaign
    seed and the fault index, so an experiment's draws cannot depend on
    which process runs it or on which experiments ran before it."""
    mixed = (seed & 0x7FFFFFFF) * 0x9E3779B1 + (index + 1) * 0x85EBCA6B
    return (mixed ^ 0xFADE5) & 0x7FFFFFFF


class Experiment:
    """The reconfiguration protocol of one figure-1 experiment.

    Construction seeds the injector from :func:`derive_fault_seed`, takes
    the board marker the costs are measured from and prepares the
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
        _INJECTIONS.inc(model=fault.model.value,
                        target=fault.target.kind.value,
                        sim_backend=campaign.backend)
        self.injection = campaign.injector.prepare(fault)
        self.mechanism = self.injection.mechanism_label or fault.model.value
        self.start = fault.injection_cycle(cycles)
        self.window = fault.activation_window
        self.active = fault.active_cycles(cycles)
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
        golden configuration and return the experiment's emulated cost."""
        campaign = self.campaign
        # Every injection/removal transaction since the marker; the
        # host-side golden restore below bypasses the board, so it never
        # counts.
        cost = campaign.time_model.end_experiment(self._marker, self.cycles,
                                                  self.pool)
        _RECONFIG_SECONDS.observe(cost.transfer_s, mechanism=self.mechanism)
        with span("readback", mechanism=self.mechanism):
            if trace is not None:
                trace.final_state = campaign.device.state_snapshot()
                trace.cycles = self.cycles
            # Restore the golden image for persistent faults (bit-flips
            # and permanent models leave frames modified) *before* any
            # golden run can execute on this device.
            campaign._restore_configuration()
        return cost


class Campaign:
    """One tool's fault-injection campaigns on one design: what the
    runtime (:func:`repro.runtime.run_campaign`) drives.

    A campaign draws a faultload (:meth:`fault_stream`), runs a fault
    list in fault order (:meth:`run_batch`), serves the fault-free
    reference run (:meth:`golden_run`), returns to the golden system
    after an experiment raised (:meth:`recover`) and says whether its
    experiments run on the lane engine (:attr:`on_lanes`);
    :attr:`backend` labels the runtime's phases.  A job spec that prunes
    also asks for a :meth:`static_plan`.  :class:`FadesCampaign` and
    :class:`repro.vfit.VfitCampaign` are the two tools.
    """

    #: The default faultload seed of :meth:`run`.
    seed: int
    #: Label of the runtime's phases (``sim_backend``).
    backend: str
    #: Prefix of :meth:`run`'s result label.
    label_prefix = ""

    @property
    def on_lanes(self) -> bool:
        return False

    def fault_stream(self, spec: FaultLoadSpec, seed: int,
                     strategy: str = "uniform") -> DrawnFaults:
        raise NotImplementedError

    def run_batch(self, faults: Sequence[Fault], cycles: int, pool: int = 0,
                  indices: Optional[Sequence[int]] = None,
                  progress: Optional[Callable[[], None]] = None
                  ) -> List[ExperimentResult]:
        raise NotImplementedError

    def golden_run(self, cycles: int) -> Trace:
        raise NotImplementedError

    def recover(self) -> None:
        raise NotImplementedError

    def static_plan(self, faults: Sequence[Fault], cycles: int
                    ) -> Dict[int, str]:
        raise NotImplementedError

    def run(self, spec: FaultLoadSpec, seed: Optional[int] = None
            ) -> CampaignResult:
        """Generate and run a whole faultload; returns the aggregate.

        ``seed`` (default: the campaign's) draws the faultload, so
        repeated calls with the same arguments run the same faults."""
        stream = self.fault_stream(spec,
                                   self.seed if seed is None else seed)
        cycles = spec.workload_cycles
        experiments = self.run_batch(stream.ensure(spec.count), cycles,
                                     pool=stream.pool)
        return CampaignResult(spec_label=self.label_prefix + spec.label(),
                              golden=self.golden_run(cycles),
                              experiments=experiments)


#: Golden-run snapshot spacing of the 8051 testbed
#: (``FadesCampaign(checkpoint_interval=...)``): the evaluation testbed
#: and every campaign the runtime builds fast-forward from these.
CHECKPOINT_INTERVAL = 128


class FadesCampaign(Campaign):
    """Run fault-emulation campaigns on one implemented design.

    :attr:`on_lanes` decides where the experiments run, and
    :meth:`run_batch` runs every fault list: a runtime shard, or
    :meth:`run`'s or :meth:`run_faults`' whole faultload.
    """

    def __init__(self, impl: Implementation, locmap: LocationMap,
                 board: Optional[Board] = None, seed: int = 0,
                 inputs: Optional[Dict[str, int]] = None,
                 checkpoint_interval: int = 0,
                 backend: str = "reference"):
        self.impl = impl
        self.locmap = locmap
        self.inputs = dict(inputs or {})
        self._static: Dict[tuple, object] = {}
        #: Simulator backend: ``reference`` runs each experiment through
        #: the device simulator; ``compiled`` packs experiments into the
        #: bit-lanes of the :mod:`repro.emu` engine (golden in lane 0).
        self.backend = check_backend(backend)
        #: The compiled design, once :attr:`on_lanes` compiled it.
        self.lane_design: Optional[CompiledDesign] = None
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
        #: Campaign seed: the default faultload seed of :meth:`run`, and
        #: with the fault index the seed of every experiment's injector
        #: draws (:func:`derive_fault_seed`).
        self.seed = seed
        self.injector = FadesInjector(self.jbits)
        self.time_model = EmulationTimeModel(self.board)
        self._golden: Dict[tuple, Trace] = {}
        #: How many golden runs were actually *simulated* (as opposed to
        #: served from the cache) — multi-class reports should see 1.  A
        #: compiled campaign's golden run is lane 0 of its first lane
        #: pass, so that pass counts as its one simulation.
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

    @property
    def trusted(self) -> bool:
        """Whether the golden configuration meets timing and routes every
        net: only then do the compiled lane model and the SFA's semantic
        rules describe the device."""
        device = self.device
        return not device._violating and not device._broken_nets

    @property
    def on_lanes(self) -> bool:
        """Whether experiments run on the lane engine: the compiled
        backend on a trusted golden configuration whose design compiles.
        Otherwise they step the reference device, fast-forwarding from
        the checkpoints of the golden run.

        The first call that gets past the trust test compiles the design
        into :attr:`lane_design`; a compile failure degrades the campaign
        to the reference backend
        (:func:`repro.emu.backend.compile_or_fallback`).
        """
        if self.backend != "compiled" or not self.trusted:
            return False
        if self.lane_design is None:
            from ..emu.backend import compile_or_fallback
            self.lane_design = compile_or_fallback(self)
        return self.lane_design is not None

    def cached_golden(self, cycles: int) -> Optional[Trace]:
        """The golden trace of *cycles* if one is cached, else ``None``."""
        return self._golden.get(self._golden_key(cycles))

    def keep_golden(self, cycles: int, trace: Trace) -> Trace:
        """Cache *trace* as the golden run of *cycles*; it counts as one
        of :attr:`golden_simulations`."""
        self._golden[self._golden_key(cycles)] = trace
        self.golden_simulations += 1
        return trace

    def golden_run(self, cycles: int) -> Trace:
        """Fault-free reference trace (cached per workload and length).

        Every campaign sharing this object — e.g. the experiment classes
        of a multi-class report — simulates the golden run exactly once.
        On the reference device it also records the checkpoints that
        experiments fast-forward from.  On lanes, the lane batches fill
        the cache from their lane 0 (:func:`repro.emu.run_lane_batch`);
        a one-lane pass runs here only when no batch ran first.
        """
        check_cycles(cycles)
        cached = self.cached_golden(cycles)
        if cached is not None:
            return cached
        if self.on_lanes:
            from ..emu.backend import compiled_golden
            return self.keep_golden(cycles, compiled_golden(self, cycles))
        device = self.device
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
        if interval:
            self._checkpoints[self._golden_key(cycles)] = checkpoints
        return self.keep_golden(cycles, trace)

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
        golden_cached = self.cached_golden(cycles)
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
    def fault_stream(self, spec: FaultLoadSpec, seed: int,
                     strategy: str = "uniform") -> DrawnFaults:
        """The faultload of *spec* drawn at *seed*
        (:class:`~repro.faultload.FaultStream`): uniform, or by
        *strategy* over the pool's strata, with net targets filtered
        down to the routed lines."""
        from ..faultload import FaultStream
        return FaultStream(spec, self.locmap, seed=seed,
                           routed_nets=self.impl.routing.is_routed,
                           strategy=strategy)

    def run_batch(self, faults: Sequence[Fault], cycles: int, pool: int = 0,
                  indices: Optional[Sequence[int]] = None,
                  progress: Optional[Callable[[], None]] = None
                  ) -> List[ExperimentResult]:
        """Run a fault list, in fault order: on the lane engine when the
        campaign is :attr:`on_lanes`, else on the reference device.

        ``indices`` carries each fault's campaign index (default: its
        position), which seeds that experiment's injector draws — so a
        fault's result never depends on the batch it runs in.  On lanes,
        supported faults are packed into bit-lane batches; on the device,
        the golden run goes first and each fault runs one experiment.
        ``progress`` (if given) is called after each experiment's
        reconfiguration protocol, so a pool worker keeps its heartbeat
        through a wide lane batch.
        """
        if indices is None:
            indices = range(len(faults))
        if self.on_lanes:
            from ..emu import run_lane_batch
            return run_lane_batch(self, faults, cycles, pool=pool,
                                  indices=indices, progress=progress)
        # The golden run's checkpoints fast-forward every experiment.
        self.golden_run(cycles)
        results = []
        for fault, index in zip(faults, indices):
            results.append(self.run_experiment(fault, cycles, pool=pool,
                                               index=index))
            if progress is not None:
                progress()
        return results

    def static_plan(self, faults: Sequence[Fault], cycles: int
                    ) -> Dict[int, str]:
        """The faults :mod:`repro.sfa` proves Silent: position in
        *faults* -> the rule that proved it.

        The planner (and its structural graph) is cached per
        workload-and-length, like the golden trace, and the lane
        engine's compiled design per netlist; only the per-faultload
        planning (one lane pass per batch of lane-judged faults)
        repeats.
        Imported lazily — :mod:`repro.sfa` depends on this package.
        """
        check_cycles(cycles)
        from ..sfa.prune import StaticFaultAnalysis
        key = (tuple(sorted(self.inputs.items())), cycles)
        sfa = self._static.get(key)
        if sfa is None:
            sfa = StaticFaultAnalysis(
                self.locmap.mapped, cycles, inputs=self.inputs,
                timing=self.impl.timing, trusted=self.trusted)
            self._static[key] = sfa
        return sfa.plan(faults)

    def run_faults(self, faults: Sequence[Fault], cycles: int,
                   label: str = "", pool: int = 0) -> CampaignResult:
        """Run a pre-generated fault list, every fault emulated (static
        pruning is a job-spec setting of :func:`repro.runtime.run_campaign`).
        """
        experiments = self.run_batch(faults, cycles, pool=pool)
        return CampaignResult(spec_label=label,
                              golden=self.golden_run(cycles),
                              experiments=experiments)

    # ------------------------------------------------------------------
    def screen_sensitive_ffs(self, cycles: int, samples_per_ff: int = 2,
                             seed: Optional[int] = None) -> List[int]:
        """Pre-screening experiment of section 6.3: find the flip-flops
        "susceptible of causing a failure when executing the selected
        workload" — the paper found 81 of 637 eligible.

        Each of ``samples_per_ff`` rounds flips every flip-flop not yet
        found sensitive once, at instants drawn in flip-flop order, and
        runs them as one batch (:meth:`run_batch`).  ``seed`` randomises
        the instants; ``None`` keeps the historical default (7).
        """
        rng = random.Random(7 if seed is None else seed)
        from .faults import FaultModel, Target, TargetKind
        pending = list(range(len(self.locmap.mapped.ffs)))
        for _ in range(samples_per_ff):
            faults = [Fault(model=FaultModel.BITFLIP,
                            target=Target(TargetKind.FF, ff_index),
                            start_cycle=rng.randrange(cycles))
                      for ff_index in pending]
            results = self.run_batch(faults, cycles)
            pending = [ff_index for ff_index, result
                       in zip(pending, results)
                       if result.outcome is not Outcome.FAILURE]
        insensitive = set(pending)
        return [ff_index for ff_index in range(len(self.locmap.mapped.ffs))
                if ff_index not in insensitive]
