"""VFIT campaign runner: model-level fault injection on the host simulator.

A :class:`~repro.core.campaign.Campaign` like
:class:`~repro.core.campaign.FadesCampaign`, so the runtime
(:func:`repro.runtime.run_campaign`) runs both tools' experiment classes
(paper, table 3) the same way: same fault models, same duration bands,
injection instants uniformly distributed over the workload, one window
loop, failure policy and journal.  But VFIT draws locations from the
*HDL model* (signals, storage elements, memory words) and injects with
simulator commands on the four-valued model simulator.
Every experiment of one length costs the same (:attr:`VfitCampaign.
time_model`), so Table 2 prices VFIT from it without running a campaign.
"""

from __future__ import annotations

import random
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..core.campaign import Campaign, ExperimentResult
from ..core.classify import classify
from ..core.config import FaultLoadSpec
from ..core.faults import Fault, Target, TargetKind
from ..core.timing_model import ExperimentCost
from ..errors import LocationError
from ..faultload import DrawnFaults
from ..hdl.netlist import Netlist
from ..hdl.simulator import FourValuedSim
from ..hdl.trace import Trace
from .commands import (VfitCommands, check_vfit_model, check_vfit_target,
                       vfit_pool_targets)
from .timing_model import VfitTimeModel


def vfit_stream(spec: FaultLoadSpec, netlist: Netlist,
                seed: int = 0) -> DrawnFaults:
    """Draw a faultload against the HDL model's location pools.

    Pool strings follow :class:`~repro.core.config.FaultLoadSpec`, with
    implementation-level pools translated to their model-level analogues
    (``luts:<unit>`` becomes the unit's combinational signals); a pool
    whose targets the model's commands cannot reach raises before
    anything is drawn (:func:`~repro.vfit.commands.check_vfit_target`).
    Each fault draws its target, instant, duration and phase, in that
    order, so a longer draw extends a shorter one.  A fault's stratum
    tag reads ``<model>/<kind>/<unit or memory>``.
    """
    pool = spec.pool
    if pool.startswith("luts"):
        pool = "comb" + pool[len("luts"):]
    if pool.startswith("nets:comb"):
        pool = "comb" + pool[len("nets:comb"):]
    if pool == "nets:seq":
        pool = "ffs"
    targets = vfit_pool_targets(netlist, pool, spec.mem_addr_range)
    if not targets:
        raise LocationError(f"VFIT pool {pool!r} is empty")
    check_vfit_target(spec.model, targets[0].kind)
    units = {gate.out: gate.unit for gate in netlist.gates}
    tags: Dict[Target, str] = {}
    for target in targets:
        if target.kind is TargetKind.FF:
            group = netlist.dffs[target.index].unit
        elif target.kind is TargetKind.MEMORY_BIT:
            group = netlist.brams[target.index].name
        else:
            group = units[target.index]
        tags[target] = f"{spec.model.value}/{target.kind.value}/{group}"

    def draws() -> Iterator[Tuple[Fault, str]]:
        rng = random.Random(seed)
        lo, hi = spec.duration_range
        while True:
            target = rng.choice(targets)
            yield Fault(
                model=spec.model,
                target=target,
                start_cycle=rng.randrange(spec.workload_cycles),
                duration_cycles=rng.uniform(lo, hi),
                phase=rng.random(),
                oscillate=spec.oscillate,
            ), tags[target]

    return DrawnFaults(draws(), pool=len(targets))


def vfit_faultload(spec: FaultLoadSpec, netlist: Netlist,
                   seed: int = 0) -> List[Fault]:
    """The first *spec.count* faults of :func:`vfit_stream`."""
    return vfit_stream(spec, netlist, seed).ensure(spec.count)


class VfitCampaign(Campaign):
    """Run simulator-command campaigns on one HDL model."""

    #: Labels the runtime's phases: VFIT simulates the HDL model.
    backend = "vfit"
    label_prefix = "vfit:"

    def __init__(self, netlist: Netlist, seed: int = 0,
                 inputs: Optional[dict] = None):
        self.netlist = netlist
        self.inputs = dict(inputs or {})
        self.sim = FourValuedSim(netlist)
        self.seed = seed
        stats = netlist.stats()
        self.elements = stats["gates"] + stats["dffs"]
        self.time_model = VfitTimeModel(self.elements)
        self._golden = {}

    # ------------------------------------------------------------------
    def golden_run(self, cycles: int) -> Trace:
        """Fault-free reference trace (cached per experiment length)."""
        cached = self._golden.get(cycles)
        if cached is not None:
            return cached
        sim = self.sim
        sim.reset()
        sim.release_all()
        trace = Trace(tuple(self.netlist.outputs))
        for cycle in range(cycles):
            trace.record(sim.step(self.inputs if cycle == 0 else None))
        trace.final_state = sim.state_snapshot()
        trace.cycles = cycles
        self._golden[cycles] = trace
        return trace

    # ------------------------------------------------------------------
    def run_experiment(self, fault: Fault, cycles: int) -> ExperimentResult:
        """One simulator-command experiment against the golden run."""
        sim = self.sim
        sim.reset()
        sim.release_all()
        commands = VfitCommands(sim)
        trace = Trace(tuple(self.netlist.outputs))
        start = fault.injection_cycle(cycles)
        end = min(start + fault.activation_window, cycles)

        def step(cycle: int) -> None:
            trace.record(sim.step(self.inputs if cycle == 0 else None))

        for cycle in range(start):
            step(cycle)
        commands.inject(fault)
        for cycle in range(start, end):
            step(cycle)
        if fault.model.transient:
            commands.remove(fault)
        for cycle in range(end, cycles):
            step(cycle)
        trace.final_state = sim.state_snapshot()
        trace.cycles = cycles

        golden = self.golden_run(cycles)
        vfit_cost = self.time_model.cost(cycles)
        outcome = classify(golden, trace)
        cost = ExperimentCost(transfer_s=0.0, workload_s=vfit_cost.simulate_s,
                              overhead_s=vfit_cost.overhead_s)
        return ExperimentResult(
            fault=fault, outcome=outcome, cost=cost,
            first_divergence=trace.first_divergence(golden))

    # ------------------------------------------------------------------
    def fault_stream(self, spec: FaultLoadSpec, seed: int,
                     strategy: str = "uniform") -> DrawnFaults:
        """The faultload of *spec* drawn at *seed* (:func:`vfit_stream`);
        a model VFIT cannot inject raises before anything is drawn.  VFIT
        draws uniformly: a job spec refuses any other *strategy*."""
        check_vfit_model(spec.model)
        return vfit_stream(spec, self.netlist, seed)

    def run_batch(self, faults: Sequence[Fault], cycles: int, pool: int = 0,
                  indices: Optional[Sequence[int]] = None,
                  progress: Optional[Callable[[], None]] = None
                  ) -> List[ExperimentResult]:
        """Run a fault list in fault order, the golden run first.

        No experiment draws anything, so neither ``pool`` nor a fault's
        campaign index (``indices``) changes a result.  ``progress`` (if
        given) is called after each experiment, so a pool worker keeps
        its heartbeat through a long shard.
        """
        self.golden_run(cycles)
        results = []
        for fault in faults:
            results.append(self.run_experiment(fault, cycles))
            if progress is not None:
                progress()
        return results

    def recover(self) -> None:
        """Nothing to undo: every experiment starts from a reset
        simulator with every force released."""
