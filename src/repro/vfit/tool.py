"""VFIT campaign runner: model-level fault injection on the host simulator.

Mirrors :class:`~repro.core.campaign.FadesCampaign` so that the comparison
experiments (paper, table 3) run both tools over the same experiment
classes: same fault models, same duration bands, injection instants
uniformly distributed over the workload — but VFIT draws locations from the
*HDL model* (signals, storage elements, memory words) and injects with
simulator commands on the four-valued model simulator.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..core.campaign import CampaignResult, ExperimentResult
from ..core.classify import classify
from ..core.config import FaultLoadSpec
from ..core.faults import Fault
from ..core.timing_model import ExperimentCost
from ..errors import LocationError
from ..hdl.netlist import Netlist
from ..hdl.simulator import FourValuedSim
from ..hdl.trace import Trace
from .commands import VfitCommands, vfit_pool_targets
from .timing_model import VfitTimeModel, VfitTimingParams


def vfit_faultload(spec: FaultLoadSpec, netlist: Netlist,
                   seed: int = 0) -> List[Fault]:
    """Draw a faultload against the HDL model's location pools.

    Pool strings follow :class:`~repro.core.config.FaultLoadSpec`, with
    implementation-level pools translated to their model-level analogues
    (``luts:<unit>`` becomes the unit's combinational signals).
    """
    pool = spec.pool
    if pool.startswith("luts"):
        pool = "comb" + pool[len("luts"):]
    if pool.startswith("nets:comb"):
        pool = "comb" + pool[len("nets:comb"):]
    if pool == "nets:seq":
        pool = "ffs"
    rng = random.Random(seed)
    targets = vfit_pool_targets(netlist, pool, spec.mem_addr_range)
    if not targets:
        raise LocationError(f"VFIT pool {pool!r} is empty")
    faults: List[Fault] = []
    lo, hi = spec.duration_range
    for _ in range(spec.count):
        faults.append(Fault(
            model=spec.model,
            target=rng.choice(targets),
            start_cycle=rng.randrange(max(1, spec.workload_cycles)),
            duration_cycles=rng.uniform(lo, hi),
            phase=rng.random(),
            oscillate=spec.oscillate,
        ))
    return faults


class VfitCampaign:
    """Run simulator-command campaigns on one HDL model."""

    def __init__(self, netlist: Netlist, seed: int = 0,
                 timing_params: VfitTimingParams = VfitTimingParams(),
                 inputs: Optional[dict] = None):
        self.netlist = netlist
        self.inputs = dict(inputs or {})
        self.sim = FourValuedSim(netlist)
        self.rng = random.Random(seed)
        stats = netlist.stats()
        self.elements = stats["gates"] + stats["dffs"]
        self.time_model = VfitTimeModel(self.elements, timing_params)
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
        vfit_cost = self.time_model.record(cycles)
        outcome = classify(golden, trace)
        cost = ExperimentCost(transfer_s=0.0, workload_s=vfit_cost.simulate_s,
                              overhead_s=vfit_cost.overhead_s)
        return ExperimentResult(
            fault=fault, outcome=outcome, cost=cost,
            first_divergence=trace.first_divergence(golden))

    # ------------------------------------------------------------------
    def run(self, spec: FaultLoadSpec,
            seed: Optional[int] = None) -> CampaignResult:
        """Generate and run a whole faultload; returns the aggregate."""
        faults = vfit_faultload(
            spec, self.netlist,
            seed=self.rng.randrange(2**31) if seed is None else seed)
        return self.run_faults(faults, spec.workload_cycles,
                               label=f"vfit:{spec.label()}")

    def run_faults(self, faults: Sequence[Fault], cycles: int,
                   label: str = "") -> CampaignResult:
        """Run a pre-generated fault list."""
        golden = self.golden_run(cycles)
        result = CampaignResult(spec_label=label, golden=golden)
        for fault in faults:
            result.experiments.append(self.run_experiment(fault, cycles))
        result.total_emulation_s = sum(
            e.cost.total_s for e in result.experiments)
        if result.experiments:
            result.mean_emulation_s = (result.total_emulation_s
                                       / len(result.experiments))
        return result
