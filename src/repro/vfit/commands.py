"""Simulator-command fault injection — VFIT's mechanism.

VFIT is "a VHDL-based Fault Injection Tool" using "the simulator commands
technique" (paper, sections 6 and 6.2, reference [19]): faults are injected
by driving the VHDL simulator's command interface — deposit a register
value, force/release a signal — while the model executes.  Nothing about
the model or its implementation changes; only simulation state does.  That
is the defining contrast with FADES, which rewrites configuration memory.

The command layer below operates on the four-valued model simulator; the
indetermination model forces ``'X'`` (the VHDL way) rather than FADES's
randomised final level, which is one of the behavioural differences the
paper discusses when comparing Table 3 results.
"""

from __future__ import annotations

from typing import List

from ..errors import InjectionError, LocationError, UnsupportedFaultError
from ..hdl import logic
from ..hdl.netlist import Netlist
from ..hdl.simulator import FourValuedSim
from ..core.faults import Fault, FaultModel, Target, TargetKind


#: The fault models simulator commands can inject.
VFIT_MODELS = frozenset({FaultModel.BITFLIP, FaultModel.PULSE,
                         FaultModel.INDETERMINATION})


def check_vfit_model(model: FaultModel) -> None:
    """Raise :class:`UnsupportedFaultError` unless VFIT can inject
    *model*: decided from the model alone, before anything simulates."""
    if model is FaultModel.DELAY:
        # Paper, section 6.3: "VFIT requires the model to specify the
        # delay of signals by means of generic clauses and the selected
        # model does not include any of them".
        raise UnsupportedFaultError(
            "VFIT cannot inject delay faults: the model carries no "
            "generic delay clauses")
    if model not in VFIT_MODELS:
        raise UnsupportedFaultError(
            f"VFIT does not implement the {model.value} model")


def check_vfit_target(model: FaultModel, kind: TargetKind) -> None:
    """Raise unless simulator commands can inject *model* into a target
    of *kind*: decided before anything simulates."""
    check_vfit_model(model)
    if model is FaultModel.BITFLIP and kind not in (TargetKind.FF,
                                                    TargetKind.MEMORY_BIT):
        raise InjectionError(f"VFIT bit-flip cannot target {kind.value}")
    if model is FaultModel.PULSE and kind is not TargetKind.NET:
        raise InjectionError("VFIT pulses target HDL signal nets")
    if model is FaultModel.INDETERMINATION and kind not in (TargetKind.FF,
                                                            TargetKind.NET):
        raise InjectionError(
            "VFIT indetermination targets FFs or signal nets")


class VfitCommands:
    """Command-level injection session on one model simulator."""

    def __init__(self, sim: FourValuedSim):
        self.sim = sim
        self.netlist = sim.netlist
        self.commands_issued = 0

    # ------------------------------------------------------------------
    def inject(self, fault: Fault) -> None:
        """Activate *fault* (called at its injection instant)."""
        model = fault.model
        target = fault.target
        check_vfit_target(model, target.kind)
        if model is FaultModel.BITFLIP:
            if target.kind is TargetKind.FF:
                current = self.sim.ff_state()[target.index]
                self.sim.deposit_ff(target.index, logic.not4(current))
            else:
                name = self.netlist.brams[target.index].name
                word = self.sim.mem_state(name)[target.addr]
                if word is None:
                    flipped = None  # unknown word stays unknown
                else:
                    flipped = word ^ (1 << target.bit)
                self.sim.deposit_mem(name, target.addr, flipped)
        elif model is FaultModel.PULSE:
            self.sim.force_invert_net(target.index)
        else:  # indetermination
            if target.kind is TargetKind.FF:
                self.sim.deposit_ff(target.index, logic.X)
                dff = self.netlist.dffs[target.index]
                self.sim._forced[dff.q] = logic.X
            else:
                self.sim._forced[target.index] = logic.X
        self.commands_issued += 1

    def remove(self, fault: Fault) -> None:
        """Deactivate a transient fault after its duration."""
        target = fault.target
        if fault.model is FaultModel.PULSE:
            self.sim.release_invert_net(target.index)
        elif fault.model is FaultModel.INDETERMINATION:
            if target.kind is TargetKind.FF:
                dff = self.netlist.dffs[target.index]
                self.sim._forced.pop(dff.q, None)
            else:
                self.sim._forced.pop(target.index, None)
        self.commands_issued += 1

    # ------------------------------------------------------------------
    def ff_index_of(self, signal: str, bit: int) -> int:
        """Resolve an HDL signal bit to the flip-flop storing it."""
        nets = self.netlist.names.get(signal)
        if nets is None:
            raise InjectionError(f"no HDL signal {signal!r}")
        net = nets[bit]
        for index, dff in enumerate(self.netlist.dffs):
            if dff.q == net:
                return index
        raise InjectionError(
            f"signal {signal!r} bit {bit} is not a storage element")


def vfit_pool_targets(netlist: Netlist, pool: str,
                      mem_addr_range=None) -> List:
    """Enumerate VFIT's HDL-level location pool.

    Pools mirror :mod:`repro.core.config` but resolve against the *model*
    (signals, variables, processes) instead of the implementation:

    * ``'ffs'`` / ``'ffs:<unit>'`` — storage elements;
    * ``'memory:<name>'`` — memory words/bits;
    * ``'comb'`` / ``'comb:<unit>'`` — combinational signal nets.
    """
    parts = pool.split(":")
    kind = parts[0]
    if kind == "ffs":
        indices = [i for i, dff in enumerate(netlist.dffs)
                   if len(parts) == 1 or dff.unit == parts[1]]
        return [Target(TargetKind.FF, i) for i in indices]
    if kind == "memory":
        if len(parts) < 2:
            raise LocationError(f"VFIT pool {pool!r}: expected memory:<block>")
        name = parts[1]
        for index, bram in enumerate(netlist.brams):
            if bram.name == name:
                lo, hi = mem_addr_range or (0, bram.depth)
                return [Target(TargetKind.MEMORY_BIT, index, addr=a, bit=b)
                        for a in range(lo, min(hi, bram.depth))
                        for b in range(bram.width)]
        raise InjectionError(f"no memory {name!r} in the model")
    if kind == "comb":
        unit = parts[1] if len(parts) > 1 else None
        nets = [gate.out for gate in netlist.gates
                if unit is None or gate.unit == unit]
        return [Target(TargetKind.NET, net) for net in nets]
    raise InjectionError(f"unknown VFIT pool {pool!r}")
