"""Cycle-accurate simulators for gate-level netlists.

Two executable semantics are provided for the same
:class:`~repro.hdl.netlist.Netlist`:

:class:`NetlistSim`
    A fast, strictly binary, levelized cycle simulator.  Because the IR
    keeps gates in topological order, one pass per clock cycle suffices.
    This is the reference semantics the FPGA device simulator must match.

:class:`FourValuedSim`
    A four-valued (``0/1/X/Z``) variant with *simulator commands* — force,
    release and deposit — exactly the mechanism the VFIT baseline uses to
    inject faults into VHDL models (paper, section 6).  Unknowns propagate
    pessimistically through gates and memories.

Both simulators share the step protocol::

    sim.reset()
    outputs = sim.step({"in_a": 3})   # one clock cycle
    sim.peek("some_signal")           # named HDL-level observation
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..obs import metrics as obs_metrics
from . import logic
from .netlist import CONST0, CONST1, Netlist

_SIM_CYCLES = obs_metrics.counter(
    "sim_cycles_total", "Clock cycles executed through the batch run API.")


class _BaseSim:
    """State handling shared by both simulators."""

    def __init__(self, netlist: Netlist):
        netlist.check()
        self.netlist = netlist
        self.cycle = 0
        self._values: List[int] = [0] * netlist.n_nets
        self._ff_state: List[int] = [dff.init for dff in netlist.dffs]
        self._mem_state: Dict[str, List[int]] = {
            bram.name: list(bram.init) for bram in netlist.brams}
        self._input_nets: List[Tuple[str, List[int]]] = [
            (name, nets) for name, nets in netlist.inputs.items()]
        self._held_inputs: Dict[str, int] = {
            name: 0 for name in netlist.inputs}

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return all state elements to their initial values.

        Memories are restored to their initialisation contents as well;
        campaign code relies on this to start every experiment from the
        same state (paper, figure 1: "reset system to initial state").
        """
        self.cycle = 0
        self._ff_state = [dff.init for dff in self.netlist.dffs]
        for bram in self.netlist.brams:
            self._mem_state[bram.name] = list(bram.init)
        for name in self._held_inputs:
            self._held_inputs[name] = 0

    # ------------------------------------------------------------------
    def set_inputs(self, inputs: Optional[Dict[str, int]]) -> None:
        """Latch driven values for primary inputs; they hold until changed."""
        if not inputs:
            return
        for name, value in inputs.items():
            if name not in self._held_inputs:
                raise SimulationError(f"unknown input {name!r}")
            self._held_inputs[name] = value

    def peek(self, name: str) -> Optional[int]:
        """Read a named signal as an integer (``None`` if any bit unknown).

        Values reflect the combinational settle of the most recent
        :meth:`step`.
        """
        nets = self.netlist.names.get(name)
        if nets is None:
            raise SimulationError(f"unknown signal {name!r}")
        return logic.word_to_int_or_none([self._values[n] for n in nets])

    def peek_bits(self, name: str) -> List[int]:
        """Read the raw per-bit logic values of a named signal."""
        nets = self.netlist.names.get(name)
        if nets is None:
            raise SimulationError(f"unknown signal {name!r}")
        return [self._values[n] for n in nets]

    def ff_state(self) -> Tuple[int, ...]:
        """Snapshot of every flip-flop's stored value, in netlist order."""
        return tuple(self._ff_state)

    def mem_state(self, name: str) -> Tuple[int, ...]:
        """Snapshot of a memory block's contents."""
        try:
            return tuple(self._mem_state[name])
        except KeyError:
            raise SimulationError(f"unknown memory {name!r}") from None

    def state_snapshot(self) -> Tuple:
        """Hashable snapshot of all architectural state (FFs + memories)."""
        mems = tuple(sorted(
            (name, tuple(cells)) for name, cells in self._mem_state.items()))
        return (tuple(self._ff_state), mems)

    def deposit_ff(self, index: int, value: int) -> None:
        """Overwrite one flip-flop's stored value (bit-flip injection)."""
        self._ff_state[index] = value

    def deposit_mem(self, name: str, addr: int, value: int) -> None:
        """Overwrite one memory word."""
        self._mem_state[name][addr] = value

    def _sample_outputs(self) -> Dict[str, Optional[int]]:
        values = self._values
        return {
            name: logic.word_to_int_or_none([values[n] for n in nets])
            for name, nets in self.netlist.outputs.items()}

    def run(self, cycles: int,
            inputs: Optional[Dict[str, int]] = None) -> Dict[str, Optional[int]]:
        """Step *cycles* times with constant inputs; return last outputs."""
        outputs: Dict[str, Optional[int]] = {}
        for _ in range(cycles):
            outputs = self.step(inputs)
            inputs = None
        if cycles > 0:
            # Counted per batch, not per step: step() is the hot path.
            _SIM_CYCLES.inc(cycles, sim=type(self).__name__)
        return outputs

    def step(self, inputs: Optional[Dict[str, int]] = None):
        raise NotImplementedError


class NetlistSim(_BaseSim):
    """Fast binary levelized simulator (the reference semantics)."""

    def __init__(self, netlist: Netlist):
        super().__init__(netlist)
        # Pre-compile every gate to (out, tt3, i0, i1, i2): the truth table
        # is expanded over three variables so that the inner loop is a
        # single shift regardless of arity.
        compiled = []
        for gate in netlist.gates:
            ins = list(gate.ins) + [CONST0] * (3 - len(gate.ins))
            mask = (1 << len(gate.ins)) - 1
            tt3 = 0
            for index in range(8):
                if (gate.tt >> (index & mask)) & 1:
                    tt3 |= 1 << index
            compiled.append((gate.out, tt3, ins[0], ins[1], ins[2]))
        self._compiled = compiled

    def step(self, inputs: Optional[Dict[str, int]] = None
             ) -> Dict[str, Optional[int]]:
        """Advance one clock cycle; return the settled primary outputs."""
        self.set_inputs(inputs)
        values = self._values
        values[CONST0] = 0
        values[CONST1] = 1
        for name, nets in self._input_nets:
            held = self._held_inputs[name]
            for position, net in enumerate(nets):
                values[net] = (held >> position) & 1
        for dff, state in zip(self.netlist.dffs, self._ff_state):
            values[dff.q] = state
        # BRAM rdata nets keep their registered values from the previous
        # capture; nothing to refresh here.
        for out, tt, i0, i1, i2 in self._compiled:
            values[out] = (tt >> (values[i0] | values[i1] << 1
                                  | values[i2] << 2)) & 1
        outputs = self._sample_outputs()
        self._capture()
        self.cycle += 1
        return outputs

    def _capture(self) -> None:
        values = self._values
        for index, dff in enumerate(self.netlist.dffs):
            self._ff_state[index] = values[dff.d]
        for bram in self.netlist.brams:
            cells = self._mem_state[bram.name]
            raddr = 0
            for position, net in enumerate(bram.raddr):
                raddr |= values[net] << position
            read = cells[raddr] if raddr < bram.depth else 0
            if not bram.rom and values[bram.we]:
                waddr = 0
                for position, net in enumerate(bram.waddr):
                    waddr |= values[net] << position
                wdata = 0
                for position, net in enumerate(bram.wdata):
                    wdata |= values[net] << position
                if waddr < bram.depth:
                    cells[waddr] = wdata
            for position, net in enumerate(bram.rdata):
                values[net] = (read >> position) & 1

    def reset(self) -> None:
        super().reset()
        # Registered read ports come up showing address 0 contents' stale
        # value convention: define them as 0 at reset.
        for bram in self.netlist.brams:
            for net in bram.rdata:
                self._values[net] = 0


class FourValuedSim(_BaseSim):
    """Four-valued simulator with VFIT-style simulator commands.

    Supports ``force``/``release`` on any named signal (or raw nets) and
    direct ``deposit`` of flip-flop and memory state.  Unknown values
    (``X``) propagate through gates by cofactor enumeration and through
    memories pessimistically.
    """

    def __init__(self, netlist: Netlist):
        super().__init__(netlist)
        self._forced: Dict[int, int] = {}
        self._inverted: set = set()
        self.events = 0  # evaluation count, feeds the VFIT cost model

    # -- simulator commands -------------------------------------------
    def force(self, name: str, value: Sequence[int]) -> None:
        """Force a named signal to per-bit logic values (``X`` allowed).

        The force overrides the signal's driver every cycle until
        :meth:`release` — the semantics of a VHDL simulator ``force``
        command, which is how VFIT keeps a fault active for its duration.
        """
        nets = self.netlist.names.get(name)
        if nets is None:
            raise SimulationError(f"unknown signal {name!r}")
        if len(value) != len(nets):
            raise SimulationError(
                f"force width mismatch on {name!r}: "
                f"{len(value)} != {len(nets)}")
        for net, bit in zip(nets, value):
            self._forced[net] = bit

    def release(self, name: str) -> None:
        """Remove any force on the named signal."""
        nets = self.netlist.names.get(name)
        if nets is None:
            raise SimulationError(f"unknown signal {name!r}")
        for net in nets:
            self._forced.pop(net, None)

    def release_all(self) -> None:
        """Remove every active force and inversion."""
        self._forced.clear()
        self._inverted.clear()

    def force_invert_net(self, net: int) -> None:
        """Continuously invert a net's driven value (pulse injection).

        Unlike :meth:`force`, the net still follows its driver — inverted.
        This models a transient pulse on a combinational line the way a
        VHDL simulator command script realises it.
        """
        self._inverted.add(net)

    def release_invert_net(self, net: int) -> None:
        """Remove an inversion installed by :meth:`force_invert_net`."""
        self._inverted.discard(net)

    # -- evaluation ----------------------------------------------------
    def step(self, inputs: Optional[Dict[str, int]] = None
             ) -> Dict[str, Optional[int]]:
        """Advance one clock cycle under four-valued semantics."""
        self.set_inputs(inputs)
        values = self._values
        forced = self._forced
        values[CONST0] = logic.ZERO
        values[CONST1] = logic.ONE
        for name, nets in self._input_nets:
            held = self._held_inputs[name]
            for position, net in enumerate(nets):
                values[net] = (held >> position) & 1
        for dff, state in zip(self.netlist.dffs, self._ff_state):
            values[dff.q] = state
        if forced:
            for net, value in forced.items():
                values[net] = value
        inverted = self._inverted
        if inverted:
            for net in inverted:
                if net < len(values) and net not in forced:
                    values[net] = logic.not4(values[net])
        for gate in self.netlist.gates:
            out = gate.out
            if out in forced:
                values[out] = forced[out]
                continue
            value = self._eval_gate(gate.tt, gate.ins, values)
            if out in inverted:
                value = logic.not4(value)
            values[out] = value
            self.events += 1
        outputs = self._sample_outputs()
        self._capture4()
        self.cycle += 1
        return outputs

    @staticmethod
    def _eval_gate(tt: int, ins: Tuple[int, ...],
                   values: List[int]) -> int:
        index = 0
        unknown: List[int] = []
        for position, net in enumerate(ins):
            bit = values[net]
            if bit == logic.ONE:
                index |= 1 << position
            elif bit != logic.ZERO:
                unknown.append(position)
        if not unknown:
            return (tt >> index) & 1
        seen0 = seen1 = False
        for combo in range(1 << len(unknown)):
            trial = index
            for offset, position in enumerate(unknown):
                if (combo >> offset) & 1:
                    trial |= 1 << position
            if (tt >> trial) & 1:
                seen1 = True
            else:
                seen0 = True
            if seen0 and seen1:
                return logic.X
        return logic.ONE if seen1 else logic.ZERO

    def _capture4(self) -> None:
        values = self._values
        for index, dff in enumerate(self.netlist.dffs):
            self._ff_state[index] = values[dff.d]
        for bram in self.netlist.brams:
            cells = self._mem_state[bram.name]
            raddr = logic.word_to_int_or_none(
                [values[n] for n in bram.raddr])
            we = logic.ZERO if bram.rom else values[bram.we]
            read: List[int]
            if raddr is None or raddr >= bram.depth:
                read = [logic.X] * bram.width
            else:
                word = cells[raddr]
                if word is None:
                    read = [logic.X] * bram.width
                else:
                    read = logic.int_to_word(word, bram.width)
            if we != logic.ZERO:
                waddr = logic.word_to_int_or_none(
                    [values[n] for n in bram.waddr])
                wdata = logic.word_to_int_or_none(
                    [values[n] for n in bram.wdata])
                if waddr is None:
                    # Unknown write address corrupts the whole block.
                    for cell in range(bram.depth):
                        cells[cell] = None
                elif waddr < bram.depth:
                    if we == logic.ONE:
                        cells[waddr] = wdata  # None encodes unknown word
                    else:
                        cells[waddr] = None  # X write-enable: may have hit
            for position, net in enumerate(bram.rdata):
                values[net] = read[position]

    def reset(self) -> None:
        super().reset()
        self._forced.clear()
        for bram in self.netlist.brams:
            for net in bram.rdata:
                self._values[net] = 0

    def mem_state(self, name: str) -> Tuple:
        """Memory snapshot; unknown words appear as ``None``."""
        try:
            return tuple(self._mem_state[name])
        except KeyError:
            raise SimulationError(f"unknown memory {name!r}") from None
