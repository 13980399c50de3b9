"""Gate-level netlist intermediate representation.

An elaborated HDL model is a :class:`Netlist`: a feed-forward network of
simple gates between state elements (D flip-flops and synchronous memory
blocks), with named primary inputs and outputs.  This is the common currency
of the reproduction:

* the RTL builder (:mod:`repro.hdl.rtl`) elaborates word-level descriptions
  into a ``Netlist``;
* the model-level simulators (:mod:`repro.hdl.simulator`) execute it directly
  — this is where VFIT's simulator-command injection operates;
* synthesis (:mod:`repro.synth`) optimises it and technology-maps it onto
  4-input LUTs for the FPGA substrate.

Nets are dense integer identifiers.  Net ``0`` is the constant ``'0'`` and
net ``1`` the constant ``'1'``.  Gates are stored in *emission order*, which
the builder guarantees to be topological (every gate input is produced
earlier); :meth:`Netlist.check` verifies this invariant.

All state elements share one implicit global clock, matching the paper's
fully synchronous target model (section 7.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ElaborationError

CONST0 = 0
CONST1 = 1

# Gate kinds.  Every gate has at most three inputs so that technology
# mapping can always fit a single gate into one 4-input LUT.
GATE_KINDS = ("BUF", "NOT", "AND", "OR", "XOR", "NAND", "NOR", "XNOR", "MUX")

# Truth tables indexed little-endian by the input vector:
# bit (i0 + 2*i1 + 4*i2) of the table is the output value.
_KIND_TT = {
    "BUF": 0b10,
    "NOT": 0b01,
    "AND": 0b1000,
    "OR": 0b1110,
    "XOR": 0b0110,
    "NAND": 0b0111,
    "NOR": 0b0001,
    "XNOR": 0b1001,
    # MUX inputs are (sel, if0, if1): out = if0 when sel=0 else if1.
    # Index = sel + 2*if0 + 4*if1, so the table reads 0b11100100.
    "MUX": 0b11100100,
}

_KIND_ARITY = {
    "BUF": 1,
    "NOT": 1,
    "AND": 2,
    "OR": 2,
    "XOR": 2,
    "NAND": 2,
    "NOR": 2,
    "XNOR": 2,
    "MUX": 3,
}


def kind_truth_table(kind: str) -> int:
    """Return the little-endian truth table of a gate *kind*."""
    return _KIND_TT[kind]


@dataclass
class Gate:
    """A combinational gate.

    ``tt`` is the little-endian truth table over ``ins`` (input ``ins[0]``
    is the least-significant index bit), redundant with ``kind`` but kept so
    that evaluation and cone extraction never dispatch on strings.
    """

    out: int
    kind: str
    ins: Tuple[int, ...]
    tt: int
    unit: str = ""

    def eval(self, values: Sequence[int]) -> int:
        """Evaluate the gate over binary input *values* (indexed by net)."""
        index = 0
        for position, net in enumerate(self.ins):
            if values[net]:
                index |= 1 << position
        return (self.tt >> index) & 1


@dataclass
class Dff:
    """A D flip-flop clocked by the implicit global clock.

    ``init`` is the power-up / global-set-reset value; the FPGA substrate
    maps it onto the CB's ``PRMux``/``CLRMux`` configuration.
    """

    q: int
    d: int = -1
    init: int = 0
    name: str = ""
    unit: str = ""

    @property
    def driven(self) -> bool:
        """Whether :attr:`d` has been connected."""
        return self.d >= 0


@dataclass
class Bram:
    """A synchronous memory block (RAM or ROM).

    Semantics per clock edge, matching embedded FPGA memory blocks:

    * if ``we`` is high, ``data[waddr] <= wdata`` (write);
    * ``rdata <= data[raddr]`` using the *pre-write* contents (read-first).

    ROMs simply never assert ``we``.  ``rdata`` nets are state outputs,
    available — like flip-flop outputs — at the start of the next cycle.
    """

    name: str
    depth: int
    width: int
    raddr: Tuple[int, ...] = ()
    rdata: Tuple[int, ...] = ()
    waddr: Tuple[int, ...] = ()
    wdata: Tuple[int, ...] = ()
    we: int = CONST0
    init: List[int] = field(default_factory=list)
    rom: bool = False
    unit: str = ""

    @property
    def addr_bits(self) -> int:
        """Number of address bits implied by :attr:`depth`."""
        bits = 0
        while (1 << bits) < self.depth:
            bits += 1
        return bits


class Netlist:
    """A complete gate-level design.

    Attributes
    ----------
    gates:
        Combinational gates in topological (emission) order.
    dffs:
        State flip-flops; ``dffs[i].q`` nets are produced "before" all gates.
    brams:
        Synchronous memory blocks.
    inputs / outputs:
        Ordered name -> net-list maps for the primary ports.
    names:
        HDL-visible signal names (ports, registers, intermediate signals the
        designer chose to expose) mapped to their nets.  This is what VFIT
        targets and what the fault-location process starts from.
    """

    def __init__(self, name: str = "top"):
        self.name = name
        self.n_nets = 2  # nets 0/1 are the constants
        self.gates: List[Gate] = []
        self.dffs: List[Dff] = []
        self.brams: List[Bram] = []
        self.inputs: Dict[str, List[int]] = {}
        self.outputs: Dict[str, List[int]] = {}
        self.names: Dict[str, List[int]] = {}
        self.name_units: Dict[str, str] = {}
        self._driver: Dict[int, str] = {CONST0: "const", CONST1: "const"}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_net(self) -> int:
        """Allocate a fresh, as-yet undriven net identifier."""
        net = self.n_nets
        self.n_nets += 1
        return net

    def new_nets(self, count: int) -> List[int]:
        """Allocate *count* fresh nets."""
        return [self.new_net() for _ in range(count)]

    def add_gate(self, kind: str, ins: Sequence[int], unit: str = "",
                 tt: Optional[int] = None) -> int:
        """Emit a gate and return its output net.

        A custom truth table *tt* may be supplied for ``kind='LUT'``-style
        gates produced by lowering; otherwise the canonical table of the
        kind is used.
        """
        if tt is None:
            tt = _KIND_TT[kind]
            if len(ins) != _KIND_ARITY[kind]:
                raise ElaborationError(
                    f"gate {kind} expects {_KIND_ARITY[kind]} inputs, "
                    f"got {len(ins)}")
        for net in ins:
            if net >= self.n_nets:
                raise ElaborationError(f"gate input net {net} does not exist")
        out = self.new_net()
        self.gates.append(Gate(out, kind, tuple(ins), tt, unit))
        self._driver[out] = "gate"
        return out

    def add_dff(self, init: int = 0, name: str = "", unit: str = "") -> Dff:
        """Create a flip-flop; its ``d`` input is connected later."""
        q = self.new_net()
        dff = Dff(q=q, init=init, name=name, unit=unit)
        self.dffs.append(dff)
        self._driver[q] = "dff"
        return dff

    def add_bram(self, bram: Bram) -> Bram:
        """Register a memory block whose port nets were already allocated."""
        self.brams.append(bram)
        for net in bram.rdata:
            self._driver[net] = "bram"
        return bram

    def add_input(self, name: str, nets: Sequence[int]) -> None:
        """Declare primary input *name* over freshly allocated *nets*."""
        if name in self.inputs:
            raise ElaborationError(f"duplicate input {name!r}")
        self.inputs[name] = list(nets)
        for net in nets:
            self._driver[net] = "input"

    def add_output(self, name: str, nets: Sequence[int]) -> None:
        """Declare primary output *name* reading the given *nets*."""
        if name in self.outputs:
            raise ElaborationError(f"duplicate output {name!r}")
        self.outputs[name] = list(nets)

    def add_name(self, name: str, nets: Sequence[int], unit: str = "") -> None:
        """Expose *nets* under an HDL-visible signal *name*."""
        if name in self.names:
            raise ElaborationError(f"duplicate signal name {name!r}")
        self.names[name] = list(nets)
        self.name_units[name] = unit

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def fanout_counts(self) -> List[int]:
        """Number of gate/FF/BRAM/output readers of every net."""
        counts = [0] * self.n_nets
        for gate in self.gates:
            for net in gate.ins:
                counts[net] += 1
        for dff in self.dffs:
            if dff.driven:
                counts[dff.d] += 1
        for bram in self.brams:
            for net in (*bram.raddr, *bram.waddr, *bram.wdata, bram.we):
                counts[net] += 1
        for nets in self.outputs.values():
            for net in nets:
                counts[net] += 1
        return counts

    def levels(self) -> List[int]:
        """Logic depth of each net (state/inputs/constants are level 0)."""
        level = [0] * self.n_nets
        for gate in self.gates:
            level[gate.out] = 1 + max((level[n] for n in gate.ins), default=0)
        return level

    def stats(self) -> Dict[str, int]:
        """Size summary used by reports and the VFIT cost model."""
        return {
            "nets": self.n_nets,
            "gates": len(self.gates),
            "dffs": len(self.dffs),
            "brams": len(self.brams),
            "bram_bits": sum(b.depth * b.width for b in self.brams),
            "inputs": sum(len(v) for v in self.inputs.values()),
            "outputs": sum(len(v) for v in self.outputs.values()),
            "depth": max(self.levels(), default=0),
        }

    def check(self) -> None:
        """Validate structural invariants; raise :class:`ElaborationError`.

        Checks that every flip-flop and BRAM port is driven, that gates are
        in topological order and that no net has two drivers.
        """
        produced = [False] * self.n_nets
        produced[CONST0] = produced[CONST1] = True
        for nets in self.inputs.values():
            for net in nets:
                produced[net] = True
        for dff in self.dffs:
            produced[dff.q] = True
        for bram in self.brams:
            for net in bram.rdata:
                produced[net] = True
        for gate in self.gates:
            for net in gate.ins:
                if not produced[net]:
                    raise ElaborationError(
                        f"gate {gate.kind}->{gate.out} reads net {net} "
                        "before it is produced (not topological)")
            if produced[gate.out]:
                raise ElaborationError(f"net {gate.out} has two drivers")
            produced[gate.out] = True
        for dff in self.dffs:
            if not dff.driven:
                raise ElaborationError(f"flip-flop {dff.name!r} is undriven")
            if not produced[dff.d]:
                raise ElaborationError(
                    f"flip-flop {dff.name!r} D input reads dangling net")
        for bram in self.brams:
            for net in (*bram.raddr, *bram.waddr, *bram.wdata, bram.we):
                if not produced[net]:
                    raise ElaborationError(
                        f"memory {bram.name!r} reads dangling net {net}")
        for nets in self.outputs.values():
            for net in nets:
                if not produced[net]:
                    raise ElaborationError(f"output reads dangling net {net}")
