"""Structural graph over a design: the substrate of all static analyses.

A :class:`StructuralGraph` gives one uniform view of either IR level —
the gate-level :class:`~repro.hdl.netlist.Netlist` or the mapped
:class:`~repro.synth.mapped.MappedNetlist` — as a directed graph whose
nodes are nets and whose edges run from every combinational cell's
inputs to its output.  State elements (flip-flops, memory blocks) and
the primary ports delimit the combinational regions.

On top of the adjacency it provides the classic structural analyses the
rest of :mod:`repro.sfa` builds on:

* **topological levels** — combinational depth per net;
* **SCC detection** — combinational loops (iterative Tarjan, so deep
  designs cannot blow the recursion limit);
* **cone extraction** — transitive combinational fan-in / fan-out;
* **observability closure** — the nets from which a primary output is
  (sequentially) reachable, which separates dead logic from live.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..hdl.netlist import CONST0, CONST1, Netlist
from ..synth.mapped import MappedNetlist

#: One combinational cell: output net, input nets (constants included).
Cell = Tuple[int, Tuple[int, ...]]

Design = Union[Netlist, MappedNetlist]


class StructuralGraph:
    """Net-level adjacency of one design plus derived analyses.

    Build one with :meth:`from_design`; every analysis is computed
    lazily and cached, so constructing the graph is cheap.
    """

    def __init__(self, n_nets: int, cells: Sequence[Cell],
                 ff_pairs: Sequence[Tuple[int, int]],
                 bram_port_nets: Sequence[Tuple[int, ...]],
                 bram_rdata_nets: Sequence[Tuple[int, ...]],
                 input_nets: Iterable[int],
                 output_nets: Iterable[int]) -> None:
        self.n_nets = n_nets
        #: Combinational cells (LUTs or gates) in emission order.
        self.cells: List[Cell] = list(cells)
        #: (q, d) net pair per flip-flop, in flip-flop index order.
        self.ff_pairs: List[Tuple[int, int]] = list(ff_pairs)
        #: Per memory block: the nets feeding its ports (addresses,
        #: write data, write enable) — observable sinks, like FF data
        #: inputs, because they can change architectural state.
        self.bram_port_nets: List[Tuple[int, ...]] = list(bram_port_nets)
        #: Per memory block: its registered read-data nets (state
        #: outputs, level 0 like FF outputs).
        self.bram_rdata_nets: List[Tuple[int, ...]] = list(bram_rdata_nets)
        self.input_nets: Set[int] = set(input_nets)
        self.output_nets: Set[int] = set(output_nets)

        #: net -> index of the cell driving it (combinational nets only).
        self.cell_of_net: Dict[int, int] = {}
        #: net -> indices of the cells reading it.
        self.readers: List[List[int]] = [[] for _ in range(n_nets)]
        for index, (out, ins) in enumerate(self.cells):
            self.cell_of_net[out] = index
            for net in ins:
                if net not in (CONST0, CONST1):
                    self.readers[net].append(index)
        #: net -> indices of the flip-flops whose D input reads it.
        self.ff_readers: Dict[int, List[int]] = {}
        for ff_index, (_q, d) in enumerate(self.ff_pairs):
            self.ff_readers.setdefault(d, []).append(ff_index)
        #: net -> indices of the memory blocks with a port reading it.
        self.bram_readers: Dict[int, List[int]] = {}
        for block, ports in enumerate(self.bram_port_nets):
            for net in ports:
                if net not in (CONST0, CONST1):
                    block_list = self.bram_readers.setdefault(net, [])
                    if not block_list or block_list[-1] != block:
                        block_list.append(block)

        self._levels: Optional[List[int]] = None
        self._loops: Optional[List[List[int]]] = None
        self._comb_observable: Optional[Set[int]] = None
        self._observable: Optional[Set[int]] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_design(cls, design: Design) -> "StructuralGraph":
        """Build the graph from either IR level."""
        if isinstance(design, MappedNetlist):
            cells: List[Cell] = [(lut.out, tuple(lut.ins))
                                 for lut in design.luts]
        else:
            cells = [(gate.out, tuple(gate.ins)) for gate in design.gates]
        ff_pairs = [(ff.q, ff.d) for ff in design.ffs] \
            if isinstance(design, MappedNetlist) \
            else [(dff.q, dff.d) for dff in design.dffs]
        brams = design.brams
        ports = [tuple(bram.raddr) + (() if bram.rom else
                                      (bram.we,) + tuple(bram.waddr)
                                      + tuple(bram.wdata))
                 for bram in brams]
        rdata = [tuple(bram.rdata) for bram in brams]
        inputs = [net for nets in design.inputs.values() for net in nets]
        outputs = [net for nets in design.outputs.values() for net in nets]
        return cls(design.n_nets, cells, ff_pairs, ports, rdata,
                   inputs, outputs)

    # ------------------------------------------------------------------
    # sinks and sources
    # ------------------------------------------------------------------
    def sink_nets(self) -> Set[int]:
        """Nets whose value is architecturally observable *this cycle*:
        primary outputs, flip-flop D inputs and memory-block ports."""
        sinks = set(self.output_nets)
        sinks.update(self.ff_readers)
        sinks.update(self.bram_readers)
        return sinks

    # ------------------------------------------------------------------
    # levels
    # ------------------------------------------------------------------
    def levels(self) -> List[int]:
        """Combinational depth per net (level 0 for state/inputs).

        Requires a loop-free design; call :meth:`combinational_loops`
        first when the input is untrusted.
        """
        if self._levels is None:
            level = [0] * self.n_nets
            for out, ins in self.cells:
                level[out] = 1 + max((level[net] for net in ins), default=0)
            self._levels = level
        return self._levels

    # ------------------------------------------------------------------
    # combinational loops (iterative Tarjan SCC over cells)
    # ------------------------------------------------------------------
    def combinational_loops(self) -> List[List[int]]:
        """Strongly connected cell groups, as lists of output nets.

        The netlist builders emit cells topologically, but both IRs are
        mutable — a transform that rewires ``ins`` after construction
        can close a combinational cycle, which the device model would
        mis-simulate.  Every SCC of two or more cells (or a cell reading
        its own output) is one loop.
        """
        if self._loops is not None:
            return self._loops
        n = len(self.cells)
        # Successor cells of each cell: the readers of its output net.
        index_of: List[int] = [-1] * n
        low: List[int] = [0] * n
        on_stack = [False] * n
        stack: List[int] = []
        loops: List[List[int]] = []
        counter = 0
        for root in range(n):
            if index_of[root] != -1:
                continue
            work: List[Tuple[int, int]] = [(root, 0)]
            while work:
                node, child = work[-1]
                if child == 0:
                    index_of[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack[node] = True
                successors = self.readers[self.cells[node][0]]
                if child < len(successors):
                    work[-1] = (node, child + 1)
                    succ = successors[child]
                    if index_of[succ] == -1:
                        work.append((succ, 0))
                    elif on_stack[succ]:
                        low[node] = min(low[node], index_of[succ])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] == index_of[node]:
                        component: List[int] = []
                        while True:
                            member = stack.pop()
                            on_stack[member] = False
                            component.append(member)
                            if member == node:
                                break
                        self_loop = (len(component) == 1 and component[0] in
                                     self.readers[self.cells[
                                         component[0]][0]])
                        if len(component) > 1 or self_loop:
                            loops.append(sorted(
                                self.cells[c][0] for c in component))
        self._loops = loops
        return loops

    # ------------------------------------------------------------------
    # cones
    # ------------------------------------------------------------------
    def comb_fanout(self, net: int) -> Set[int]:
        """Nets combinationally reachable from *net* (excl. *net*)."""
        seen: Set[int] = set()
        frontier = [net]
        while frontier:
            current = frontier.pop()
            for cell in self.readers[current]:
                out = self.cells[cell][0]
                if out not in seen:
                    seen.add(out)
                    frontier.append(out)
        return seen

    def comb_fanin(self, net: int) -> Set[int]:
        """Nets in the combinational input cone of *net* (excl. *net*)."""
        seen: Set[int] = set()
        frontier = [net]
        while frontier:
            cell = self.cell_of_net.get(frontier.pop())
            if cell is None:
                continue
            for source in self.cells[cell][1]:
                if source not in seen and source not in (CONST0, CONST1):
                    seen.add(source)
                    frontier.append(source)
        return seen

    def affected_ffs(self, net: int) -> Set[int]:
        """Flip-flops whose D input cone contains *net*."""
        cone = self.comb_fanout(net)
        cone.add(net)
        affected: Set[int] = set()
        for reached in cone:
            affected.update(self.ff_readers.get(reached, ()))
        return affected

    # ------------------------------------------------------------------
    # observability closure
    # ------------------------------------------------------------------
    def comb_observable_nets(self) -> Set[int]:
        """Nets from which some sink is *combinationally* reachable."""
        if self._comb_observable is None:
            observable = set(self.sink_nets())
            for out, ins in reversed(self.cells):
                if out in observable:
                    observable.update(
                        net for net in ins
                        if net not in (CONST0, CONST1))
            self._comb_observable = observable
        return self._comb_observable

    def observable_nets(self) -> Set[int]:
        """Nets from which a primary output is reachable in *any* number
        of cycles (through flip-flops and memory blocks).

        A fault confined to nets outside this closure can never alter an
        output sample — though it may still alter final state, so prune
        rules must separately bound its persistence.
        """
        if self._observable is not None:
            return self._observable
        # Backward closure from the primary outputs across cycle
        # boundaries: reaching a FF's Q (or a memory read port) pulls in
        # the matching D input (or the block's port nets) one cycle
        # earlier.
        observable: Set[int] = set(self.output_nets)
        frontier = list(self.output_nets)

        def visit(net: int) -> None:
            if net not in observable and net not in (CONST0, CONST1):
                observable.add(net)
                frontier.append(net)

        seen_ffs: Set[int] = set()
        seen_blocks: Set[int] = set()
        q_to_ff: Dict[int, int] = {q: i
                                   for i, (q, _d) in enumerate(self.ff_pairs)}
        rdata_to_block: Dict[int, int] = {}
        for block, rdata in enumerate(self.bram_rdata_nets):
            for net in rdata:
                rdata_to_block[net] = block
        while frontier:
            net = frontier.pop()
            cell = self.cell_of_net.get(net)
            if cell is not None:
                for source in self.cells[cell][1]:
                    visit(source)
            ff_index = q_to_ff.get(net)
            if ff_index is not None and ff_index not in seen_ffs:
                seen_ffs.add(ff_index)
                visit(self.ff_pairs[ff_index][1])
            block = rdata_to_block.get(net)
            if block is not None and block not in seen_blocks:
                seen_blocks.add(block)
                for port in self.bram_port_nets[block]:
                    visit(port)
        self._observable = observable
        return observable

    # ------------------------------------------------------------------
    def dead_cells(self) -> List[int]:
        """Cells whose output transitively feeds no sink (dead logic)."""
        observable = self.comb_observable_nets()
        live = set(observable)
        # A cell is live if its output reaches a sink through any path,
        # including through downstream state elements: use the full
        # sequential closure so feedback registers don't look dead.
        sequential = self.observable_nets()
        live.update(sequential)
        return [index for index, (out, _ins) in enumerate(self.cells)
                if out not in live]

    def floating_inputs(self) -> List[int]:
        """Declared primary-input nets nothing reads."""
        floating = []
        for net in sorted(self.input_nets):
            if (not self.readers[net] and net not in self.ff_readers
                    and net not in self.bram_readers
                    and net not in self.output_nets):
                floating.append(net)
        return floating

    def unregistered_outputs(self) -> List[int]:
        """Output nets whose cone reaches a primary input combinationally
        (no flip-flop or memory on some input-to-output path)."""
        unregistered = []
        for net in sorted(self.output_nets):
            cone = self.comb_fanin(net)
            cone.add(net)
            if cone & self.input_nets:
                unregistered.append(net)
        return unregistered

