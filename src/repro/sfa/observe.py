"""Per-site observability: which faults can provably never be observed.

:class:`ObservabilityAnalysis` holds the workload-independent facts
consumed by the campaign pruner (:mod:`repro.sfa.prune`) and the lint
pass (:mod:`repro.sfa.lint`): stuck-value propagation over golden-run
invariants, reachable truth-table entry masks per LUT (dead-LUT-bit
detection), and sequential washout — a transient whose influence set
goes extinct before the end of the run without ever touching an output
or a memory port is Silent for *every* workload.  The workload-aware
verdict on single bit-flips is not made here: the pruner runs those
faults on the lane engine (:mod:`repro.emu`).

Soundness of the truth-table masks deserves a note: the reachable-entry
mask is derived from golden-run constants, yet it is applied to *faulty*
configurations.  That is sound because the masked site is the only
fault site — the LUT's inputs keep their golden values for as long as
its own output has never deviated, and a fault that only touches masked
(unreachable) entries never makes the output deviate in the first place
(induction over cycles and topological order within a cycle).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..hdl.netlist import CONST0, CONST1
from ..synth.mapped import LUT_INPUTS, MappedNetlist
from .graph import StructuralGraph


# ----------------------------------------------------------------------
# stuck-value propagation
# ----------------------------------------------------------------------
class ConstantPropagation:
    """Nets provably constant in every cycle of the golden run.

    Primary inputs are constants when their held values are supplied
    (the campaign applies its input vector at cycle 0 and holds it);
    flip-flops are constant when they start at ``init`` and their D
    input evaluates back to ``init`` under the constants — computed as a
    greatest fixed point (assume every FF constant, then retract until
    stable).  Memory read ports are never assumed constant.
    """

    def __init__(self, mapped: MappedNetlist,
                 assume_inputs: Optional[Dict[str, int]] = None) -> None:
        self.mapped = mapped
        base: Dict[int, int] = {CONST0: 0, CONST1: 1}
        if assume_inputs is not None:
            for name, nets in mapped.inputs.items():
                held = assume_inputs.get(name, 0)
                for position, net in enumerate(nets):
                    base[net] = (held >> position) & 1
        constant_ffs: Dict[int, int] = {
            index: ff.init for index, ff in enumerate(mapped.ffs)}
        while True:
            known = dict(base)
            for index, value in constant_ffs.items():
                known[mapped.ffs[index].q] = value
            for lut in mapped.luts:
                value = _eval_with_unknowns(lut.tt, lut.ins, known)
                if value is not None:
                    known[lut.out] = value
            retracted = [
                index for index, value in constant_ffs.items()
                if known.get(mapped.ffs[index].d) != value]
            if not retracted:
                self.known = known
                self.constant_ffs = constant_ffs
                return
            for index in retracted:
                del constant_ffs[index]


def _eval_with_unknowns(tt: int, ins: Sequence[int],
                        known: Dict[int, int]) -> Optional[int]:
    """Truth-table output when it is independent of all unknown inputs."""
    unknown = [position for position, net in enumerate(ins)
               if net not in known]
    base = 0
    for position, net in enumerate(ins):
        if known.get(net):
            base |= 1 << position
    result: Optional[int] = None
    for combo in range(1 << len(unknown)):
        index = base
        for offset, position in enumerate(unknown):
            if (combo >> offset) & 1:
                index |= 1 << position
        value = (tt >> index) & 1
        if result is None:
            result = value
        elif value != result:
            return None
    return result


# ----------------------------------------------------------------------
# observability analysis
# ----------------------------------------------------------------------
class ObservabilityAnalysis:
    """Workload-independent observability facts about one mapped design."""

    def __init__(self, mapped: MappedNetlist,
                 graph: Optional[StructuralGraph] = None,
                 assume_inputs: Optional[Dict[str, int]] = None) -> None:
        self.mapped = mapped
        self.graph = graph or StructuralGraph.from_design(mapped)
        self.constants = ConstantPropagation(mapped, assume_inputs)
        self._masks: Dict[int, int] = {}
        self._bram_port_set: Set[int] = set(self.graph.bram_readers)
        self._q_cone_clean: Dict[int, bool] = {}

    # -- truth-table entry reachability --------------------------------
    def reachable_mask(self, lut_index: int) -> int:
        """16-bit mask of reachable entries of the *padded* truth table.

        Entry *i* is reachable unless it disagrees with a constant
        input, sets a padding position (the substrate ties unused LUT
        inputs to constant 0), or assigns different values to two
        positions fed by the same net.
        """
        cached = self._masks.get(lut_index)
        if cached is not None:
            return cached
        lut = self.mapped.luts[lut_index]
        known = self.constants.known
        padded = list(lut.ins) + [CONST0] * (LUT_INPUTS - len(lut.ins))
        mask = 0
        for index in range(1 << LUT_INPUTS):
            reachable = True
            for position, net in enumerate(padded):
                bit = (index >> position) & 1
                value = known.get(net)
                if value is not None and value != bit:
                    reachable = False
                    break
                if padded.index(net) != position and \
                        (index >> padded.index(net)) & 1 != bit:
                    reachable = False
                    break
            if reachable:
                mask |= 1 << index
        self._masks[lut_index] = mask
        return mask

    def dead_entry_lines(self, lut_index: int) -> List[int]:
        """Unreachable entries of the truth table at its *actual* arity.

        Used by lint: entries a tied or constant input makes dead are
        wasted configuration bits (and un-gradable fault sites).
        """
        lut = self.mapped.luts[lut_index]
        known = self.constants.known
        dead = []
        for index in range(1 << len(lut.ins)):
            for position, net in enumerate(lut.ins):
                bit = (index >> position) & 1
                value = known.get(net)
                if value is not None and value != bit:
                    dead.append(index)
                    break
                first = lut.ins.index(net)
                if first != position and (index >> first) & 1 != bit:
                    dead.append(index)
                    break
        return dead

    def lut_change_invisible(self, lut_index: int,
                             faulty_padded_tt: int) -> bool:
        """True when a faulty truth table only differs on dead entries."""
        golden = self.mapped.luts[lut_index].padded_tt()
        return (faulty_padded_tt ^ golden) & \
            self.reachable_mask(lut_index) == 0

    # -- sequential washout --------------------------------------------
    def comb_effect_only(self, net: int) -> bool:
        """True when *net*'s combinational cone holds no state or output
        sink — a transient there evaporates the cycle it is removed."""
        cone = self.graph.comb_fanout(net)
        cone.add(net)
        if cone & self.graph.output_nets:
            return False
        for reached in cone:
            if reached in self.graph.ff_readers or \
                    reached in self._bram_port_set:
                return False
        return True

    def _q_cone_is_clean(self, ff_index: int) -> bool:
        """A flip-flop's Q cone touches no output and no memory port."""
        cached = self._q_cone_clean.get(ff_index)
        if cached is not None:
            return cached
        q = self.graph.ff_pairs[ff_index][0]
        cone = self.graph.comb_fanout(q)
        cone.add(q)
        clean = not (cone & self.graph.output_nets)
        if clean:
            for net in cone:
                if net in self._bram_port_set:
                    clean = False
                    break
        self._q_cone_clean[ff_index] = clean
        return clean

    def washed_out(self, seed_ffs: Iterable[int], windowed_cycles: int,
                   remaining_cycles: int) -> bool:
        """True when state corruption seeded into *seed_ffs* provably
        dies out within *remaining_cycles* of the fault's removal,
        having touched neither an output nor a memory port.

        ``windowed_cycles`` re-seeds the set once per cycle the fault is
        active; after removal the set evolves freely through the
        FF-to-FF successor relation.  The check is conservative: any
        visited flip-flop whose Q cone is not clean fails it.
        """
        seed = set(seed_ffs)
        if not seed:
            return True
        successors = self.graph.ff_successors()

        def clean_step(current: Set[int]) -> Optional[Set[int]]:
            nxt: Set[int] = set()
            for ff in current:
                if not self._q_cone_is_clean(ff):
                    return None
                nxt |= successors[ff]
            return nxt

        current = set(seed)
        for _ in range(max(0, windowed_cycles - 1)):
            stepped = clean_step(current)
            if stepped is None:
                return False
            current = stepped | seed
        for _ in range(remaining_cycles):
            if not current:
                return True
            stepped = clean_step(current)
            if stepped is None:
                return False
            if stepped >= current:
                # Monotone growth: a fixed point with survivors is
                # coming; the set can never empty out.
                return False
            current = stepped
        return not current
