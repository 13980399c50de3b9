"""Per-site observability: netlist facts that hold in every cycle.

:class:`ObservabilityAnalysis` holds the workload-independent facts
the lint pass (:mod:`repro.sfa.lint`) reports: stuck-value propagation
over golden-run invariants and the truth-table entries of each LUT
that constant or tied inputs make unreachable.  Whether a fault is
Silent is not decided here: the pruner runs the faults the lane engine
can express against the golden run (:mod:`repro.emu`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..hdl.netlist import CONST0, CONST1
from ..synth.mapped import MappedNetlist


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
                 assume_inputs: Optional[Dict[str, int]] = None) -> None:
        self.mapped = mapped
        self.constants = ConstantPropagation(mapped, assume_inputs)

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
