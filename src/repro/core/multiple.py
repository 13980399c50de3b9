"""Multiple bit-flips — the paper's section-8 / section-7.2 extension.

Two threads from the paper meet here:

* section 8 lists "the occurrence of multiple bit-flips" as future work —
  multi-cell upsets (MBUs) flip several storage cells at once;
* section 7.2 argues that a pulse in combinational logic "could be
  emulated by means of the injection of a multiple bit-flip in the
  related sequential logic", but that finding the right *distribution* of
  bit-flips requires injecting real combinational faults first.

This module provides both halves: simultaneous multi-FF / adjacent-memory
bit-flip injections, and :func:`pulse_equivalent_mbu`, which derives the
multiple bit-flip equivalent of a given combinational pulse by measuring
which flip-flops it corrupts — closing the loop the paper sketches.
"""

from __future__ import annotations


from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import InjectionError
from ..fpga.architecture import FrameAddr
from ..fpga.bitstream import CbConfig
from .faults import Fault, FaultModel, Target, TargetKind
from .injector import FadesInjector, Injection


def multi_ff_bitflip(ff_indices: Sequence[int], start_cycle: int) -> Fault:
    """A simultaneous bit-flip of several flip-flops (one MBU)."""
    if not ff_indices:
        raise InjectionError("an MBU needs at least one target")
    targets = [Target(TargetKind.FF, index) for index in ff_indices]
    return Fault(model=FaultModel.BITFLIP, target=targets[0],
                 start_cycle=start_cycle, mechanism="multi",
                 extra_targets=tuple(targets[1:]))


def adjacent_memory_mbu(bram_index: int, addr: int, first_bit: int,
                        width: int, start_cycle: int) -> Fault:
    """An MBU flipping *width* adjacent bits of one memory word.

    Physically adjacent configuration cells share a frame, so the whole
    upset costs a single read-modify-write — no more than a single-bit
    flip (the interesting asymmetry against multi-FF MBUs, which pay per
    flip-flop).
    """
    targets = [Target(TargetKind.MEMORY_BIT, bram_index, addr=addr,
                      bit=first_bit + offset)
               for offset in range(width)]
    return Fault(model=FaultModel.BITFLIP, target=targets[0],
                 start_cycle=start_cycle, mechanism="multi",
                 extra_targets=tuple(targets[1:]))


class MultiLsrBitflip(Injection):
    """Flip several FFs between the same two clock edges.

    One state-frame readback per involved column (shared by all targets
    in that column), then the usual force/release LSR write pair per FF.
    """

    def __init__(self, injector: FadesInjector, fault: Fault):
        super().__init__(fault)
        self.injector = injector
        self.sites = [(target.index, injector.ff_site(target.index))
                      for target in fault.all_targets]

    def inject(self) -> None:
        jbits = self.injector.jbits
        # One state capture per distinct column.
        states = {}
        for _index, (_row, col) in self.sites:
            if col not in states:
                states[col] = jbits.read_frame(FrameAddr("state", col))
        for _index, (row, col) in self.sites:
            state = (states[col][row // 8] >> (row % 8)) & 1
            golden = self.injector.golden_cb(row, col)
            forced = CbConfig(**{**golden.__dict__})
            forced.srval = state ^ 1
            forced.invert_lsr = True
            jbits.write_cb(row, col, forced)
            jbits.write_cb(row, col, golden)


class MultiMemoryBitflip(Injection):
    """Flip several bits of one memory block in a single frame RMW."""

    def __init__(self, injector: FadesInjector, fault: Fault):
        super().__init__(fault)
        self.injector = injector
        blocks = {target.index for target in fault.all_targets}
        if len(blocks) != 1:
            raise InjectionError(
                "a memory MBU must stay within one block (one frame)")
        placement = injector.device.impl.placement
        self.block = placement.block_of_bram[fault.target.index]

    def inject(self) -> None:
        jbits = self.injector.jbits
        arch = self.injector.device.arch
        addr = FrameAddr("bram", self.block)
        frame = bytearray(jbits.read_frame(addr))
        for target in self.fault.all_targets:
            _frame, byte_off, bit_off = arch.bram_bit(
                self.block, target.addr, target.bit)
            frame[byte_off] ^= 1 << bit_off
        jbits.write_frame(addr, bytes(frame))


def prepare_multiple(injector: FadesInjector, fault: Fault) -> Injection:
    """Build the injection for a multi-target bit-flip."""
    if fault.model is not FaultModel.BITFLIP:
        raise InjectionError("only bit-flips support multiplicity")
    kinds = {target.kind for target in fault.all_targets}
    if kinds == {TargetKind.FF}:
        return MultiLsrBitflip(injector, fault)
    if kinds == {TargetKind.MEMORY_BIT}:
        return MultiMemoryBitflip(injector, fault)
    raise InjectionError(f"mixed MBU target kinds: {kinds}")


# ---------------------------------------------------------------------------
# section 7.2: combinational pulse -> equivalent multiple bit-flip
# ---------------------------------------------------------------------------
@dataclass
class PulseEquivalent:
    """A pulse's measured footprint and its MBU replacement."""

    lut_index: int
    cycle: int
    flipped_ffs: Tuple[int, ...]
    mbu: Optional[Fault]   # None if the pulse touched no flip-flop
    #: Golden flip-flop state one cycle after the probe point.
    golden_ffs: Tuple[int, ...]


def pulse_equivalent_mbu(campaign, lut_indices: Iterable[int],
                         cycle: int) -> List[PulseEquivalent]:
    """Measure which FFs a one-cycle output pulse on each LUT of
    *lut_indices* corrupts, and build each equivalent multiple bit-flip
    (paper, section 7.2).

    "It will be necessary to perform several experiments to determine how
    each fault model could be emulated by means of a multiple bit-flip" —
    these are those experiments, automated.
    """
    device = campaign.device
    # One run to the probe point serves the golden cycle and every
    # pulsed one.
    device.reset_system()
    device.run(cycle)
    prefix = device.save_state()
    device.step()
    golden = device.ff_state()
    equivalents: List[PulseEquivalent] = []
    for lut_index in lut_indices:
        device.load_state(prefix)
        fault = Fault(FaultModel.PULSE, Target(TargetKind.LUT, lut_index),
                      cycle, duration_cycles=1.0)
        injection = campaign.injector.prepare(fault)
        injection.inject()
        device.step()
        injection.remove()
        flipped = tuple(index for index, (a, b)
                        in enumerate(zip(golden, device.ff_state()))
                        if a != b)
        campaign._restore_configuration()
        # The pulse corrupts the state captured at the END of `cycle`; a
        # bit-flip injected at `cycle + 1` flips exactly that state
        # before the next evaluation, so the two runs align cycle for
        # cycle.
        mbu = multi_ff_bitflip(flipped, cycle + 1) if flipped else None
        equivalents.append(PulseEquivalent(
            lut_index=lut_index, cycle=cycle, flipped_ffs=flipped, mbu=mbu,
            golden_ffs=golden))
    return equivalents
