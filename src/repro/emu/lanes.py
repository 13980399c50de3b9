"""Lane manager: packed state, fault schedules and the batched run loop.

State is held as *bit planes*: one arbitrary-width integer per flip-flop
(and per memory-cell bit), whose bit *k* is that element's value in lane
*k*.  Lane 0 always carries the golden (fault-free) run; the remaining
lanes each carry one fault experiment.  Fault effects are expressed as a
:class:`BatchSchedule` of lane-masked operations applied around the
compiled design's ``step`` function:

* **pre-step** operations mutate packed state before evaluation —
  bit-flips (XOR), indetermination forces, memory-bit flips;
* **capture** operations fix up the next-state vector after evaluation —
  setup-violation capture of the previous data value (delay faults),
  capture inversion (CB-input pulses), capture pinning (held LSR lines);
* **overrides** swap a LUT's truth table for selected lanes on selected
  cycles (pulse and indetermination faults on LUTs), evaluated through
  the compiled design's hooked step variant.

Memory ports are served per distinct address, not per lane: the lanes
are split on each address bit (:func:`split_by_address`), and each
group reads or writes its word with one masked operation.

Failure detection is a lane-wise XOR of every primary-output plane
against lane 0 broadcast; latent detection compares final packed state
the same way.  Both feed :mod:`repro.core.classify` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..obs import metrics as obs_metrics
from .compiler import CompiledDesign, tt_function

_LANE_CYCLES = obs_metrics.counter(
    "emu_lane_cycles_total",
    "Lane-cycles evaluated by the lane engine (lanes times cycles).")


class BatchSchedule:
    """Per-cycle lane operations for one batch of fault experiments."""

    def __init__(self) -> None:
        #: cycle -> [("xor", ff, mask) | ("set", ff, mask, valmask)
        #:           | ("mem", mem_index, addr, bit, mask)]
        self.pre: Dict[int, List[Tuple]] = {}
        #: cycle -> [("viol", ff, mask, ref_cycle) | ("invert", ff, mask)
        #:           | ("pin", ff, mask, valmask)]
        self.capture: Dict[int, List[Tuple]] = {}
        #: raw next-state values the viol fix-ups need: cycle -> [ff...]
        self.record: Dict[int, List[int]] = {}
        self._recorded: Set[Tuple[int, int]] = set()
        #: cycle -> lut_index -> [(mask, tt_fn)]
        self.overrides: Dict[int, Dict[int, List[Tuple]]] = {}

    # -- pre-step state edits -------------------------------------------
    def xor_ff(self, cycle: int, ff: int, lane: int) -> None:
        """Flip one flip-flop in one lane just before *cycle* evaluates."""
        self.pre.setdefault(cycle, []).append(("xor", ff, 1 << lane))

    def set_ff(self, cycle: int, ff: int, lane: int, value: int) -> None:
        """Force one flip-flop's pre-evaluation value in one lane."""
        mask = 1 << lane
        self.pre.setdefault(cycle, []).append(
            ("set", ff, mask, mask if value else 0))

    def flip_mem(self, cycle: int, mem_index: int, addr: int, bit: int,
                 lane: int) -> None:
        """Flip one memory bit in one lane before *cycle* evaluates."""
        self.pre.setdefault(cycle, []).append(
            ("mem", mem_index, addr, bit, 1 << lane))

    # -- capture fix-ups ------------------------------------------------
    def pin_capture(self, cycle: int, ff: int, lane: int,
                    value: int) -> None:
        """Capture a forced level instead of the data input (held LSR)."""
        mask = 1 << lane
        self.capture.setdefault(cycle, []).append(
            ("pin", ff, mask, mask if value else 0))

    def invert_capture(self, cycle: int, ff: int, lane: int) -> None:
        """Capture the complement of the data input (CB-input pulse)."""
        self.capture.setdefault(cycle, []).append(
            ("invert", ff, 1 << lane))

    def violating_capture(self, cycle: int, ff: int, lane: int) -> None:
        """Capture the *previous* cycle's data value (setup violation)."""
        self.capture.setdefault(cycle, []).append(
            ("viol", ff, 1 << lane, cycle - 1))
        if cycle - 1 >= 0 and (cycle - 1, ff) not in self._recorded:
            self._recorded.add((cycle - 1, ff))
            self.record.setdefault(cycle - 1, []).append(ff)

    # -- truth-table overrides ------------------------------------------
    def override(self, cycle: int, lut_index: int, lane: int,
                 padded_tt: int) -> None:
        """Evaluate one LUT from a different table in one lane."""
        per_lut = self.overrides.setdefault(cycle, {})
        per_lut.setdefault(lut_index, []).append(
            (1 << lane, tt_function(padded_tt)))


@dataclass
class LaneResult:
    """What one batched run produced.

    ``samples`` is the lane-0 (golden) output record, one ``name ->
    value`` dictionary per cycle; ``final_state`` is lane 0's snapshot in
    :meth:`repro.fpga.device.Device.state_snapshot` format.  ``fail_mask``
    has a bit set for every lane whose output sequence diverged from lane
    0 (with the cycle of first divergence in ``first_divergence``), and
    ``latent_mask`` for every lane whose final flip-flop or memory state
    differs from lane 0.
    """

    lanes: int
    samples: List[Dict[str, int]] = field(default_factory=list)
    final_state: Tuple = ()
    fail_mask: int = 0
    latent_mask: int = 0
    first_divergence: Dict[int, int] = field(default_factory=dict)


def split_by_address(mask: int, planes: Sequence[int]
                     ) -> List[Tuple[int, int]]:
    """Partition the lanes of *mask* by the address they spell.

    ``planes[k]`` is address bit *k* as a lane plane.  Returns one
    ``(lanes, address)`` pair per distinct address among the lanes of
    *mask*: the ``lanes`` masks partition *mask*, and every lane of a
    group spells that group's address.  Splitting on each address bit
    costs a few masked operations per group, however many lanes share
    an address.
    """
    groups = [(mask, 0)] if mask else []
    for offset, plane in enumerate(planes):
        bit = 1 << offset
        split = []
        for lanes, addr in groups:
            ones = lanes & plane
            if ones:
                split.append((ones, addr | bit))
            if ones != lanes:
                split.append((lanes ^ ones, addr))
        groups = split
    return groups


def _make_hook(pairs: List[Tuple], mask_all: int):
    def hook(current, a, b, c, d):
        for mask, tt_fn in pairs:
            current = (current & ~mask) | (tt_fn(a, b, c, d, mask_all)
                                           & mask)
        return current
    return hook


def run_lanes(design: CompiledDesign, lanes: int, cycles: int,
              inputs: Optional[Dict[str, int]] = None,
              schedule: Optional[BatchSchedule] = None) -> LaneResult:
    """Run *cycles* clock cycles of *design* across *lanes* packed lanes.

    ``inputs`` is the constant primary-input assignment (the campaign
    workload convention: applied at cycle 0, held for the whole run) and
    is broadcast to every lane.  ``schedule`` carries the per-lane fault
    operations; ``None`` runs every lane fault-free.
    """
    mask_all = (1 << lanes) - 1
    schedule = schedule if schedule is not None else BatchSchedule()
    held = dict(inputs or {})
    state = [init * mask_all for init in design.ff_init]
    nxt = [0] * len(state)
    flat_in = [0] * design.n_flat_in
    for name, positions in design.input_positions:
        value = held.get(name, 0)
        for offset, position in enumerate(positions):
            flat_in[position] = ((value >> offset) & 1) * mask_all
    rdata = [0] * design.n_r
    ports = [0] * design.n_b
    flat_out = [0] * design.n_flat_out
    mems = []
    for spec in design.mems:
        words = list(spec.init) + [0] * (spec.depth - len(spec.init))
        mems.append([[((word >> bit) & 1) * mask_all
                      for bit in range(spec.width)]
                     for word in words[:spec.depth]])
    recorded: Dict[Tuple[int, int], int] = {
        (-1, ff): init * mask_all
        for ff, init in enumerate(design.ff_init)}

    step = design.step
    step_hooked = design.step_hooked
    pre_ops = schedule.pre
    capture_ops = schedule.capture
    record_wanted = schedule.record
    override_cycles = schedule.overrides
    result = LaneResult(lanes=lanes)
    samples = result.samples
    fail = 0
    out_layout = []
    position = 0
    for name, width in design.outputs:
        out_layout.append((name, position, width))
        position += width

    for cycle in range(cycles):
        ops = pre_ops.get(cycle)
        if ops:
            for op in ops:
                if op[0] == "xor":
                    state[op[1]] ^= op[2]
                elif op[0] == "set":
                    state[op[1]] = (state[op[1]] & ~op[2]) | op[3]
                else:  # "mem"
                    mems[op[1]][op[2]][op[3]] ^= op[4]
        per_lut = override_cycles.get(cycle)
        if per_lut:
            hooks = {lut: _make_hook(pairs, mask_all)
                     for lut, pairs in per_lut.items()}
            step_hooked(mask_all, state, flat_in, rdata, nxt, flat_out,
                        ports, hooks)
        else:
            step(mask_all, state, flat_in, rdata, nxt, flat_out, ports)

        sample: Dict[str, int] = {}
        for name, base, width in out_layout:
            golden_value = 0
            for offset in range(width):
                plane = flat_out[base + offset]
                bit0 = plane & 1
                golden_value |= bit0 << offset
                fail |= plane ^ (bit0 * mask_all)
            sample[name] = golden_value
        samples.append(sample)
        fresh = fail & ~result.fail_mask
        if fresh:
            result.fail_mask = fail
            while fresh:
                low = fresh & -fresh
                result.first_divergence[low.bit_length() - 1] = cycle
                fresh ^= low

        wanted = record_wanted.get(cycle)
        if wanted:
            for ff in wanted:
                recorded[(cycle, ff)] = nxt[ff]
        ops = capture_ops.get(cycle)
        if ops:
            for op in ops:
                if op[0] == "viol":
                    _kind, ff, mask, ref_cycle = op
                    nxt[ff] = ((nxt[ff] & ~mask)
                               | (recorded[(ref_cycle, ff)] & mask))
            for op in ops:
                if op[0] == "invert":
                    nxt[op[1]] ^= op[2]
            for op in ops:
                if op[0] == "pin":
                    nxt[op[1]] = (nxt[op[1]] & ~op[2]) | op[3]
        state, nxt = nxt, state

        for mem_index, spec in enumerate(design.mems):
            cells = mems[mem_index]
            depth, width = spec.depth, spec.width
            # One masked read and write per distinct address: lanes
            # that diverged onto other addresses form their own groups.
            groups = split_by_address(
                mask_all, [ports[port] for port in spec.b_raddr])
            if len(groups) == 1:
                addr = groups[0][1]
                read = list(cells[addr]) if addr < depth else [0] * width
            else:
                read = [0] * width
                for lanes_at, addr in groups:
                    if addr < depth:
                        cell = cells[addr]
                        for bit in range(width):
                            read[bit] |= cell[bit] & lanes_at
            if not spec.rom:
                write_en = ports[spec.b_we]
                if write_en:
                    wdata = [ports[port] for port in spec.b_wdata]
                    for lanes_at, addr in split_by_address(
                            write_en, [ports[port] for port in spec.b_waddr]):
                        if addr < depth:
                            cell = cells[addr]
                            keep = ~lanes_at
                            for bit in range(width):
                                cell[bit] = ((cell[bit] & keep)
                                             | (wdata[bit] & lanes_at))
            base = spec.r_base
            for bit in range(width):
                rdata[base + bit] = read[bit]

    latent = 0
    for plane in state:
        latent |= plane ^ ((plane & 1) * mask_all)
    final_mems = []
    for mem_index, spec in enumerate(design.mems):
        words = []
        for cell in mems[mem_index]:
            word = 0
            for bit, plane in enumerate(cell):
                latent |= plane ^ ((plane & 1) * mask_all)
                word |= (plane & 1) << bit
            words.append(word)
        final_mems.append((spec.name, tuple(words)))
    result.latent_mask = latent
    result.final_state = (tuple(plane & 1 for plane in state),
                          tuple(final_mems))
    if cycles > 0:
        _LANE_CYCLES.inc(lanes * cycles)
    return result
