"""Lane manager: packed state, fault schedules and the batched run loop.

State is held as *bit planes*: one arbitrary-width integer per flip-flop
(and per memory-cell bit), whose bit *k* is that element's value in slot
*k*.  Slot 0 always carries the golden (fault-free) run, lane 0; every
other lane carries one fault experiment.  Fault effects are expressed as
a :class:`BatchSchedule` of lane-masked operations applied around the
compiled design's ``step`` function:

* **pre-step** operations mutate packed state before evaluation —
  bit-flips (XOR), indetermination forces, memory-bit flips;
* **capture** operations fix up the next-state vector after evaluation —
  setup-violation capture of the previous data value (delay faults),
  capture inversion (CB-input pulses), capture pinning (held LSR lines);
* **overrides** swap a LUT's truth table for selected lanes on selected
  cycles (pulse and indetermination faults on LUTs), evaluated through
  the compiled design's hooked step variant.

A fault lane holds a slot only while it can still change its outcome,
its *live window*: from its first operation (a violating capture's lane
one cycle earlier, because the capture reads the raw next state recorded
then) until it fails or converges.  It fails in the cycle a primary
output diverges from lane 0's; its slot is reset to lane 0's bits at the
end of that cycle.  It converges when a periodic check after its last
operation finds its flip-flop, memory and registered read-data planes
equal to lane 0's: from then on it would run as lane 0, so it is Silent.
Idle slots hold a copy of lane 0's flip-flop, memory and read-data bits,
so a joining lane copies nothing; the raw next state a violating capture
reads is recorded with its lane already in its slot.  A lane still live
at the end is Latent or Silent by its final state.

A pass's cost per cycle is set by the width of its planes, so the slot
range follows the live lanes.  It starts at 8 slots, whose planes stay
below 256 and are never allocated by CPython, grows to one int digit
(``sys.int_info.bits_per_digit``) and then doubles, never past the
pass's lane count.  A joining lane takes the lowest free slot, and each
check narrows the range to the smallest one that holds every live
lane's slot.

Memory ports are served per distinct address, not per lane: the lanes
are split on each address bit (:func:`split_by_address`), and each
group reads or writes its word with one masked operation.  Results are
reported in fault-lane numbering and feed :mod:`repro.core.classify`
unchanged.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..obs import metrics as obs_metrics
from .compiler import CompiledDesign, tt_function

_LANE_CYCLES = obs_metrics.counter(
    "emu_lane_cycles_total",
    "Lane-cycles evaluated by the lane engine (lanes times cycles).")

#: Slots a pass starts with.  CPython caches the ints below 257, so the
#: planes of lane 0 and up to seven live faults are never allocated.
FIRST_WIDTH = 8

#: The slot range after the first: one int digit, which CPython's
#: single-digit fast paths serve.  Past it the range doubles.
DIGIT_WIDTH = sys.int_info.bits_per_digit

#: Cycles between convergence checks.  A check reads every flip-flop,
#: writable-memory and read-data plane, so it runs periodically.
CHECK_INTERVAL = 32


class BatchSchedule:
    """Per-cycle lane operations for one batch of fault experiments."""

    def __init__(self) -> None:
        #: cycle -> [("xor", ff, mask) | ("set", ff, mask, valmask)
        #:           | ("mem", mem_index, addr, bit, mask)]
        self.pre: Dict[int, List[Tuple]] = {}
        #: cycle -> [("viol", ff, mask) | ("invert", ff, mask)
        #:           | ("pin", ff, mask, valmask)]
        self.capture: Dict[int, List[Tuple]] = {}
        #: raw next-state values the viol fix-ups of the next cycle
        #: need: cycle -> [ff...]
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
        self.capture.setdefault(cycle, []).append(("viol", ff, 1 << lane))
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
    ``latent_mask`` for every lane that did not fail and whose final
    flip-flop or memory state differs from lane 0.  A failed lane leaves
    the pass, so its latent bit says nothing: read the fail bit first.
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


def _windows(schedule: BatchSchedule, cycles: int
             ) -> Tuple[Dict[int, List[int]], Dict[int, List[int]], Set[int]]:
    """When each fault lane of *schedule* holds a slot.

    Returns ``(joins, done, flipped)``: ``joins[cycle]`` lists the lanes
    that take a slot before *cycle* evaluates, ``done[cycle]`` the lanes
    whose last operation is on *cycle*, and ``flipped`` the memories
    some lane flips a bit of.  A lane joins at its first operation,
    except that a violating capture needs its lane one cycle earlier,
    because it reads the raw next state recorded then.  Every operation
    names one lane, as :class:`BatchSchedule` builds them.
    """
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}
    flipped: Set[int] = set()

    def see(mask: int, cycle: int, join: int) -> None:
        lane = mask.bit_length() - 1
        first[lane] = min(first.get(lane, join), join)
        last[lane] = max(last.get(lane, cycle), cycle)

    for cycle, ops in schedule.pre.items():
        for op in ops:
            if op[0] == "mem":
                flipped.add(op[1])
                see(op[4], cycle, cycle)
            else:
                see(op[2], cycle, cycle)
    for cycle, ops in schedule.capture.items():
        for op in ops:
            see(op[2], cycle,
                max(0, cycle - 1) if op[0] == "viol" else cycle)
    for cycle, per_lut in schedule.overrides.items():
        for pairs in per_lut.values():
            for mask, _tt_fn in pairs:
                see(mask, cycle, cycle)
    joins: Dict[int, List[int]] = {}
    done: Dict[int, List[int]] = {}
    for lane, cycle in sorted(first.items()):
        if cycle < cycles:
            joins.setdefault(cycle, []).append(lane)
            done.setdefault(last[lane], []).append(lane)
    return joins, done, flipped


def _slots(mask: int):
    """The set bits of *mask* as bit indices, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _next_width(width: int, lanes: int) -> int:
    """The slot range after *width*: one int digit, then double that,
    never more than the pass's *lanes*."""
    return min(lanes, DIGIT_WIDTH if width < DIGIT_WIDTH else 2 * width)


def _differing(plane_lists, mask_all: int, slots: int) -> int:
    """The slots of *slots* whose bit differs from lane 0's in some plane
    of *plane_lists*; stops reading once every one of them does."""
    diff = 0
    for planes in plane_lists:
        for plane in planes:
            if plane and plane != mask_all:
                diff |= plane ^ (mask_all if plane & 1 else 0)
        if diff & slots == slots:
            break
    return diff & slots


def run_lanes(design: CompiledDesign, lanes: int, cycles: int,
              inputs: Optional[Dict[str, int]] = None,
              schedule: Optional[BatchSchedule] = None) -> LaneResult:
    """Run *cycles* clock cycles of *design* across *lanes* packed lanes.

    ``inputs`` is the constant primary-input assignment (the campaign
    workload convention: applied at cycle 0, held for the whole run) and
    is broadcast to every lane.  ``schedule`` carries the per-lane fault
    operations; ``None`` runs every lane fault-free.

    Every fault lane runs in a slot of its own only over its live window
    (see the module docstring); the result does not depend on which
    slots the lanes took.
    """
    schedule = schedule if schedule is not None else BatchSchedule()
    joins, done, flipped = _windows(schedule, cycles)
    width = min(FIRST_WIDTH, lanes)
    mask_all = (1 << width) - 1
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
    # The words a lane can make differ from lane 0's: every writable
    # memory's, and those of any ROM a lane flips.
    watched = [word for index, (spec, cells)
               in enumerate(zip(design.mems, mems))
               if not spec.rom or index in flipped for word in cells]
    # Raw next state of the flip-flops violating captures read, from the
    # last cycle that recorded any (before cycle 0: the initial values).
    # A violating capture reads the record of the cycle before it.
    raw = {ff: init * mask_all for ff, init in enumerate(design.ff_init)}

    bit_of: Dict[int, int] = {}   # a live lane's mask -> its slot's bit
    owner: Dict[int, int] = {}    # slot -> the live lane holding it
    free = list(range(1, width))  # a heap: the lowest free slot first
    finished: Set[int] = set()    # live lanes past their last operation

    def resize(new_width: int) -> None:
        """Change the slot range: new slots get lane 0's bits, and the
        slots dropped must be free."""
        nonlocal width, mask_all
        new_mask = (1 << new_width) - 1
        grown = new_mask & ~mask_all

        def fit(plane: int) -> int:
            if plane == 0:
                return 0
            if plane == mask_all:
                return new_mask
            return (plane | grown if plane & 1 else plane) & new_mask

        for planes in [state, flat_in, rdata] + [
                word for cells in mems for word in cells]:
            planes[:] = [fit(plane) for plane in planes]
        for ff, plane in raw.items():
            raw[ff] = fit(plane)
        width, mask_all = new_width, new_mask
        free[:] = [slot for slot in range(1, width) if slot not in owner]

    def reset(slots: int) -> None:
        """Give the slots of *slots* lane 0's bits again."""
        keep = ~slots
        for planes in [state, rdata] + watched:
            planes[:] = [
                plane if plane == 0 or plane == mask_all
                else (plane & keep) | (slots if plane & 1 else 0)
                for plane in planes]
        for ff, plane in raw.items():
            raw[ff] = (plane & keep) | (slots if plane & 1 else 0)

    def leave(slot: int) -> int:
        """Take the lane in *slot* out of the pass; returns the lane."""
        lane = owner.pop(slot)
        del bit_of[1 << lane]
        finished.discard(lane)
        return lane

    def check() -> None:
        """Release the finished lanes whose state equals lane 0's, then
        narrow the slot range if the live lanes' slots fit a smaller
        one."""
        if finished:
            slots = 0
            for lane in finished:
                slots |= bit_of[1 << lane]
            # Past its last operation, a lane whose flip-flops, memories
            # and read data equal lane 0's runs as lane 0: Silent.
            same = slots & ~_differing([state, rdata] + watched, mask_all,
                                       slots)
            for slot in _slots(same):
                leave(slot)
                heapq.heappush(free, slot)
        fits = min(FIRST_WIDTH, lanes)
        while fits <= max(owner, default=0):
            fits = _next_width(fits, lanes)
        if fits < width:
            resize(fits)

    step = design.step
    step_hooked = design.step_hooked
    pre_ops = schedule.pre
    capture_ops = schedule.capture
    record_wanted = schedule.record
    override_cycles = schedule.overrides
    result = LaneResult(lanes=lanes)
    samples = result.samples
    first_divergence = result.first_divergence
    out_layout = []
    position = 0
    for name, width_bits in design.outputs:
        out_layout.append((name, position, width_bits))
        position += width_bits

    for cycle in range(cycles):
        joining = joins.get(cycle)
        if joining:
            for lane in joining:
                if not free:
                    resize(_next_width(width, lanes))
                slot = heapq.heappop(free)
                owner[slot] = lane
                bit_of[1 << lane] = 1 << slot
        ops = pre_ops.get(cycle)
        if ops:
            for op in ops:
                if op[0] == "mem":
                    bit = bit_of.get(op[4])
                    if bit:
                        mems[op[1]][op[2]][op[3]] ^= bit
                    continue
                bit = bit_of.get(op[2])
                if not bit:
                    continue
                if op[0] == "xor":
                    state[op[1]] ^= bit
                else:  # "set"
                    state[op[1]] = ((state[op[1]] & ~bit)
                                    | (bit if op[3] else 0))
        per_lut = override_cycles.get(cycle)
        hooks = None
        if per_lut:
            hooks = {}
            for lut, pairs in per_lut.items():
                live = [(bit_of[mask], tt_fn) for mask, tt_fn in pairs
                        if mask in bit_of]
                if live:
                    hooks[lut] = _make_hook(live, mask_all)
        if hooks:
            step_hooked(mask_all, state, flat_in, rdata, nxt, flat_out,
                        ports, hooks)
        else:
            step(mask_all, state, flat_in, rdata, nxt, flat_out, ports)

        sample: Dict[str, int] = {}
        diverged = 0
        for name, base, width_bits in out_layout:
            golden_value = 0
            for offset in range(width_bits):
                plane = flat_out[base + offset]
                bit0 = plane & 1
                golden_value |= bit0 << offset
                diverged |= plane ^ (bit0 * mask_all)
            sample[name] = golden_value
        samples.append(sample)
        if diverged:
            # Every diverging slot is a live lane failing now: it leaves
            # the pass, and its slot is reset once this cycle has ended.
            for slot in _slots(diverged):
                lane = leave(slot)
                result.fail_mask |= 1 << lane
                first_divergence[lane] = cycle

        wanted = record_wanted.get(cycle)
        if wanted:
            recorded = {ff: nxt[ff] for ff in wanted}
        ops = capture_ops.get(cycle)
        if ops:
            for op in ops:
                if op[0] == "viol":
                    bit = bit_of.get(op[2])
                    if bit:
                        ff = op[1]
                        nxt[ff] = (nxt[ff] & ~bit) | (raw[ff] & bit)
            for op in ops:
                if op[0] == "invert":
                    bit = bit_of.get(op[2])
                    if bit:
                        nxt[op[1]] ^= bit
            for op in ops:
                if op[0] == "pin":
                    bit = bit_of.get(op[2])
                    if bit:
                        nxt[op[1]] = ((nxt[op[1]] & ~bit)
                                      | (bit if op[3] else 0))
        if wanted:  # no violating capture reads an older record
            raw = recorded
        state, nxt = nxt, state

        for mem_index, spec in enumerate(design.mems):
            cells = mems[mem_index]
            depth, mem_width = spec.depth, spec.width
            # One masked read and write per distinct address: lanes
            # that diverged onto other addresses form their own groups.
            groups = split_by_address(
                mask_all, [ports[port] for port in spec.b_raddr])
            if len(groups) == 1:
                addr = groups[0][1]
                read = (list(cells[addr]) if addr < depth
                        else [0] * mem_width)
            else:
                read = [0] * mem_width
                for lanes_at, addr in groups:
                    if addr < depth:
                        cell = cells[addr]
                        for bit in range(mem_width):
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
                            for bit in range(mem_width):
                                cell[bit] = ((cell[bit] & keep)
                                             | (wdata[bit] & lanes_at))
            base = spec.r_base
            for bit in range(mem_width):
                rdata[base + bit] = read[bit]

        if diverged:
            reset(diverged)
            for slot in _slots(diverged):
                heapq.heappush(free, slot)
        ending = done.get(cycle)
        if ending:
            finished.update(lane for lane in ending if 1 << lane in bit_of)
        if cycle % CHECK_INTERVAL == CHECK_INTERVAL - 1:
            check()

    # Lanes still live at the end: Latent where their final flip-flop or
    # memory state differs from lane 0's.
    latent = _differing([state] + watched, mask_all, mask_all)
    for slot in _slots(latent):
        result.latent_mask |= 1 << owner[slot]
    final_mems = []
    for mem_index, spec in enumerate(design.mems):
        words = []
        for cell in mems[mem_index]:
            word = 0
            for bit, plane in enumerate(cell):
                word |= (plane & 1) << bit
            words.append(word)
        final_mems.append((spec.name, tuple(words)))
    result.final_state = (tuple(plane & 1 for plane in state),
                          tuple(final_mems))
    if cycles > 0:
        _LANE_CYCLES.inc(lanes * cycles)
    return result
