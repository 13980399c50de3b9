"""The FPGA device simulator: executes a design *from configuration memory*.

This is the key substrate property for reproducing run-time-reconfiguration
fault emulation: the device's behaviour is a function of its configuration
bits, so every fault-injection mechanism of the paper acts by rewriting
those bits (through :class:`~repro.fpga.jbits.JBits`), never by poking
simulation state directly.  Concretely:

* LUT truth tables are re-read from the CB frames — rewriting a frame
  changes the logic (pulse and indetermination faults, sections 4.2/4.4);
* the ``InvertFFinMux``/``InvertLSRMux``/``PRMux``/``CLRMux`` control bits
  are honoured every cycle (CB-input pulses and FF bit-flips);
* memory-block contents live in (and are read back from) the ``bram``
  frames (memory bit-flips, section 4.1, figure 4);
* flip-flop state is *readback only* — it can be observed through ``state``
  frames and changed only by GSR/LSR mechanisms, like real SRAM FPGAs;
* setup violations caused by delay faults make the affected flip-flops
  capture the previous value of their data input (section 4.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import ConfigurationError
from ..hdl.netlist import CONST0
from .architecture import (CB_BYTES, CMD_PULSE_GSR, FrameAddr, pm_bit,
                           pm_transistor)
from .implement import Implementation

#: Expected pass-transistor bits of one routing column: (row, index) -> net.
RouteBits = Dict[Tuple[int, int], int]


class Device:
    """A configured generic FPGA.

    The device must be configured with a full :class:`Bitstream` plus the
    :class:`Implementation` structural database (placement/routing), the
    moral equivalent of the symbolic resource information the JBits API
    carried for Virtex devices.  After that, behaviour is driven purely by
    the configuration image: partial reconfiguration through
    :meth:`write_frame` immediately affects execution.
    """

    def __init__(self, impl: Implementation):
        self.arch = impl.arch
        self.impl = impl
        self.mapped = impl.mapped
        self.config = impl.golden_bitstream.copy()
        self._values: List[int] = [0] * self.mapped.n_nets
        self._held: Dict[str, int] = {name: 0 for name in self.mapped.inputs}
        self.cycle = 0
        # Decoded per-FF control state (from CB flags).
        n_ffs = len(self.mapped.ffs)
        self._ff_state = [ff.init for ff in self.mapped.ffs]
        self._ff_srval = [0] * n_ffs
        self._ff_lsr = [False] * n_ffs
        self._ff_invert_d = [False] * n_ffs
        self._d_prev = [ff.init for ff in self.mapped.ffs]
        # Runtime memory contents (initialised from the bram frames).
        # Writes go through to the configuration image: on a real SRAM
        # FPGA the memory-block cells ARE configuration cells, so a
        # readback or a full re-download always sees live contents.
        self._mem: Dict[int, List[int]] = {}
        self._block_of = dict(impl.placement.block_of_bram)
        self._bram_of_block = {block: index
                               for index, block in self._block_of.items()}
        self._bram_frames = [FrameAddr("bram", self._block_of[index])
                             for index in range(len(self.mapped.brams))]
        #: Configuration frames written since the set was last cleared: a
        #: superset of the frames that differ from the image the device
        #: was configured with, so restoring that image is O(frames
        #: touched) (the campaign clears it after each golden restore).
        self.dirty_frames: Set[FrameAddr] = set()
        # (row, LUT, FF) of every occupied CB, by column: a CB-frame write
        # re-decodes only the resources whose configuration word changed.
        self._cb_sites: Dict[int, List[Tuple[int, Optional[int],
                                             Optional[int]]]] = {}
        for (row, col), cb in impl.placement.sites.items():
            self._cb_sites.setdefault(col, []).append((row, cb.lut, cb.ff))
        # Compiled LUT evaluation list; entries re-decoded on reconfig.
        self._compiled: List[Tuple[int, int, int, int, int, int]] = []
        self._lut_pad: List[Tuple[int, ...]] = []
        self._violating: Set[int] = set()
        self._timing_dirty = False
        # Routing-plane decode state: configuration bits that disagree
        # with the structural database manifest as broken nets (an
        # allocated pass transistor turned off: the line floats low) or
        # phantom loads (an unused pass transistor turned on: extra
        # capacitance on whatever net owns that matrix).
        self._route_anomalies: Dict[int, Tuple[Set[int], Dict[int, int]]] = {}
        self._broken_nets: Set[int] = set()
        # A column's expected frame is its golden frame (the routes' sink
        # hops) plus an overlay of extra-load and detour bits, by column
        # as (row, index) -> net, rebuilt when the database's version
        # moves.  A column that was never decoded is taken to match the
        # database; one whose overlay changed since its last decode is
        # stale.  Only a column that disagrees with its expected frame
        # needs the sink hops as (row, index) -> net, with each PM's
        # trunk owner (row -> first net crossing it): both are built
        # once, on the first such column.
        self._routed_bits: Optional[Dict[int, RouteBits]] = None
        self._trunk_owner: Dict[int, Dict[int, int]] = {}
        self._overlay_bits: Dict[int, RouteBits] = {}
        self._overlay_version = -1
        self._stale_route_cols: Set[int] = set()
        self._decode_all()

    # ------------------------------------------------------------------
    # configuration decode
    # ------------------------------------------------------------------
    def _decode_all(self) -> None:
        self._lut_pad = [tuple(list(lut.ins) + [CONST0] * (4 - len(lut.ins)))
                         for lut in self.mapped.luts]
        self._compiled = [self._decode_lut(lut_index)
                          for lut_index in range(len(self.mapped.luts))]
        for ff_index in range(len(self.mapped.ffs)):
            self._decode_ff(ff_index)
        for bram_index, bram in enumerate(self.mapped.brams):
            block = self.impl.placement.block_of_bram[bram_index]
            self._mem[bram_index] = [
                self.config.get_bram_word(block, addr)
                for addr in range(bram.depth)]
        self.refresh_timing()

    def _decode_lut(self, lut_index: int
                    ) -> Tuple[int, int, int, int, int, int]:
        """Evaluation entry of one LUT, truth table read from its CB."""
        row, col = self.impl.placement.site_of_lut[lut_index]
        tt = self.config.get_cb(row, col).tt
        i0, i1, i2, i3 = self._lut_pad[lut_index]
        return (self.mapped.luts[lut_index].out, tt, i0, i1, i2, i3)

    def _decode_ff(self, ff_index: int) -> None:
        row, col = self.impl.placement.site_of_ff[ff_index]
        cb = self.config.get_cb(row, col)
        self._ff_srval[ff_index] = cb.srval
        was_asserted = self._ff_lsr[ff_index]
        self._ff_lsr[ff_index] = cb.invert_lsr
        self._ff_invert_d[ff_index] = (cb.invert_ffin and cb.ff_d_external)
        if cb.invert_lsr and not was_asserted:
            # The local set/reset line is asynchronous: reconfiguring
            # InvertLSRMux forces the FF immediately, without a clock edge
            # (this is how LSR bit-flips land between cycles, paper 4.1).
            self._ff_state[ff_index] = cb.srval
            self._d_prev[ff_index] = cb.srval

    def _decode_cb_words(self, col: int, old: bytes) -> None:
        """Re-decode the LUT and FF of every occupied CB of column *col*
        whose configuration word differs from *old* (the frame before
        the write).  An unchanged word decodes to the state it already
        has (``_ff_lsr`` changes only in :meth:`_decode_ff`, so not even
        the asynchronous LSR force can fire), so skipping it changes
        nothing."""
        new = self.config.frames[FrameAddr("cb", col)]
        if new == old:
            return
        for row, lut_index, ff_index in self._cb_sites.get(col, ()):
            offset = row * CB_BYTES
            if new[offset:offset + CB_BYTES] == old[offset:offset + CB_BYTES]:
                continue
            if lut_index is not None:
                self._compiled[lut_index] = self._decode_lut(lut_index)
            if ff_index is not None:
                self._decode_ff(ff_index)

    def _decode_bram_words(self, block: int, old: bytes) -> None:
        """Re-read the words of the memory mapped on *block* whose bits
        differ from *old* (the frame before the write).  Live contents
        are written through to the image, so an unchanged word already
        holds what a re-read would give."""
        bram_index = self._bram_of_block.get(block)
        new = self.config.frames[FrameAddr("bram", block)]
        if bram_index is None or new == old:
            return
        cells = self._mem[bram_index]
        width = self.arch.mem_geometry.width
        word_mask = (1 << width) - 1
        changed = (int.from_bytes(old, "little")
                   ^ int.from_bytes(new, "little"))
        while changed:
            addr = ((changed & -changed).bit_length() - 1) // width
            changed &= ~(word_mask << (addr * width))
            if addr < len(cells):
                cells[addr] = self.config.get_bram_word(block, addr)

    def _sync_expected_routes(self) -> None:
        """Bring the expected-bit overlay up to the routing database's
        version: rebuild it from the routes that carry extra loads or
        detour bits, and mark stale every column whose overlay entries
        changed."""
        routing = self.impl.routing
        if self._overlay_version == routing.version:
            return
        overlay: Dict[int, RouteBits] = {}
        for net, route in routing.routes.items():
            if route.extra_loads or route.detour_bits:
                for row, col, index in (*route.extra_loads,
                                        *route.detour_bits):
                    overlay.setdefault(col, {})[(row, index)] = net
        previous = self._overlay_bits
        self._stale_route_cols.update(
            col for col in previous.keys() | overlay.keys()
            if previous.get(col) != overlay.get(col))
        self._overlay_bits = overlay
        self._overlay_version = routing.version

    def _sink_hop_map(self) -> Dict[int, RouteBits]:
        """The routed sink hops by column as (row, index) -> net, with
        each PM's trunk owner alongside; built on the first call."""
        if self._routed_bits is None:
            routed: Dict[int, RouteBits] = {}
            trunk: Dict[int, Dict[int, int]] = {}
            for net, route in self.impl.routing.routes.items():
                for sink in route.sinks:
                    for row, col, index in sink.hops:
                        routed.setdefault(col, {})[(row, index)] = net
                        trunk.setdefault(col, {}).setdefault(row, net)
            self._routed_bits, self._trunk_owner = routed, trunk
        return self._routed_bits

    def _expected_frame(self, col: int) -> bytearray:
        """The routing frame the database expects in column *col*: the
        golden frame, which holds exactly the routes' sink hops, with the
        overlay's extra-load and detour bits set."""
        golden = self.impl.golden_bitstream.frames[FrameAddr("route", col)]
        overlay = self._overlay_bits.get(col)
        if not overlay:
            return golden
        expected = bytearray(golden)
        for row, index in overlay:
            byte_off, bit_off = pm_bit(row, index)
            expected[byte_off] |= 1 << bit_off
        return expected

    def _decode_route_column(self, col: int) -> None:
        """Diff one routing frame against the structural database (call
        :meth:`_sync_expected_routes` first).

        A frame equal to its expected frame has no anomaly.  Otherwise
        each bit where the two differ is one: a cleared bit that the
        database says belongs to a routed net breaks that net (its sinks
        see a floating-low line), and a set bit the database does not
        know about loads the net whose trunk passes through that matrix
        (or nothing, if the matrix is unused).
        """
        self._stale_route_cols.discard(col)
        frame = self.config.frames[FrameAddr("route", col)]
        expected = self._expected_frame(col)
        broken: Set[int] = set()
        phantom: Dict[int, int] = {}
        if frame != expected:
            owner = {**self._sink_hop_map().get(col, {}),
                     **self._overlay_bits.get(col, {})}
            trunk = self._trunk_owner.get(col, {})
            # Little-endian, the frame's bit k is byte k // 8, bit k % 8.
            differ = (int.from_bytes(frame, "little")
                      ^ int.from_bytes(expected, "little"))
            while differ:
                byte_off, bit_off = divmod(
                    (differ & -differ).bit_length() - 1, 8)
                differ &= differ - 1
                row, index = pm_transistor(byte_off, bit_off)
                if (frame[byte_off] >> bit_off) & 1:
                    # The net whose trunk crosses this PM gains load.
                    net = trunk.get(row)
                    if net is not None:
                        phantom[net] = phantom.get(net, 0) + 1
                else:
                    broken.add(owner[(row, index)])
        if broken or phantom:
            self._route_anomalies[col] = (broken, phantom)
        else:
            self._route_anomalies.pop(col, None)
        self._aggregate_route_anomalies()

    def _aggregate_route_anomalies(self) -> None:
        broken: Set[int] = set()
        seu_extra: Dict[int, float] = {}
        t_load = self.impl.timing.params.t_load
        for col_broken, col_phantom in self._route_anomalies.values():
            broken |= col_broken
            for net, count in col_phantom.items():
                seu_extra[net] = seu_extra.get(net, 0.0) + count * t_load
        self._broken_nets = broken
        self.impl.timing.seu_extra = seu_extra

    def redecode_routing(self) -> None:
        """Re-decode every routing frame against the routing database and
        re-run timing (after the database itself was reset)."""
        self._sync_expected_routes()
        for col in range(self.arch.cols):
            self._decode_route_column(col)
        self.refresh_timing()

    def refresh_timing(self) -> None:
        """Re-run the timing analysis (after delay-affecting changes)."""
        self.impl.timing.refresh_routing()
        self._violating = self.impl.timing.violating_ffs()
        self._timing_dirty = False

    # ------------------------------------------------------------------
    # reconfiguration and readback (used by the JBits layer)
    # ------------------------------------------------------------------
    def write_frame(self, addr: FrameAddr, data: bytes) -> None:
        """Partial reconfiguration of one frame."""
        if addr.kind == "cmd":
            if data and data[0] == CMD_PULSE_GSR:
                self.pulse_gsr()
            return
        if addr.kind == "state":
            raise ConfigurationError(
                "FF state frames are readback-only; use GSR/LSR "
                "reconfiguration to change flip-flop contents")
        old = self.config.get_frame(addr)
        self.config.set_frame(addr, data)
        self.dirty_frames.add(addr)
        if addr.kind == "cb":
            self._decode_cb_words(addr.major, old)
        elif addr.kind == "bram":
            self._decode_bram_words(addr.major, old)
        elif addr.kind == "route":
            # Bits that disagree with the structural database are
            # configuration upsets (broken nets or phantom loads).  A column
            # whose bytes and expected bits did not change since its last
            # decode would decode to what it already has.
            self._sync_expected_routes()
            if (old != self.config.frames[addr]
                    or addr.major in self._stale_route_cols):
                self._decode_route_column(addr.major)
            # Timing is re-analysed lazily before the next clock cycle,
            # after every route write: a detour changes the database's
            # delays without changing a configuration bit.
            self._timing_dirty = True

    def read_frame(self, addr: FrameAddr) -> bytes:
        """Readback of one frame.

        ``state`` frames capture live flip-flop values; ``bram`` frames
        hold live memory contents by construction (write-through); other
        frames return the current configuration bits.
        """
        if addr.kind == "cmd":
            return bytes(self.arch.frame_size(addr))
        if addr.kind == "state":
            data = bytearray(self.arch.frame_size(addr))
            for row, _lut, ff_index in self._cb_sites.get(addr.major, ()):
                if ff_index is not None and self._ff_state[ff_index]:
                    data[row // 8] |= 1 << (row % 8)
            return bytes(data)
        return self.config.get_frame(addr)

    def pulse_gsr(self) -> None:
        """Assert the Global Set/Reset: every FF loads its ``srval``."""
        for ff_index in range(len(self.mapped.ffs)):
            self._ff_state[ff_index] = self._ff_srval[ff_index]
            self._d_prev[ff_index] = self._ff_srval[ff_index]

    def reset_system(self) -> None:
        """Return to the initial state: GSR plus memory re-initialisation.

        Used between experiments (paper figure 1: "reset system to initial
        state").  Memories are restored from the *golden* image so that a
        previous experiment's workload writes do not leak into the next.
        """
        for bram_index, bram in enumerate(self.mapped.brams):
            addr = self._bram_frames[bram_index]
            old = self.config.get_frame(addr)
            self.config.set_frame(
                addr, self.impl.golden_bitstream.get_frame(addr))
            self.dirty_frames.add(addr)
            self._decode_bram_words(addr.major, old)
            for net in bram.rdata:
                self._values[net] = 0
        self.pulse_gsr()
        for name in self._held:
            self._held[name] = 0
        self.cycle = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self, inputs: Optional[Dict[str, int]] = None
             ) -> Dict[str, int]:
        """Advance one clock cycle; return the settled primary outputs."""
        if self._timing_dirty:
            self.refresh_timing()
        if inputs:
            for name, value in inputs.items():
                self._held[name] = value
        values = self._values
        values[CONST0] = 0
        values[1] = 1
        for name, nets in self.mapped.inputs.items():
            held = self._held[name]
            for position, net in enumerate(nets):
                values[net] = (held >> position) & 1
        # LSR-forced flip-flops are pinned to srval while the line is
        # asserted (InvertLSRMux reconfigured).
        ff_state = self._ff_state
        for ff_index, forced in enumerate(self._ff_lsr):
            if forced:
                ff_state[ff_index] = self._ff_srval[ff_index]
        for ff, state in zip(self.mapped.ffs, ff_state):
            values[ff.q] = state
        broken = self._broken_nets
        if broken:
            # A net whose routing pass transistor was knocked out floats;
            # the receiving buffers read it as logic low.
            for net in broken:
                values[net] = 0
            for out, tt, i0, i1, i2, i3 in self._compiled:
                value = (tt >> (values[i0] | values[i1] << 1
                                | values[i2] << 2 | values[i3] << 3)) & 1
                values[out] = 0 if out in broken else value
        else:
            for out, tt, i0, i1, i2, i3 in self._compiled:
                values[out] = (tt >> (values[i0] | values[i1] << 1
                                      | values[i2] << 2 | values[i3] << 3)) & 1
        outputs: Dict[str, int] = {}
        for name, nets in self.mapped.outputs.items():
            value = 0
            for position, net in enumerate(nets):
                value |= values[net] << position
            outputs[name] = value
        # Capture phase.
        violating = self._violating
        d_prev = self._d_prev
        for ff_index, ff in enumerate(self.mapped.ffs):
            new_value = values[ff.d]
            if ff_index in violating:
                captured = d_prev[ff_index]
            else:
                captured = new_value
            if self._ff_invert_d[ff_index]:
                captured ^= 1
            if self._ff_lsr[ff_index]:
                captured = self._ff_srval[ff_index]
            ff_state[ff_index] = captured
            d_prev[ff_index] = new_value
        for bram_index, bram in enumerate(self.mapped.brams):
            cells = self._mem[bram_index]
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
                    self.config.set_bram_word(
                        self._block_of[bram_index], waddr, wdata)
                    self.dirty_frames.add(self._bram_frames[bram_index])
            for position, net in enumerate(bram.rdata):
                values[net] = (read >> position) & 1
        self.cycle += 1
        return outputs

    def run(self, cycles: int,
            inputs: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        """Step *cycles* times with constant inputs; return last outputs."""
        outputs: Dict[str, int] = {}
        for index in range(cycles):
            outputs = self.step(inputs if index == 0 else None)
            inputs = None
        return outputs

    # ------------------------------------------------------------------
    # checkpointing (host-side campaign optimisation)
    # ------------------------------------------------------------------
    def save_state(self) -> Tuple:
        """Capture the complete execution state for later restoration.

        Covers flip-flop state, the delay-violation shadow, memory
        contents, the settled net values (registered read ports live
        there) and held inputs.  Only valid to restore onto the *same*
        configuration the snapshot was taken under.
        """
        return (
            self.cycle,
            tuple(self._ff_state),
            tuple(self._d_prev),
            {index: tuple(cells) for index, cells in self._mem.items()},
            tuple(self._values),
            dict(self._held),
        )

    def load_state(self, snapshot: Tuple) -> None:
        """Restore a :meth:`save_state` snapshot (same configuration).

        Memory contents are written through to the configuration image,
        preserving the invariant that BRAM cells *are* config cells.
        """
        cycle, ff_state, d_prev, mem, values, held = snapshot
        self.cycle = cycle
        self._ff_state = list(ff_state)
        self._d_prev = list(d_prev)
        self._values = list(values)
        self._held = dict(held)
        for index, cells in mem.items():
            self._mem[index] = list(cells)
            block = self._block_of[index]
            for addr, word in enumerate(cells):
                self.config.set_bram_word(block, addr, word)
            self.dirty_frames.add(self._bram_frames[index])

    # ------------------------------------------------------------------
    # observation helpers (host-side convenience, not fault paths)
    # ------------------------------------------------------------------
    def ff_state(self) -> Tuple[int, ...]:
        """Live flip-flop state, in mapped-netlist order."""
        return tuple(self._ff_state)

    def mem_words(self, bram_index: int) -> Tuple[int, ...]:
        """Live contents of one mapped memory block."""
        return tuple(self._mem[bram_index])

    def state_snapshot(self) -> Tuple:
        """Hashable architectural state snapshot (FFs + memories)."""
        mems = tuple(
            (self.mapped.brams[index].name, tuple(cells))
            for index, cells in sorted(self._mem.items()))
        return (tuple(self._ff_state), mems)

    def peek(self, name: str) -> Optional[int]:
        """Read a named HDL signal from the last settled evaluation."""
        nets = self.mapped.names.get(name)
        if nets is None:
            return None
        value = 0
        for position, net in enumerate(nets):
            value |= self._values[net] << position
        return value
