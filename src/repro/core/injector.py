"""RTR injection mechanisms — the heart of FADES (paper, section 4).

Every mechanism acts exclusively through the JBits layer, i.e. by reading
and rewriting configuration memory, never by touching simulation state:

* **bit-flips in FFs** — via the LSR line (``InvertLSRMux`` + ``PRMux``/
  ``CLRMux`` reconfiguration; fast) or via the GSR line (full state
  capture, full srval reconfiguration, GSR pulse; slow) — section 4.1;
* **bit-flips in memory blocks** — read-modify-write of the block's
  configuration frame — section 4.1, figure 4;
* **pulses in LUTs** — truth-table extraction and rewrite with the
  targeted line (output or any input) inverted — section 4.2, figure 5;
* **pulses on CB inputs** — flip of the input-inverter mux control bit —
  section 4.2, figure 6;
* **delays** — extra fan-out loads through unused pass transistors (small
  delays) or rerouting through additional segments/logic (large delays) —
  section 4.3, figures 7/8;
* **indeterminations** — a *randomiser* picks the final logic level, then
  the FF/LUT machinery above applies it; in oscillating mode the level is
  re-randomised (and re-configured) every clock cycle — section 4.4.

Each mechanism is an :class:`Injection` with ``inject`` / ``tick`` /
``remove`` hooks driven by the campaign loop, so the emulated transfer
costs land on the board at the same protocol points the real tool paid
them.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from ..errors import InjectionError, LocationError
from ..fpga.architecture import FrameAddr, pm_bit
from ..fpga.bitstream import CbConfig
from ..fpga.jbits import JBits
from ..fpga.timing import TimingParams
from .faults import Fault, FaultModel, TargetKind


def invert_lut_line(tt: int, line: int, n_inputs: int = 4) -> int:
    """Rewrite a (padded) LUT truth table with one line inverted.

    ``line == -1`` inverts the output; ``line == k`` inverts input *k*
    (the function then sees that input complemented) — the recomputation
    step of the paper's figure 5.
    """
    if line < 0:
        return tt ^ 0xFFFF
    if line >= n_inputs:
        raise InjectionError(f"LUT has no input line {line}")
    out = 0
    for index in range(16):
        if (tt >> (index ^ (1 << line))) & 1:
            out |= 1 << index
    return out


def stuck_lut_line(tt: int, line: int, value: int) -> int:
    """Rewrite a LUT truth table with one line stuck at *value*.

    Used by the indetermination randomiser (output forced to the random
    level) and by the permanent stuck-at extension.
    """
    if line < 0:
        return 0xFFFF if value else 0x0000
    out = 0
    for index in range(16):
        frozen = (index | (1 << line)) if value else (index & ~(1 << line))
        if (tt >> frozen) & 1:
            out |= 1 << index
    return out


class Injection:
    """Base class: one prepared fault, ready to drive through the device."""

    #: Table 1 mechanism this injection times (used by the observability
    #: layer to label ``reconfigure`` spans and ``reconfig_seconds``).
    mechanism_label = ""

    def __init__(self, fault: Fault):
        self.fault = fault

    def inject(self) -> None:
        """Reconfigure the device to activate the fault."""

    def tick(self, cycle_in_window: int) -> None:
        """Called before every clock edge inside the fault window."""

    def remove(self) -> None:
        """Reconfigure the device to deactivate the fault."""


class FadesInjector:
    """Factory of injections for one configured device.

    ``jbits`` is the reconfiguration handle (it carries the board cost
    accounting).
    """

    def __init__(self, jbits: JBits):
        self.jbits = jbits
        self.device = jbits.device
        #: Randomiser of indetermination levels (paper, section 4.4);
        #: every experiment reseeds it from its fault index.
        self.rng = random.Random(0)
        #: Reproduce the paper's observed behaviour of downloading a full
        #: configuration file for delay injection (section 6.2).  Clear
        #: it to measure the partial-reconfiguration potential
        #: (ablation 2).
        self.full_download_delays = True

    # ------------------------------------------------------------------
    def prepare(self, fault: Fault) -> Injection:
        """Build the mechanism-specific injection for *fault*."""
        model = fault.model
        if model is FaultModel.BITFLIP and fault.extra_targets:
            from .multiple import prepare_multiple
            return prepare_multiple(self, fault)
        if model is FaultModel.BITFLIP:
            if fault.target.kind is TargetKind.FF:
                if fault.mechanism == "gsr":
                    return _GsrBitflip(self, fault)
                return _LsrBitflip(self, fault)
            if fault.target.kind is TargetKind.MEMORY_BIT:
                return _MemoryBitflip(self, fault)
            raise InjectionError(
                f"bit-flip cannot target {fault.target.kind.value}")
        if model is FaultModel.PULSE:
            if fault.target.kind is TargetKind.LUT:
                return _LutPulse(self, fault)
            if fault.target.kind is TargetKind.CB_INPUT:
                return _CbInputPulse(self, fault)
            raise InjectionError(
                f"pulse cannot target {fault.target.kind.value}")
        if model is FaultModel.DELAY:
            if fault.target.kind is not TargetKind.NET:
                raise InjectionError("delay faults target nets")
            mechanism, loads = delay_mechanism(
                fault, self.device.impl.timing.params)
            if mechanism == "fanout":
                return _FanoutDelay(self, fault, loads)
            return _RerouteDelay(self, fault)
        if model is FaultModel.INDETERMINATION:
            if fault.target.kind is TargetKind.FF:
                return _FfIndetermination(self, fault)
            if fault.target.kind is TargetKind.LUT:
                return _LutIndetermination(self, fault)
            raise InjectionError(
                f"indetermination cannot target {fault.target.kind.value}")
        if model is FaultModel.CONFIG_SEU:
            from .config_seu import ConfigSeuInjection
            return ConfigSeuInjection(self, fault)
        # Permanent extension models (paper section 8, future work).
        from .permanent import prepare_permanent
        return prepare_permanent(self, fault)

    # -- shared site helpers ------------------------------------------------
    def ff_site(self, ff_index: int) -> Tuple[int, int]:
        try:
            return self.device.impl.placement.site_of_ff[ff_index]
        except KeyError:
            raise LocationError(f"FF {ff_index} is not placed") from None

    def lut_site(self, lut_index: int) -> Tuple[int, int]:
        try:
            return self.device.impl.placement.site_of_lut[lut_index]
        except KeyError:
            raise LocationError(f"LUT {lut_index} is not placed") from None

    def golden_cb(self, row: int, col: int) -> CbConfig:
        """The fault-free configuration of one CB (host-side knowledge)."""
        return self.device.impl.golden_bitstream.get_cb(row, col)


# ---------------------------------------------------------------------------
# bit-flips (section 4.1)
# ---------------------------------------------------------------------------
class _LsrBitflip(Injection):
    """Invert one FF through its local set/reset line.

    Three transactions: capture the FF's state from its column state
    frame, reconfigure ``PRMux``/``CLRMux`` (srval) plus ``InvertLSRMux``
    to force the inverted value, then release the line and restore the
    original srval.  The flipped value persists until overwritten, so
    :meth:`remove` is a no-op.
    """

    mechanism_label = "ff-lsr"

    def __init__(self, injector: FadesInjector, fault: Fault):
        super().__init__(fault)
        self.injector = injector
        self.row, self.col = injector.ff_site(fault.target.index)

    def inject(self) -> None:
        jbits = self.injector.jbits
        state = jbits.read_ff_state(self.row, self.col)
        golden = self.injector.golden_cb(self.row, self.col)
        forced = CbConfig(**{**golden.__dict__})
        forced.srval = state ^ 1
        forced.invert_lsr = True
        jbits.write_cb(self.row, self.col, forced)
        jbits.write_cb(self.row, self.col, golden)


class _GsrBitflip(Injection):
    """Invert one FF through the global set/reset line (slow path).

    Requires capturing *every* FF's state, reconfiguring every srval so
    the GSR pulse reloads the current machine state with only the target
    inverted, pulsing GSR, and restoring all srvals — "the high amount of
    information to be transferred... slows down the emulation process".
    """

    mechanism_label = "ff-gsr"

    def __init__(self, injector: FadesInjector, fault: Fault):
        super().__init__(fault)
        self.injector = injector
        self.target_index = fault.target.index
        injector.ff_site(self.target_index)  # location check

    def inject(self) -> None:
        jbits = self.injector.jbits
        device = self.injector.device
        jbits.readback_full()  # capture all FF states (+ configuration)
        states = device.ff_state()
        image = device.config.copy()
        for ff_index, site in device.impl.placement.site_of_ff.items():
            config = image.get_cb(*site)
            value = states[ff_index]
            if ff_index == self.target_index:
                value ^= 1
            config.srval = value
            image.set_cb(site[0], site[1], config)
        jbits.write_full(image)
        jbits.pulse_gsr()
        # Restore the original srvals (the design's reset values) by
        # re-downloading the CB planes of the golden image.  Memory-block
        # frames are left alone: their cells hold live workload data that
        # a reload of the initial file would destroy.
        restore = device.config.copy()
        golden = device.impl.golden_bitstream
        for addr in restore.frames:
            if addr.kind == "cb":
                restore.set_frame(addr, golden.get_frame(addr))
        jbits.write_full(restore)


class _MemoryBitflip(Injection):
    """Reverse one bit of an embedded memory block (figure 4).

    One readback plus one frame write; since the fault "remains until
    rewritten, the reconfiguration phase that restores the original
    configuration is skipped".
    """

    mechanism_label = "memory-rmw"

    def __init__(self, injector: FadesInjector, fault: Fault):
        super().__init__(fault)
        self.injector = injector
        target = fault.target
        placement = injector.device.impl.placement
        try:
            self.block = placement.block_of_bram[target.index]
        except KeyError:
            raise LocationError(
                f"memory block {target.index} is not placed") from None

    def inject(self) -> None:
        target = self.fault.target
        self.injector.jbits.flip_bram_bit(self.block, target.addr,
                                          target.bit)


# ---------------------------------------------------------------------------
# pulses (section 4.2)
# ---------------------------------------------------------------------------
class _LutPulse(Injection):
    """Invert a LUT line by truth-table rewrite (figure 5).

    A sub-cycle pulse costs one injection operation (read, write faulty,
    write restore); a pulse of one or more cycles costs two injection
    operations — inject and remove — each a read-modify-write with a
    readback verification, matching the paper's observation that such
    pulses need "two injections" and twice the emulation time.
    """

    mechanism_label = "lut-rewrite"

    def __init__(self, injector: FadesInjector, fault: Fault):
        super().__init__(fault)
        self.injector = injector
        self.row, self.col = injector.lut_site(fault.target.index)
        self.sub_cycle = fault.duration_cycles < 1.0

    def _faulty_config(self) -> Tuple[CbConfig, CbConfig]:
        jbits = self.injector.jbits
        current = jbits.read_cb(self.row, self.col)  # circuit extraction
        faulty = CbConfig(**{**current.__dict__})
        faulty.tt = invert_lut_line(current.tt, self.fault.target.line)
        return current, faulty

    def inject(self) -> None:
        jbits = self.injector.jbits
        self.golden, faulty = self._faulty_config()
        jbits.write_cb(self.row, self.col, faulty)
        if not self.sub_cycle:
            jbits.read_cb(self.row, self.col)  # verification readback

    def remove(self) -> None:
        jbits = self.injector.jbits
        if not self.sub_cycle:
            # Second injection operation: extract, rewrite, verify.
            jbits.read_cb(self.row, self.col)
        jbits.write_cb(self.row, self.col, self.golden)
        if not self.sub_cycle:
            jbits.read_cb(self.row, self.col)  # verification readback


class _CbInputPulse(Injection):
    """Invert a routed CB input through ``InvertFFinMux`` (figure 6).

    "It is only necessary to invert the control bit of the multiplexer
    for the targeted line" — one frame write each way, the cheapest
    transient mechanism.
    """

    mechanism_label = "cb-input-mux"

    def __init__(self, injector: FadesInjector, fault: Fault):
        super().__init__(fault)
        self.injector = injector
        self.row, self.col = injector.ff_site(fault.target.index)
        cb = injector.device.impl.placement.sites[(self.row, self.col)]
        if cb.packed:
            raise LocationError(
                "CB-input pulses need a routed FFin path; FF "
                f"{fault.target.index} is packed with its LUT")

    def inject(self) -> None:
        golden = self.injector.golden_cb(self.row, self.col)
        faulty = CbConfig(**{**golden.__dict__})
        faulty.invert_ffin = True
        self.injector.jbits.write_cb(self.row, self.col, faulty)

    def remove(self) -> None:
        golden = self.injector.golden_cb(self.row, self.col)
        self.injector.jbits.write_cb(self.row, self.col, golden)


# ---------------------------------------------------------------------------
# delays (section 4.3)
# ---------------------------------------------------------------------------
def delay_mechanism(fault: Fault, params: TimingParams
                    ) -> Tuple[str, int]:
    """How a delay *fault* is injected: its mechanism and, for
    ``fanout``, the extra loads enabled (0 for ``reroute``).

    A fault that names no mechanism takes fan-out loads up to 60 loads'
    worth of delay and a reroute above.  Each load adds
    :attr:`~repro.fpga.timing.TimingParams.t_load`; the achieved delay is
    whatever the enabled loads add, and the pool of unused pass
    transistors bounds it (paper: "good for small delays").  The static
    planner (:mod:`repro.sfa.prune`) decides with this same function.
    """
    mechanism = fault.mechanism or (
        "fanout" if fault.magnitude_ns <= 60 * params.t_load
        else "reroute")
    if mechanism != "fanout":
        return "reroute", 0
    return "fanout", min(max(1, round(fault.magnitude_ns / params.t_load)),
                         192)


class _DelayBase(Injection):
    """Shared transfer strategy of the two delay mechanisms.

    In the paper's setup, "experimental problems with the JBits package
    and the prototyping board driver" forced a *full configuration
    download* for delay injection (section 6.2): the host modifies its
    local image and ships the whole file.  Removal restores only the
    touched routing/CB frames (few and co-located by construction).  With
    ``full_download_delays`` disabled, injection also uses partial frame
    writes — the path the paper could not exercise (ablation 2).
    """

    def __init__(self, injector: FadesInjector, fault: Fault):
        super().__init__(fault)
        self.injector = injector
        self.net = fault.target.index
        self.bits: List[Tuple[int, int, int]] = []

    def _apply_structural(self) -> None:
        raise NotImplementedError

    def _undo_structural(self) -> None:
        raise NotImplementedError

    def _touched_frames(self):
        cols = sorted({col for _row, col, _pt in self.bits})
        if not cols:
            route = self.injector.device.impl.routing.route_of(self.net)
            col = max(0, min(route.driver_site[1],
                             self.injector.device.arch.cols - 1))
            cols = [col]
        return [FrameAddr("route", col) for col in cols]

    def _set_bits(self, frames: Dict[FrameAddr, bytearray]) -> None:
        """Turn this fault's pass transistors on in *frames* (route
        frames by address)."""
        for row, col, index in self.bits:
            byte_off, bit_off = pm_bit(row, index)
            frames[FrameAddr("route", col)][byte_off] |= 1 << bit_off

    def inject(self) -> None:
        jbits = self.injector.jbits
        device = self.injector.device
        self._apply_structural()
        if self.injector.full_download_delays:
            # Host-side image update, then one full-file download.
            image = device.config.copy()
            self._set_bits(image.frames)
            jbits.write_full(image)
        else:
            frames = {addr: bytearray(device.config.frames[addr])
                      for addr in self._touched_frames()}
            self._set_bits(frames)
            for addr, frame in frames.items():
                jbits.write_frame(addr, bytes(frame))
        device.refresh_timing()

    def remove(self) -> None:
        jbits = self.injector.jbits
        device = self.injector.device
        golden = device.impl.golden_bitstream
        frames = self._touched_frames()
        self._undo_structural()
        for addr in frames:
            jbits.write_frame(addr, golden.get_frame(addr))
        device.refresh_timing()


class _FanoutDelay(_DelayBase):
    """Increase a line's fan-out through unused pass transistors (fig. 8).

    Each enabled pass transistor adds a small load delay, so this
    mechanism is "adequate to emulate faults that introduce small
    propagation delays".
    """

    mechanism_label = "delay-fanout"

    def __init__(self, injector: FadesInjector, fault: Fault, loads: int):
        super().__init__(injector, fault)
        self.loads = loads

    def _apply_structural(self) -> None:
        from ..errors import RoutingError
        routing = self.injector.device.impl.routing
        for _ in range(self.loads):
            try:
                self.bits.append(routing.add_extra_load(self.net))
            except RoutingError:
                break  # path saturated: inject what fits

    def _undo_structural(self) -> None:
        routing = self.injector.device.impl.routing
        for bit in self.bits:
            routing.remove_extra_load(self.net, bit)
        self.bits.clear()


class _RerouteDelay(_DelayBase):
    """Lengthen a line's route through extra segments/logic (figure 7).

    "Implementing a shift register composed by the required number of
    unused FFs is a good manner to emulate a large delay" — the detour is
    modelled as buffer stages plus PM segments sized to the requested
    magnitude, with the new pass transistors claimed in the driver's PM
    column (a vertical zig-zag detour), keeping the touched frames few.
    """

    mechanism_label = "delay-reroute"

    def __init__(self, injector: FadesInjector, fault: Fault):
        super().__init__(injector, fault)
        params = injector.device.impl.timing.params
        stage = params.t_lut + params.t_net_base
        self.extra_luts = int(fault.magnitude_ns / stage)
        remainder = fault.magnitude_ns - self.extra_luts * stage
        self.extra_hops = max(0, round(remainder / params.t_hop))

    def _apply_structural(self) -> None:
        routing = self.injector.device.impl.routing
        routing.set_detour(self.net, self.extra_hops,
                           through_luts=self.extra_luts)
        # Claim concrete pass transistors for the detour near the driver
        # and register them on the route, so the device's routing-plane
        # decoder knows these bits are legitimate.
        route = routing.route_of(self.net)
        pms = route.pms or [(max(0, route.driver_site[0]),
                             max(0, min(route.driver_site[1],
                                        self.injector.device.arch.cols - 1)))]
        budget = min(self.extra_hops + self.extra_luts,
                     routing.free_pass_transistors(pms[0]))
        for _ in range(max(1, budget)):
            if routing.free_pass_transistors(pms[0]) == 0:
                break
            index = routing.claim_pass_transistor(pms[0])
            bit = (pms[0][0], pms[0][1], index)
            self.bits.append(bit)
            route.detour_bits.append(bit)
        routing.version += 1

    def _undo_structural(self) -> None:
        routing = self.injector.device.impl.routing
        routing.clear_detour(self.net)  # also clears detour_bits
        for bit in self.bits:
            routing.release_pass_transistor(bit)
        self.bits.clear()


# ---------------------------------------------------------------------------
# indeterminations (section 4.4)
# ---------------------------------------------------------------------------
class _FfIndetermination(Injection):
    """Force an FF to a randomised level for the fault duration.

    "Any procedure capable of modifying the logical value of the
    sequential elements is eligible" — we hold the LSR line asserted with
    a randomised srval; in oscillating mode the level is re-randomised
    every cycle, each re-randomisation being one more reconfiguration.
    """

    mechanism_label = "indet-ff"

    def __init__(self, injector: FadesInjector, fault: Fault):
        super().__init__(fault)
        self.injector = injector
        self.row, self.col = injector.ff_site(fault.target.index)
        self.value = (fault.value if fault.value is not None
                      else injector.rng.randrange(2))

    def inject(self) -> None:
        jbits = self.injector.jbits
        self.golden = jbits.read_cb(self.row, self.col)
        forced = CbConfig(**{**self.golden.__dict__})
        forced.srval = self.value
        forced.invert_lsr = True
        jbits.write_cb(self.row, self.col, forced)
        self._forced = forced

    def tick(self, cycle_in_window: int) -> None:
        if not self.fault.oscillate or cycle_in_window == 0:
            return
        jbits = self.injector.jbits
        self.value = self.injector.rng.randrange(2)
        forced = CbConfig(**{**self._forced.__dict__})
        forced.srval = self.value
        jbits.write_cb(self.row, self.col, forced)
        self._forced = forced

    def remove(self) -> None:
        jbits = self.injector.jbits
        restored = CbConfig(**{**self.golden.__dict__})
        jbits.write_cb(self.row, self.col, restored)
        jbits.read_cb(self.row, self.col)  # verification readback


class _LutIndetermination(Injection):
    """Force a LUT output to a randomised level (section 4.4).

    Follows the pulse scheme of section 4.2, but instead of inverting the
    extracted line the randomiser generates "the final logic levels the
    internal buffer of the FPGA interprets" — the truth table is rewritten
    to the constant level.
    """

    mechanism_label = "indet-lut"

    def __init__(self, injector: FadesInjector, fault: Fault):
        super().__init__(fault)
        self.injector = injector
        self.row, self.col = injector.lut_site(fault.target.index)
        self.value = (fault.value if fault.value is not None
                      else injector.rng.randrange(2))

    def inject(self) -> None:
        jbits = self.injector.jbits
        self.golden = jbits.read_cb(self.row, self.col)
        faulty = CbConfig(**{**self.golden.__dict__})
        faulty.tt = stuck_lut_line(self.golden.tt, self.fault.target.line,
                                   self.value)
        jbits.write_cb(self.row, self.col, faulty)

    def tick(self, cycle_in_window: int) -> None:
        if not self.fault.oscillate or cycle_in_window == 0:
            return
        self.value = self.injector.rng.randrange(2)
        faulty = CbConfig(**{**self.golden.__dict__})
        faulty.tt = stuck_lut_line(self.golden.tt, self.fault.target.line,
                                   self.value)
        self.injector.jbits.write_cb(self.row, self.col, faulty)

    def remove(self) -> None:
        self.injector.jbits.write_cb(self.row, self.col, self.golden)
