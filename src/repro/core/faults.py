"""Fault models and fault descriptors.

The paper's transient fault models (section 4, table 1):

=================  ==========================  ================================
model              FPGA target                 emulation mechanism
=================  ==========================  ================================
bit-flip           FFs                         GSR line (slow) / LSR line (fast)
bit-flip           memory blocks               modify the memory bit
pulse              CB inputs                   input inverter mux
pulse              LUTs                        modify LUT contents
delay              PMs                         increase fan-out (small delays)
delay              PMs                         increase routing path (large)
indetermination    FFs / LUTs                  randomise the final value
=================  ==========================  ================================

plus the permanent models announced as future work (section 8): stuck-at,
open-line, bridging and stuck-open — implemented in
:mod:`repro.core.permanent`.

A :class:`Fault` is tool-agnostic: FADES realises it through run-time
reconfiguration (:mod:`repro.core.injector`), VFIT through simulator
commands (:mod:`repro.vfit.commands`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class FaultModel(enum.Enum):
    """Transient (and extension: permanent) fault models."""

    BITFLIP = "bitflip"
    PULSE = "pulse"
    DELAY = "delay"
    INDETERMINATION = "indetermination"
    # Permanent extensions (paper section 8, future work).
    STUCK_AT = "stuck_at"
    OPEN_LINE = "open_line"
    BRIDGING = "bridging"
    STUCK_OPEN = "stuck_open"
    # Configuration-memory upset (the system manufactured on the FPGA).
    CONFIG_SEU = "config_seu"

    @property
    def transient(self) -> bool:
        """Whether the fault disappears after its duration."""
        return self in (FaultModel.PULSE, FaultModel.DELAY,
                        FaultModel.INDETERMINATION)


class TargetKind(enum.Enum):
    """What class of resource a fault attaches to."""

    FF = "ff"                  # a flip-flop (sequential logic)
    MEMORY_BIT = "memory_bit"  # one bit of an embedded memory block
    LUT = "lut"                # a function generator
    CB_INPUT = "cb_input"      # a routed CB input (the FFin path)
    NET = "net"                # an interconnect line (delay faults)
    CONFIG_BIT = "config_bit"  # one bit of the configuration memory


@dataclass(frozen=True)
class Target:
    """A fault location in implementation terms.

    ``index`` selects the resource (FF index, LUT index, BRAM index or a
    net id depending on :attr:`kind`); the remaining fields qualify it:

    * for :attr:`TargetKind.MEMORY_BIT` — ``addr`` and ``bit``;
    * for :attr:`TargetKind.LUT` — ``line``: ``-1`` targets the LUT output,
      ``0..3`` target an input line (paper, figure 5);
    * for :attr:`TargetKind.NET` — nothing further.
    """

    kind: TargetKind
    index: int
    addr: int = 0
    bit: int = 0
    line: int = -1

    def describe(self) -> str:
        if self.kind is TargetKind.MEMORY_BIT:
            return f"memory[{self.index}] bit ({self.addr},{self.bit})"
        if self.kind is TargetKind.LUT:
            what = "output" if self.line < 0 else f"input {self.line}"
            return f"LUT {self.index} {what}"
        return f"{self.kind.value} {self.index}"


@dataclass(frozen=True)
class Fault:
    """One injectable fault instance.

    Durations are expressed in clock cycles and may be fractional: a pulse
    shorter than one cycle only disturbs a capture edge when its active
    window straddles one, which depends on ``phase`` (the sub-cycle offset
    of the injection instant, uniform in campaigns).

    ``value`` carries the randomised level for indeterminations and the
    stuck level for permanent faults.  ``magnitude_ns`` is the extra
    propagation delay requested from delay faults.  ``mechanism`` lets a
    campaign pin a specific emulation mechanism (``'lsr'``/``'gsr'`` for FF
    bit-flips, ``'fanout'``/``'reroute'`` for delays); empty means the
    tool's default.
    """

    model: FaultModel
    target: Target
    start_cycle: int
    duration_cycles: float = 1.0
    phase: float = 0.0
    value: Optional[int] = None
    magnitude_ns: float = 0.0
    mechanism: str = ""
    oscillate: bool = False
    aux_target: Optional[Target] = None  # second net for bridging faults
    #: Additional simultaneous locations (multiple bit-flips, section 8).
    extra_targets: Tuple[Target, ...] = ()

    @property
    def whole_cycles(self) -> int:
        """Capture edges inside the active window (≥1-cycle faults)."""
        return int(self.duration_cycles)

    @property
    def straddles_edge(self) -> bool:
        """Whether a sub-cycle fault covers a clock edge at all."""
        if self.duration_cycles >= 1.0:
            return True
        return self.phase + self.duration_cycles >= 1.0

    @property
    def activation_window(self) -> int:
        """Capture edges the fault is active for: its whole cycles, or for
        a sub-cycle fault one edge if it straddles one, else none (it is
        injected and removed before the next edge)."""
        if self.duration_cycles >= 1.0:
            return self.whole_cycles
        return 1 if self.straddles_edge else 0

    def injection_cycle(self, cycles: int) -> int:
        """Cycle a *cycles*-long experiment injects at: ``start_cycle``,
        clamped onto the last emulated cycle."""
        return min(self.start_cycle, max(0, cycles - 1))

    def active_cycles(self, cycles: int) -> range:
        """Cycles of a *cycles*-long experiment whose capture edge the
        fault is live at, clipped to the run (a window past the end is
        removed after the last cycle)."""
        start = self.injection_cycle(cycles)
        return range(start, min(start + self.activation_window, cycles))

    @property
    def all_targets(self) -> Tuple[Target, ...]:
        """Primary plus extra targets (multiplicity >= 1)."""
        return (self.target,) + self.extra_targets

    def describe(self) -> str:
        base = (f"{self.model.value} @ {self.target.describe()} "
                f"t={self.start_cycle} d={self.duration_cycles:g}")
        if self.extra_targets:
            base += f" (+{len(self.extra_targets)} more)"
        if self.mechanism:
            base += f" [{self.mechanism}]"
        return base


#: Duration bands used throughout the paper's evaluation (section 6.1):
#: less than one cycle, 1–10 cycles, 11–20 cycles.
DURATION_BANDS: Tuple[Tuple[float, float], ...] = (
    (0.05, 0.95), (1.0, 10.0), (11.0, 20.0))

BAND_LABELS: Tuple[str, ...] = ("<1", "1-10", "11-20")


def band_label(duration: float) -> str:
    """Label of the paper band a duration falls into."""
    if duration < 1.0:
        return BAND_LABELS[0]
    if duration <= 10.0:
        return BAND_LABELS[1]
    return BAND_LABELS[2]
