"""Generic FPGA architecture: geometry and configuration layout.

Paper, section 3: "every FPGA integrates a grid of configurable blocks (CB)
that are connected by means of programmable matrixes (PM).  A number of
memory blocks are also embedded into the FPGA."  This module defines that
generic device: the grid dimensions, the per-CB configuration word, the
per-PM pass-transistor bitmap, the embedded memory blocks, and the frame
organisation of the configuration memory.

Two presets are provided:

* :func:`virtex1000_like` — 24 576 CBs (matching the paper's count of
  24 576 FFs / 24 576 LUTs in the Virtex 1000) whose full configuration
  image lands near the real device's ~766 KiB bitstream, so the emulation
  time model sees realistic transfer sizes;
* :func:`demo_device` — a small fabric for unit tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..errors import BitstreamError

# ---------------------------------------------------------------------------
# Per-resource configuration layout
# ---------------------------------------------------------------------------

#: Bytes of configuration per configurable block.
CB_BYTES = 6

#: Bytes of pass-transistor configuration per programmable matrix.
PM_BYTES = 24

#: Pass transistors controllable in one programmable matrix.
PM_PASS_TRANSISTORS = PM_BYTES * 8

# Offsets/bit positions inside a CB's configuration word ------------------
CB_TT_LO = 0          # byte 0: LUT truth table bits 0..7
CB_TT_HI = 1          # byte 1: LUT truth table bits 8..15
CB_FLAGS = 2          # byte 2: mux and FF-mode flags
CB_FLAG_USE_FF = 0        # LUTorFFMux: CB output is the FF (1) or LUT (0)
CB_FLAG_FF_D_EXTERNAL = 1  # FF D source: routed FFin (1) or LUT output (0)
CB_FLAG_INVERT_FFIN = 2    # InvertFFinMux control bit
CB_FLAG_INVERT_LSR = 3     # InvertLSRMux control bit (asserts local S/R)
CB_FLAG_SRVAL = 4          # PRMux/CLRMux selection: value loaded on GSR/LSR
CB_FLAG_LATCH_MODE = 5     # storage element acts as latch (reserved)
# bytes 3..5 are reserved/manufacturer bits.


@dataclass(frozen=True)
class FrameAddr:
    """Address of one configuration frame.

    ``kind`` selects the resource plane:

    ``'cb'``
        CB configuration for one column (``major`` = column index).
    ``'route'``
        PM pass-transistor bitmaps for one column.
    ``'bram'``
        Contents of one embedded memory block (``major`` = block index).
    ``'state'``
        Flip-flop state capture for one column — *readback only*; FF state
        is never written directly, only through GSR/LSR reconfiguration,
        exactly as on the real device.
    ``'cmd'``
        The command register (GSR pulse and friends).
    """

    kind: str
    major: int

    def __str__(self) -> str:
        return f"{self.kind}[{self.major}]"


#: Command-register value that pulses the Global Set/Reset line.
CMD_PULSE_GSR = 0x47


@dataclass(frozen=True)
class MemBlockGeometry:
    """Geometry of every embedded memory block (uniform across the device)."""

    depth: int = 512
    width: int = 8

    @property
    def bits(self) -> int:
        """Capacity of one block in bits."""
        return self.depth * self.width

    @property
    def frame_bytes(self) -> int:
        """Size of the configuration frame holding one block's contents."""
        return (self.bits + 7) // 8


class Architecture:
    """Geometry and configuration-frame layout of one device."""

    def __init__(self, name: str, rows: int, cols: int, mem_blocks: int,
                 mem_geometry: MemBlockGeometry = MemBlockGeometry()):
        self.name = name
        self.rows = rows
        self.cols = cols
        self.mem_blocks = mem_blocks
        self.mem_geometry = mem_geometry

    # -- capacity -------------------------------------------------------
    @property
    def n_cbs(self) -> int:
        """Total configurable blocks (one LUT + one FF each)."""
        return self.rows * self.cols

    def sites(self) -> Iterator[Tuple[int, int]]:
        """All (row, col) CB coordinates, column-major."""
        for col in range(self.cols):
            for row in range(self.rows):
                yield (row, col)

    def check_site(self, row: int, col: int) -> None:
        """Raise :class:`BitstreamError` for an out-of-range coordinate."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise BitstreamError(
                f"CB({row},{col}) outside the {self.rows}x{self.cols} grid")

    # -- frame layout ----------------------------------------------------
    def frame_size(self, addr: FrameAddr) -> int:
        """Byte size of the frame at *addr*."""
        if addr.kind == "cb":
            self._check_col(addr.major)
            return self.rows * CB_BYTES
        if addr.kind == "route":
            self._check_col(addr.major)
            return self.rows * PM_BYTES
        if addr.kind == "bram":
            if not 0 <= addr.major < self.mem_blocks:
                raise BitstreamError(f"no memory block {addr.major}")
            return self.mem_geometry.frame_bytes
        if addr.kind == "state":
            self._check_col(addr.major)
            return (self.rows + 7) // 8
        if addr.kind == "cmd":
            return 4
        raise BitstreamError(f"unknown frame kind {addr.kind!r}")

    def _check_col(self, col: int) -> None:
        if not 0 <= col < self.cols:
            raise BitstreamError(f"no column {col}")

    def config_frames(self) -> List[FrameAddr]:
        """Every writable configuration frame of the device."""
        frames = [FrameAddr("cb", col) for col in range(self.cols)]
        frames += [FrameAddr("route", col) for col in range(self.cols)]
        frames += [FrameAddr("bram", block)
                   for block in range(self.mem_blocks)]
        return frames

    @property
    def full_config_bytes(self) -> int:
        """Size of a full configuration file (all writable frames)."""
        return sum(self.frame_size(addr) for addr in self.config_frames())

    # -- resource-to-bit mapping -----------------------------------------
    def cb_frame(self, row: int, col: int) -> Tuple[FrameAddr, int]:
        """Frame and byte offset of CB(row, col)'s configuration word."""
        self.check_site(row, col)
        return FrameAddr("cb", col), row * CB_BYTES

    def pm_frame(self, row: int, col: int) -> Tuple[FrameAddr, int]:
        """Frame and byte offset of PM(row, col)'s pass-transistor bitmap."""
        self.check_site(row, col)
        return FrameAddr("route", col), row * PM_BYTES

    def bram_bit(self, block: int, addr: int,
                 bit: int) -> Tuple[FrameAddr, int, int]:
        """Frame, byte offset and bit offset of one memory-block bit."""
        geometry = self.mem_geometry
        if not 0 <= block < self.mem_blocks:
            raise BitstreamError(f"no memory block {block}")
        if not 0 <= addr < geometry.depth or not 0 <= bit < geometry.width:
            raise BitstreamError(
                f"bit ({addr},{bit}) outside a {geometry.depth}x"
                f"{geometry.width} memory block")
        bit_index = addr * geometry.width + bit
        return FrameAddr("bram", block), bit_index // 8, bit_index % 8

    def state_bit(self, row: int, col: int) -> Tuple[FrameAddr, int, int]:
        """Frame, byte and bit offset of a FF's captured state."""
        self.check_site(row, col)
        return FrameAddr("state", col), row // 8, row % 8

    def describe(self) -> str:
        """Human-readable inventory (used by reports)."""
        return (f"{self.name}: {self.rows}x{self.cols} CBs "
                f"({self.n_cbs} LUTs, {self.n_cbs} FFs), "
                f"{self.mem_blocks} memory blocks of "
                f"{self.mem_geometry.depth}x{self.mem_geometry.width} bits, "
                f"full configuration {self.full_config_bytes} bytes")


def virtex1000_like() -> Architecture:
    """The paper's device class: 24 576 LUTs/FFs, ~750 KiB configuration."""
    return Architecture("virtex1000-like", rows=64, cols=384, mem_blocks=32)


def demo_device(rows: int = 16, cols: int = 16,
                mem_blocks: int = 4) -> Architecture:
    """A small fabric for tests and examples."""
    return Architecture(f"demo-{rows}x{cols}", rows=rows, cols=cols,
                        mem_blocks=mem_blocks)


def device_for(n_luts: int, n_ffs: int, n_brams: int,
               margin: float = 1.3) -> Architecture:
    """Pick the smallest preset that fits a design of the given size."""
    demo = demo_device()
    if (max(n_luts, n_ffs) * margin <= demo.n_cbs
            and n_brams <= demo.mem_blocks):
        return demo
    return virtex1000_like()
