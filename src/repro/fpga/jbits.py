"""JBits-like run-time reconfiguration API.

The paper's fault-emulation module "makes use of the JBits package that
provides some functions to read, modify and write again the configuration
memory of the FPGA" (section 5).  This module is that interface for the
generic device: frame-granular readback and partial reconfiguration, plus
resource-level helpers (LUT contents, CB control bits, memory-block bits,
pass transistors) built on frame read-modify-write.

Every call is routed through the :class:`~repro.fpga.board.Board` so that
emulated transfer time and byte counts are accounted exactly where the real
tool paid them.
"""

from __future__ import annotations

from typing import Optional

from ..obs import metrics
from .architecture import CB_BYTES, CMD_PULSE_GSR, FrameAddr
from .bitstream import Bitstream, CbConfig
from .board import Board
from .device import Device

_TRANSACTIONS = metrics.counter(
    "reconfig_transactions_total",
    "Host-board reconfiguration transactions by operation and frame kind.")
_BYTES = metrics.counter(
    "reconfig_bytes_total",
    "Bytes moved over the host-board link by operation and frame kind.")


class JBits:
    """Host-side handle for reconfiguring a configured :class:`Device`."""

    def __init__(self, device: Device, board: Optional[Board] = None):
        self.device = device
        self.board = board if board is not None else Board()

    def _transaction(self, op: str, kind: str, nbytes: int) -> float:
        """Account one bus transaction (board cost model + metrics)."""
        _TRANSACTIONS.inc(op=op, kind=kind)
        _BYTES.inc(nbytes, op=op, kind=kind)
        return self.board.transaction(nbytes)

    # ------------------------------------------------------------------
    # frame-level primitives (each one is a bus transaction)
    # ------------------------------------------------------------------
    def read_frame(self, addr: FrameAddr) -> bytes:
        """Readback of one frame."""
        data = self.device.read_frame(addr)
        self._transaction("read", addr.kind, len(data))
        return data

    def write_frame(self, addr: FrameAddr, data: bytes) -> None:
        """Partial reconfiguration of one frame."""
        self.device.write_frame(addr, data)
        self._transaction("write", addr.kind, len(data))

    def write_full(self, bitstream: Bitstream) -> None:
        """Download a full configuration file (one large transaction).

        The paper had to fall back to this for delay faults because of
        "experimental problems with the JBits package and the prototyping
        board driver" (section 6.2) — it is the expensive path.
        """
        for addr, frame in bitstream.frames.items():
            self.device.write_frame(addr, bytes(frame))
        self._transaction("write_full", "full", bitstream.total_bytes())

    def readback_full(self) -> Bitstream:
        """Read the whole configuration back (one large transaction)."""
        image = Bitstream(self.device.arch)
        for addr in image.frames:
            image.frames[addr][:] = self.device.read_frame(addr)
        self._transaction("read_full", "full", image.total_bytes())
        return image

    def pulse_gsr(self) -> None:
        """Trigger the Global Set/Reset through the command register."""
        addr = FrameAddr("cmd", 0)
        self.device.write_frame(addr, bytes([CMD_PULSE_GSR, 0, 0, 0]))
        self._transaction("write", "cmd",
                          self.device.arch.frame_size(addr))

    # ------------------------------------------------------------------
    # CB-level helpers (frame read-modify-write, host-cached writes)
    # ------------------------------------------------------------------
    def read_cb(self, row: int, col: int) -> CbConfig:
        """Readback and decode one CB's configuration."""
        addr, offset = self.device.arch.cb_frame(row, col)
        frame = self.read_frame(addr)
        return CbConfig.unpack(frame[offset:offset + CB_BYTES])

    def write_cb(self, row: int, col: int, config: CbConfig) -> None:
        """Encode and write one CB's configuration (whole-frame write).

        The host keeps the current image (it generated it), so no prior
        readback is required — we modify our copy of the column frame and
        download it.
        """
        addr, offset = self.device.arch.cb_frame(row, col)
        frame = bytearray(self.device.config.get_frame(addr))
        frame[offset:offset + CB_BYTES] = config.pack()
        self.write_frame(addr, bytes(frame))

    def read_ff_state(self, row: int, col: int) -> int:
        """Capture one flip-flop's live state via its column state frame."""
        addr, byte_off, bit_off = self.device.arch.state_bit(row, col)
        frame = self.read_frame(addr)
        return (frame[byte_off] >> bit_off) & 1

    # ------------------------------------------------------------------
    # memory-block helpers
    # ------------------------------------------------------------------
    def flip_bram_bit(self, block: int, addr: int, bit: int) -> int:
        """Read-modify-write flip of one memory bit (paper, figure 4).

        Returns the value the bit had *before* the flip.
        """
        frame_addr, byte_off, bit_off = self.device.arch.bram_bit(
            block, addr, bit)
        frame = bytearray(self.read_frame(frame_addr))
        old = (frame[byte_off] >> bit_off) & 1
        frame[byte_off] ^= 1 << bit_off
        self.write_frame(frame_addr, bytes(frame))
        return old
