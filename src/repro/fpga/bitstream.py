"""Configuration memory: frames, bit accessors, CB configuration words.

The configuration memory of the generic FPGA "controls the configuration of
all these elements" (paper, section 3): LUT truth tables, storage-element
modes, multiplexer control inputs, PM pass transistors and the contents of
the internal memory blocks.  A :class:`Bitstream` is a complete image of
that memory, organised in frames (see
:class:`~repro.fpga.architecture.FrameAddr`); run-time reconfiguration reads
and writes individual frames.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import BitstreamError
from .architecture import (CB_BYTES, CB_FLAGS, CB_FLAG_FF_D_EXTERNAL,
                           CB_FLAG_INVERT_FFIN, CB_FLAG_INVERT_LSR,
                           CB_FLAG_LATCH_MODE, CB_FLAG_SRVAL, CB_FLAG_USE_FF,
                           CB_TT_HI, CB_TT_LO, PM_BYTES, Architecture,
                           FrameAddr, pm_bit)


@dataclass
class CbConfig:
    """Decoded configuration of one configurable block (paper, figure 2).

    Attributes mirror the generic CB's programmable elements:

    * ``tt`` — the 16-bit LUT truth table;
    * ``use_ff`` — ``LUTorFFMux``: the CB output is the FF (sequential) or
      the LUT (combinational);
    * ``ff_d_external`` — the FF's D input comes from the routed ``FFin``
      pin instead of the local LUT output;
    * ``invert_ffin`` — ``InvertFFinMux`` control bit (pulse-fault target);
    * ``invert_lsr`` — ``InvertLSRMux``: inverting the idle-low local
      set/reset line *asserts* it, forcing the FF to ``srval``;
    * ``srval`` — ``PRMux``/``CLRMux`` selection: the value the FF takes
      when GSR or its LSR fires;
    * ``latch_mode`` — storage element configured as a latch (reserved).
    """

    tt: int = 0
    use_ff: bool = False
    ff_d_external: bool = False
    invert_ffin: bool = False
    invert_lsr: bool = False
    srval: int = 0
    latch_mode: bool = False

    def pack(self) -> bytes:
        """Encode into the :data:`CB_BYTES`-byte configuration word."""
        flags = ((self.use_ff << CB_FLAG_USE_FF)
                 | (self.ff_d_external << CB_FLAG_FF_D_EXTERNAL)
                 | (self.invert_ffin << CB_FLAG_INVERT_FFIN)
                 | (self.invert_lsr << CB_FLAG_INVERT_LSR)
                 | ((self.srval & 1) << CB_FLAG_SRVAL)
                 | (self.latch_mode << CB_FLAG_LATCH_MODE))
        word = bytearray(CB_BYTES)
        word[CB_TT_LO] = self.tt & 0xFF
        word[CB_TT_HI] = (self.tt >> 8) & 0xFF
        word[CB_FLAGS] = flags
        return bytes(word)

    @classmethod
    def unpack(cls, word: bytes) -> "CbConfig":
        """Decode a configuration word back into field form."""
        if len(word) < CB_BYTES:
            raise BitstreamError(
                f"CB configuration word needs {CB_BYTES} bytes")
        flags = word[CB_FLAGS]
        return cls(
            tt=word[CB_TT_LO] | (word[CB_TT_HI] << 8),
            use_ff=bool((flags >> CB_FLAG_USE_FF) & 1),
            ff_d_external=bool((flags >> CB_FLAG_FF_D_EXTERNAL) & 1),
            invert_ffin=bool((flags >> CB_FLAG_INVERT_FFIN) & 1),
            invert_lsr=bool((flags >> CB_FLAG_INVERT_LSR) & 1),
            srval=(flags >> CB_FLAG_SRVAL) & 1,
            latch_mode=bool((flags >> CB_FLAG_LATCH_MODE) & 1),
        )


class Bitstream:
    """A full configuration image for one :class:`Architecture`.

    Frames are dense ``bytearray`` blocks addressed by
    :class:`~repro.fpga.architecture.FrameAddr`.  The image covers only the
    *writable* planes (CB, routing, memory contents); FF-state frames exist
    on the device but never inside a configuration file.
    """

    def __init__(self, arch: Architecture):
        self.arch = arch
        self.frames: Dict[FrameAddr, bytearray] = {
            addr: bytearray(arch.frame_size(addr))
            for addr in arch.config_frames()}

    # -- frame access ----------------------------------------------------
    def get_frame(self, addr: FrameAddr) -> bytes:
        """Read a frame's bytes."""
        try:
            return bytes(self.frames[addr])
        except KeyError:
            raise BitstreamError(f"no frame {addr} in this image") from None

    def set_frame(self, addr: FrameAddr, data: bytes) -> None:
        """Replace a frame's bytes (length must match exactly)."""
        frame = self.frames.get(addr)
        if frame is None:
            raise BitstreamError(f"no frame {addr} in this image")
        if len(data) != len(frame):
            raise BitstreamError(
                f"frame {addr} is {len(frame)} bytes, got {len(data)}")
        frame[:] = data

    # -- bit-level helpers -------------------------------------------------
    def get_bit(self, addr: FrameAddr, byte_off: int, bit_off: int) -> int:
        """Read one configuration bit."""
        return (self.frames[addr][byte_off] >> bit_off) & 1

    def set_bit(self, addr: FrameAddr, byte_off: int, bit_off: int,
                value: int) -> None:
        """Write one configuration bit."""
        frame = self.frames[addr]
        if value:
            frame[byte_off] |= 1 << bit_off
        else:
            frame[byte_off] &= ~(1 << bit_off)

    # -- CB configuration ---------------------------------------------------
    def get_cb(self, row: int, col: int) -> CbConfig:
        """Decode the configuration of CB(row, col)."""
        addr, offset = self.arch.cb_frame(row, col)
        return CbConfig.unpack(self.frames[addr][offset:offset + CB_BYTES])

    def set_cb(self, row: int, col: int, config: CbConfig) -> None:
        """Encode *config* into CB(row, col)'s configuration word."""
        addr, offset = self.arch.cb_frame(row, col)
        self.frames[addr][offset:offset + CB_BYTES] = config.pack()

    # -- PM pass transistors -------------------------------------------------
    def get_pass_transistor(self, row: int, col: int, index: int) -> int:
        """Read the control bit of one pass transistor of PM(row, col)."""
        addr, _offset = self.arch.pm_frame(row, col)
        return self.get_bit(addr, *pm_bit(row, index))

    def set_pass_transistor(self, row: int, col: int, index: int,
                            value: int) -> None:
        """Turn a pass transistor of PM(row, col) on or off."""
        addr, _offset = self.arch.pm_frame(row, col)
        self.set_bit(addr, *pm_bit(row, index), value)

    def pm_used_count(self, row: int, col: int) -> int:
        """Number of pass transistors currently enabled in PM(row, col)."""
        addr, offset = self.arch.pm_frame(row, col)
        frame = self.frames[addr]
        return sum(bin(frame[offset + i]).count("1") for i in range(PM_BYTES))

    # -- memory blocks --------------------------------------------------------
    def get_bram_bit(self, block: int, addr: int, bit: int) -> int:
        """Read one bit of an embedded memory block's contents."""
        frame_addr, byte_off, bit_off = self.arch.bram_bit(block, addr, bit)
        return self.get_bit(frame_addr, byte_off, bit_off)

    def set_bram_bit(self, block: int, addr: int, bit: int,
                     value: int) -> None:
        """Write one bit of an embedded memory block's contents."""
        frame_addr, byte_off, bit_off = self.arch.bram_bit(block, addr, bit)
        self.set_bit(frame_addr, byte_off, bit_off, value)

    def _bram_word_span(self, block: int,
                        addr: int) -> Tuple[bytearray, int, int, int]:
        """Frame, byte range (start, stop) and bit shift of one memory
        word: the bytes its bits share, one bounds check for the word."""
        frame_addr, byte_off, bit_off = self.arch.bram_bit(block, addr, 0)
        stop = byte_off + (bit_off + self.arch.mem_geometry.width + 7) // 8
        return self.frames[frame_addr], byte_off, stop, bit_off

    def get_bram_word(self, block: int, addr: int) -> int:
        """Read a whole memory word from the configuration image."""
        frame, start, stop, shift = self._bram_word_span(block, addr)
        mask = (1 << self.arch.mem_geometry.width) - 1
        return (int.from_bytes(frame[start:stop], "little") >> shift) & mask

    def set_bram_word(self, block: int, addr: int, value: int) -> None:
        """Write a whole memory word (its low ``width`` bits) into the
        configuration image."""
        frame, start, stop, shift = self._bram_word_span(block, addr)
        mask = ((1 << self.arch.mem_geometry.width) - 1) << shift
        bits = int.from_bytes(frame[start:stop], "little")
        bits = (bits & ~mask) | ((value << shift) & mask)
        frame[start:stop] = bits.to_bytes(stop - start, "little")

    # -- whole-image operations -------------------------------------------
    def copy(self) -> "Bitstream":
        """Deep copy of the configuration image."""
        clone = Bitstream(self.arch)
        for addr, frame in self.frames.items():
            clone.frames[addr][:] = frame
        return clone

    def total_bytes(self) -> int:
        """Size of the full configuration file."""
        return sum(len(frame) for frame in self.frames.values())

    def diff_frames(self, other: "Bitstream") -> List[FrameAddr]:
        """Frames whose contents differ between two images."""
        return [addr for addr, frame in self.frames.items()
                if bytes(frame) != bytes(other.frames[addr])]

    # -- configuration files -------------------------------------------
    # On-disk format: magic, device name, frame records (kind, major,
    # length, payload), trailing CRC32 over everything before it — the
    # "configuration file resulting from the model synthesis and
    # implementation process" of the paper's figure 1, persistable.
    _MAGIC = b"RPRObit1"

    def save(self, path: str) -> None:
        """Write the image as a configuration file with a CRC trailer."""
        chunks = [self._MAGIC]
        name = self.arch.name.encode()
        chunks.append(struct.pack("<H", len(name)))
        chunks.append(name)
        chunks.append(struct.pack("<I", len(self.frames)))
        for addr, frame in self.frames.items():
            kind = addr.kind.encode()
            chunks.append(struct.pack("<B", len(kind)))
            chunks.append(kind)
            chunks.append(struct.pack("<iI", addr.major, len(frame)))
            chunks.append(bytes(frame))
        blob = b"".join(chunks)
        with open(path, "wb") as handle:
            handle.write(blob)
            handle.write(struct.pack("<I", zlib.crc32(blob)))

    @classmethod
    def load(cls, path: str, arch: Architecture) -> "Bitstream":
        """Read a configuration file back; verify CRC and device match."""
        with open(path, "rb") as handle:
            blob = handle.read()
        if len(blob) < len(cls._MAGIC) + 4:
            raise BitstreamError(f"{path}: truncated configuration file")
        body, crc = blob[:-4], struct.unpack("<I", blob[-4:])[0]
        if zlib.crc32(body) != crc:
            raise BitstreamError(f"{path}: CRC mismatch (corrupt file)")
        if not body.startswith(cls._MAGIC):
            raise BitstreamError(f"{path}: not a configuration file")
        offset = len(cls._MAGIC)
        (name_len,) = struct.unpack_from("<H", body, offset)
        offset += 2
        name = body[offset:offset + name_len].decode()
        offset += name_len
        if name != arch.name:
            raise BitstreamError(
                f"{path}: built for device {name!r}, not {arch.name!r}")
        (n_frames,) = struct.unpack_from("<I", body, offset)
        offset += 4
        image = cls(arch)
        for _ in range(n_frames):
            (kind_len,) = struct.unpack_from("<B", body, offset)
            offset += 1
            kind = body[offset:offset + kind_len].decode()
            offset += kind_len
            major, length = struct.unpack_from("<iI", body, offset)
            offset += 8
            payload = body[offset:offset + length]
            offset += length
            image.set_frame(FrameAddr(kind, major), payload)
        return image
