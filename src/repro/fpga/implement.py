"""Implementation flow: place, route, analyse timing, emit the bitstream.

This is the back half of the paper's "synthesis and implementation" box in
figure 1: it turns a technology-mapped netlist into a configuration file for
a concrete device, together with the structural databases (placement,
routing, timing) that the run-time-reconfiguration API needs to locate
resources inside that file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import BitstreamError
from ..synth.mapped import MappedNetlist
from .architecture import Architecture, FrameAddr, device_for, pm_bit
from .bitstream import Bitstream, CbConfig
from .placement import Placement, place
from .routing import RoutingDb, route
from .timing import TimingAnalysis, TimingParams


@dataclass
class Implementation:
    """A design implemented on a device: all structural views plus the
    golden (fault-free) configuration image."""

    arch: Architecture
    mapped: MappedNetlist
    placement: Placement
    routing: RoutingDb
    timing: TimingAnalysis
    golden_bitstream: Bitstream

    def describe(self) -> str:
        """One-paragraph summary for reports."""
        stats = self.mapped.stats()
        rstats = self.routing.stats()
        return (f"design {self.mapped.name!r} on {self.arch.name}: "
                f"{stats['luts']} LUTs, {stats['ffs']} FFs, "
                f"{stats['brams']} memory blocks; {rstats['nets']} nets, "
                f"{rstats['pass_transistors']} pass transistors; clock "
                f"period {self.timing.period:.2f} ns")


def generate_bitstream(placement: Placement,
                       routing: RoutingDb) -> Bitstream:
    """Encode a placed-and-routed design into a configuration image."""
    arch = placement.arch
    mapped = placement.mapped
    image = Bitstream(arch)
    for (row, col), cb in placement.sites.items():
        config = CbConfig()
        if cb.lut is not None:
            config.tt = mapped.luts[cb.lut].padded_tt()
        if cb.ff is not None:
            ff = mapped.ffs[cb.ff]
            config.use_ff = True
            config.srval = ff.init
            config.ff_d_external = not cb.packed
        image.set_cb(row, col, config)
    columns = [image.frames[FrameAddr("route", col)]
               for col in range(arch.cols)]
    rows, cols = arch.rows, arch.cols
    for net_route in routing.routes.values():
        for row, col, index in net_route.pass_transistors():
            if not (0 <= row < rows and 0 <= col < cols):
                raise BitstreamError(
                    f"PM({row},{col}) outside the {rows}x{cols} grid")
            byte_off, bit_off = pm_bit(row, index)
            columns[col][byte_off] |= 1 << bit_off
    for bram_index, bram in enumerate(mapped.brams):
        block = placement.block_of_bram[bram_index]
        for addr, word in enumerate(bram.init):
            image.set_bram_word(block, addr, word)
    return image


def implement(mapped: MappedNetlist, arch: Optional[Architecture] = None,
              params: TimingParams = TimingParams(),
              period: Optional[float] = None) -> Implementation:
    """Run the full implementation flow onto *arch* (auto-sized if None)."""
    stats = mapped.stats()
    if arch is None:
        arch = device_for(stats["luts"], stats["ffs"], stats["brams"])
    placement = place(mapped, arch)
    routing = route(placement)
    timing = TimingAnalysis(mapped, routing, params=params, period=period)
    golden = generate_bitstream(placement, routing)
    return Implementation(arch=arch, mapped=mapped, placement=placement,
                          routing=routing, timing=timing,
                          golden_bitstream=golden)
