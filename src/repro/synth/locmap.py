"""Fault-location database: mapping HDL elements onto FPGA resources.

Paper, section 2 — *fault location process*: "it is necessary to establish a
mapping between HDL model elements and FPGA internal resources", because
synthesis may rename, merge or remove the ports, signals and variables a
model-based campaign wants to target.  :class:`LocationMap` is that mapping.
It is built once per implementation run from:

* the optimiser's net map (which HDL nets survived, and as what),
* the mapped netlist (which LUT/FF/BRAM produces each surviving net), and
* later, placement (which CB/PM/memory-block coordinates host each element —
  attached by :func:`attach_placement` so campaign code can go straight from
  an HDL name to configuration-memory bits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import LocationError
from ..hdl.netlist import Netlist
from .mapped import MappedNetlist
from .optimize import OptimizeResult


@dataclass
class BitLocation:
    """Where one bit of an HDL signal lives after implementation.

    ``kind`` is one of:

    ``'ff'``
        The bit is stored in flip-flop ``index`` of the mapped design.
    ``'lut'``
        The bit is the combinational output of LUT ``index``.
    ``'input'``
        The bit is a primary input net.
    ``'bram'``
        The bit is a registered memory-block read port.
    ``'const'``
        Synthesis proved the bit constant (``index`` is the value).
    ``'removed'``
        The bit was optimised away entirely.
    ``'merged'``
        The net survives but only as an interior node absorbed into some
        LUT's cone — it is no longer individually addressable.
    """

    kind: str
    index: int = -1
    net: int = -1

    @property
    def targetable(self) -> bool:
        """Whether a fault can be attached to this bit at all."""
        return self.kind in ("ff", "lut", "bram", "input")


@dataclass
class SignalLocation:
    """Implementation location of a whole HDL signal."""

    name: str
    unit: str
    bits: List[BitLocation] = field(default_factory=list)

    @property
    def fully_targetable(self) -> bool:
        """All bits survived implementation as addressable resources."""
        return all(bit.targetable for bit in self.bits)

    @property
    def lost_bits(self) -> List[int]:
        """Indices of bits that were removed, merged or proven constant."""
        return [i for i, bit in enumerate(self.bits) if not bit.targetable]


class LocationMap:
    """The HDL-name -> FPGA-resource mapping for one implementation run."""

    def __init__(self, mapped: MappedNetlist):
        self.mapped = mapped
        self.signals: Dict[str, SignalLocation] = {}
        self.ff_names: Dict[str, int] = {
            ff.name: index for index, ff in enumerate(mapped.ffs) if ff.name}
        self.memories: Dict[str, int] = {
            bram.name: index for index, bram in enumerate(mapped.brams)}
        # Unit partitions, as used by the paper's per-unit experiments
        # (ALU / MEM / FSM ...).
        self.unit_luts: Dict[str, List[int]] = {}
        self.unit_ffs: Dict[str, List[int]] = {}
        for index, lut in enumerate(mapped.luts):
            self.unit_luts.setdefault(lut.unit, []).append(index)
        for index, ff in enumerate(mapped.ffs):
            self.unit_ffs.setdefault(ff.unit, []).append(index)
        # Placement annotations, filled by attach_placement().
        self.placement = None

    # ------------------------------------------------------------------
    def signal(self, name: str) -> SignalLocation:
        """Look up a signal; raise :class:`LocationError` if unknown."""
        try:
            return self.signals[name]
        except KeyError:
            raise LocationError(f"no HDL signal named {name!r}") from None

    def require_targetable(self, name: str) -> SignalLocation:
        """Look up a signal and insist every bit is injectable."""
        location = self.signal(name)
        if not location.fully_targetable:
            raise LocationError(
                f"signal {name!r} lost bits {location.lost_bits} during "
                "implementation (renamed/merged/removed by optimisation)")
        return location

    def units(self) -> List[str]:
        """All functional-unit tags present in the implementation."""
        return sorted(set(self.unit_luts) | set(self.unit_ffs))

    def luts_in_unit(self, unit: str) -> List[int]:
        """Mapped LUT indices belonging to *unit*."""
        return list(self.unit_luts.get(unit, []))

    def ffs_in_unit(self, unit: str) -> List[int]:
        """Mapped FF indices belonging to *unit*."""
        return list(self.unit_ffs.get(unit, []))

    def memory(self, name: str) -> int:
        """BRAM index of a named memory block."""
        try:
            return self.memories[name]
        except KeyError:
            raise LocationError(f"no memory block named {name!r}") from None

    def summary(self) -> Dict[str, int]:
        """Counts of signal-survival outcomes, for reports."""
        counts = {"targetable": 0, "degraded": 0}
        for location in self.signals.values():
            if location.fully_targetable:
                counts["targetable"] += 1
            else:
                counts["degraded"] += 1
        return counts

    # ------------------------------------------------------------------
    # placement annotations
    # ------------------------------------------------------------------
    def attach_placement(self, placement) -> None:
        """Attach placement so names resolve all the way to CB sites."""
        self.placement = placement

    def site_of(self, name: str, bit: int = 0) -> Tuple[int, int]:
        """The CB (row, col) hosting one bit of an HDL signal.

        This is the complete fault-location chain of the paper's section 2:
        HDL element -> surviving net -> mapped resource -> device site ->
        (via the architecture) configuration-frame bits.  Requires
        :meth:`attach_placement`.
        """
        if self.placement is None:
            raise LocationError(
                "no placement attached; run the implementation flow first")
        location = self.signal(name)
        bit_location = location.bits[bit]
        if bit_location.kind == "ff":
            return self.placement.site_of_ff[bit_location.index]
        if bit_location.kind == "lut":
            return self.placement.site_of_lut[bit_location.index]
        raise LocationError(
            f"signal {name!r} bit {bit} is {bit_location.kind}; only "
            "FF- and LUT-backed bits occupy a CB site")

    def describe_signal(self, name: str) -> str:
        """Human-readable implementation report for one HDL signal."""
        location = self.signal(name)
        parts = []
        for index, bit_location in enumerate(location.bits):
            entry = f"[{index}] {bit_location.kind}"
            if bit_location.kind in ("ff", "lut", "bram"):
                entry += f" #{bit_location.index}"
            if bit_location.kind == "const":
                entry += f"={bit_location.index}"
            if self.placement is not None and bit_location.kind == "ff":
                entry += f" @CB{self.placement.site_of_ff[bit_location.index]}"
            elif self.placement is not None and bit_location.kind == "lut":
                entry += \
                    f" @CB{self.placement.site_of_lut[bit_location.index]}"
            parts.append(entry)
        return f"{name} ({location.unit or 'top'}): " + ", ".join(parts)


def build_location_map(source: Netlist, optimized: OptimizeResult,
                       mapped: MappedNetlist) -> LocationMap:
    """Construct the :class:`LocationMap` for an implementation run."""
    locmap = LocationMap(mapped)
    lut_of = mapped.lut_of_net()
    ff_of = mapped.ff_of_net()
    input_nets = set()
    for nets in mapped.inputs.values():
        input_nets.update(nets)
    bram_nets = {}
    for index, bram in enumerate(mapped.brams):
        for net in bram.rdata:
            bram_nets[net] = index

    for name, nets in source.names.items():
        location = SignalLocation(
            name=name, unit=source.name_units.get(name, ""))
        for net in nets:
            mapped_net = optimized.net_map.get(net)
            if mapped_net is None:
                location.bits.append(BitLocation("removed"))
            elif mapped_net in (0, 1):
                location.bits.append(
                    BitLocation("const", index=mapped_net, net=mapped_net))
            elif mapped_net in ff_of:
                location.bits.append(
                    BitLocation("ff", index=ff_of[mapped_net],
                                net=mapped_net))
            elif mapped_net in lut_of:
                location.bits.append(
                    BitLocation("lut", index=lut_of[mapped_net],
                                net=mapped_net))
            elif mapped_net in input_nets:
                location.bits.append(
                    BitLocation("input", net=mapped_net))
            elif mapped_net in bram_nets:
                location.bits.append(
                    BitLocation("bram", index=bram_nets[mapped_net],
                                net=mapped_net))
            else:
                location.bits.append(
                    BitLocation("merged", net=mapped_net))
        locmap.signals[name] = location
    return locmap
