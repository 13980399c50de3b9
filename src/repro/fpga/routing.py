"""Routing: connect placed resources through programmable matrices.

Paper, section 3: "PMs interconnect the CBs by linking lines that cross the
device both in vertical and horizontal directions...  each connection is
established by means of a pass transistor."  The router walks an L-shaped
(horizontal-then-vertical) path from each net's driver to each of its sinks,
claiming one pass transistor per programmable matrix it traverses.  Trunk
segments are shared: a net claims at most one pass transistor per PM no
matter how many of its sinks pass through it.

The resulting :class:`RoutingDb` is both the structural database (which JBits
exposed for Virtex devices) and the source of the net-load information the
timing model uses — including *extra* loads switched on by the delay-fault
injector (paper, section 4.3, figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import RoutingError
from ..hdl.netlist import CONST0, CONST1
from .architecture import PM_PASS_TRANSISTORS
from .placement import Placement, Site

Pm = Tuple[int, int]


@dataclass
class Pin:
    """A routed input pin of some resource."""

    kind: str          # 'lut' | 'ffin' | 'bram' | 'out'
    index: int         # lut/ff/bram index, or -1 for primary outputs
    pos: int           # input position within the resource
    site: Site


@dataclass
class SinkRoute:
    """The path from a net's driver to one sink pin."""

    pin: Pin
    hops: List[Tuple[int, int, int]] = field(default_factory=list)
    # each hop is (row, col, pass_transistor_index)

    @property
    def length(self) -> int:
        """Number of programmable matrices traversed."""
        return len(self.hops)


@dataclass
class NetRoute:
    """Complete routing of one net."""

    net: int
    driver_site: Site
    sinks: List[SinkRoute] = field(default_factory=list)
    extra_loads: List[Tuple[int, int, int]] = field(default_factory=list)
    detour_hops: int = 0   # extra PM segments (reroute delay faults)
    detour_luts: int = 0   # extra buffer stages (shift-register detours)
    detour_bits: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def fanout(self) -> int:
        """Number of sinks plus injected extra loads."""
        return len(self.sinks) + len(self.extra_loads)

    @property
    def pms(self) -> List[Pm]:
        """Distinct programmable matrices the net is routed through."""
        seen: Set[Pm] = set()
        ordered: List[Pm] = []
        for sink in self.sinks:
            for row, col, _pt in sink.hops:
                if (row, col) not in seen:
                    seen.add((row, col))
                    ordered.append((row, col))
        return ordered

    def pass_transistors(self) -> List[Tuple[int, int, int]]:
        """All (row, col, index) pass-transistor bits the net occupies."""
        seen: Set[Tuple[int, int, int]] = set()
        bits: List[Tuple[int, int, int]] = []
        for sink in self.sinks:
            for hop in sink.hops:
                if hop not in seen:
                    seen.add(hop)
                    bits.append(hop)
        bits.extend(self.extra_loads)
        bits.extend(self.detour_bits)
        return bits


class RoutingDb:
    """All net routes of one implementation, plus PM occupancy."""

    def __init__(self, placement: Placement):
        self.placement = placement
        self.routes: Dict[int, NetRoute] = {}
        #: Claimed pass transistors per PM.
        self.pm_used: Dict[Pm, int] = {}
        #: Transistors given back below each PM's highest claim: a PM's
        #: claimed ones are ``range(pm_used + len(released))`` less
        #: these.
        self._released: Dict[Pm, Set[int]] = {}
        #: Bumped on every run-time structural change; consumers (the
        #: device's routing-plane decoder) cache against it.
        self.version = 0

    # -- construction helpers -------------------------------------------
    def lowest_free(self, pm: Pm) -> int:
        """The pass transistor of *pm* the next claim takes."""
        released = self._released.get(pm)
        if released:
            return min(released)
        used = self.pm_used.get(pm, 0)
        if used >= PM_PASS_TRANSISTORS:
            raise _congested(pm)
        return used

    def claim_pass_transistor(self, pm: Pm) -> int:
        """Allocate the lowest free pass transistor of *pm*."""
        index = self.lowest_free(pm)
        self._released.get(pm, set()).discard(index)
        self.pm_used[pm] = self.pm_used.get(pm, 0) + 1
        return index

    def release_pass_transistor(self, bit: Tuple[int, int, int]) -> None:
        """Give back a transistor a run-time change claimed."""
        pm = (bit[0], bit[1])
        self.pm_used[pm] -= 1
        self._released.setdefault(pm, set()).add(bit[2])

    def free_pass_transistors(self, pm: Pm) -> int:
        """Unused pass transistors remaining in *pm*."""
        return PM_PASS_TRANSISTORS - self.pm_used.get(pm, 0)

    # -- run-time reconfiguration hooks ----------------------------------
    def add_extra_load(self, net: int, pm: Optional[Pm] = None
                       ) -> Tuple[int, int, int]:
        """Enable an unused pass transistor on the net's path (fan-out
        delay fault, paper figure 8).  Returns the claimed (row, col, pt).
        """
        route = self.route_of(net)
        candidates = route.pms if pm is None else [pm]
        for candidate in candidates:
            if self.free_pass_transistors(candidate) > 0:
                index = self.claim_pass_transistor(candidate)
                bit = (candidate[0], candidate[1], index)
                route.extra_loads.append(bit)
                self.version += 1
                return bit
        raise RoutingError(
            f"no free pass transistor available on the path of net {net}")

    def remove_extra_load(self, net: int,
                          bit: Tuple[int, int, int]) -> None:
        """Undo :meth:`add_extra_load`."""
        route = self.route_of(net)
        route.extra_loads.remove(bit)
        self.release_pass_transistor(bit)
        self.version += 1

    def set_detour(self, net: int, extra_hops: int,
                   through_luts: int = 0) -> None:
        """Lengthen the net's route by *extra_hops* PM segments and
        *through_luts* buffer stages (reroute delay fault, figure 7)."""
        route = self.route_of(net)
        route.detour_hops = extra_hops
        route.detour_luts = through_luts
        self.version += 1

    def clear_detour(self, net: int) -> None:
        """Restore the net's original routing."""
        route = self.route_of(net)
        route.detour_hops = 0
        route.detour_luts = 0
        route.detour_bits.clear()
        self.version += 1

    def reset(self) -> None:
        """Undo every run-time change: drop all extra loads and detours
        and recount the PM claims from the routed sinks alone, which
        gives back the database :func:`route` built (the one the golden
        configuration encodes)."""
        pm_used: Dict[Pm, int] = {}
        for net_route in self.routes.values():
            net_route.extra_loads.clear()
            net_route.detour_hops = 0
            net_route.detour_luts = 0
            net_route.detour_bits.clear()
            for row, col, _index in net_route.pass_transistors():
                pm_used[(row, col)] = pm_used.get((row, col), 0) + 1
        self.pm_used = pm_used
        self._released.clear()
        self.version += 1

    # -- queries -----------------------------------------------------------
    def route_of(self, net: int) -> NetRoute:
        """Route of *net*; raise :class:`RoutingError` if not routed."""
        route = self.routes.get(net)
        if route is None:
            raise RoutingError(f"net {net} is not routed")
        return route

    def is_routed(self, net: int) -> bool:
        """Whether the net exists in the routing database."""
        return net in self.routes

    def stats(self) -> Dict[str, int]:
        """Routing totals for reports and the cost model."""
        total_pts = sum(len(r.pass_transistors())
                        for r in self.routes.values())
        total_hops = sum(s.length for r in self.routes.values()
                         for s in r.sinks)
        return {
            "nets": len(self.routes),
            "pass_transistors": total_pts,
            "hops": total_hops,
            "pms_used": len(self.pm_used),
        }


def _congested(pm: Pm) -> RoutingError:
    return RoutingError(
        f"programmable matrix {pm} exhausted its "
        f"{PM_PASS_TRANSISTORS} pass transistors (congestion)")


def _clamp_site(site: Site, rows: int, cols: int) -> Site:
    """Pull I/O pseudo-sites onto the PM grid."""
    row = min(max(site[0], 0), rows - 1)
    col = min(max(site[1], 0), cols - 1)
    return (row, col)


def _l_path(src: Site, dst: Site) -> List[Pm]:
    """Horizontal-then-vertical Manhattan path, inclusive of both ends."""
    row, col = src
    dst_row, dst_col = dst
    step = 1 if dst_col >= col else -1
    path = [(row, c) for c in range(col, dst_col + step, step)]
    step = 1 if dst_row >= row else -1
    path += [(r, dst_col) for r in range(row + step, dst_row + step, step)]
    return path


def route(placement: Placement) -> RoutingDb:
    """Route every net of a placed design.

    Nets driven by constants are local ties and are not routed; a packed
    flip-flop's D input is internal to its CB and needs no routing either.
    """
    mapped = placement.mapped
    arch = placement.arch
    db = RoutingDb(placement)

    # Identify each net's driver site.
    driver_site: Dict[int, Site] = {}
    for lut_index, lut in enumerate(mapped.luts):
        driver_site[lut.out] = placement.site_of_lut[lut_index]
    for ff_index, ff in enumerate(mapped.ffs):
        driver_site[ff.q] = placement.site_of_ff[ff_index]
    for name, nets in mapped.inputs.items():
        for net in nets:
            driver_site[net] = placement.input_site[name]
    for bram_index, bram in enumerate(mapped.brams):
        for net in bram.rdata:
            driver_site[net] = placement.bram_site(bram_index)

    # Collect sinks per net.
    sinks: Dict[int, List[Pin]] = {}

    def add_sink(net: int, pin: Pin) -> None:
        if net in (CONST0, CONST1):
            return
        sinks.setdefault(net, []).append(pin)

    packed_d_nets: Set[int] = set()
    for cb in placement.sites.values():
        if cb.packed and cb.ff is not None:
            packed_d_nets.add(mapped.ffs[cb.ff].d)
    for lut_index, lut in enumerate(mapped.luts):
        site = placement.site_of_lut[lut_index]
        for pos, net in enumerate(lut.ins):
            add_sink(net, Pin("lut", lut_index, pos, site))
    for ff_index, ff in enumerate(mapped.ffs):
        site = placement.site_of_ff[ff_index]
        cb = placement.sites[site]
        if cb.packed and cb.lut is not None:
            continue  # D comes from the local LUT, no routing
        add_sink(ff.d, Pin("ffin", ff_index, 0, site))
    for bram_index, bram in enumerate(mapped.brams):
        site = placement.bram_site(bram_index)
        ports = [("raddr", bram.raddr), ("waddr", bram.waddr),
                 ("wdata", bram.wdata), ("we", (bram.we,))]
        for _port_name, nets in ports:
            for pos, net in enumerate(nets):
                add_sink(net, Pin("bram", bram_index, pos, site))
    for name, nets in mapped.outputs.items():
        site = placement.output_site[name]
        for pos, net in enumerate(nets):
            add_sink(net, Pin("out", -1, pos, site))

    # Route each net sink by sink, sharing trunk pass transistors: the
    # first sink through a PM claims its next free transistor, and every
    # later sink of the net through that PM reuses the same hop.
    pm_used = db.pm_used
    for net, pins in sinks.items():
        src = driver_site.get(net)
        if src is None:
            raise RoutingError(f"net {net} has sinks but no placed driver")
        src = _clamp_site(src, arch.rows, arch.cols)
        net_route = NetRoute(net=net, driver_site=src)
        claimed: Dict[Pm, Tuple[int, int, int]] = {}
        for pin in pins:
            dst = _clamp_site(pin.site, arch.rows, arch.cols)
            hops: List[Tuple[int, int, int]] = []
            for pm in _l_path(src, dst):
                hop = claimed.get(pm)
                if hop is None:
                    used = pm_used.get(pm, 0)
                    if used >= PM_PASS_TRANSISTORS:
                        raise _congested(pm)
                    pm_used[pm] = used + 1
                    hop = claimed[pm] = (pm[0], pm[1], used)
                hops.append(hop)
            net_route.sinks.append(SinkRoute(pin=pin, hops=hops))
        db.routes[net] = net_route
    return db
