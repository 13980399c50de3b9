"""Static timing analysis and the delay model of the generic FPGA.

The delay-fault mechanisms of the paper (section 4.3) act on physical
quantities this module models:

* *routing length* — "extend its length or increase the number of elements
  it traverses": each PM segment adds :attr:`TimingParams.t_hop`;
* *fan-out load* — "the propagation delay of a line depends on its load
  capacitance, which is proportional to the fan-out of the line": each
  extra sink or enabled pass transistor adds :attr:`TimingParams.t_load`.

The default constants follow the paper's Virtex numbers: a LUT costs
0.29–0.8 ns (we use 0.5 ns) and one extra fan-out adds 0.001–0.018 ns
(we use 0.012 ns).

A flip-flop whose data arrival time exceeds ``period - t_setup`` misses the
clock edge and captures the *previous* value of its data input — the
behavioural consequence the device simulator applies, which "may or may not
affect the circuit driven by this cell" (paper, section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from ..hdl.netlist import CONST0, CONST1
from ..synth.mapped import MappedNetlist
from .routing import RoutingDb


@dataclass(frozen=True)
class TimingParams:
    """Delay constants, in nanoseconds."""

    t_lut: float = 0.5       # function-generator propagation delay
    t_net_base: float = 0.35  # intrinsic net delay (buffer + entry)
    t_hop: float = 0.06      # one PM segment of routing
    t_load: float = 0.012    # one additional fan-out load
    t_setup: float = 0.4     # FF setup time
    t_clk_q: float = 0.35    # FF clock-to-output delay
    period_margin: float = 1.2  # clock period = critical path * margin


class TimingAnalysis:
    """Arrival times and slacks of a placed-and-routed design."""

    def __init__(self, mapped: MappedNetlist, routing: RoutingDb,
                 params: TimingParams = TimingParams(),
                 period: Optional[float] = None):
        self.mapped = mapped
        self.routing = routing
        self.params = params
        #: Longest sink path of every routed net, in PM hops: sinks never
        #: change once routed (delay faults add loads and detours).
        self._sink_hops: Dict[int, int] = {
            net: max((sink.length for sink in route.sinks), default=0)
            for net, route in routing.routes.items()}
        #: Per-net extra delay caused by configuration-memory upsets
        #: (phantom pass-transistor loads); owned by the device's
        #: routing-plane decoder.
        self.seu_extra: Dict[int, float] = {}
        self.arrival: Dict[int, float] = {}
        self._topo_luts = list(mapped.luts)  # mapper emits in topo order
        self.recompute()
        critical = self.critical_path()
        self.period = (period if period is not None
                       else max(critical * params.period_margin, 1.0))

    # ------------------------------------------------------------------
    def net_delay(self, net: int) -> float:
        """Propagation delay of *net* from driver to (worst) sink.

        Includes the configured routing length, the fan-out load, any
        detour and any phantom load from configuration-memory upsets.
        """
        if net in (CONST0, CONST1):
            return 0.0
        params = self.params
        delay = params.t_net_base
        route = self.routing.routes.get(net)
        if route is not None:
            delay += params.t_hop * (self._sink_hops[net] + route.detour_hops)
            delay += (params.t_lut + params.t_net_base) * route.detour_luts
            delay += params.t_load * max(0, route.fanout - 1)
        delay += self.seu_extra.get(net, 0.0)
        return delay

    def recompute(self) -> None:
        """Recompute all arrival times (one topological pass)."""
        params = self.params
        arrival: Dict[int, float] = {CONST0: 0.0, CONST1: 0.0}
        for nets in self.mapped.inputs.values():
            for net in nets:
                arrival[net] = 0.0
        for ff in self.mapped.ffs:
            arrival[ff.q] = params.t_clk_q
        for bram in self.mapped.brams:
            for net in bram.rdata:
                arrival[net] = params.t_clk_q
        for lut in self._topo_luts:
            worst = 0.0
            for net in lut.ins:
                at = arrival.get(net, 0.0) + self.net_delay(net)
                if at > worst:
                    worst = at
            arrival[lut.out] = worst + params.t_lut
        self.arrival = arrival

    # ------------------------------------------------------------------
    def data_arrival_at_ff(self, ff_index: int) -> float:
        """Arrival time of the D input of flip-flop *ff_index*."""
        ff = self.mapped.ffs[ff_index]
        base = self.arrival.get(ff.d, 0.0)
        site = self.routing.placement.site_of_ff.get(ff_index)
        cb = self.routing.placement.sites.get(site)
        if cb is not None and cb.packed:
            return base  # local LUT-to-FF connection, no routed net
        return base + self.net_delay(ff.d)

    def ff_slack(self, ff_index: int) -> float:
        """Setup slack of one flip-flop at the configured period."""
        return (self.period - self.params.t_setup
                - self.data_arrival_at_ff(ff_index))

    def critical_path(self) -> float:
        """Worst data arrival across all flip-flops and outputs."""
        worst = 0.0
        for ff_index in range(len(self.mapped.ffs)):
            worst = max(worst, self.data_arrival_at_ff(ff_index))
        for bram in self.mapped.brams:
            for net in (*bram.raddr, *bram.waddr, *bram.wdata, bram.we):
                worst = max(worst,
                            self.arrival.get(net, 0.0) + self.net_delay(net))
        for nets in self.mapped.outputs.values():
            for net in nets:
                worst = max(worst,
                            self.arrival.get(net, 0.0) + self.net_delay(net))
        return worst

    def violating_ffs(self) -> Set[int]:
        """Flip-flops currently missing setup at the configured period."""
        return {index for index in range(len(self.mapped.ffs))
                if self.ff_slack(index) < 0.0}

    def refresh_routing(self) -> None:
        """Re-analyse after the routing database changed (loads/detours)."""
        self.recompute()
