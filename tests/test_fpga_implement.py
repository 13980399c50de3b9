"""Tests for placement, routing, timing and device-vs-model equivalence."""

import pytest

from repro.errors import PlacementError
from repro.fpga import Device, demo_device, implement
from repro.fpga.placement import place
from repro.hdl import NetlistSim
from repro.synth import synthesize

from helpers import (build_accumulator, build_alu4, build_counter,
                     random_netlist, random_stimulus)


def implement_design(netlist, arch=None):
    result = synthesize(netlist)
    return result, implement(result.mapped, arch=arch)


class TestPlacement:
    def test_every_resource_placed_once(self):
        result, impl = implement_design(build_alu4())
        placement = impl.placement
        assert set(placement.site_of_lut) == set(
            range(len(result.mapped.luts)))
        assert set(placement.site_of_ff) == set(
            range(len(result.mapped.ffs)))
        # No site hosts two LUTs or two FFs.
        assert len(set(placement.site_of_lut.values())) == len(
            placement.site_of_lut)

    def test_ff_packed_with_driving_lut_when_possible(self):
        result, impl = implement_design(build_counter())
        packed = [cb for cb in impl.placement.sites.values() if cb.packed]
        assert packed, "counter FFs should pack with their next-state LUTs"
        for cb in packed:
            lut = result.mapped.luts[cb.lut]
            ff = result.mapped.ffs[cb.ff]
            assert ff.d == lut.out

    def test_design_too_big_rejected(self):
        result = synthesize(build_alu4())
        tiny = demo_device(rows=2, cols=2)
        with pytest.raises(PlacementError):
            place(result.mapped, tiny)

    def test_memory_depth_checked(self):
        from repro.fpga.architecture import Architecture, MemBlockGeometry
        result = synthesize(build_accumulator())
        shallow = Architecture("shallow", 16, 16, 4,
                               MemBlockGeometry(depth=8, width=8))
        with pytest.raises(PlacementError):
            place(result.mapped, shallow)

    def test_utilisation_fractions(self):
        _result, impl = implement_design(build_counter())
        util = impl.placement.utilisation()
        assert 0.0 < util["cbs"] <= 1.0


class TestRouting:
    def test_pass_transistors_unique(self):
        _result, impl = implement_design(build_alu4())
        seen = set()
        for net_route in impl.routing.routes.values():
            for bit in net_route.pass_transistors():
                assert bit not in seen, "pass transistor double-booked"
                seen.add(bit)

    def test_trunk_sharing(self):
        # A multi-sink net claims at most one pass transistor per PM.
        _result, impl = implement_design(build_alu4())
        for net_route in impl.routing.routes.values():
            per_pm = {}
            for bit in net_route.pass_transistors():
                per_pm.setdefault((bit[0], bit[1]), []).append(bit[2])
            for indices in per_pm.values():
                assert len(indices) == len(set(indices))

    def test_route_stats_consistent(self):
        _result, impl = implement_design(build_counter())
        stats = impl.routing.stats()
        assert stats["nets"] == len(impl.routing.routes)
        assert stats["pass_transistors"] > 0

    def test_bitstream_contains_routing_bits(self):
        _result, impl = implement_design(build_counter())
        total = sum(
            impl.golden_bitstream.pm_used_count(row, col)
            for (row, col) in impl.routing.pm_used)
        assert total == impl.routing.stats()["pass_transistors"]


class TestTiming:
    def test_positive_slack_at_nominal_period(self):
        _result, impl = implement_design(build_alu4())
        assert impl.timing.violating_ffs() == set()
        assert impl.timing.period >= impl.timing.critical_path()

    def test_injected_delay_creates_violation(self):
        result, impl = implement_design(build_counter())
        # Delay a routed net that feeds sequential logic: the counter FFs'
        # Q outputs drive the increment LUTs through the fabric.
        target = result.mapped.ffs[0].q
        assert impl.routing.is_routed(target)
        impl.timing.inject_delay(target, impl.timing.period + 5.0)
        assert impl.timing.violating_ffs()
        impl.timing.remove_delay(target)
        assert impl.timing.violating_ffs() == set()

    def test_fanout_load_increases_delay(self):
        result, impl = implement_design(build_alu4())
        routed = next(iter(impl.routing.routes))
        before = impl.timing.net_delay(routed)
        impl.routing.add_extra_load(routed)
        impl.timing.refresh_routing()
        after = impl.timing.net_delay(routed)
        assert after == pytest.approx(
            before + impl.timing.params.t_load)

    def test_detour_increases_delay(self):
        _result, impl = implement_design(build_alu4())
        routed = next(iter(impl.routing.routes))
        before = impl.timing.net_delay(routed)
        impl.routing.set_detour(routed, 10)
        impl.timing.refresh_routing()
        assert impl.timing.net_delay(routed) == pytest.approx(
            before + 10 * impl.timing.params.t_hop)


class TestDeviceEquivalence:
    @pytest.mark.parametrize("builder", [build_counter, build_alu4,
                                         build_accumulator])
    def test_known_designs(self, builder):
        netlist = builder()
        _result, impl = implement_design(netlist)
        device = Device(impl)
        ref = NetlistSim(netlist)
        ref.reset()
        device.reset_system()
        names = list(netlist.inputs)
        widths = [len(netlist.inputs[n]) for n in names]
        for vector in random_stimulus(3, names, widths, 40):
            assert ref.step(vector) == device.step(vector)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_designs(self, seed):
        netlist = random_netlist(seed, n_gates=25)
        _result, impl = implement_design(netlist)
        device = Device(impl)
        ref = NetlistSim(netlist)
        ref.reset()
        device.reset_system()
        names = list(netlist.inputs)
        widths = [len(netlist.inputs[n]) for n in names]
        for vector in random_stimulus(seed, names, widths, 30):
            assert ref.step(vector) == device.step(vector)

    def test_reset_system_restores_memory(self):
        netlist = build_accumulator()
        _result, impl = implement_design(netlist)
        device = Device(impl)
        device.reset_system()
        device.run(10, {"addr": 3, "load": 1})
        state_after_run = device.state_snapshot()
        device.reset_system()
        assert device.state_snapshot() != state_after_run
        ref = NetlistSim(netlist)
        ref.reset()
        assert device.step({"addr": 0, "load": 0}) == ref.step(
            {"addr": 0, "load": 0})
