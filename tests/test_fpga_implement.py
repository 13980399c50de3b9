"""Tests for placement, routing, timing and device-vs-model equivalence."""

import hashlib
import math

import pytest

from repro.errors import BitstreamError, PlacementError
from repro.fpga import Device, FrameAddr, demo_device, implement
from repro.fpga.architecture import PM_BYTES
from repro.fpga.implement import generate_bitstream
from repro.fpga.placement import place
from repro.hdl import NetlistSim
from repro.mc8051 import bubblesort, build_mc8051
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

    def test_bitgen_refuses_a_bit_outside_the_grid(self):
        _result, impl = implement_design(build_counter())
        route = next(iter(impl.routing.routes.values()))
        route.extra_loads.append((impl.arch.rows, 0, 0))
        with pytest.raises(BitstreamError):
            generate_bitstream(impl.placement, impl.routing)


class TestGoldenImage:
    """The 8051 testbed's golden configuration file, byte for byte."""

    @pytest.mark.parametrize("values,digest", [
        ((9, 3, 12, 5),
         "f3ff55e96cbb89976cce6d224bbad254869890897e4cf699933e9c239b679200"),
        ((9, 3, 12, 5, 7, 1, 11, 2, 8, 6, 10, 4),
         "4713bdbf5212e9dbb0358c26c11bcab27343d14a705bc4cc659ab23b132e3c1e"),
    ], ids=["short-sort", "long-sort"])
    def test_mc8051_golden_image(self, values, digest, tmp_path):
        impl = implement(synthesize(
            build_mc8051(bubblesort(values).rom).netlist).mapped)
        path = tmp_path / "golden.bit"
        impl.golden_bitstream.save(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        # Each routing column holds exactly its routes' pass transistors,
        # so a column equal to its golden frame matches the database
        # (the device's route decode relies on this).
        expected = {}
        for route in impl.routing.routes.values():
            for row, col, index in route.pass_transistors():
                expected.setdefault(col, set()).add((row, index))
        for col in range(impl.arch.cols):
            frame = impl.golden_bitstream.frames[FrameAddr("route", col)]
            found = {(byte_off // PM_BYTES,
                      byte_off % PM_BYTES * 8 + bit_off)
                     for byte_off, byte in enumerate(frame) if byte
                     for bit_off in range(8) if (byte >> bit_off) & 1}
            assert found == expected.get(col, set()), col


class TestTiming:
    def test_positive_slack_at_nominal_period(self):
        _result, impl = implement_design(build_alu4())
        assert impl.timing.violating_ffs() == set()
        assert impl.timing.period >= impl.timing.critical_path()

    def test_detour_creates_violation(self):
        result, impl = implement_design(build_counter())
        # Detour a routed net that feeds sequential logic: the counter FFs'
        # Q outputs drive the increment LUTs through the fabric.
        target = result.mapped.ffs[0].q
        assert impl.routing.is_routed(target)
        params = impl.timing.params
        impl.routing.set_detour(
            target, math.ceil((impl.timing.period + 5.0) / params.t_hop))
        impl.timing.refresh_routing()
        assert impl.timing.violating_ffs()
        impl.routing.clear_detour(target)
        impl.timing.refresh_routing()
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
