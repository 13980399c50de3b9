"""Tests for run-time reconfiguration: JBits API, readback, GSR, board costs.

These validate the substrate property the whole reproduction rests on: the
device executes *from configuration memory*, so rewriting frames changes
behaviour and restoring them restores it.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.fpga import Board, Device, FrameAddr, JBits, implement
from repro.fpga.bitstream import CbConfig
from repro.obs.metrics import REGISTRY
from repro.synth import synthesize

from helpers import build_accumulator, build_alu4, build_counter


def make_device(netlist):
    result = synthesize(netlist)
    impl = implement(result.mapped)
    device = Device(impl)
    device.reset_system()
    return result, impl, device


def write_pass_transistor(jbits, bit, value):
    """Route-frame read-modify-write of one pass transistor."""
    row, col, index = bit
    image = jbits.device.config.copy()
    image.set_pass_transistor(row, col, index, value)
    addr = FrameAddr("route", col)
    jbits.write_frame(addr, image.get_frame(addr))


def rewrite_route_columns(jbits, net):
    """Partial commit of a routing-database change to *net*: its route
    frames are rewritten with their current (unchanged) bytes."""
    route = jbits.device.impl.routing.route_of(net)
    for col in sorted({col for _row, col in route.pms}):
        addr = FrameAddr("route", col)
        jbits.write_frame(addr, jbits.device.config.get_frame(addr))


class TestLutReconfiguration:
    def test_lut_rewrite_changes_behaviour_and_restores(self):
        result, impl, device = make_device(build_alu4())
        jbits = JBits(device)
        # Find the LUT driving result bit 0 and invert its output.
        target_net = result.mapped.outputs["result"][0]
        lut_index = result.mapped.lut_of_net()[target_net]
        row, col = impl.placement.site_of_lut[lut_index]
        golden_cb = jbits.read_cb(row, col)
        faulty = CbConfig(**{**golden_cb.__dict__})
        faulty.tt = golden_cb.tt ^ 0xFFFF
        before = device.step({"a": 3, "b": 1, "op": 0})["result"]
        jbits.write_cb(row, col, faulty)
        after = device.step({"a": 3, "b": 1, "op": 0})["result"]
        assert (after ^ before) & 1 == 1  # exactly bit 0 inverted
        jbits.write_cb(row, col, golden_cb)
        assert device.step({"a": 3, "b": 1, "op": 0})["result"] == before

    def test_configuration_restoration_is_exact(self):
        result, impl, device = make_device(build_counter())
        jbits = JBits(device)
        golden = impl.golden_bitstream
        row, col = impl.placement.site_of_lut[0]
        original = jbits.read_cb(row, col)
        mutated = CbConfig(**{**original.__dict__})
        mutated.tt ^= 0x00FF
        jbits.write_cb(row, col, mutated)
        assert device.config.diff_frames(golden)
        jbits.write_cb(row, col, original)
        assert device.config.diff_frames(golden) == []


class TestFfStateAccess:
    def test_state_readback_tracks_execution(self):
        result, impl, device = make_device(build_counter())
        jbits = JBits(device)
        device.run(5, {"en": 1})  # count visible = 4 after 5 steps
        state = 0
        location = result.locmap.signal("count")
        for position, bit in enumerate(location.bits):
            row, col = impl.placement.site_of_ff[bit.index]
            state |= jbits.read_ff_state(row, col) << position
        assert state == device.ff_state_of_signal \
            if hasattr(device, "ff_state_of_signal") else state == 5

    def test_state_frames_not_writable(self):
        _result, _impl, device = make_device(build_counter())
        with pytest.raises(ConfigurationError):
            device.write_frame(FrameAddr("state", 0), b"\x00" * 2)

    def test_gsr_restores_srval(self):
        _result, _impl, device = make_device(build_counter())
        device.run(7, {"en": 1})
        assert any(device.ff_state())
        device.pulse_gsr()
        assert device.step({"en": 0})["value"] == 0

    def test_lsr_forces_ff_until_released(self):
        result, impl, device = make_device(build_counter())
        jbits = JBits(device)
        # Force bit 0 of the counter to 1 via InvertLSRMux + srval.
        bit = result.locmap.signal("count").bits[0]
        row, col = impl.placement.site_of_ff[bit.index]
        original = jbits.read_cb(row, col)
        forced = CbConfig(**{**original.__dict__})
        forced.srval = 1
        forced.invert_lsr = True
        jbits.write_cb(row, col, forced)
        for _ in range(4):
            assert device.step({"en": 1})["value"] & 1 == 1
        jbits.write_cb(row, col, original)
        values = [device.step({"en": 1})["value"] & 1 for _ in range(4)]
        assert 0 in values  # counting resumed normally


class TestBramReconfiguration:
    def test_bram_readback_reflects_runtime_contents(self):
        _result, impl, device = make_device(build_accumulator())
        jbits = JBits(device)
        block = impl.placement.block_of_bram[0]
        frame = jbits.read_frame(FrameAddr("bram", block))
        # Initial contents: mem[i] = (3*i + 1) % 256.
        assert frame[0] == 1
        assert frame[5] == 16

    def test_bram_bit_flip_and_execution(self):
        netlist = build_accumulator()
        result, impl, device = make_device(netlist)
        jbits = JBits(device)
        block = impl.placement.block_of_bram[0]
        old = jbits.flip_bram_bit(block, 0, 0)  # mem[0]: 1 -> 0
        assert old == 1
        assert device.mem_words(0)[0] == 0
        # The flipped value is what execution now reads.
        device.reset_system()
        # reset_system restores golden contents, so flip again after reset
        jbits.flip_bram_bit(block, 0, 0)
        device.step({"addr": 0, "load": 1})
        device.step({"addr": 0, "load": 0})
        out = device.step({})["acc_out"]
        assert out == 0

    def test_memory_bitflip_persists_until_rewritten(self):
        # Paper 4.1: the flipped value "remains unchanged until rewritten",
        # so no removal reconfiguration is needed.
        _result, impl, device = make_device(build_accumulator())
        jbits = JBits(device)
        block = impl.placement.block_of_bram[0]
        jbits.flip_bram_bit(block, 7, 2)
        word = device.mem_words(0)[7]
        device.run(3, {"addr": 1, "load": 0})
        assert device.mem_words(0)[7] == word


class TestBoardAccounting:
    def test_each_call_is_one_transaction(self):
        _result, impl, device = make_device(build_counter())
        board = Board()
        jbits = JBits(device, board)
        moved = REGISTRY.get("reconfig_bytes_total")
        before = moved.total()
        cb, cmd = FrameAddr("cb", 0), FrameAddr("cmd", 0)
        jbits.read_frame(cb)
        jbits.write_frame(cb, device.config.get_frame(cb))
        jbits.pulse_gsr()
        assert board.snapshot()[0] == 3
        assert moved.total() - before == \
            2 * device.arch.frame_size(cb) + device.arch.frame_size(cmd)

    def test_full_download_costs_dominate(self):
        # Needs the paper-scale device: a full ~750 KiB download must cost
        # several times a single-frame write (paper, section 6.2).
        from repro.fpga import virtex1000_like
        result = synthesize(build_counter())
        impl = implement(result.mapped, arch=virtex1000_like())
        device = Device(impl)
        device.reset_system()
        board = Board()
        jbits = JBits(device, board)
        marker = board.snapshot()
        jbits.write_full(device.config.copy())
        _count, full_seconds = board.since(marker)
        marker = board.snapshot()
        jbits.write_frame(FrameAddr("cb", 0),
                          device.config.get_frame(FrameAddr("cb", 0)))
        _count, frame_seconds = board.since(marker)
        assert full_seconds > 3 * frame_seconds

    def test_workload_time_negligible_vs_reconfig(self):
        # Paper 7.1: "the execution of the workload only takes a small
        # fraction" of the experiment time.
        board = Board()
        workload = board.workload_seconds(1303)
        reconfig = board.transaction(400)
        assert workload < reconfig / 100


class TestRoutingReconfiguration:
    def test_extra_load_sets_and_clears_config_bit(self):
        _result, impl, device = make_device(build_counter())
        jbits = JBits(device)
        net = next(iter(impl.routing.routes))
        bit = impl.routing.add_extra_load(net)
        write_pass_transistor(jbits, bit, 1)
        row, col, index = bit
        assert device.config.get_pass_transistor(row, col, index) == 1
        impl.routing.remove_extra_load(net, bit)
        write_pass_transistor(jbits, bit, 0)
        assert device.config.get_pass_transistor(row, col, index) == 0
        assert device.config.diff_frames(impl.golden_bitstream) == []

    def test_released_transistor_is_the_next_claim(self):
        # Removing a load that is not its PM's last claim leaves a hole;
        # the next claim fills it instead of re-issuing a transistor
        # another load still holds.
        _result, impl, _device = make_device(build_counter())
        routing = impl.routing
        net = next(net for net, route in routing.routes.items()
                   if route.pms)
        first = routing.add_extra_load(net)
        second = routing.add_extra_load(net)
        routing.remove_extra_load(net, first)
        assert routing.add_extra_load(net) == first
        assert sorted(routing.route_of(net).extra_loads) == \
            sorted([first, second])

    def test_detour_full_download_accounting(self):
        _result, impl, device = make_device(build_counter())
        board = Board()
        jbits = JBits(device, board)
        net = next(iter(impl.routing.routes))
        downloads = REGISTRY.get("reconfig_transactions_total")
        moved = REGISTRY.get("reconfig_bytes_total")
        before = (downloads.value(op="write_full", kind="full"),
                  moved.value(op="write_full", kind="full"))
        impl.routing.set_detour(net, 50)
        jbits.write_full(device.config.copy())
        assert downloads.value(op="write_full", kind="full") == before[0] + 1
        assert moved.value(op="write_full", kind="full") - before[1] == \
            device.arch.full_config_bytes
        assert board.snapshot()[0] == 1
        assert impl.routing.route_of(net).detour_hops == 50
        impl.routing.clear_detour(net)
        rewrite_route_columns(jbits, net)
        assert impl.routing.route_of(net).detour_hops == 0

    def test_database_only_detour_still_retimes(self):
        # A partial detour rewrites its columns with unchanged bytes: no
        # column needs a re-decode, but the next clock edge must still
        # see the detour's delay, and then its removal.
        result, impl, device = make_device(build_counter())
        jbits = JBits(device)
        net = result.mapped.ffs[0].q
        hops = math.ceil((impl.timing.period + 5.0) / impl.timing.params.t_hop)
        assert impl.routing.route_of(net).pms
        impl.routing.set_detour(net, hops)
        rewrite_route_columns(jbits, net)
        assert device.config.diff_frames(impl.golden_bitstream) == []
        device.step({"en": 1})
        assert device._violating
        impl.routing.clear_detour(net)
        rewrite_route_columns(jbits, net)
        device.step()
        assert device._violating == set()
