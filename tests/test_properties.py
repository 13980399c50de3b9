"""Property-based tests (hypothesis) on core data structures and invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (Outcome, classify, invert_lut_line, stuck_lut_line)
from repro.core.permanent import bridge_lut_lines
from repro.fpga.bitstream import Bitstream, CbConfig
from repro.fpga.architecture import demo_device
from repro.hdl import FourValuedSim, NetlistSim, logic
from repro.hdl.trace import Trace
from repro.mc8051 import assemble, disassemble
from repro.synth import MappedSim, synthesize

from helpers import random_netlist, random_stimulus

tt16 = st.integers(min_value=0, max_value=0xFFFF)
lut_line = st.integers(min_value=-1, max_value=3)
bit = st.integers(min_value=0, max_value=1)


def lut_eval(tt, index):
    return (tt >> (index & 0xF)) & 1


class TestLutRewriteProperties:
    @given(tt16, lut_line)
    def test_inversion_is_involution(self, tt, line):
        assert invert_lut_line(invert_lut_line(tt, line), line) == tt

    @given(tt16, st.integers(min_value=0, max_value=15))
    def test_output_inversion_semantics(self, tt, index):
        assert lut_eval(invert_lut_line(tt, -1), index) == \
            1 - lut_eval(tt, index)

    @given(tt16, st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=15))
    def test_input_inversion_semantics(self, tt, line, index):
        # The faulty LUT sees input `line` complemented.
        faulty = invert_lut_line(tt, line)
        assert lut_eval(faulty, index) == lut_eval(tt, index ^ (1 << line))

    @given(tt16, lut_line, bit, st.integers(min_value=0, max_value=15))
    def test_stuck_line_semantics(self, tt, line, value, index):
        stuck = stuck_lut_line(tt, line, value)
        if line < 0:
            assert lut_eval(stuck, index) == value
        else:
            frozen = (index | (1 << line)) if value \
                else (index & ~(1 << line))
            assert lut_eval(stuck, index) == lut_eval(tt, frozen)

    @given(tt16, st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=15))
    def test_bridging_short_semantics(self, tt, victim, aggressor, index):
        if victim == aggressor:
            return
        bridged = bridge_lut_lines(tt, victim, aggressor, "short")
        a = (index >> aggressor) & 1
        effective = (index & ~(1 << victim)) | (a << victim)
        assert lut_eval(bridged, index) == lut_eval(tt, effective)


class TestConfigRoundtrips:
    @given(tt16, st.booleans(), st.booleans(), st.booleans(),
           st.booleans(), bit, st.booleans())
    def test_cb_config_roundtrip(self, tt, use_ff, external, inv_ffin,
                                 inv_lsr, srval, latch):
        config = CbConfig(tt=tt, use_ff=use_ff, ff_d_external=external,
                          invert_ffin=inv_ffin, invert_lsr=inv_lsr,
                          srval=srval, latch_mode=latch)
        assert CbConfig.unpack(config.pack()) == config

    @given(st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=191))
    @settings(max_examples=30)
    def test_pass_transistor_bit_isolation(self, row, col, index):
        image = Bitstream(demo_device())
        image.set_pass_transistor(row, col, index, 1)
        # Exactly one bit set in the whole routing plane.
        total = sum(image.pm_used_count(r, c)
                    for r in range(16) for c in range(16))
        assert total == 1
        assert image.get_pass_transistor(row, col, index) == 1

    @given(st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=511),
           st.integers(min_value=0, max_value=255))
    @settings(max_examples=30)
    def test_bram_word_roundtrip(self, block, addr, value):
        image = Bitstream(demo_device())
        image.set_bram_word(block, addr, value)
        assert image.get_bram_word(block, addr) == value


class TestSimulatorProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_synthesis_preserves_behaviour(self, seed):
        netlist = random_netlist(seed % 1000, n_gates=20)
        mapped = synthesize(netlist).mapped
        ref = NetlistSim(netlist)
        impl = MappedSim(mapped)
        names = list(netlist.inputs)
        widths = [len(netlist.inputs[n]) for n in names]
        for vector in random_stimulus(seed, names, widths, 15):
            assert ref.step(vector) == impl.step(vector)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_four_valued_agrees_on_binary_inputs(self, seed):
        netlist = random_netlist(seed % 1000, n_gates=20)
        binary = NetlistSim(netlist)
        fourval = FourValuedSim(netlist)
        names = list(netlist.inputs)
        widths = [len(netlist.inputs[n]) for n in names]
        for vector in random_stimulus(seed ^ 1, names, widths, 15):
            assert binary.step(vector) == fourval.step(vector)

    @given(st.sampled_from(["AND", "OR", "XOR", "NAND", "NOR", "XNOR"]),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3))
    def test_x_propagation_is_sound(self, kind, a, b):
        # If the four-valued result is known, every binary completion of
        # the unknown inputs must produce that same value.
        from repro.hdl.netlist import kind_truth_table
        from repro.hdl.simulator import FourValuedSim
        tt = kind_truth_table(kind)
        result = FourValuedSim._eval_gate(tt, (2, 3), [0, 1, a, b])
        if result in (logic.ZERO, logic.ONE):
            completions = []
            for ca in ([a] if logic.is_known(a) else [0, 1]):
                for cb in ([b] if logic.is_known(b) else [0, 1]):
                    completions.append((tt >> (ca | cb << 1)) & 1)
            assert all(c == result for c in completions)


class TestAssemblerProperties:
    @given(st.lists(st.sampled_from([
        "NOP", "INC A", "DEC A", "CLR A", "CPL A", "RL A", "RR A",
        "CLR C", "SETB C", "MOV A,#0x55", "ADD A,#3", "SUBB A,#9",
        "MOV R3,#7", "MOV A,R3", "MOV R5,A", "ANL A,#0x0F",
        "MOV A,@R0", "MOV @R1,A", "XCH A,R2", "MOV 0x40,A",
    ]), min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_assemble_disassemble_roundtrip(self, lines):
        code = assemble("\n".join(lines))
        listing = disassemble(code)
        assert len(listing) == len(lines)
        for (source, (_addr, rendered)) in zip(lines, listing):
            assert rendered.split()[0] == source.split()[0]

    @given(st.integers(min_value=0, max_value=255))
    def test_every_opcode_has_consistent_length(self, opcode):
        from repro.mc8051 import spec_for
        spec = spec_for(opcode)
        image = bytes([opcode, 0, 0][:spec.length])
        listing = disassemble(image)
        assert listing[0][0] == 0
        assert len(listing) == 1


class TestClassificationProperties:
    traces = st.lists(st.integers(min_value=0, max_value=3),
                      min_size=1, max_size=12)

    @given(traces)
    def test_identical_traces_are_silent(self, samples):
        trace = Trace(("o",))
        trace.samples = [(s,) for s in samples]
        trace.final_state = ("state",)
        assert classify(trace, trace) is Outcome.SILENT

    @given(traces, st.integers(min_value=0, max_value=11))
    def test_any_output_change_is_failure(self, samples, position):
        golden = Trace(("o",))
        golden.samples = [(s,) for s in samples]
        golden.final_state = ("state",)
        faulty = Trace(("o",))
        faulty.samples = list(golden.samples)
        index = position % len(samples)
        faulty.samples[index] = (samples[index] + 1,)
        faulty.final_state = ("state",)
        assert classify(golden, faulty) is Outcome.FAILURE


class TestDeviceInvariants:
    @given(st.integers(min_value=1, max_value=60))
    @settings(max_examples=10, deadline=None)
    def test_gsr_always_restores_initial_state(self, cycles):
        from repro.fpga import Device, implement
        from helpers import build_counter
        netlist = build_counter(4)
        result = synthesize(netlist)
        device = Device(implement(result.mapped))
        device.reset_system()
        device.run(cycles, {"en": 1})
        device.pulse_gsr()
        expected = tuple(ff.init for ff in result.mapped.ffs)
        assert device.ff_state() == expected


class TestConfigurationDeterminesBehaviour:
    """The device's defining property: behaviour is a function of the
    configuration image, independent of how it got there."""

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_reconfiguration_order_is_irrelevant(self, seed, n_writes):
        import random as _random
        from repro.fpga import Device, implement
        from helpers import build_counter
        result = synthesize(build_counter(4))
        impl_a = implement(result.mapped)
        impl_b = implement(synthesize(build_counter(4)).mapped)
        dev_a, dev_b = Device(impl_a), Device(impl_b)
        dev_a.reset_system()
        dev_b.reset_system()
        # Build a batch of random LUT rewrites on occupied sites.
        rng = _random.Random(seed)
        sites = list(impl_a.placement.site_of_lut.values())
        writes = []
        for _ in range(n_writes):
            row, col = rng.choice(sites)
            config = impl_a.golden_bitstream.get_cb(row, col)
            config.tt ^= rng.randrange(1, 1 << 16)
            writes.append((row, col, config))
        # Apply in opposite orders through the raw frame interface.
        from repro.fpga import JBits
        ja, jb = JBits(dev_a), JBits(dev_b)
        for row, col, config in writes:
            ja.write_cb(row, col, config)
        for row, col, config in reversed(writes):
            jb.write_cb(row, col, config)
        if dev_a.config.diff_frames(dev_b.config):
            return  # overlapping writes: last-writer-wins differs; skip
        for _ in range(15):
            assert dev_a.step({"en": 1}) == dev_b.step({"en": 1})

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_fresh_device_from_same_image_behaves_identically(self, seed):
        import random as _random
        from repro.fpga import Device, implement, JBits
        from helpers import build_counter
        result = synthesize(build_counter(4))
        impl = implement(result.mapped)
        device = Device(impl)
        device.reset_system()
        rng = _random.Random(seed)
        row, col = rng.choice(list(impl.placement.site_of_lut.values()))
        config = impl.golden_bitstream.get_cb(row, col)
        config.tt ^= rng.randrange(1, 1 << 16)
        JBits(device).write_cb(row, col, config)
        # Second device boots directly from the mutated image.
        impl2 = implement(synthesize(build_counter(4)).mapped)
        impl2.golden_bitstream.set_cb(row, col, config)
        fresh = Device(impl2)
        fresh.reset_system()
        device.reset_system()
        for _ in range(15):
            assert device.step({"en": 1}) == fresh.step({"en": 1})


#: (kind, value) CB writes: a truth table, srval, the InvertLSRMux and
#: InvertFFinMux bits on and off, every FF flag at once, a rewrite of
#: identical bytes, and a full download of an image with a new table.
CB_WRITES = st.lists(
    st.tuples(st.sampled_from(["tt", "srval", "lsr", "ffin", "flags",
                               "same", "full"]),
              st.integers(min_value=0, max_value=0xFFFF)),
    min_size=1, max_size=12)

ROUTE_AND_MEMORY_WRITES = st.lists(
    st.tuples(st.sampled_from(["flip_used", "flip_unused", "load", "unload",
                               "claim_set", "detour", "clear_detour",
                               "full", "flip_bram", "raw_bram"]),
              st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=0xFFFF)),
    min_size=1, max_size=12)


class TestIncrementalDecode:
    """A frame write re-decodes only what it changed (CB words, route
    columns, memory words); the device must still end where a device
    booted from the same image starts, or a full re-decode ends."""

    @given(CB_WRITES)
    @settings(max_examples=25, deadline=None)
    def test_incremental_decode_equals_a_fresh_boot(self, writes):
        import dataclasses
        from repro.fpga import Device, JBits, implement
        from helpers import build_counter
        impl = implement(synthesize(build_counter(4)).mapped)
        device = Device(impl)
        jbits = JBits(device)
        sites = sorted(impl.placement.sites)
        for kind, value in writes:
            row, col = sites[value % len(sites)]
            config = device.config.get_cb(row, col)
            if kind == "tt":
                config.tt = value
            elif kind == "srval":
                config.srval ^= 1
            elif kind == "lsr":
                config.invert_lsr = not config.invert_lsr
            elif kind == "ffin":
                config.invert_ffin = not config.invert_ffin
            elif kind == "flags":
                config.srval = value & 1
                config.invert_lsr = bool(value & 2)
                config.invert_ffin = bool(value & 4)
                config.ff_d_external = bool(value & 8)
            if kind == "full":
                image = device.config.copy()
                config.tt ^= value
                image.set_cb(row, col, config)
                jbits.write_full(image)
            else:
                jbits.write_cb(row, col, config)
        fresh = Device(dataclasses.replace(
            impl, golden_bitstream=device.config.copy()))
        assert device._compiled == fresh._compiled
        assert device._ff_srval == fresh._ff_srval
        assert device._ff_lsr == fresh._ff_lsr
        assert device._ff_invert_d == fresh._ff_invert_d

    @given(ROUTE_AND_MEMORY_WRITES)
    @settings(max_examples=40, deadline=None)
    def test_incremental_route_and_memory_decode_equals_a_full_decode(
            self, writes):
        # Route and memory frames decode only the columns and words whose
        # bytes (or, for routing, expected bits) changed since their last
        # decode, and a route column equal to its expected frame skips the
        # bit-by-bit decode; a full decode of the same image, computed
        # here from the routing database alone, must agree.
        from repro.fpga import Device, FrameAddr, JBits, implement
        from repro.fpga.architecture import PM_BYTES
        from helpers import build_accumulator
        impl = implement(synthesize(build_accumulator()).mapped)
        device = Device(impl)
        jbits = JBits(device)
        routing = impl.routing
        geometry = impl.arch.mem_geometry
        # A few nets, so that operations often meet on one net.
        nets = sorted(net for net, route in routing.routes.items()
                      if route.pms)[:3]
        used = sorted({hop for route in routing.routes.values()
                       for sink in route.sinks for hop in sink.hops})
        block = impl.placement.block_of_bram[0]
        depth = impl.mapped.brams[0].depth
        loads = []

        def write_pt(row, col, index, value=None):
            """Raw route-frame write of one pass-transistor bit (toggled
            when *value* is None)."""
            addr = FrameAddr("route", col)
            frame = bytearray(device.config.get_frame(addr))
            mask = 1 << (index % 8)
            offset = row * PM_BYTES + index // 8
            if value is None:
                frame[offset] ^= mask
            elif value:
                frame[offset] |= mask
            else:
                frame[offset] &= ~mask
            jbits.write_frame(addr, bytes(frame))

        def load(net):
            """Claim an extra load on *net* and set its bit."""
            bit = routing.add_extra_load(net)
            write_pt(*bit, 1)
            loads.append((net, bit))

        def rewrite_columns(net):
            for col in sorted({col for _row, col
                               in routing.route_of(net).pms}):
                addr = FrameAddr("route", col)
                jbits.write_frame(addr, device.config.get_frame(addr))

        for kind, pick, value in writes:
            net = nets[pick]
            pms = routing.route_of(net).pms
            if kind == "flip_used":  # an allocated bit: clearing breaks
                write_pt(*used[value % len(used)])
            elif kind == "flip_unused":  # setting adds phantom load
                row, col = pms[value % len(pms)]
                write_pt(row, col, 100 + value % 92)
            elif kind == "load":
                load(net)
            elif kind == "unload" and loads:
                unloaded, bit = loads.pop(value % len(loads))
                routing.remove_extra_load(unloaded, bit)
                write_pt(*bit, 0)
            elif kind == "claim_set":
                # A raw write sets the bit the next extra load claims: the
                # claim's frame write changes no byte, only expected bits.
                row, col = pms[0]
                write_pt(row, col, routing.lowest_free((row, col)), 1)
                load(net)
            elif kind == "detour":
                routing.set_detour(net, value % 7)
                if value & 1:
                    route = routing.route_of(net)
                    row, col = pms[0]
                    bit = (row, col, routing.claim_pass_transistor(pms[0]))
                    route.detour_bits.append(bit)
                    routing.version += 1
                    if value & 2:
                        write_pt(*bit, 1)
                rewrite_columns(net)
            elif kind == "clear_detour":
                routing.clear_detour(net)
                rewrite_columns(net)
            elif kind == "full":
                image = device.config.copy()
                if value & 1:
                    row, col, index = used[value % len(used)]
                    image.set_pass_transistor(
                        row, col, index,
                        1 - image.get_pass_transistor(row, col, index))
                else:
                    addr, bit = value % depth, value % geometry.width
                    image.set_bram_bit(block, addr, bit,
                                       1 - image.get_bram_bit(block, addr,
                                                              bit))
                jbits.write_full(image)
            elif kind == "flip_bram":
                jbits.flip_bram_bit(block, value % depth,
                                    value % geometry.width)
            elif kind == "raw_bram":
                addr = FrameAddr("bram", block)
                frame = bytearray(device.config.get_frame(addr))
                words_bytes = depth * geometry.width // 8
                for offset in range(value % 3 + 1):
                    frame[(value + 5 * offset) % words_bytes] ^= \
                        value % 255 + 1
                jbits.write_frame(addr, bytes(frame))

        def reference_decode():
            """Broken nets and phantom loads by net, from the database:
            the expected bits are the sink hops plus the extra loads and
            detour bits; a cleared expected bit breaks its net, and an
            unexpected set bit loads the first net routed through its
            PM (the trunk owner)."""
            expected, trunk = {}, {}
            for net, route in routing.routes.items():
                for sink in route.sinks:
                    for row, col, index in sink.hops:
                        expected[(row, col, index)] = net
                        trunk.setdefault((row, col), net)
            for net, route in routing.routes.items():
                for bit in (*route.extra_loads, *route.detour_bits):
                    expected[bit] = net
            broken, loads = set(), {}
            for col in range(impl.arch.cols):
                frame = device.config.frames[FrameAddr("route", col)]
                for byte_off, byte in enumerate(frame):
                    row, first = divmod(byte_off, PM_BYTES)
                    for bit_off in range(8):
                        bit = (row, col, first * 8 + bit_off)
                        is_set = (byte >> bit_off) & 1
                        if bit in expected and not is_set:
                            broken.add(expected[bit])
                        elif (is_set and bit not in expected
                              and (row, col) in trunk):
                            owner = trunk[(row, col)]
                            loads[owner] = loads.get(owner, 0) + 1
            return broken, loads

        def decoded():
            return (set(device._broken_nets), dict(device._route_anomalies),
                    dict(impl.timing.seu_extra), device.mem_words(0))

        broken, loads = reference_decode()
        t_load = impl.timing.params.t_load
        incremental = decoded()
        assert incremental[0] == broken
        assert incremental[2] == pytest.approx(
            {net: count * t_load for net, count in loads.items()})
        assert incremental[3] == tuple(device.config.get_bram_word(block, a)
                                       for a in range(depth))
        device.redecode_routing()
        assert decoded() == incremental

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=10, deadline=None)
    def test_lsr_bitflip_lands_between_its_two_writes(self, cycles):
        # _LsrBitflip writes the forced word and the golden word back to
        # back: the asynchronous LSR force must flip the FF on the first
        # write, with no clock edge before the second.
        from repro.core import Fault, FaultModel, Target, TargetKind
        from repro.core.injector import FadesInjector
        from repro.fpga import Device, JBits, implement
        from helpers import build_counter
        device = Device(implement(synthesize(build_counter(4)).mapped))
        injector = FadesInjector(JBits(device))
        device.reset_system()
        device.run(cycles, {"en": 1})
        for ff_index in range(len(device.mapped.ffs)):
            before = list(device.ff_state())
            injector.prepare(Fault(FaultModel.BITFLIP,
                                   Target(TargetKind.FF, ff_index),
                                   cycles)).inject()
            before[ff_index] ^= 1
            assert list(device.ff_state()) == before
