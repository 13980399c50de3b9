"""Property-based tests (hypothesis) on core data structures and invariants."""

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


class TestIncrementalDecode:
    """A CB-frame write re-decodes only the configuration words it
    changed; the device must still end where a device booted from the
    same image starts."""

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
