"""Tests for repro.emu: compiler, lane engine, and backend equivalence.

The load-bearing property is *lane-0 equivalence*: for any seeded
faultload, the compiled backend must produce the same golden trace and
the same Failure/Latent/Silent classification as the reference device
simulator.  The property tests here sweep every supported fault model
over the tier-1 designs (counter, FIR, UART) and an mc8051 smoke
program.
"""

import dataclasses
import dis
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FaultLoadSpec, FaultModel, generate_faultload
from repro.core.campaign import BACKENDS, check_backend
from repro.core.classify import Outcome
from repro.core.faults import Fault, Target, TargetKind
from repro.designs import counter, fir_filter, uart_tx
from repro.emu import (BatchSchedule, compile_design, lane_width, run_lanes,
                       supports_fault)
from repro.emu import lanes as lanes_module
from repro.emu.compiler import _fold_constants, bool_expr, tt_function
from repro.emu.lanes import split_by_address
from repro.errors import SimulationError
from repro.hdl.netlist import CONST0, CONST1
from repro.hdl.rtl import Rtl
from repro.obs.metrics import REGISTRY
from repro.synth import synthesize

from helpers import build_accumulator, build_counter
from test_core_injector import make_campaign


# ---------------------------------------------------------------------------
# Compiler unit level
# ---------------------------------------------------------------------------
class TestBoolExpr:
    def test_exhaustive_three_vars(self):
        """Every 3-input truth table evaluates correctly on every input."""
        names = ("a", "b", "c")
        for tt in range(256):
            expr = bool_expr(tt, names)
            fn = eval(f"lambda a, b, c, M: {expr}")  # noqa: S307
            for index in range(8):
                a, b, c = index & 1, (index >> 1) & 1, (index >> 2) & 1
                expected = (tt >> index) & 1
                assert fn(a, b, c, 1) == expected, (tt, index, expr)

    def test_four_vars_every_lane(self):
        """Sampled 4-input truth tables, evaluated on all 16 inputs.

        Operand ``a`` holds bit 0 of the input index in every lane, ``b``
        bit 1 and so on, so lane *k* evaluates input *k* and the packed
        result must reproduce the table itself.
        """
        a, b, c, d, lanes = 0xAAAA, 0xCCCC, 0xF0F0, 0xFF00, 0xFFFF
        tables = random.Random(4).sample(range(1 << 16), 2000)
        for tt in tables + [0, 0xFFFF, 0x8000, 0x6996]:
            assert tt_function(tt)(a, b, c, d, lanes) == tt, hex(tt)

    def test_fold_constants_matches_unfolded_table(self):
        """Each operand position bound to a net, CONST0 or CONST1."""
        nets = (10, 11, 12, 13)
        tables = random.Random(5).sample(range(1 << 16), 40) + [0x6996]
        for tt in tables:
            for binding in itertools.product((None, CONST0, CONST1),
                                             repeat=4):
                ins = tuple(net if const is None else const
                            for net, const in zip(nets, binding))
                folded, live = _fold_constants(tt, ins)
                assert live == [net for net, const in zip(nets, binding)
                                if const is None]
                assert folded < 1 << (1 << len(live))
                for index in range(1 << len(live)):
                    full = 0
                    for position, net in enumerate(ins):
                        if net == CONST1 or (
                                net in live
                                and (index >> live.index(net)) & 1):
                            full |= 1 << position
                    assert (folded >> index) & 1 == (tt >> full) & 1, \
                        (hex(tt), binding, index)

    def test_lane_masked_constants(self):
        # The all-ones table must produce the full lane mask, per lane.
        fn = tt_function(0xFFFF)
        assert fn(0, 0, 0, 0, 0b1011) == 0b1011

    def test_tt_function_cached(self):
        assert tt_function(0x8000) is tt_function(0x8000)


class TestCompileCaching:
    def test_design_compiled_once(self):
        campaign = make_campaign(build_counter(4), inputs={"en": 1})
        first = compile_design(campaign.impl.mapped)
        second = compile_design(campaign.impl.mapped)
        assert first is second
        assert first.step is not None and first.step_hooked is not None


# ---------------------------------------------------------------------------
# The seam itself
# ---------------------------------------------------------------------------
class TestStepLocals:
    def test_mc8051_step_needs_no_extended_arg(self):
        """Locals named by liveness: the 8051's step addresses every
        local with one byte."""
        from repro.analysis.experiments import Evaluation
        design = compile_design(
            Evaluation(values=(7, 2, 5)).fades.impl.mapped)
        assert design.live_luts > 1000
        for function in (design.step, design.step_hooked):
            assert function.__code__.co_nlocals < 256
        assert not any(instruction.opname == "EXTENDED_ARG"
                       for instruction in dis.get_instructions(design.step))


class TestBackendSeam:
    def test_backends_listed(self):
        assert BACKENDS == ("reference", "compiled")

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError):
            check_backend("verilator")
        with pytest.raises(SimulationError):
            make_campaign(build_counter(4), backend="verilator")

    def test_golden_key_includes_backend(self):
        reference = make_campaign(build_counter(4), inputs={"en": 1})
        compiled = make_campaign(build_counter(4), inputs={"en": 1},
                                 backend="compiled")
        assert reference._golden_key(20) != compiled._golden_key(20)
        assert reference._golden_key(20)[:2] == compiled._golden_key(20)[:2]

    def test_injections_metric_carries_backend_label(self):
        campaign = make_campaign(build_counter(4), inputs={"en": 1},
                                 backend="compiled")
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=3,
                             workload_cycles=15)
        campaign.run(spec, seed=4)
        metric = REGISTRY.get("injections_total")
        assert any(dict(labels).get("sim_backend") == "compiled"
                   for labels in metric.series())

    def test_lane_width_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EMU_LANES", "8")
        assert lane_width() == 8
        monkeypatch.setenv("REPRO_EMU_LANES", "1")
        assert lane_width() == 2  # floor: golden lane + one experiment

    def test_supports_fault(self):
        assert supports_fault(
            Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0),
                  start_cycle=1))
        assert not supports_fault(
            Fault(FaultModel.STUCK_AT, Target(TargetKind.FF, 0),
                  start_cycle=1, value=0))
        assert not supports_fault(
            Fault(FaultModel.CONFIG_SEU, Target(TargetKind.CONFIG_BIT, 0),
                  start_cycle=1))


# ---------------------------------------------------------------------------
# Campaign-level lane-0 equivalence (the tentpole property)
# ---------------------------------------------------------------------------
def _assert_campaigns_equivalent(reference, compiled, faults, cycles):
    golden_ref = reference.golden_run(cycles)
    golden_emu = compiled.golden_run(cycles)
    assert golden_ref.samples == golden_emu.samples
    assert golden_ref.final_state == golden_emu.final_state
    a = reference.run_faults(faults, cycles).experiments
    b = compiled.run_faults(faults, cycles).experiments
    assert len(a) == len(b) == len(faults)
    for ref_exp, emu_exp in zip(a, b):
        assert ref_exp.outcome == emu_exp.outcome, ref_exp.fault
        assert ref_exp.first_divergence == emu_exp.first_divergence, \
            ref_exp.fault
        assert ref_exp.cost.transactions == emu_exp.cost.transactions, \
            ref_exp.fault
        assert ref_exp.cost.transfer_s == pytest.approx(
            emu_exp.cost.transfer_s), ref_exp.fault


DESIGNS = {
    "counter": (counter, {"en": 1}),
    "fir": (fir_filter, {"sample": 55, "valid": 1}),
    "uart": (uart_tx, {"data": 0xA5, "send": 1}),
}

MODEL_SPECS = [
    ("bitflip-ffs", dict(model=FaultModel.BITFLIP, pool="ffs")),
    ("pulse-luts", dict(model=FaultModel.PULSE, pool="luts")),
    ("pulse-sub", dict(model=FaultModel.PULSE, pool="luts",
                       duration_range=(0.2, 0.9))),
    ("delay-seq", dict(model=FaultModel.DELAY, pool="nets:seq",
                       magnitude_range_ns=(1.0, 8.0))),
    ("indet-ffs", dict(model=FaultModel.INDETERMINATION, pool="ffs",
                       oscillate=True)),
    ("indet-luts", dict(model=FaultModel.INDETERMINATION, pool="luts")),
]


class TestCampaignEquivalence:
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @pytest.mark.parametrize("label,kwargs",
                             MODEL_SPECS, ids=[m[0] for m in MODEL_SPECS])
    def test_tier1_designs(self, design, label, kwargs):
        build, inputs = DESIGNS[design]
        reference = make_campaign(build(), inputs=inputs, seed=3)
        compiled = make_campaign(build(), inputs=inputs, seed=3,
                                 backend="compiled")
        spec = FaultLoadSpec(count=8, workload_cycles=40, **kwargs)
        faults = generate_faultload(
            spec, reference.locmap, seed=11,
            routed_nets=reference.impl.routing.is_routed)
        _assert_campaigns_equivalent(reference, compiled, faults, 40)

    def test_memory_bitflips(self):
        reference = make_campaign(build_accumulator(),
                                  inputs={"addr": 3, "load": 1}, seed=3)
        compiled = make_campaign(build_accumulator(),
                                 inputs={"addr": 3, "load": 1}, seed=3,
                                 backend="compiled")
        spec = FaultLoadSpec(FaultModel.BITFLIP, "memory:scratch",
                             count=10, workload_cycles=30)
        faults = generate_faultload(
            spec, reference.locmap, seed=11,
            routed_nets=reference.impl.routing.is_routed)
        _assert_campaigns_equivalent(reference, compiled, faults, 30)

    def test_unsupported_faults_fall_back(self):
        """Permanent models interleave through the reference path."""
        reference = make_campaign(build_counter(4), inputs={"en": 1},
                                  seed=3)
        compiled = make_campaign(build_counter(4), inputs={"en": 1},
                                 seed=3, backend="compiled")
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=6,
                             workload_cycles=25)
        faults = list(generate_faultload(
            spec, reference.locmap, seed=11,
            routed_nets=reference.impl.routing.is_routed))
        faults.insert(3, Fault(FaultModel.STUCK_AT,
                               Target(TargetKind.FF, 0),
                               start_cycle=4, value=0))
        assert not supports_fault(faults[3])
        _assert_campaigns_equivalent(reference, compiled, faults, 25)

    def test_narrow_lanes_split_batches(self, monkeypatch):
        """Results are batch-size independent (forces multiple flushes)."""
        monkeypatch.setenv("REPRO_EMU_LANES", "3")
        reference = make_campaign(build_counter(4), inputs={"en": 1},
                                  seed=3)
        compiled = make_campaign(build_counter(4), inputs={"en": 1},
                                 seed=3, backend="compiled")
        spec = FaultLoadSpec(FaultModel.INDETERMINATION, "ffs", count=9,
                             workload_cycles=30, oscillate=True)
        faults = generate_faultload(
            spec, reference.locmap, seed=11,
            routed_nets=reference.impl.routing.is_routed)
        _assert_campaigns_equivalent(reference, compiled, faults, 30)


class TestMc8051Smoke:
    @pytest.fixture(scope="class")
    def evaluations(self):
        from repro.analysis.experiments import Evaluation
        return (Evaluation(backend="reference"),
                Evaluation(backend="compiled"))

    @pytest.mark.parametrize("model,pool", [
        (FaultModel.BITFLIP, "ffs"),
        (FaultModel.PULSE, "luts"),
    ])
    def test_mc8051_equivalence(self, evaluations, model, pool):
        reference, compiled = evaluations
        spec = reference.spec(model, pool, count=4)
        a = reference.run_fades(spec)
        b = compiled.run_fades(spec)
        assert a.golden.samples == b.golden.samples
        assert a.golden.final_state == b.golden.final_state
        assert ([e.outcome for e in a.experiments]
                == [e.outcome for e in b.experiments])
        assert ([e.first_divergence for e in a.experiments]
                == [e.first_divergence for e in b.experiments])


# ---------------------------------------------------------------------------
# Divergent memory addressing: one masked access per distinct address
# ---------------------------------------------------------------------------
def per_lane_addresses(mask, planes):
    """Reference for :func:`split_by_address`: the per-lane extraction the
    lane engine used to run, spelling each lane's address bit by bit.
    Returns ``address -> lanes``."""
    groups = {}
    lanes_left = mask
    while lanes_left:
        low = lanes_left & -lanes_left
        lanes_left ^= low
        lane = low.bit_length() - 1
        addr = 0
        for offset, plane in enumerate(planes):
            addr |= ((plane >> lane) & 1) << offset
        groups[addr] = groups.get(addr, 0) | low
    return groups


@st.composite
def masks_and_planes(draw):
    lanes = draw(st.integers(min_value=1, max_value=300))
    full = (1 << lanes) - 1
    plane = st.one_of(st.integers(min_value=0, max_value=full),
                      st.sampled_from([0, full]))
    return (draw(st.integers(min_value=0, max_value=full)),
            draw(st.lists(plane, max_size=9)))


class TestAddressSplit:
    @settings(max_examples=200, deadline=None)
    @given(masks_and_planes())
    def test_groups_partition_the_mask_by_address(self, case):
        mask, planes = case
        groups = split_by_address(mask, planes)
        covered = 0
        for lanes, _addr in groups:
            assert lanes and not lanes & covered
            covered |= lanes
        assert covered == mask
        # One group per address, holding exactly the lanes that spell it.
        assert {addr: lanes for lanes, addr in groups} == \
            per_lane_addresses(mask, planes)


def _schedule_flips(faults, cycles):
    """One bit-flip per lane from lane 1, as the compiled backend
    schedules them."""
    schedule = BatchSchedule()
    for lane, fault in enumerate(faults, start=1):
        start = fault.injection_cycle(cycles)
        for target in fault.all_targets:
            if target.kind is TargetKind.FF:
                schedule.xor_ff(start, target.index, lane)
            else:
                schedule.flip_mem(start, target.index, target.addr,
                                  target.bit, lane)
    return schedule


class TestWideMemoryBatch:
    """One 321-lane pass of FF and ``iram`` flips on the 8051, whose
    128x8 iram has 7-bit ports: every lane must read and write as if it
    ran alone, and agree with the reference device."""

    @pytest.fixture(scope="class")
    def wide(self):
        from repro.analysis.experiments import Evaluation
        evaluation = Evaluation(backend="compiled")
        campaign = evaluation.fades
        cycles = evaluation.cycles
        faults = []
        for pool, seed in (("ffs", 31), ("memory:iram", 32)):
            spec = evaluation.spec(FaultModel.BITFLIP, pool, 1, count=160)
            faults += generate_faultload(spec, campaign.locmap, seed=seed)
        random.Random(33).shuffle(faults)
        design = compile_design(campaign.impl.mapped)
        iram_groups = [1]
        original = lanes_module.split_by_address

        def recording(mask, planes):
            groups = original(mask, planes)
            if len(planes) == 7:  # an iram port (the ROM's are 9 bits)
                iram_groups.append(len(groups))
            return groups

        lanes_module.split_by_address = recording
        try:
            result = run_lanes(design, len(faults) + 1, cycles,
                               inputs=campaign.inputs,
                               schedule=_schedule_flips(faults, cycles))
        finally:
            lanes_module.split_by_address = original
        return evaluation, design, faults, result, max(iram_groups)

    def test_batch_mixes_kinds_and_diverges_in_address(self, wide):
        _evaluation, _design, faults, result, widest = wide
        kinds = {fault.target.kind for fault in faults}
        assert kinds == {TargetKind.FF, TargetKind.MEMORY_BIT}
        assert result.lanes == len(faults) + 1 >= 301
        # On some cycles the lanes spread over several iram addresses.
        assert widest > 1

    def test_lanes_match_the_fault_run_alone(self, wide):
        evaluation, design, faults, result, _widest = wide
        cycles, inputs = evaluation.cycles, evaluation.fades.inputs
        for lane in random.Random(34).sample(range(1, len(faults) + 1), 32):
            alone = run_lanes(design, 2, cycles, inputs=inputs,
                              schedule=_schedule_flips([faults[lane - 1]],
                                                       cycles))
            fault = faults[lane - 1]
            assert (alone.fail_mask >> 1) & 1 == \
                (result.fail_mask >> lane) & 1, fault
            assert (alone.latent_mask >> 1) & 1 == \
                (result.latent_mask >> lane) & 1, fault
            assert alone.first_divergence.get(1) == \
                result.first_divergence.get(lane), fault

    def test_lanes_match_the_reference_device(self, wide):
        from repro.analysis.experiments import Evaluation
        evaluation, _design, faults, result, _widest = wide
        reference = Evaluation().fades
        for lane in random.Random(35).sample(range(1, len(faults) + 1), 12):
            if (result.fail_mask >> lane) & 1:
                outcome = Outcome.FAILURE
            elif (result.latent_mask >> lane) & 1:
                outcome = Outcome.LATENT
            else:
                outcome = Outcome.SILENT
            experiment = reference.run_experiment(
                faults[lane - 1], evaluation.cycles, index=lane)
            assert experiment.outcome is outcome, faults[lane - 1]
            assert experiment.first_divergence == \
                result.first_divergence.get(lane), faults[lane - 1]


# ---------------------------------------------------------------------------
# Lane recycling: a fault holds a slot only while it is live
# ---------------------------------------------------------------------------
def _schedule_ops(faults):
    """A schedule with fault *k* on lane *k + 1*.  A fault is a list of
    ``(method, leading args, trailing args)`` calls of
    :class:`BatchSchedule`, the lane going between the two."""
    schedule = BatchSchedule()
    for lane, ops in enumerate(faults, start=1):
        for method, leading, trailing in ops:
            getattr(schedule, method)(*leading, lane, *trailing)
    return schedule


def _recording_widths(design):
    """*design* with steps that record each cycle's slot range."""
    widths = []

    def step(mask_all, *args):
        widths.append(mask_all.bit_length())
        return design.step(mask_all, *args)

    def step_hooked(mask_all, *args):
        widths.append(mask_all.bit_length())
        return design.step_hooked(mask_all, *args)

    return dataclasses.replace(design, step=step,
                               step_hooked=step_hooked), widths


def _assert_lanes_run_alone(design, cycles, faults, inputs=None):
    """One pass of *faults*: every lane ends as it does alone in a 2-lane
    pass, and lane 0 as a 1-lane pass."""
    result = run_lanes(design, len(faults) + 1, cycles, inputs=inputs,
                       schedule=_schedule_ops(faults))
    golden = run_lanes(design, 1, cycles, inputs=inputs)
    assert result.samples == golden.samples
    assert result.final_state == golden.final_state
    for lane, fault in enumerate(faults, start=1):
        alone = run_lanes(design, 2, cycles, inputs=inputs,
                          schedule=_schedule_ops([fault]))
        failed = alone.fail_mask >> 1 & 1
        assert result.fail_mask >> lane & 1 == failed, fault
        assert result.first_divergence.get(lane) == \
            alone.first_divergence.get(1), fault
        if not failed:  # a failed lane has left the pass
            assert result.latent_mask >> lane & 1 == \
                alone.latent_mask >> 1 & 1, fault
    return result


def _lane_faults(design, mapped, cycles, max_lanes):
    """Faults mixing every lane operation, memory flips included."""
    cycle = st.integers(0, cycles - 1)
    ff = st.integers(0, len(mapped.ffs) - 1)
    level = st.integers(0, 1)
    calls = [
        st.tuples(st.just("xor_ff"), st.tuples(cycle, ff), st.just(())),
        st.tuples(st.just("set_ff"), st.tuples(cycle, ff),
                  st.tuples(level)),
        st.tuples(st.just("pin_capture"), st.tuples(cycle, ff),
                  st.tuples(level)),
        st.tuples(st.just("invert_capture"), st.tuples(cycle, ff),
                  st.just(())),
        st.tuples(st.just("violating_capture"),
                  st.tuples(st.sampled_from([0, 1]) | cycle, ff),
                  st.just(())),
        st.tuples(st.just("override"),
                  st.tuples(cycle, st.integers(0, len(mapped.luts) - 1)),
                  st.tuples(st.integers(0, 0xFFFF))),
    ]
    for index, spec in enumerate(design.mems):
        calls.append(st.tuples(
            st.just("flip_mem"),
            st.tuples(cycle, st.just(index),
                      st.integers(0, spec.depth - 1),
                      st.integers(0, spec.width - 1)),
            st.just(())))
    fault = st.lists(st.one_of(calls), min_size=1, max_size=3)
    return st.lists(fault, min_size=1, max_size=max_lanes)


def _held(ff, *cycles):
    """Calls that keep a lane live over *cycles* and change nothing: two
    flips of one flip-flop on each cycle."""
    return [("xor_ff", (cycle, ff), ()) for cycle in cycles for _ in (0, 1)]


class TestLaneRecycling:
    """A fault lane holds a slot from its first operation until it fails,
    or until a convergence check after its last operation finds its state
    equal to lane 0's; the slot range grows and narrows with the live
    lanes.  None of it may change any lane's outcome."""

    COUNTER_CYCLES = 100
    CHECK = lanes_module.CHECK_INTERVAL

    @pytest.fixture(scope="class")
    def counter_design(self):
        mapped = make_campaign(build_counter(4), inputs={"en": 1}) \
            .impl.mapped
        return compile_design(mapped), mapped

    @pytest.fixture(scope="class")
    def mc8051(self):
        from repro.analysis.experiments import Evaluation
        evaluation = Evaluation(values=(7, 2, 5), backend="compiled")
        mapped = evaluation.fades.impl.mapped
        return compile_design(mapped), mapped, evaluation.fades.inputs

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_counter_lanes_match_the_fault_run_alone(self, counter_design,
                                                     data):
        design, mapped = counter_design
        faults = data.draw(_lane_faults(design, mapped, 70, 40))
        _assert_lanes_run_alone(design, 70, faults, inputs={"en": 1})

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_mc8051_lanes_match_the_fault_run_alone(self, mc8051, data):
        design, mapped, inputs = mc8051
        assert [spec.rom for spec in design.mems] == [True, False]
        faults = data.draw(_lane_faults(design, mapped, 100, 12))
        _assert_lanes_run_alone(design, 100, faults, inputs=inputs)

    def test_slot_range_grows_past_a_digit_and_narrows(self,
                                                       counter_design):
        design, _mapped = counter_design
        recording, widths = _recording_widths(design)
        late = self.COUNTER_CYCLES - 20
        # Forty lanes join over the first cycles and change nothing.
        faults = [_held(lane % 4, lane // 5 * 2, self.CHECK + 3)
                  for lane in range(40)]
        # Live past the check that releases the forty, in a low slot,
        # then failing at its flip.
        faults.append(_held(3, 1) + [("xor_ff", (late, 3), ())])
        faults.append([("xor_ff", (20, 0), ())])
        faults.append([("invert_capture", (late - 10, 1), ())])
        result = _assert_lanes_run_alone(recording, self.COUNTER_CYCLES,
                                         faults, inputs={"en": 1})
        widths = widths[:self.COUNTER_CYCLES]  # the batch pass
        assert widths[0] == 8
        assert lanes_module.DIGIT_WIDTH in widths
        assert max(widths) == len(faults) + 1 > lanes_module.DIGIT_WIDTH
        assert widths[-1] == 8
        assert result.first_divergence[41] == late
        assert result.fail_mask >> 1 & (1 << 40) - 1 == 0

    def test_failed_lanes_slot_is_reused(self, counter_design):
        design, _mapped = counter_design
        recording, widths = _recording_widths(design)
        faults = [_held(lane % 4, 0, 60) for lane in range(6)]
        faults += [
            [("xor_ff", (2, 0), ())],              # fails at once
            [("violating_capture", (20, 0), ())],  # takes its slot
            [("pin_capture", (30, 2), (1,)), ("set_ff", (31, 3), (0,))],
        ]
        result = _assert_lanes_run_alone(recording, self.COUNTER_CYCLES,
                                         faults, inputs={"en": 1})
        # Nine fault lanes ran in seven slots: each failure freed one.
        assert max(widths[:self.COUNTER_CYCLES]) == 8
        assert result.fail_mask >> 7 == 0b111

    def test_read_data_keeps_a_lane_live(self):
        # A flipped word that the same cycle reads and rewrites: at the
        # check the memory equals lane 0's, the registered read data
        # does not, and the output shows it on the next cycle.
        rtl = Rtl("mirror")
        addr = rtl.input("addr", 2)
        data = rtl.input("data", 4)
        mem = rtl.memory("cell", depth=4, width=4, init=[3, 5, 9, 12])
        mem.connect(raddr=addr, waddr=addr, wdata=data, we=1)
        rtl.output("out", mem.rdata)
        design = compile_design(synthesize(rtl.build()).mapped)
        faults = [[("flip_mem", (self.CHECK - 1, 0, 1, 0), ())]]
        result = _assert_lanes_run_alone(design, 2 * self.CHECK, faults,
                                         inputs={"addr": 1, "data": 5})
        assert result.first_divergence == {1: self.CHECK}

    @pytest.fixture(scope="class")
    def shift_design(self):
        rtl = Rtl("shift")
        din = rtl.input("din", 1)
        first = rtl.register("r0", 1)
        second = rtl.register("r1", 1)
        first.drive(din)
        second.drive(first.q)
        rtl.output("out", second.q)
        mapped = synthesize(rtl.build()).mapped
        assert [ff.name for ff in mapped.ffs] == ["r0[0]", "r1[0]"]
        return compile_design(mapped)

    def _converging_with_a_raw_record(self):
        # Flips r0 and pins r1's capture back on the cycle before the
        # check, so it converges there with a raw next state of r1 that
        # lane 0 never had.
        edge = self.CHECK - 1
        return [("xor_ff", (edge, 0), ()), ("pin_capture", (edge, 1), (0,))]

    def test_violating_capture_reads_its_own_recorded_state(self,
                                                            shift_design):
        # Lane 2's violating capture reads the raw r1 of the cycle
        # before, so it must hold its own slot by then.
        faults = [self._converging_with_a_raw_record(),
                  [("violating_capture", (self.CHECK, 1), ())]]
        result = _assert_lanes_run_alone(shift_design, 2 * self.CHECK,
                                         faults, inputs={"din": 0})
        assert result.fail_mask == result.latent_mask == 0

    def test_violating_capture_joins_a_released_slot(self, shift_design):
        # Lanes 1-7 fill the first range; lane 8's violating capture
        # joins a cycle before the check and grows the range.  The check
        # releases lanes 1-7, lane 1 leaving a raw record lane 0 never
        # had, and lane 9's violating capture takes lane 1's slot on the
        # next cycle: it must read the record its own step writes there.
        # The range narrows once lane 8 has left too.
        recording, widths = _recording_widths(shift_design)
        faults = [_held(1, 0) + self._converging_with_a_raw_record()]
        faults += [_held(0, 0)] * 6
        faults.append([("violating_capture", (self.CHECK, 1), ())])
        faults.append([("violating_capture", (self.CHECK + 1, 1), ())])
        result = _assert_lanes_run_alone(recording, 3 * self.CHECK,
                                         faults, inputs={"din": 0})
        assert result.fail_mask == result.latent_mask == 0
        widths = widths[:3 * self.CHECK]  # the batch pass
        assert widths[self.CHECK - 2:self.CHECK + 1] == [8, 10, 10]
        assert widths[2 * self.CHECK - 1:2 * self.CHECK + 1] == [10, 8]


# ---------------------------------------------------------------------------
# Runtime integration
# ---------------------------------------------------------------------------
class TestRuntimeIntegration:
    def test_jobspec_backend_roundtrip(self):
        from repro.runtime import CampaignJobSpec
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=4,
                             workload_cycles=20)
        jobspec = CampaignJobSpec(spec=spec, backend="compiled")
        assert CampaignJobSpec.from_dict(jobspec.to_dict()).backend \
            == "compiled"

    def test_engine_matches_serial_compiled(self, tmp_path):
        """Engine (workers=0, journaled) == serial run, compiled backend."""
        from repro.analysis.experiments import Evaluation
        from repro.runtime import CampaignJobSpec, run_campaign

        evaluation = Evaluation(backend="compiled")
        spec = evaluation.spec(FaultModel.BITFLIP, "ffs", count=6)
        serial = evaluation.run_fades(spec)

        jobspec = CampaignJobSpec.from_evaluation(evaluation, spec)
        assert jobspec.backend == "compiled"
        journal = tmp_path / "compiled.jsonl"
        engine = run_campaign(jobspec, workers=0, journal=str(journal))
        assert ([e.outcome for e in engine.experiments]
                == [e.outcome for e in serial.experiments])
        assert engine.total_emulation_s == pytest.approx(
            serial.total_emulation_s)


class TestGoldenFromLaneZero:
    """A compiled campaign's golden trace is lane 0 of its first pass."""

    VALUES = (7, 2, 5)

    @pytest.fixture()
    def passes(self, monkeypatch):
        from repro.emu import backend
        widths = []
        original = backend.run_lanes

        def recording(design, lanes, cycles, **kwargs):
            widths.append(lanes)
            return original(design, lanes, cycles, **kwargs)

        monkeypatch.setattr(backend, "run_lanes", recording)
        monkeypatch.setenv("REPRO_EMU_LANES", "4")
        return widths

    @pytest.fixture(scope="class")
    def reference_golden(self):
        from repro.analysis.experiments import Evaluation
        evaluation = Evaluation(values=self.VALUES)
        return evaluation.fades.golden_run(evaluation.cycles)

    def _assert_golden(self, golden, campaign, cycles, reference_golden):
        from repro.emu.backend import compiled_golden
        fresh = compiled_golden(campaign, cycles)
        for other in (fresh, reference_golden):
            assert golden.samples == other.samples
            assert golden.final_state == other.final_state

    def _evaluation(self):
        from repro.analysis.experiments import Evaluation
        evaluation = Evaluation(values=self.VALUES, backend="compiled")
        return evaluation, evaluation.spec(FaultModel.BITFLIP, "ffs", 1,
                                           count=6)

    def test_run_campaign(self, passes, reference_golden):
        from repro.runtime import CampaignJobSpec, run_campaign
        from repro.runtime.jobspec import build_campaign
        evaluation, spec = self._evaluation()
        jobspec = CampaignJobSpec.from_evaluation(evaluation, spec)
        campaign = build_campaign(jobspec)
        result = run_campaign(jobspec, campaign=campaign)
        assert passes == [4, 4]
        assert campaign.golden_simulations == 1
        self._assert_golden(result.golden, campaign, evaluation.cycles,
                            reference_golden)

    def test_evaluation_run_fades(self, passes, reference_golden):
        evaluation, spec = self._evaluation()
        result = evaluation.run_fades(spec)
        assert passes == [4, 4]
        assert evaluation.fades.golden_simulations == 1
        self._assert_golden(result.golden, evaluation.fades,
                            evaluation.cycles, reference_golden)

    def test_no_lane_batch_still_returns_the_golden_trace(
            self, passes, reference_golden):
        # Permanent faults take the reference path, so no batch runs: the
        # first experiment's classification takes the one-lane pass.
        evaluation, _spec = self._evaluation()
        faults = [Fault(FaultModel.STUCK_AT, Target(TargetKind.FF, ff),
                        start_cycle=5, value=ff % 2) for ff in (0, 7, 30)]
        assert not any(supports_fault(fault) for fault in faults)
        result = evaluation.fades.run_faults(faults, evaluation.cycles)
        assert passes == [1]
        assert evaluation.fades.golden_simulations == 1
        self._assert_golden(result.golden, evaluation.fades,
                            evaluation.cycles, reference_golden)


class TestLaneCycleCounter:
    def test_one_unlabelled_series_of_lane_cycles(self):
        metric = REGISTRY.get("emu_lane_cycles_total")
        campaign = make_campaign(build_counter(4), inputs={"en": 1})
        design = compile_design(campaign.impl.mapped)
        before = metric.value()
        for lanes in (2, 5, 9):
            run_lanes(design, lanes, 10, inputs={"en": 1})
        assert metric.value() - before == (2 + 5 + 9) * 10
        assert list(metric.series()) == [()]
