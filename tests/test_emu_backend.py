"""Tests for repro.emu: compiler, lane engine, and backend equivalence.

The load-bearing property is *lane-0 equivalence*: for any seeded
faultload, the compiled backend must produce the same golden trace and
the same Failure/Latent/Silent classification as the reference device
simulator.  The property tests here sweep every supported fault model
over the tier-1 designs (counter, FIR, UART) and an mc8051 smoke
program.
"""

import itertools
import random

import pytest

from repro.core import FaultLoadSpec, FaultModel, generate_faultload
from repro.core.campaign import BACKENDS, check_backend
from repro.core.faults import Fault, Target, TargetKind
from repro.designs import counter, fir_filter, uart_tx
from repro.emu import compile_design, lane_width, supports_fault
from repro.emu.compiler import _fold_constants, bool_expr, tt_function
from repro.errors import SimulationError
from repro.hdl.netlist import CONST0, CONST1
from repro.obs.metrics import REGISTRY

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
