"""Tests for repro.emu: compiler, lane engine, and backend equivalence.

The load-bearing property is *lane-0 equivalence*: for any seeded
faultload, the compiled backend must produce the same golden trace and
the same Failure/Latent/Silent classification as the reference device
simulator.  The property tests here sweep every supported fault model
over the tier-1 designs (counter, FIR, UART) and an mc8051 smoke
program.
"""

import random

import pytest

from repro.core import (FaultLoadSpec, FaultModel, build_fades,
                        generate_faultload)
from repro.core.faults import Fault, Target, TargetKind
from repro.designs import counter, fir_filter, uart_tx
from repro.emu import compile_design, lane_width, supports_fault
from repro.emu.compiler import bool_expr, tt_function
from repro.errors import SimulationError
from repro.hdl import BACKENDS, NetlistSim, check_backend, make_sim
from repro.hdl.simulator import FourValuedSim
from repro.obs.metrics import REGISTRY

from helpers import (build_accumulator, build_alu4, build_counter,
                     random_netlist)
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
# CompiledSim: drop-in simulator equivalence
# ---------------------------------------------------------------------------
def _assert_sim_equivalent(netlist, steps=40, seed=1):
    reference = NetlistSim(netlist)
    compiled = make_sim(netlist, backend="compiled")
    reference.reset()
    compiled.reset()
    rng = random.Random(seed)
    names = list(netlist.inputs)
    widths = [len(netlist.inputs[name]) for name in names]
    for cycle in range(steps):
        stimulus = {name: rng.randrange(1 << width)
                    for name, width in zip(names, widths)}
        assert reference.step(stimulus) == compiled.step(stimulus), cycle
    assert reference.state_snapshot() == compiled.state_snapshot()


class TestCompiledSim:
    @pytest.mark.parametrize("build", [
        build_counter, build_alu4, build_accumulator,
        counter, fir_filter, uart_tx,
    ])
    def test_matches_reference(self, build):
        _assert_sim_equivalent(build())

    @pytest.mark.parametrize("seed", range(8))
    def test_random_netlists(self, seed):
        _assert_sim_equivalent(random_netlist(seed), steps=30, seed=seed)

    def test_reset_restarts_run(self):
        netlist = counter()
        sim = make_sim(netlist, backend="compiled")
        first = [sim.step({"en": 1} if cycle == 0 else None)
                 for cycle in range(12)]
        sim.reset()
        second = [sim.step({"en": 1} if cycle == 0 else None)
                  for cycle in range(12)]
        assert first == second


# ---------------------------------------------------------------------------
# The seam itself
# ---------------------------------------------------------------------------
class TestBackendSeam:
    def test_backends_listed(self):
        assert BACKENDS == ("reference", "compiled")

    def test_make_sim_types(self):
        netlist = build_counter(4)
        assert type(make_sim(netlist)) is NetlistSim
        assert isinstance(make_sim(netlist, backend="compiled"), NetlistSim)
        assert type(make_sim(netlist, backend="compiled")) is not NetlistSim
        assert not isinstance(make_sim(netlist), FourValuedSim)

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
