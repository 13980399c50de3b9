"""Tests for campaign orchestration, faultload generation and cost model."""

import random

import pytest

from repro.analysis import Evaluation
from repro.core import (ConfigBit, FaultLoadSpec, FaultModel,
                        config_seu_fault, generate_faultload, pool_size,
                        used_route_bit)
from repro.core.campaign import Experiment, FadesCampaign
from repro.core.faults import Fault, Target, TargetKind
from repro.errors import InjectionError, LocationError
from repro.fpga import Device, FrameAddr
from repro.fpga.architecture import CB_BYTES, CB_FLAG_INVERT_LSR, CB_FLAGS

from helpers import build_accumulator, build_counter
from test_core_injector import make_campaign


@pytest.fixture(scope="module")
def campaign():
    return make_campaign(build_counter(4), inputs={"en": 1})


@pytest.fixture(scope="module")
def accum():
    return make_campaign(build_accumulator(), inputs={"addr": 3, "load": 1})


class TestFaultloadGeneration:
    def test_counts_and_determinism(self, campaign):
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=20,
                             workload_cycles=50)
        first = generate_faultload(spec, campaign.locmap, seed=5)
        second = generate_faultload(spec, campaign.locmap, seed=5)
        assert len(first) == 20
        assert first == second
        assert generate_faultload(spec, campaign.locmap, seed=6) != first

    def test_injection_instants_within_workload(self, campaign):
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=50,
                             workload_cycles=80)
        for fault in generate_faultload(spec, campaign.locmap, seed=1):
            assert 0 <= fault.start_cycle < 80

    def test_durations_within_band(self, campaign):
        spec = FaultLoadSpec(FaultModel.PULSE, "luts", count=30,
                             workload_cycles=50, duration_range=(11, 20))
        for fault in generate_faultload(spec, campaign.locmap, seed=1):
            assert 11 <= fault.duration_cycles <= 20

    def test_memory_pool_respects_range(self, accum):
        spec = FaultLoadSpec(FaultModel.BITFLIP, "memory:scratch", count=30,
                             workload_cycles=20, mem_addr_range=(4, 8))
        for fault in generate_faultload(spec, accum.locmap, seed=2):
            assert 4 <= fault.target.addr < 8

    def test_unit_pool(self, campaign):
        # The counter has no units, so a unit pool must be empty.
        spec = FaultLoadSpec(FaultModel.PULSE, "luts:ALU", count=3,
                             workload_cycles=20)
        with pytest.raises(LocationError):
            generate_faultload(spec, campaign.locmap, seed=0)

    def test_unknown_pool_rejected(self, campaign):
        spec = FaultLoadSpec(FaultModel.PULSE, "bogus", count=1,
                             workload_cycles=10)
        with pytest.raises(InjectionError):
            generate_faultload(spec, campaign.locmap, seed=0)

    def test_pool_size_matches_resources(self, campaign):
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=1,
                             workload_cycles=10)
        assert pool_size(spec, campaign.locmap) == len(
            campaign.locmap.mapped.ffs)

    def test_indetermination_values_assigned(self, campaign):
        spec = FaultLoadSpec(FaultModel.INDETERMINATION, "ffs", count=20,
                             workload_cycles=30)
        values = {fault.value for fault in
                  generate_faultload(spec, campaign.locmap, seed=3)}
        assert values <= {0, 1}
        assert len(values) == 2  # both levels appear


class TestCampaignInvariants:
    def test_golden_run_cached(self, campaign):
        first = campaign.golden_run(30)
        second = campaign.golden_run(30)
        assert first is second

    def test_golden_run_reproducible_after_experiments(self, campaign):
        golden = campaign.golden_run(30)
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=5,
                             workload_cycles=30)
        campaign.run(spec, seed=4)
        campaign._golden.clear()
        again = campaign.golden_run(30)
        assert golden.samples == again.samples
        assert golden.final_state == again.final_state

    def test_configuration_restored_after_every_model(self, campaign):
        golden = campaign.impl.golden_bitstream
        for model, pool in [(FaultModel.BITFLIP, "ffs"),
                            (FaultModel.PULSE, "luts"),
                            (FaultModel.INDETERMINATION, "ffs"),
                            (FaultModel.DELAY, "nets:seq")]:
            spec = FaultLoadSpec(model, pool, count=3, workload_cycles=25,
                                 magnitude_range_ns=(5.0, 40.0))
            campaign.run(spec, seed=8)
            assert campaign.device.config.diff_frames(golden) == []
            assert campaign.device.dirty_frames == set()

    def test_run_aggregates_costs(self, campaign):
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=4,
                             workload_cycles=25)
        result = campaign.run(spec, seed=9)
        assert len(result.experiments) == 4
        assert result.total_emulation_s == pytest.approx(
            sum(e.cost.total_s for e in result.experiments))
        assert result.mean_emulation_s == pytest.approx(
            result.total_emulation_s / 4)

    def test_late_start_cycle_clamped(self, campaign):
        fault = Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0),
                      start_cycle=10_000)
        result = campaign.run_experiment(fault, 20)
        assert result.cost.transactions == 3  # still injected at the end

    def test_locate_cost_scales_with_pool(self, campaign):
        fault = Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0), 3)
        small = campaign.run_experiment(fault, 20, pool=10)
        large = campaign.run_experiment(fault, 20, pool=5000)
        assert large.cost.locate_s > small.cost.locate_s

    def test_screening_finds_sensitive_ffs(self, campaign):
        sensitive = campaign.screen_sensitive_ffs(25, samples_per_ff=2)
        # Counter bits feed the outputs directly: most FFs are sensitive.
        assert sensitive
        assert all(0 <= index < len(campaign.locmap.mapped.ffs)
                   for index in sensitive)


class TestOutcomeSanity:
    def test_memory_occupied_vs_unused(self, accum):
        used = FaultLoadSpec(FaultModel.BITFLIP, "memory:scratch", count=12,
                             workload_cycles=20, mem_addr_range=(0, 4))
        unused = FaultLoadSpec(FaultModel.BITFLIP, "memory:scratch",
                               count=12, workload_cycles=20,
                               mem_addr_range=(8, 16))
        used_result = accum.run(used, seed=3)
        unused_result = accum.run(unused, seed=3)
        assert used_result.failure_percent() > \
            unused_result.failure_percent()

    def test_failure_rate_grows_with_pulse_duration(self, campaign):
        pcts = []
        for band in [(0.05, 0.95), (11.0, 20.0)]:
            spec = FaultLoadSpec(FaultModel.PULSE, "luts", count=20,
                                 workload_cycles=40, duration_range=band)
            pcts.append(campaign.run(spec, seed=6).failure_percent())
        assert pcts[1] >= pcts[0]


class TestCheckpointing:
    """The fast-forward optimisation must be behaviourally invisible."""

    def _pair(self):
        from repro.fpga import Board, implement
        from repro.synth import synthesize
        from helpers import build_accumulator
        from repro.core.campaign import FadesCampaign
        campaigns = []
        for interval in (0, 8):
            result = synthesize(build_accumulator())
            impl = implement(result.mapped)
            campaigns.append(FadesCampaign(
                impl, result.locmap, board=Board(),
                inputs={"addr": 3, "load": 1},
                checkpoint_interval=interval))
        return campaigns

    def test_golden_runs_identical(self):
        plain, fast = self._pair()
        a = plain.golden_run(40)
        b = fast.golden_run(40)
        assert a.samples == b.samples
        assert a.final_state == b.final_state
        assert fast._checkpoints  # snapshots actually recorded

    def test_every_fault_model_identical(self):
        from repro.core import FaultLoadSpec, FaultModel, generate_faultload
        plain, fast = self._pair()
        cycles = 40
        for model, pool in [(FaultModel.BITFLIP, "ffs"),
                            (FaultModel.BITFLIP, "memory:scratch"),
                            (FaultModel.PULSE, "luts"),
                            (FaultModel.INDETERMINATION, "ffs"),
                            (FaultModel.DELAY, "nets:seq")]:
            spec = FaultLoadSpec(model, pool, count=6,
                                 workload_cycles=cycles,
                                 magnitude_range_ns=(5.0, 80.0))
            faults = generate_faultload(spec, plain.locmap, seed=11)
            a = plain.run_faults(faults, cycles)
            b = fast.run_faults(faults, cycles)
            for x, y in zip(a.experiments, b.experiments):
                assert x.outcome == y.outcome, (model, x.fault)
                assert x.first_divergence == y.first_divergence

    def test_emulated_costs_unchanged(self):
        # Fast-forwarding is host-side only: the emulated per-fault cost
        # must not depend on it.
        from repro.core.faults import Fault, FaultModel, Target, TargetKind
        plain, fast = self._pair()
        fault = Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0), 30)
        plain.golden_run(40)
        fast.golden_run(40)
        a = plain.run_experiment(fault, 40)
        b = fast.run_experiment(fault, 40)
        assert a.cost.total_s == pytest.approx(b.cost.total_s)


def one_fault_per_mechanism(campaign, early, late):
    """A fault for every injection mechanism (Table 1, configuration
    upsets and permanent models), injected at *early* or *late*."""
    placement = campaign.impl.placement
    routed_ff = next(ff for ff, site in sorted(placement.site_of_ff.items())
                     if not placement.sites[site].packed)
    memory = next(index for index, bram
                  in enumerate(campaign.impl.mapped.brams) if not bram.rom)
    net = sorted(campaign.impl.routing.routes)[0]
    row, col = placement.site_of_ff[3]
    ff, lut = Target(TargetKind.FF, 3), Target(TargetKind.LUT, 7)
    return [
        Fault(FaultModel.BITFLIP, ff, early),
        Fault(FaultModel.BITFLIP, ff, late, mechanism="gsr"),
        Fault(FaultModel.BITFLIP,
              Target(TargetKind.MEMORY_BIT, memory, addr=9, bit=2), late),
        Fault(FaultModel.PULSE, lut, early, duration_cycles=3.0),
        Fault(FaultModel.PULSE, Target(TargetKind.CB_INPUT, routed_ff),
              late, duration_cycles=2.0),
        Fault(FaultModel.DELAY, Target(TargetKind.NET, net), early,
              duration_cycles=4.0, magnitude_ns=1.0, mechanism="fanout"),
        Fault(FaultModel.DELAY, Target(TargetKind.NET, net), late,
              duration_cycles=4.0, magnitude_ns=40.0, mechanism="reroute"),
        Fault(FaultModel.INDETERMINATION, ff, late, duration_cycles=3.0,
              value=1, oscillate=True),
        Fault(FaultModel.INDETERMINATION, lut, early, duration_cycles=3.0,
              value=0),
        config_seu_fault(used_route_bit(campaign, random.Random(1)), late),
        config_seu_fault(ConfigBit(FrameAddr("cb", col),
                                   byte_off=row * CB_BYTES + CB_FLAGS,
                                   bit_off=CB_FLAG_INVERT_LSR), early),
        Fault(FaultModel.STUCK_AT, ff, late, value=0),
        Fault(FaultModel.BRIDGING, Target(TargetKind.LUT, 7, line=0), early,
              aux_target=Target(TargetKind.LUT, 7, line=1)),
    ]


@pytest.fixture(scope="module")
def bubblesort():
    """The 8051 + Bubblesort testbed, one per backend (built lazily)."""
    return {backend: Evaluation(backend=backend)
            for backend in ("reference", "compiled")}


class TestGoldenRestore:
    """Each experiment ends on the golden image, and its restore pays
    only for the frames the experiment wrote."""

    @pytest.fixture()
    def finished(self, monkeypatch):
        """Per ``Experiment.finish``: mechanism, the frames written before
        the restore, and the frames differing from golden and still
        marked written after it."""
        records = []
        original = Experiment.finish

        def finish(self, trace=None):
            device = self.campaign.device
            written = set(device.dirty_frames)
            cost = original(self, trace)
            records.append((
                self.mechanism, written,
                device.config.diff_frames(self.campaign.impl.golden_bitstream),
                set(device.dirty_frames)))
            return cost

        monkeypatch.setattr(Experiment, "finish", finish)
        return records

    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    def test_every_mechanism_restores_exactly(self, backend, bubblesort,
                                              finished, monkeypatch):
        loads = []
        load_state = Device.load_state

        def spy(self, snapshot):
            loads.append(snapshot[0])
            load_state(self, snapshot)

        monkeypatch.setattr(Device, "load_state", spy)
        evaluation = bubblesort[backend]
        campaign = evaluation.fades
        # The reference run fast-forwards to the golden checkpoint at
        # cycle 0 for the early faults and at 256 for the late ones.
        faults = one_fault_per_mechanism(campaign, early=40, late=300)
        campaign.run_batch(faults, evaluation.cycles)
        assert [mechanism for mechanism, *_ in finished] == [
            "ff-lsr", "ff-gsr", "memory-rmw", "lut-rewrite", "cb-input-mux",
            "delay-fanout", "delay-reroute", "indet-ff", "indet-lut",
            "config_seu", "config_seu", "stuck_at", "bridging"]
        for mechanism, _written, differing, dirty in finished:
            assert differing == [], mechanism
            assert dirty == set(), mechanism
        if backend == "reference":
            # The reference run covered checkpoint fast-forward and the
            # workload's memory writes (Bubblesort stores to iram).
            assert 256 in loads
            assert any(addr.kind == "bram"
                       for _mechanism, written, _differing, _dirty
                       in finished for addr in written)

    def test_workload_memory_writes_are_restored(self, bubblesort):
        # Stepping and checkpoint loads write memory contents through to
        # the image; the restore must see those frames without a reset
        # having marked them first.
        evaluation = bubblesort["reference"]
        campaign = evaluation.fades
        device = campaign.device
        golden = campaign.impl.golden_bitstream
        campaign.golden_run(evaluation.cycles)
        checkpoints = campaign._checkpoints[
            campaign._golden_key(evaluation.cycles)]
        for prepare in (lambda: device.run(300, campaign.inputs),
                        lambda: device.load_state(checkpoints[256])):
            device.reset_system()
            campaign._restore_configuration()
            prepare()
            assert device.config.diff_frames(golden)
            campaign._restore_configuration()
            assert device.config.diff_frames(golden) == []

    def test_lsr_bitflip_restore_compares_only_its_frame(self, monkeypatch):
        campaign = make_campaign(build_counter(4), inputs={"en": 1})
        golden = campaign.impl.golden_bitstream
        compared = []

        class Recording(dict):
            def __getitem__(self, addr):
                compared.append(addr)
                return dict.__getitem__(self, addr)

        original = FadesCampaign._restore_configuration

        def restore(self):
            frames = golden.frames
            golden.frames = Recording(frames)
            try:
                original(self)
            finally:
                golden.frames = frames

        monkeypatch.setattr(FadesCampaign, "_restore_configuration", restore)
        fault = Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 1), 5)
        campaign.run_experiment(fault, 12)
        _row, col = campaign.impl.placement.site_of_ff[1]
        assert compared == [FrameAddr("cb", col)]
