"""Tests for campaign orchestration, faultload generation and cost model."""

import random

import pytest

from repro.analysis import Evaluation
from repro.core import (ConfigBit, FaultLoadSpec, FaultModel,
                        config_seu_fault, generate_faultload, pool_size,
                        used_route_bit)
from repro.core.campaign import (CampaignResult, Experiment,
                                 ExperimentResult, FadesCampaign)
from repro.core.classify import Outcome
from repro.core.faults import Fault, Target, TargetKind
from repro.core.timing_model import ExperimentCost
from repro.errors import InjectionError, LocationError
from repro.fpga import Device, FrameAddr
from repro.fpga.architecture import CB_BYTES, CB_FLAG_INVERT_LSR, CB_FLAGS
from repro.hdl.trace import Trace
from repro.obs.metrics import REGISTRY

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

    def test_seedless_runs_draw_the_same_faults(self, campaign):
        # Without a seed, run() draws from the campaign's seed, not from a
        # stream each call advances.
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=6,
                             workload_cycles=25)
        first = campaign.run(spec)
        second = campaign.run(spec)
        faults = [e.fault for e in first.experiments]
        assert faults == [e.fault for e in second.experiments]
        assert faults == generate_faultload(
            spec, campaign.locmap, seed=campaign.seed,
            routed_nets=campaign.impl.routing.is_routed)
        assert [e.outcome for e in first.experiments] \
            == [e.outcome for e in second.experiments]

    def test_run_aggregates_costs(self, campaign):
        spec = FaultLoadSpec(FaultModel.BITFLIP, "ffs", count=4,
                             workload_cycles=25)
        result = campaign.run(spec, seed=9)
        assert len(result.experiments) == 4
        assert result.total_emulation_s == pytest.approx(
            sum(e.cost.total_s for e in result.experiments))
        assert result.mean_emulation_s == pytest.approx(
            result.total_emulation_s / 4)

    def test_reconfig_seconds_observe_each_transfer(self, campaign):
        # Each experiment observes its own transfer cost once, under
        # its mechanism, in run order.
        REGISTRY.reset()
        runs = {}
        for model, pool, mechanism in [
                (FaultModel.BITFLIP, "ffs", "ff-lsr"),
                (FaultModel.PULSE, "luts", "lut-rewrite")]:
            spec = FaultLoadSpec(model, pool, count=4, workload_cycles=25)
            runs[mechanism] = campaign.run(spec, seed=9).experiments
        histogram = REGISTRY.get("reconfig_seconds")
        assert {dict(key)["mechanism"] for key in histogram.series()} \
            == set(runs)
        for mechanism, experiments in runs.items():
            transfer_s = 0.0
            for experiment in experiments:
                transfer_s += experiment.cost.transfer_s
            assert histogram.count(mechanism=mechanism) == len(experiments)
            assert histogram.sum(mechanism=mechanism) == transfer_s

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


class TestEmulatedTime:
    """A campaign's emulated time is the sum over the experiments that
    ran; statically resolved and quarantined records stay out."""

    @staticmethod
    def _experiment(seconds, outcome=Outcome.SILENT, **markers):
        fault = Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0), 3)
        cost = ExperimentCost(locate_s=seconds, transfer_s=2 * seconds,
                              workload_s=1e-6, overhead_s=0.01,
                              transactions=3)
        return ExperimentResult(fault=fault, outcome=outcome, cost=cost,
                                **markers)

    def test_totals_cover_only_emulated_experiments(self):
        emulated = self._experiment(0.1)
        result = CampaignResult(spec_label="hand-built",
                                golden=Trace(("o",)), experiments=[
            emulated,
            self._experiment(0.2, pruned=True),
            self._experiment(0.4, outcome=Outcome.QUARANTINED,
                             quarantined=True, error="poison")])
        assert result.total_emulation_s == emulated.cost.total_s
        assert result.mean_emulation_s == emulated.cost.total_s
        assert result.emulated_count() == 1
        assert result.pruned_count() == 1

        empty = CampaignResult(spec_label="empty", golden=Trace(("o",)))
        assert empty.total_emulation_s == empty.mean_emulation_s == 0.0
        assert empty.emulated_count() == 0


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
        the restore, the frames differing from golden and still marked
        written after it, and the decoded state after it (broken nets,
        phantom loads, violating FFs, memory words)."""
        records = []
        original = Experiment.finish

        def finish(self, trace=None):
            device = self.campaign.device
            written = set(device.dirty_frames)
            cost = original(self, trace)
            if device._timing_dirty:  # as the next clock edge would
                device.refresh_timing()
            records.append((
                self.mechanism, written,
                device.config.diff_frames(self.campaign.impl.golden_bitstream),
                set(device.dirty_frames),
                (set(device._broken_nets), dict(device.impl.timing.seu_extra),
                 set(device._violating),
                 [device.mem_words(index)
                  for index in range(len(device.mapped.brams))])))
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
        device = campaign.device
        golden = campaign.impl.golden_bitstream
        golden_mem = [
            tuple(golden.get_bram_word(
                campaign.impl.placement.block_of_bram[index], addr)
                for addr in range(bram.depth))
            for index, bram in enumerate(device.mapped.brams)]
        device.refresh_timing()
        violating = set(device._violating)
        # The reference run fast-forwards to the golden checkpoint at
        # cycle 0 for the early faults and at 256 for the late ones.
        faults = one_fault_per_mechanism(campaign, early=40, late=300)
        campaign.run_batch(faults, evaluation.cycles)
        assert [mechanism for mechanism, *_ in finished] == [
            "ff-lsr", "ff-gsr", "memory-rmw", "lut-rewrite", "cb-input-mux",
            "delay-fanout", "delay-reroute", "indet-ff", "indet-lut",
            "config_seu", "config_seu", "stuck_at", "bridging"]
        for mechanism, _written, differing, dirty, decoded in finished:
            assert differing == [], mechanism
            assert dirty == set(), mechanism
            assert decoded == (set(), {}, violating, golden_mem), mechanism
        if backend == "reference":
            # The reference run covered checkpoint fast-forward and the
            # workload's memory writes (Bubblesort stores to iram).
            assert 256 in loads
            assert any(addr.kind == "bram"
                       for _mechanism, written, *_ in finished
                       for addr in written)

    def test_one_experiment_decodes_only_what_it_touched(self, bubblesort,
                                                         monkeypatch):
        # A full-download delay experiment re-decodes the route columns
        # its bits touch, once at injection and once at removal, not the
        # device's 384; a memory bit-flip re-reads the flipped word at
        # injection and at restore, not its whole block twice.
        from repro.core.injector import _DelayBase
        from repro.fpga.bitstream import Bitstream
        evaluation = bubblesort["compiled"]
        campaign = evaluation.fades
        device = campaign.device
        assert device.arch.cols == 384
        assert campaign.injector.full_download_delays
        decoded, touched, words = [], set(), []
        decode = Device._decode_route_column
        touched_frames = _DelayBase._touched_frames
        get_word = Bitstream.get_bram_word

        def spy_decode(self, col):
            decoded.append(col)
            decode(self, col)

        def spy_touched(self):
            frames = touched_frames(self)
            touched.update(addr.major for addr in frames)
            return frames

        def spy_word(self, block, addr):
            if self is device.config:
                words.append((block, addr))
            return get_word(self, block, addr)

        monkeypatch.setattr(Device, "_decode_route_column", spy_decode)
        monkeypatch.setattr(_DelayBase, "_touched_frames", spy_touched)
        monkeypatch.setattr(Bitstream, "get_bram_word", spy_word)
        campaign.golden_run(evaluation.cycles)
        faults = one_fault_per_mechanism(campaign, early=40, late=300)
        for fault in (faults[5], faults[6]):  # delay-fanout, delay-reroute
            decoded.clear()
            touched.clear()
            campaign.run_batch([fault], evaluation.cycles)
            assert touched
            assert set(decoded) <= touched
            assert len(decoded) <= 2 * len(touched)
        memory_fault = faults[2]  # memory-rmw
        words.clear()
        campaign.run_batch([memory_fault], evaluation.cycles)
        target = memory_fault.target
        block = campaign.impl.placement.block_of_bram[target.index]
        assert words == [(block, target.addr)] * 2

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
