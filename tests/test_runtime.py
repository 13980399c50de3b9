"""Tests for the campaign execution runtime (:mod:`repro.runtime`).

The heart of this module is the determinism contract: for one job spec
and seed, serial in-process execution, a one-worker pool and a
four-worker pool must produce identical outcomes — and a campaign
interrupted mid-flight must, after resume, tally exactly like one that
never crashed.
"""

import dataclasses
import multiprocessing
import os

import pytest

from repro.analysis import Evaluation
from repro.core import FaultModel, build_fades
from repro.core.campaign import Experiment, derive_fault_seed
from repro.core.classify import Outcome
from repro.core.faults import Fault, Target, TargetKind
from repro.errors import JournalError
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.runtime import (CampaignJobSpec, CampaignMetrics, JobRunner,
                           MAX_SHARD_SIZE, ShardQueue, read_journal,
                           resume_campaign, run_campaign, shard_size)

from helpers import build_counter

COUNT = 8

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def evaluation():
    return Evaluation()


@pytest.fixture(scope="module")
def jobspec(evaluation):
    spec = evaluation.spec(FaultModel.BITFLIP, "ffs", 1, COUNT)
    return CampaignJobSpec.from_evaluation(evaluation, spec,
                                           faultload_seed=evaluation.seed)


@pytest.fixture(scope="module")
def serial_result(jobspec):
    return run_campaign(jobspec)


def outcomes(result):
    return [experiment.outcome for experiment in result.experiments]


class TestDeterminism:
    @pytest.mark.parametrize("prune_silent", [False, True],
                             ids=["unpruned", "pruned"])
    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    @pytest.mark.parametrize("model,band,oscillate", [
        (FaultModel.BITFLIP, 1, False),
        (FaultModel.INDETERMINATION, 2, True),
    ], ids=["bitflip-ffs-band1", "oscillating-indet-ffs-band2"])
    def test_serial_equals_engine(self, model, band, oscillate, backend,
                                  prune_silent):
        # A fresh testbed per case: both sides then start from an empty
        # board log, so even the emulated-time floats must agree.
        evaluation = Evaluation(backend=backend, prune_silent=prune_silent)
        spec = evaluation.spec(model, "ffs", band, COUNT,
                               oscillate=oscillate)
        serial = evaluation.fades.run(spec, seed=evaluation.seed)
        engine = run_campaign(CampaignJobSpec.from_evaluation(
            evaluation, spec, faultload_seed=evaluation.seed), workers=0)
        assert len(serial.experiments) == len(engine.experiments) == COUNT
        for mine, theirs in zip(serial.experiments, engine.experiments):
            assert mine.outcome is theirs.outcome
            assert mine.first_divergence == theirs.first_divergence
            assert mine.cost == theirs.cost
        assert serial.total_emulation_s == engine.total_emulation_s

    @pytest.mark.parametrize("workers", [1, 4])
    def test_worker_pool_matches_serial(self, jobspec, serial_result,
                                        workers):
        result = run_campaign(jobspec, workers=workers)
        assert outcomes(result) == outcomes(serial_result)
        assert result.counts().as_dict() == \
            serial_result.counts().as_dict()
        assert result.mean_emulation_s == \
            pytest.approx(serial_result.mean_emulation_s)

    def test_oscillating_faults_shard_deterministically(self, evaluation):
        # Oscillating indeterminations consume the injector randomiser
        # every cycle — the per-fault reseed must still make sharded
        # execution order-independent.
        spec = evaluation.spec(FaultModel.INDETERMINATION, "ffs", 2, 6,
                               oscillate=True)
        jobspec = CampaignJobSpec.from_evaluation(
            evaluation, spec, faultload_seed=evaluation.seed)
        serial = run_campaign(jobspec)
        sharded = run_campaign(jobspec, workers=2)
        assert outcomes(sharded) == outcomes(serial)

    def test_derive_fault_seed_is_stable_and_distinct(self):
        seeds = [derive_fault_seed(2006, index) for index in range(64)]
        assert len(set(seeds)) == 64
        assert seeds == [derive_fault_seed(2006, index)
                         for index in range(64)]
        assert seeds != [derive_fault_seed(2007, index)
                         for index in range(64)]


class Interrupted(RuntimeError):
    """Injected mid-campaign 'crash' for resume tests."""


class TestJournalResume:
    def test_resume_after_interrupt(self, jobspec, serial_result,
                                    tmp_path):
        journal = str(tmp_path / "campaign.jsonl")

        def crash_after_three(snapshot):
            if snapshot.completed >= 3:
                raise Interrupted()

        with pytest.raises(Interrupted):
            run_campaign(jobspec, journal=journal,
                         progress=crash_after_three)
        state = read_journal(journal)
        assert state.header is not None
        assert len(state.records) == 3
        assert state.summary is None

        snapshots = []
        resumed = resume_campaign(journal, progress=snapshots.append)
        assert outcomes(resumed) == outcomes(serial_result)
        assert resumed.counts().as_dict() == \
            serial_result.counts().as_dict()
        # The resumed run skipped the journaled three and only executed
        # the remaining five.
        assert snapshots[-1].skipped == 3
        assert snapshots[-1].completed == COUNT - 3
        state = read_journal(journal)
        assert len(state.records) == COUNT
        assert state.summary is not None
        assert state.summary["failure"] == serial_result.counts().failure

    def test_rerun_skips_complete_journal(self, jobspec, serial_result,
                                          tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        run_campaign(jobspec, journal=journal)
        snapshots = []
        again = run_campaign(jobspec, journal=journal,
                             progress=snapshots.append)
        assert outcomes(again) == outcomes(serial_result)
        assert snapshots[-1].skipped == COUNT
        assert snapshots[-1].completed == 0

    def test_torn_tail_line_is_dropped(self, jobspec, serial_result,
                                       tmp_path):
        journal = str(tmp_path / "campaign.jsonl")

        def crash_after_two(snapshot):
            if snapshot.completed >= 2:
                raise Interrupted()

        with pytest.raises(Interrupted):
            run_campaign(jobspec, journal=journal,
                         progress=crash_after_two)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"type": "record", "index": 5, "outc')
        state = read_journal(journal)
        assert state.dropped_lines == 1
        assert len(state.records) == 2
        resumed = resume_campaign(journal)
        assert resumed.counts().as_dict() == \
            serial_result.counts().as_dict()

    def test_journal_rejects_different_campaign(self, jobspec, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        run_campaign(jobspec, journal=journal)
        other = jobspec.with_count(COUNT + 1)
        with pytest.raises(JournalError):
            run_campaign(other, journal=journal)

    def test_resume_needs_a_header(self, tmp_path):
        journal = tmp_path / "empty.jsonl"
        journal.write_text("")
        with pytest.raises(JournalError):
            resume_campaign(str(journal))
        with pytest.raises(JournalError):
            resume_campaign(str(tmp_path / "missing.jsonl"))

    def test_jobspec_roundtrips_through_header(self, jobspec):
        assert CampaignJobSpec.from_dict(jobspec.to_dict()) == jobspec


def drain(queue):
    """Pop and complete every queued shard, as a failure-free executor
    would; the shards in dispatch order."""
    shards = []
    while queue:
        shard, attempt = queue.pop()
        assert attempt == 0
        assert queue.complete(shard.shard_id)
        shards.append(shard)
    return shards


def never_quarantine(index, reason):
    raise AssertionError(f"unexpected quarantine of {index}: {reason}")


def divergences(result):
    return [(experiment.outcome, experiment.first_divergence)
            for experiment in result.experiments]


class TestScheduler:
    def test_queue_partitions_exactly(self):
        queue = ShardQueue(0, never_quarantine, lambda: False)
        indices = list(range(100))
        queue.extend(indices, shard_size(len(indices), workers=4))
        shards = drain(queue)
        covered = [index for shard in shards for index in shard.indices]
        assert covered == indices
        assert all(len(shard.indices) <= MAX_SHARD_SIZE
                   for shard in shards)
        assert len({shard.shard_id for shard in shards}) == len(shards)

    def test_queue_sizes_and_one_id_counter(self):
        queue = ShardQueue(0, never_quarantine, lambda: False)
        queue.extend([], 4)
        assert not queue and queue.pop() is None
        queue.extend(list(range(10)), 3)
        assert [len(shard.indices) for shard in drain(queue)] \
            == [3, 3, 3, 1]
        # A later window and a bisection draw ids from the same counter.
        queue.extend(list(range(10, 14)), 4)
        shard, _attempt = queue.pop()
        queue.fail(shard.shard_id, "boom", kind="error")
        halves = drain(queue)
        assert [half.indices for half in halves] == [(10, 11), (12, 13)]
        ids = [shard.shard_id] + [half.shard_id for half in halves]
        assert sorted(ids) == list(range(4, 7))

    @pytest.mark.skipif(not HAS_FORK,
                        reason="crash simulation needs fork start method")
    def test_worker_crash_requeues_and_respawns(self, jobspec,
                                                serial_result, tmp_path,
                                                monkeypatch):
        flag = tmp_path / "crashed-once"
        original = JobRunner.run_index

        def sabotage(self, index):
            if index == 2 and not flag.exists():
                flag.write_text("boom")
                os._exit(13)
            return original(self, index)

        monkeypatch.setattr(JobRunner, "run_index", sabotage)
        snapshots = []
        result = run_campaign(jobspec, workers=2,
                              progress=snapshots.append)
        assert flag.exists()
        assert snapshots[-1].retries >= 1
        assert outcomes(result) == outcomes(serial_result)

    @pytest.mark.skipif(not HAS_FORK,
                        reason="crash simulation needs fork start method")
    def test_persistent_failure_quarantines_poison_fault(
            self, jobspec, serial_result, monkeypatch):
        # A fault that fails deterministically must not kill the
        # campaign: after the retry budget it is bisected out,
        # journaled as Quarantined, and every other fault still
        # classifies exactly as an undisturbed run.
        original = JobRunner.run_index

        def sabotage(self, index):
            if index == 1:
                raise ValueError("always broken")
            return original(self, index)

        monkeypatch.setattr(JobRunner, "run_index", sabotage)
        result = run_campaign(jobspec, workers=1, max_retries=1)
        assert len(result.experiments) == COUNT
        poisoned = result.experiments[1]
        assert poisoned.quarantined
        assert poisoned.outcome is Outcome.QUARANTINED
        assert "always broken" in (poisoned.error or "")
        clean = [outcome for index, outcome
                 in enumerate(outcomes(result)) if index != 1]
        expected = [outcome for index, outcome
                    in enumerate(outcomes(serial_result)) if index != 1]
        assert clean == expected
        assert result.counts().quarantined == 1
        assert result.counts().total == COUNT - 1

    def test_serial_poison_fault_is_bisected_on_the_lane_engine(
            self, evaluation, monkeypatch):
        # In process, a failing lane batch is bisected exactly like a
        # pooled shard: the survivors stay packed on the lane engine
        # instead of re-running one by one on the reference device.
        spec = evaluation.spec(FaultModel.BITFLIP, "ffs", 1, COUNT)
        jobspec = dataclasses.replace(
            CampaignJobSpec.from_evaluation(
                evaluation, spec, faultload_seed=evaluation.seed),
            backend="compiled")
        undisturbed = run_campaign(jobspec)
        bisections = REGISTRY.get("shard_bisections_total")
        lanes = REGISTRY.get("emu_lane_faults_total")
        bisected_before = bisections.total()
        packed_before = lanes.value(mode="packed")
        original = Experiment.__init__

        def poisoned(self, campaign, fault, cycles, pool, index):
            if index == 0:
                raise RuntimeError("always broken")
            original(self, campaign, fault, cycles, pool, index)

        monkeypatch.setattr(Experiment, "__init__", poisoned)
        result = run_campaign(jobspec, max_retries=0)
        assert result.experiments[0].quarantined
        assert "always broken" in (result.experiments[0].error or "")
        for mine, theirs in zip(result.experiments[1:],
                                undisturbed.experiments[1:]):
            assert mine.outcome is theirs.outcome
            assert mine.first_divergence == theirs.first_divergence
            assert mine.cost.transactions == theirs.cost.transactions
        assert bisections.total() > bisected_before
        assert lanes.value(mode="packed") - packed_before >= COUNT - 1

    @pytest.mark.skipif(not HAS_FORK,
                        reason="the pooled case needs fork start method")
    def test_failed_experiment_restores_the_golden_configuration(
            self, evaluation, tmp_path, monkeypatch):
        # One transient failure between inject and remove leaves the
        # pulse's frames on the device, and the delay's extra loads or
        # detour in the routing database; the retry (serial) or the
        # worker's next shard (pooled) must still start from golden.
        original = Experiment.remove
        for model, pool, count in ((FaultModel.PULSE, "luts", 24),
                                   (FaultModel.DELAY, "nets:seq", 6)):
            spec = evaluation.spec(model, pool, 1, count)
            jobspec = CampaignJobSpec.from_evaluation(
                evaluation, spec, faultload_seed=evaluation.seed)
            undisturbed = run_campaign(jobspec)
            target = undisturbed.experiments[1].fault
            for workers in (0, 2):
                # A flag file, so the failure fires once across processes.
                flag = tmp_path / f"failed-once-{model.value}-{workers}"

                def remove(self, flag=flag, target=target):
                    if self.fault == target and not flag.exists():
                        flag.write_text("failed")
                        raise RuntimeError(
                            "transient failure before removal")
                    original(self)

                with monkeypatch.context() as patch:
                    patch.setattr(Experiment, "remove", remove)
                    result = run_campaign(jobspec, workers=workers)
                assert flag.exists()
                assert divergences(result) == divergences(undisturbed)


class TestMetrics:
    def test_phases_throughput_and_eta(self):
        now = [0.0]
        metrics = CampaignMetrics(clock=lambda: now[0])
        metrics.set_total(10, replayed=[{"outcome": "silent"}] * 2)
        with metrics.phase("setup"):
            now[0] += 1.0
        with metrics.phase("experiments"):
            now[0] += 2.0
            metrics.record({"cost": {"locate_s": 0.5, "transfer_s": 0.25,
                                     "workload_s": 0.25,
                                     "overhead_s": 0.0}})
        snapshot = metrics.snapshot()
        assert snapshot.phases["setup"] == pytest.approx(1.0)
        assert snapshot.phases["experiments"] == pytest.approx(2.0)
        assert snapshot.completed == 1
        assert snapshot.skipped == 2
        assert snapshot.outcomes["silent"] == 2
        assert snapshot.pending == 7
        assert snapshot.emulated_s == pytest.approx(1.0)
        assert snapshot.throughput == pytest.approx(1.0 / 3.0)
        assert snapshot.eta_s == pytest.approx(21.0)
        assert "exp/s" in snapshot.render()

    def test_progress_fires_once_per_record(self):
        snapshots = []
        metrics = CampaignMetrics(progress=snapshots.append)
        metrics.set_total(7)
        for _ in range(7):
            metrics.record({})
        assert [snapshot.completed for snapshot in snapshots] \
            == list(range(1, 8))

    def test_counters_report_campaign_relative_deltas(self):
        registry = MetricsRegistry()
        hangs = registry.counter("worker_hangs_total", "test")
        hangs.inc()  # pre-existing count from an earlier campaign
        metrics = CampaignMetrics(registry=registry)
        hangs.inc()
        snapshot = metrics.snapshot()
        assert snapshot.hangs == 1  # not 2: baseline subtracted
        assert snapshot.to_dict()["hangs"] == 1

    def test_zero_wall_clock_is_safe(self):
        metrics = CampaignMetrics(clock=lambda: 0.0)
        snapshot = metrics.snapshot()
        assert snapshot.throughput == 0.0
        # Nothing pending: the campaign is (vacuously) drained.
        assert snapshot.eta_s == 0.0

    def test_eta_is_none_before_first_record(self):
        metrics = CampaignMetrics(clock=lambda: 0.0)
        metrics.set_total(10)
        snapshot = metrics.snapshot()
        assert snapshot.pending == 10
        assert snapshot.eta_s is None
        assert "eta --:--" in snapshot.render()


class TestGoldenCache:
    def _bitflip(self, start):
        return Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0), start)

    def test_golden_simulated_once_across_classes(self):
        campaign = build_fades(build_counter(), seed=1,
                               inputs={"en": 1})
        campaign.run_faults([self._bitflip(3)], 40, label="class-a")
        campaign.run_faults([self._bitflip(7)], 40, label="class-b")
        assert campaign.golden_simulations == 1

    def test_golden_keyed_by_workload_and_cycles(self):
        campaign = build_fades(build_counter(), seed=1,
                               inputs={"en": 1})
        campaign.golden_run(40)
        campaign.golden_run(60)
        assert campaign.golden_simulations == 2
        # Changing the workload (the constant input assignment) must not
        # serve the stale trace.
        enabled = campaign.golden_run(40)
        campaign.inputs["en"] = 0
        disabled = campaign.golden_run(40)
        assert campaign.golden_simulations == 3
        assert not disabled.same_outputs(enabled)


class TestScreenSeed:
    def test_screen_default_seed_is_historical(self):
        campaign = build_fades(build_counter(), seed=1, inputs={"en": 1})
        default = campaign.screen_sensitive_ffs(40, samples_per_ff=1)
        pinned = campaign.screen_sensitive_ffs(40, samples_per_ff=1,
                                               seed=7)
        assert default == pinned

    def test_screen_seed_reaches_the_rng(self, monkeypatch):
        import random as random_module
        seen = []
        original = random_module.Random

        class Spy(original):
            def __init__(self, seed=None):
                seen.append(seed)
                super().__init__(seed)

        monkeypatch.setattr("repro.core.campaign.random.Random", Spy)
        campaign = build_fades(build_counter(), seed=1, inputs={"en": 1})
        seen.clear()
        campaign.screen_sensitive_ffs(40, samples_per_ff=1, seed=99)
        assert seen[0] == 99
