"""Tests for the campaign execution runtime (:mod:`repro.runtime`).

The heart of this module is the determinism contract: for one job spec
and seed, serial in-process execution, a one-worker pool and a
four-worker pool must produce identical outcomes — and a campaign
interrupted mid-flight must, after resume, tally exactly like one that
never crashed.  The contract tests run over both tools.
"""

import dataclasses
import json
import multiprocessing
import os

import pytest

from repro.analysis import Evaluation
from repro.core import FaultModel, build_fades
from repro.core.campaign import (Experiment, FadesCampaign,
                                 derive_fault_seed)
from repro.core.classify import Outcome
from repro.core.faults import Fault, Target, TargetKind
from repro.errors import (InjectionError, JournalError, SchedulerError,
                          UnsupportedFaultError)
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.timeseries import seal_line
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
def classes(evaluation):
    """The bit-flip class of a tool (optionally adaptive) and its
    in-process result, each run once, on first use."""
    runs = {}

    def run(tool, epsilon=None, budget=None):
        key = (tool, epsilon, budget)
        if key not in runs:
            spec = evaluation.spec(FaultModel.BITFLIP, "ffs", 1, COUNT)
            jobspec = dataclasses.replace(
                CampaignJobSpec.from_evaluation(
                    evaluation, spec, faultload_seed=evaluation.seed,
                    tool=tool),
                epsilon=epsilon, budget=budget)
            runs[key] = jobspec, run_campaign(jobspec)
        return runs[key]

    return run


@pytest.fixture(scope="module")
def jobspec(classes):
    return classes("fades")[0]


@pytest.fixture(scope="module")
def serial_result(classes):
    return classes("fades")[1]


def outcomes(result):
    return [experiment.outcome for experiment in result.experiments]


class TestDeterminism:
    @pytest.mark.parametrize("tool,backend,prune_silent", [
        ("fades", "reference", False),
        ("fades", "reference", True),
        ("fades", "compiled", False),
        ("fades", "compiled", True),
        ("vfit", "reference", False),
    ], ids=["reference-unpruned", "reference-pruned", "compiled-unpruned",
            "compiled-pruned", "vfit"])
    @pytest.mark.parametrize("model,band,oscillate", [
        (FaultModel.BITFLIP, 1, False),
        (FaultModel.INDETERMINATION, 2, True),
    ], ids=["bitflip-ffs-band1", "oscillating-indet-ffs-band2"])
    def test_serial_equals_engine(self, model, band, oscillate, tool,
                                  backend, prune_silent):
        # A fresh testbed per side: each then starts from an empty board
        # log, so even the emulated-time floats must agree.  The
        # evaluation runs in process on its own pre-built campaign; the
        # engine rebuilds one from the job spec; the campaign's own
        # ``run`` draws the same faultload.
        evaluation = Evaluation(backend=backend, prune_silent=prune_silent)
        spec = evaluation.spec(model, "ffs", band, COUNT,
                               oscillate=oscillate)
        engine = run_campaign(CampaignJobSpec.from_evaluation(
            evaluation, spec, faultload_seed=evaluation.seed, tool=tool),
            workers=0)
        serials = [evaluation.run(spec, tool=tool)]
        if not prune_silent:
            serials.append(
                getattr(Evaluation(backend=backend), tool).run(spec))
        for serial in serials:
            assert len(serial.experiments) == len(engine.experiments) \
                == COUNT
            for mine, theirs in zip(serial.experiments, engine.experiments):
                assert mine.outcome is theirs.outcome
                assert mine.first_divergence == theirs.first_divergence
                assert mine.cost == theirs.cost
            assert serial.total_emulation_s == engine.total_emulation_s

    @pytest.mark.parametrize("tool,epsilon,workers", [
        ("fades", None, 1),
        ("fades", None, 4),
        ("vfit", None, 2),
        ("vfit", 0.4, 2),
    ], ids=["1", "4", "vfit-2", "vfit-adaptive-2"])
    def test_worker_pool_matches_serial(self, classes, tool, epsilon,
                                        workers):
        # The adaptive class looks once, at its budget of 6.
        jobspec, serial_result = classes(tool, epsilon,
                                         6 if epsilon else None)
        result = run_campaign(jobspec, workers=workers)
        assert outcomes(result) == outcomes(serial_result)
        assert result.counts().as_dict() == \
            serial_result.counts().as_dict()
        assert result.mean_emulation_s == \
            pytest.approx(serial_result.mean_emulation_s)
        assert result.stop == serial_result.stop
        assert result.strata == serial_result.strata
        assert (result.stop is None) is (epsilon is None)

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


class TestPrebuiltCampaign:
    @pytest.fixture()
    def build_calls(self, monkeypatch):
        from repro.runtime import engine
        calls = []
        original = engine.build_campaign

        def counting(jobspec):
            calls.append(jobspec)
            return original(jobspec)

        monkeypatch.setattr(engine, "build_campaign", counting)
        return calls

    @pytest.mark.skipif(not HAS_FORK,
                        reason="worker pool needs the fork start method")
    @pytest.mark.parametrize("mode", ["workers", "journal"])
    def test_evaluation_builds_nothing_with_workers_or_journal(
            self, build_calls, tmp_path, mode):
        # Pool workers are forks of the engine and a journal changes
        # nothing about the campaign, so the evaluation's own campaign
        # serves both: one design, one golden run, and the in-process
        # outcomes.
        evaluation = Evaluation(values=(7, 2, 5))
        spec = evaluation.spec(FaultModel.BITFLIP, "ffs", 1, 4)
        in_process = evaluation.run(spec)
        options = {}
        if mode == "workers":
            evaluation.workers = 2
        else:
            options["journal"] = str(tmp_path / "class.jsonl")
        result = evaluation.run(spec, **options)
        assert build_calls == []
        assert evaluation.fades.golden_simulations == 1
        assert outcomes(result) == outcomes(in_process)

    @pytest.mark.skipif(not HAS_FORK,
                        reason="worker pool needs the fork start method")
    @pytest.mark.parametrize("mode", ["fresh", "resumed"])
    def test_pooled_compiled_campaign_compiles_once(self, tmp_path, mode):
        # The engine compiles the design in its golden phase, and the
        # workers it forks afterwards run on that compiled design.
        evaluation = Evaluation(values=(7, 2, 5), backend="compiled")
        spec = evaluation.spec(FaultModel.BITFLIP, "ffs", 1, COUNT)
        jobspec = CampaignJobSpec.from_evaluation(
            evaluation, spec, faultload_seed=evaluation.seed)
        journal = str(tmp_path / "compiled.jsonl")
        if mode == "resumed":
            def crash_after_three(snapshot):
                if snapshot.completed >= 3:
                    raise Interrupted()

            with pytest.raises(Interrupted):
                run_campaign(jobspec, journal=journal,
                             progress=crash_after_three)
        import repro.emu  # noqa: F401  (registers emu_compile_total)
        compiles = REGISTRY.get("emu_compile_total")
        before = compiles.value(result="miss")
        snapshots = []
        if mode == "resumed":
            result = resume_campaign(journal, workers=2,
                                     progress=snapshots.append)
        else:
            result = run_campaign(jobspec, workers=2,
                                  progress=snapshots.append)
        assert compiles.value(result="miss") - before == 1
        assert snapshots[-1].completed == (COUNT - 3 if mode == "resumed"
                                           else COUNT)
        assert outcomes(result) == outcomes(run_campaign(jobspec))

    def test_pool_without_fork_is_refused_before_setup(
            self, jobspec, build_calls, tmp_path, monkeypatch):
        # A worker runs on the campaign it inherits from the engine, so a
        # platform without fork has no pool; the engine says so before
        # it builds, runs or journals anything.
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        journal = tmp_path / "refused.jsonl"
        with pytest.raises(SchedulerError):
            run_campaign(jobspec, workers=2, journal=str(journal))
        assert build_calls == []
        assert not journal.exists()

    def test_adaptive_evaluation_builds_nothing(self, build_calls):
        # An adaptive class runs through the window loop, in process on
        # the evaluation's own campaign: the design and the golden run
        # serve every class.
        evaluation = Evaluation(values=(7, 2, 5), epsilon=0.3, budget=4)
        for pool in ("ffs", "memory:iram"):
            spec = evaluation.spec(FaultModel.BITFLIP, pool, 1, 4)
            result = evaluation.run(spec)
            assert result.stop is not None
        assert build_calls == []
        assert evaluation.fades.golden_simulations == 1


class Interrupted(RuntimeError):
    """Injected mid-campaign 'crash' for resume tests."""


class TestJournalResume:
    @pytest.mark.parametrize("tool", ["fades", "vfit"])
    def test_resume_equals_uninterrupted(self, classes, tool, tmp_path):
        jobspec, serial_result = classes(tool)
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

    def test_header_without_tool_is_a_fades_campaign(self, jobspec,
                                                     serial_result,
                                                     tmp_path):
        # A journal written before job specs named their tool: its
        # header resumes as FADES, and the campaign still re-runs on it.
        journal = tmp_path / "campaign.jsonl"

        def crash_after_two(snapshot):
            if snapshot.completed >= 2:
                raise Interrupted()

        with pytest.raises(Interrupted):
            run_campaign(jobspec, journal=str(journal),
                         progress=crash_after_two)
        header, *records = journal.read_text().splitlines()
        entry = json.loads(header)
        assert entry["jobspec"].pop("tool") == "fades"
        old = tmp_path / "old.jsonl"
        old.write_text("\n".join([seal_line(entry)] + records) + "\n")
        assert read_journal(str(old)).jobspec == jobspec
        resumed = resume_campaign(str(old))
        assert outcomes(resumed) == outcomes(serial_result)
        again = run_campaign(jobspec, journal=str(old))
        assert outcomes(again) == outcomes(serial_result)


class TestTool:
    @pytest.mark.parametrize("setting", [
        {"backend": "compiled"}, {"prune_silent": True},
        {"strategy": "stratified"}, {"tool": "hammer"},
    ], ids=["compiled", "prune-silent", "stratified", "unknown-tool"])
    def test_jobspec_refuses_what_its_tool_cannot_run(self, jobspec,
                                                      setting):
        # Refused when the job spec is made, before anything is built.
        vfit = dataclasses.replace(jobspec, tool="vfit")
        with pytest.raises(InjectionError):
            dataclasses.replace(vfit, **setting)

    def test_vfit_jobspec_refuses_delay_faults(self, jobspec):
        delay = dataclasses.replace(jobspec.spec, model=FaultModel.DELAY)
        with pytest.raises(UnsupportedFaultError,
                           match="no generic delay clauses"):
            dataclasses.replace(jobspec, tool="vfit", spec=delay)


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

    def test_lane_shards_split_the_window_over_the_workers(self):
        assert shard_size(765, workers=2, lanes=4095) == 383
        assert shard_size(9000, workers=2, lanes=4095) == 4095
        assert shard_size(765, workers=2) == MAX_SHARD_SIZE

    def test_lane_shard_heartbeats_between_replays(self):
        # A pool worker hangs its heartbeat on run_indices' progress; a
        # wide lane shard must keep calling it, not only once at its end.
        compiled = Evaluation(backend="compiled")
        spec = compiled.spec(FaultModel.BITFLIP, "ffs", 1, COUNT)
        runner = JobRunner(CampaignJobSpec.from_evaluation(
            compiled, spec, faultload_seed=compiled.seed), compiled.fades)
        beats = []
        runner.run_indices(range(COUNT), progress=lambda: beats.append(1))
        assert len(beats) == COUNT

    def test_compiled_campaign_off_lanes_runs_one_fault_per_shard(
            self, jobspec, serial_result, monkeypatch):
        # An untrusted golden configuration keeps a compiled campaign on
        # the device, where in process it shards like a reference
        # campaign: a raising experiment re-runs only itself.
        monkeypatch.setattr(FadesCampaign, "trusted",
                            property(lambda self: False))
        shards = []
        original = JobRunner.run_indices

        def counting(self, indices, progress=None):
            shards.append(len(indices))
            return original(self, indices, progress=progress)

        monkeypatch.setattr(JobRunner, "run_indices", counting)
        result = run_campaign(dataclasses.replace(jobspec,
                                                  backend="compiled"))
        assert shards == [1] * COUNT
        assert divergences(result) == divergences(serial_result)

    @pytest.mark.skipif(not HAS_FORK,
                        reason="worker pool needs the fork start method")
    def test_pooled_lane_campaign_runs_one_pass_per_worker(self):
        # Each pass of L lanes over C cycles adds L * C lane-cycles (lane
        # 0 is the golden run), and the worker counters merge into this
        # process's registry; the parent adds one one-lane golden pass
        # at aggregation.
        compiled = Evaluation(backend="compiled")
        count = 40
        spec = compiled.spec(FaultModel.BITFLIP, "ffs", 1, count)
        jobspec = CampaignJobSpec.from_evaluation(
            compiled, spec, faultload_seed=compiled.seed)
        in_process = run_campaign(jobspec)
        lane_cycles = REGISTRY.get("emu_lane_cycles_total")
        before = lane_cycles.total()
        pooled = run_campaign(jobspec, workers=2)
        lanes = (lane_cycles.total() - before) // spec.workload_cycles
        assert divergences(pooled) == divergences(in_process)
        assert lanes - count - 1 <= 2

    @pytest.mark.skipif(not HAS_FORK,
                        reason="crash simulation needs fork start method")
    def test_worker_crash_requeues_and_respawns(self, jobspec,
                                                serial_result, tmp_path,
                                                monkeypatch):
        flag = tmp_path / "crashed-once"
        original = FadesCampaign.run_experiment

        def sabotage(self, fault, cycles, pool=0, index=0):
            if index == 2 and not flag.exists():
                flag.write_text("boom")
                os._exit(13)
            return original(self, fault, cycles, pool=pool, index=index)

        monkeypatch.setattr(FadesCampaign, "run_experiment", sabotage)
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
        original = FadesCampaign.run_experiment

        def sabotage(self, fault, cycles, pool=0, index=0):
            if index == 1:
                raise ValueError("always broken")
            return original(self, fault, cycles, pool=pool, index=index)

        monkeypatch.setattr(FadesCampaign, "run_experiment", sabotage)
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

    def test_quarantined_fault_stays_out_of_emulated_time(
            self, jobspec, monkeypatch):
        original = Experiment.__init__

        def poisoned(self, campaign, fault, cycles, pool, index):
            if index == 2:
                raise RuntimeError("always broken")
            original(self, campaign, fault, cycles, pool, index)

        monkeypatch.setattr(Experiment, "__init__", poisoned)
        result = run_campaign(jobspec, max_retries=0)
        assert result.experiments[2].quarantined
        total = 0.0
        for index, experiment in enumerate(result.experiments):
            if index != 2:
                total += experiment.cost.total_s
        assert result.total_emulation_s == total
        assert result.mean_emulation_s == total / (COUNT - 1)
        assert result.emulated_count() == COUNT - 1

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
