"""Tests for the deterministic chaos harness (:mod:`repro.chaos`) and
the runtime's failure handling under injected infrastructure faults.

The contract under test is the robustness counterpart of the runtime's
determinism contract: whatever the chaos plan does to the *machinery*
(crashed workers, hung workers, torn journal writes, failing compiles),
the campaign's *results* stay bit-identical to an undisturbed serial
run — with the single, explicitly journaled exception of quarantined
poison faults.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro import chaos
from repro.chaos import ChaosPlan
from repro.analysis import Evaluation
from repro.core import FaultModel
from repro.core.classify import Outcome
from repro.errors import CampaignInterrupted, ChaosError, JournalError
from repro.obs.metrics import REGISTRY
from repro.runtime import (CampaignJobSpec, read_journal, repair_journal,
                           resume_campaign, run_campaign, scan_journal)

COUNT = 8

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="worker pool requires the fork start method")


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


@pytest.fixture(autouse=True)
def clean_chaos():
    chaos.clear()
    yield
    chaos.clear()


def outcomes(result):
    return [experiment.outcome for experiment in result.experiments]


def counter_total(name):
    metric = REGISTRY.get(name)
    return metric.total() if metric is not None else 0.0


# ---------------------------------------------------------------------------
# plan semantics
# ---------------------------------------------------------------------------
class TestChaosPlan:
    def test_spec_roundtrip_is_canonical(self):
        plan = ChaosPlan.from_spec(
            "worker_hang:index=5;seed=7;worker_crash:p=0.25:always")
        spec = plan.to_spec()
        assert spec.startswith("seed=7;")
        assert ChaosPlan.from_spec(spec).to_spec() == spec

    def test_bad_specs_are_refused(self):
        with pytest.raises(ChaosError):
            ChaosPlan.from_spec("seed=7")  # no fault points
        with pytest.raises(ChaosError):
            ChaosPlan.from_spec("no_such_point")
        with pytest.raises(ChaosError):
            ChaosPlan.from_spec("worker_crash:p=2.0")

    def test_decisions_are_stateless_and_attempt_zero_only(self):
        plan = ChaosPlan.from_spec("seed=3;worker_crash:index=4")
        assert plan.should_fire("worker_crash", key=4, attempt=0)
        # Self-clearing, like the transient faults campaigns inject:
        # the retry of the same work must succeed.
        assert not plan.should_fire("worker_crash", key=4, attempt=1)
        assert not plan.should_fire("worker_crash", key=5, attempt=0)
        # `always` opts a rule out of self-clearing (poison simulation).
        poison = ChaosPlan.from_spec("seed=3;worker_crash:index=4:always")
        assert all(poison.should_fire("worker_crash", key=4, attempt=a)
                   for a in range(4))

    def test_probabilistic_decisions_are_reproducible(self):
        first = ChaosPlan.from_spec("seed=11;torn_write:p=0.5")
        second = ChaosPlan.from_spec("seed=11;torn_write:p=0.5")
        draws = [first.should_fire("torn_write", key=k) for k in range(64)]
        assert draws == [second.should_fire("torn_write", key=k)
                         for k in range(64)]
        assert any(draws) and not all(draws)

    def test_env_var_activation(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR, "seed=5;slow_result:p=0.0")
        chaos.clear()
        plan = chaos.active()
        assert plan is not None and plan.seed == 5
        # An explicit install (even of nothing) outranks the env.
        chaos.install(None)
        assert chaos.active() is None


# ---------------------------------------------------------------------------
# crash / hang recovery: parallel == serial under chaos
# ---------------------------------------------------------------------------
@needs_fork
class TestCrashAndHang:
    def test_worker_crash_is_retried_to_identity(self, jobspec,
                                                 serial_result):
        chaos.install(ChaosPlan.from_spec(
            "seed=2;worker_crash:index=2"))
        result = run_campaign(jobspec, workers=2)
        assert outcomes(result) == outcomes(serial_result)
        assert result.counts().quarantined == 0

    def test_worker_hang_watchdog_respawns(self, jobspec, serial_result):
        chaos.install(ChaosPlan.from_spec("seed=2;worker_hang:index=1"))
        hangs_before = counter_total("worker_hangs_total")
        started = time.monotonic()
        result = run_campaign(jobspec, workers=2, shard_timeout=1.0)
        elapsed = time.monotonic() - started
        assert outcomes(result) == outcomes(serial_result)
        assert counter_total("worker_hangs_total") > hangs_before
        # The hang must be detected within the deadline's order of
        # magnitude, not sat out until some larger default.
        assert elapsed < 25.0

    def test_serial_parallel_identity_under_combined_chaos(
            self, jobspec, serial_result):
        chaos.install(ChaosPlan.from_spec(
            "seed=9;worker_crash:p=0.3;worker_hang:index=3;"
            "slow_result:p=0.2:s=0.05"))
        result = run_campaign(jobspec, workers=3, shard_timeout=1.0)
        assert outcomes(result) == outcomes(serial_result)


# ---------------------------------------------------------------------------
# poison-fault quarantine
# ---------------------------------------------------------------------------
@needs_fork
class TestQuarantine:
    def test_poison_fault_is_bisected_and_journalled(
            self, jobspec, serial_result, tmp_path):
        journal = str(tmp_path / "quarantine.jsonl")
        # `always` makes index 3 kill its worker on every attempt:
        # retries cannot clear it, so bisection must isolate it.
        chaos.install(ChaosPlan.from_spec(
            "seed=4;worker_crash:index=3:always"))
        result = run_campaign(jobspec, workers=2, max_retries=1,
                              journal=journal)
        assert result.experiments[3].quarantined
        assert result.experiments[3].outcome is Outcome.QUARANTINED
        others = [outcome for index, outcome in enumerate(outcomes(result))
                  if index != 3]
        assert others == [outcome for index, outcome
                          in enumerate(outcomes(serial_result))
                          if index != 3]
        counts = result.counts()
        assert counts.quarantined == 1
        assert counts.total == COUNT - 1  # excluded from denominators

        state = read_journal(journal)
        record = state.records[3]
        assert record["quarantined"] is True
        assert record["outcome"] == "quarantined"
        assert record["error"]

        # Resume replays the quarantine record instead of retrying the
        # poison fault (no chaos active anymore — the record stands).
        chaos.clear()
        resumed = resume_campaign(journal)
        assert outcomes(resumed) == outcomes(result)
        assert resumed.experiments[3].quarantined


    def test_pooled_lane_poison_fault_is_bisected(self):
        # A lane campaign's shard is a worker's whole share of the
        # window; bisection still isolates the poison fault.
        evaluation = Evaluation(backend="compiled")
        spec = evaluation.spec(FaultModel.BITFLIP, "ffs", 1, COUNT)
        jobspec = CampaignJobSpec.from_evaluation(
            evaluation, spec, faultload_seed=evaluation.seed)
        serial = run_campaign(jobspec)
        chaos.install(ChaosPlan.from_spec(
            "seed=4;worker_crash:index=3:always"))
        result = run_campaign(jobspec, workers=2, max_retries=1)
        assert result.experiments[3].quarantined
        assert [outcome for index, outcome in enumerate(outcomes(result))
                if index != 3] == [outcome for index, outcome
                                   in enumerate(outcomes(serial))
                                   if index != 3]
        assert result.counts().quarantined == 1


# ---------------------------------------------------------------------------
# journal integrity: torn writes, bit-rot, fsck
# ---------------------------------------------------------------------------
class TestJournalIntegrity:
    def test_torn_write_leaves_recoverable_tail(self, jobspec,
                                                serial_result, tmp_path):
        journal = str(tmp_path / "torn.jsonl")
        chaos.install(ChaosPlan.from_spec("seed=1;torn_write:index=2"))
        with pytest.raises(ChaosError):
            run_campaign(jobspec, journal=journal)
        scan = scan_journal(journal)
        assert scan.verdict() == "torn-tail"
        # The crash signature is recoverable without repair: rerun
        # completes and tallies exactly like the undisturbed run.
        result = run_campaign(jobspec, journal=journal)
        assert outcomes(result) == outcomes(serial_result)
        assert scan_journal(journal).verdict() == "clean"

    def test_corrupt_record_is_interior_damage(self, jobspec,
                                               serial_result, tmp_path):
        journal = str(tmp_path / "rot.jsonl")
        chaos.install(ChaosPlan.from_spec(
            "seed=1;corrupt_record:index=2"))
        run_campaign(jobspec, journal=journal)
        chaos.clear()
        scan = scan_journal(journal)
        assert scan.verdict() == "corrupt"
        assert [issue.kind for issue in scan.interior] == ["corrupt"]
        # Reading refuses with a diagnosis instead of resuming over
        # provably damaged history.
        with pytest.raises(JournalError, match="fsck"):
            read_journal(journal)
        # Repair truncates to the verifiable prefix; the dropped
        # experiments simply re-run.
        _scan, dropped = repair_journal(journal)
        assert dropped > 0
        assert scan_journal(journal).verdict() == "clean"
        result = run_campaign(jobspec, journal=journal)
        assert outcomes(result) == outcomes(serial_result)

        # A line whose CRC was stripped is just as unverifiable.
        with open(journal, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        unsealed = json.loads(lines[2])
        del unsealed["crc"]
        lines[2] = json.dumps(unsealed, sort_keys=True)
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        scan = scan_journal(journal)
        assert scan.verdict() == "corrupt"
        assert [(issue.line_no, issue.kind) for issue in scan.interior] \
            == [(3, "corrupt")]
        with pytest.raises(JournalError, match="fsck"):
            read_journal(journal)

    def test_fsck_is_clean_on_undisturbed_journal(self, jobspec,
                                                  tmp_path):
        journal = str(tmp_path / "clean.jsonl")
        run_campaign(jobspec, journal=journal)
        scan = scan_journal(journal)
        assert scan.verdict() == "clean"
        assert scan.checked == scan.lines


# ---------------------------------------------------------------------------
# graceful interruption
# ---------------------------------------------------------------------------
class TestInterrupt:
    def test_sigint_drains_journals_and_resumes(self, jobspec,
                                                serial_result, tmp_path):
        journal = str(tmp_path / "interrupted.jsonl")
        fired = []

        def interrupt_midway(snapshot):
            if snapshot.completed >= 3 and not fired:
                fired.append(True)
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(CampaignInterrupted):
            run_campaign(jobspec, journal=journal,
                         progress=interrupt_midway)
        state = read_journal(journal)
        assert state.stop is not None
        assert state.stop["reason"] == "interrupted"
        done = len(state.done_indices(COUNT))
        assert 3 <= done < COUNT  # drained, then stopped
        assert scan_journal(journal).verdict() == "clean"

        resumed = resume_campaign(journal)
        assert outcomes(resumed) == outcomes(serial_result)


# ---------------------------------------------------------------------------
# compiled-backend degradation
# ---------------------------------------------------------------------------
def compiled_injections():
    metric = REGISTRY.get("injections_total")
    return sum(value for labels, value in metric.series().items()
               if dict(labels).get("sim_backend") == "compiled")


def phase_samples(phase, backend):
    return REGISTRY.get("campaign_phase_seconds").count(
        phase=phase, sim_backend=backend)


class TestCompileFallback:
    def test_compile_fail_degrades_to_reference(self, jobspec,
                                                serial_result):
        import dataclasses
        chaos.install(ChaosPlan.from_spec("seed=6;compile_fail"))
        fallbacks_before = counter_total("emu_backend_fallbacks_total")
        compiled_before = compiled_injections()
        compiled_phases = {phase: phase_samples(phase, "compiled")
                           for phase in ("golden", "experiments",
                                         "aggregate")}
        reference_phases = {phase: phase_samples(phase, "reference")
                            for phase in compiled_phases}
        result = run_campaign(dataclasses.replace(jobspec,
                                                  backend="compiled"))
        assert counter_total("emu_backend_fallbacks_total") \
            > fallbacks_before
        assert outcomes(result) == outcomes(serial_result)
        # Degraded before its first experiment: every injection is
        # labelled with the backend that ran it, and so is every phase
        # that closed after the degradation.
        assert compiled_injections() == compiled_before
        for phase in ("golden", "experiments", "aggregate"):
            assert phase_samples(phase, "compiled") == \
                compiled_phases[phase]
            assert phase_samples(phase, "reference") > \
                reference_phases[phase]


# ---------------------------------------------------------------------------
# reaping: terminate -> kill escalation
# ---------------------------------------------------------------------------
def _ignore_sigterm_forever():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(0.05)


@needs_fork
def test_reap_escalates_to_sigkill():
    from repro.runtime.scheduler import _Worker

    ctx = multiprocessing.get_context("fork")
    process = ctx.Process(target=_ignore_sigterm_forever, daemon=True)
    process.start()
    conn, child_conn = ctx.Pipe()
    child_conn.close()
    handle = object.__new__(_Worker)
    handle.process = process
    handle.conn = conn
    try:
        _Worker.reap(handle, timeout=0.2)
        assert not process.is_alive()
    finally:
        if process.is_alive():
            process.kill()
            process.join(1.0)
