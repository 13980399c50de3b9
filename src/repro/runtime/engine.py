"""Campaign execution engine: the public entry points of the runtime.

:func:`run_campaign` runs every experiment class of either tool: it
takes a :class:`~repro.runtime.jobspec.CampaignJobSpec` and returns the
same :class:`~repro.core.campaign.CampaignResult` whatever the execution
strategy:

* ``workers=0`` — in process;
* ``workers>=1`` — a pool of worker processes forked from this one
  after set-up, each running on the campaign set-up built (a platform
  without the ``fork`` start method is refused before set-up).

Set-up builds the campaign once, from the job spec, unless it is handed
in already built (``campaign=``), and then its
:class:`~repro.runtime.jobspec.JobRunner`, which has the campaign draw
the faultload.  :func:`_execute` runs one loop over the checkpoint
windows (prune → run → check the stopping rule), and the executor
takes its shards from one
:class:`~repro.runtime.scheduler.ShardQueue`, which owns the retry,
bisection and quarantine policy for both (see
:mod:`repro.runtime.scheduler`).
:attr:`~repro.core.campaign.Campaign.on_lanes` sets the shard width.
Nothing here depends on the tool: the job spec names it, and
:func:`~repro.runtime.jobspec.build_campaign` builds its campaign.

With ``journal=<path>`` every experiment record is streamed to an
append-only JSONL file; re-running the same campaign (or calling
:func:`resume_campaign` on the journal alone) skips every fault index
that already has a record.  The determinism contract (see
:mod:`repro.runtime.jobspec`) makes the two interchangeable: a resumed,
sharded campaign tallies exactly like an uninterrupted serial one.
"""

from __future__ import annotations

import signal
import threading
from typing import Dict, List, Optional, Union

from ..core.campaign import Campaign, CampaignResult
from ..errors import CampaignInterrupted, JournalError
from ..core.faults import Fault
from ..faultload import (SequentialController, StopDecision,
                         summarize_strata, tally_prefix)
from ..obs import metrics as obs_metrics
from ..obs.alerts import AlertRule
from ..obs.logsetup import get_logger
from ..obs.tracing import PARENT_TID, TRACER, TraceWriter, span
from .jobspec import (CampaignJobSpec, JobRunner, build_campaign,
                      pruned_record, quarantined_record, result_from_record)
from .journal import JournalWriter, check_compatible, read_journal
from .liveobs import CampaignObservability
from .metrics import CampaignMetrics, ProgressCallback
from .scheduler import (InProcessExecutor, ShardQueue, WorkerPool,
                        fork_context)

log = get_logger("repro.runtime.engine")

_SAVED = obs_metrics.counter(
    "experiments_saved_total",
    "Experiments the statistical planner never emulated, by reason.")
_QUARANTINED = obs_metrics.counter(
    "faults_quarantined_total",
    "Poison faults excised from campaigns after bisection.")


def run_campaign(jobspec: CampaignJobSpec, workers: int = 0,
                 journal: Optional[str] = None,
                 progress: Optional[ProgressCallback] = None,
                 max_retries: int = 2,
                 trace: Optional[str] = None,
                 shard_timeout: Optional[float] = None,
                 serve_obs: Optional[str] = None,
                 alert_rules: Optional[List[AlertRule]] = None,
                 campaign: Optional[Campaign] = None
                 ) -> CampaignResult:
    """Execute one experiment class; see the module docstring.

    ``trace`` (a path) opts into span tracing: a Chrome/Perfetto trace
    file is written there, worker spans streamed in shard by shard.
    ``shard_timeout`` pins the watchdog deadline for parallel shards
    (seconds of worker silence); by default the scheduler derives one
    from observed experiment times.

    ``serve_obs`` (``[HOST:]PORT``) starts the live HTTP exporter for
    the campaign's lifetime; ``alert_rules`` replaces the built-in
    alert rule set.  Time-series samples persist to
    ``<journal>.tsdb`` when journaling.

    ``campaign`` is an already-built campaign of the job spec's tool,
    design, seed and backend to run on, in process or in the pool's
    forked workers; without it, set-up builds one from the job spec.
    """
    if workers > 0:
        fork_context()  # refuse a pool before anything is built
    trace_writer: Optional[TraceWriter] = None
    if trace is not None:
        TRACER.reset(enabled=True, tid=PARENT_TID)
        trace_writer = TraceWriter(trace)
    try:
        with span("campaign", label=jobspec.display_label(),
                  workers=workers):
            return _execute(jobspec, workers, journal, progress,
                            max_retries, trace_writer,
                            shard_timeout, serve_obs=serve_obs,
                            alert_rules=alert_rules, campaign=campaign)
    finally:
        if trace_writer is not None:
            # Parent spans (campaign root + engine phases) land last;
            # worker spans were streamed shard by shard as they arrived.
            trace_writer.write(TRACER.drain())
            trace_writer.close()
            TRACER.disable()


def _execute(jobspec: CampaignJobSpec, workers: int,
             journal: Optional[str],
             progress: Optional[ProgressCallback],
             max_retries: int,
             trace_writer: Optional[TraceWriter],
             shard_timeout: Optional[float] = None,
             serve_obs: Optional[str] = None,
             alert_rules: Optional[List[AlertRule]] = None,
             campaign: Optional[Campaign] = None
             ) -> CampaignResult:
    metrics = CampaignMetrics(progress=progress)
    budget = jobspec.effective_budget()
    cycles = jobspec.spec.workload_cycles
    with metrics.phase("setup"):
        if campaign is None:
            campaign = build_campaign(jobspec)
        metrics.backend = campaign.backend
        runner = JobRunner(jobspec, campaign)
        # Adaptive campaigns materialise faults window by window
        # (stream.ensure); the list below grows in place as the campaign
        # extends.  A fixed budget is drawn whole, by the runner.
        stream = runner.stream
        faults: List[Fault] = stream.faults

        records: Dict[int, Dict] = {}
        writer: Optional[JournalWriter] = None
        replayed_alerts: List[Dict] = []
        if journal is not None:
            state = read_journal(journal)
            check_compatible(state, jobspec, journal)
            records.update(state.done_indices(budget))
            replayed_alerts = state.alerts
            writer = JournalWriter(journal, jobspec, state=state)

    # The dispatch schedule: windows between stopping-rule checkpoints.
    # A fixed-budget campaign is the degenerate single-window schedule,
    # which reduces this function to its historical one-shot behaviour.
    controller: Optional[SequentialController] = None
    if jobspec.epsilon is not None:
        with metrics.phase("plan"):
            controller = SequentialController(
                jobspec.epsilon, budget, confidence=jobspec.confidence)
    checkpoints = controller.checkpoints() if controller is not None \
        else [budget]

    metrics.set_total(budget, replayed=records.values(),
                      exact=controller is None)

    with metrics.phase("golden"):
        # Experiments that step the reference device fast-forward from
        # the golden run's checkpoints, so it runs first for them.  On
        # lanes (decided here, where the design compiles) the first lane
        # pass caches the golden trace from its lane 0 instead (read
        # back at aggregation).
        lanes = 0
        if campaign.on_lanes:
            from ..emu import lane_width
            lanes = lane_width() - 1
        else:
            campaign.golden_run(cycles)
        # The first on_lanes call degrades a campaign whose design does
        # not compile; this phase and the later ones carry that backend.
        metrics.backend = campaign.backend

    # Bound below, before any experiment runs; None only so the take /
    # check_stop closures resolve while the coordinator is being built.
    live: Optional[CampaignObservability] = None

    def take(batch: List[Dict]) -> None:
        if live is not None:
            # Pre-batch poll: runtime-health counters (watchdog kills,
            # retries) move between batches on the parent's event loop,
            # so alerts about them fire before this batch's progress
            # callbacks observe the registry.
            live.poll()
        for record in batch:
            records[record["index"]] = record
            if writer is not None:
                writer.append_record(record)
            metrics.record(record)
        if live is not None:
            live.poll()

    def quarantine(index: int, reason: str) -> None:
        """Journal a poison fault the runtime excised (see scheduler)."""
        _QUARANTINED.inc()
        take([quarantined_record(index, reason)])

    # Static fault analysis: journal provably-Silent faults directly.
    # The plan is a pure function of the job spec (the faultload is
    # seed-derived), so resumed campaigns recompute the identical plan
    # and skip whatever of it is already journaled.  Under early
    # stopping the plan is recomputed per window, with the window's
    # local indices translated onto the campaign's.
    def prune_window(start: int, end: int) -> List[int]:
        """Materialise and prune one window; pending indices."""
        if len(stream) < end:
            with metrics.phase("plan"):
                stream.ensure(end)
        if jobspec.prune_silent:
            with metrics.phase("prune"):
                pruned = campaign.static_plan(faults[start:end], cycles)
                take([pruned_record(start + index)
                      for index in sorted(pruned)
                      if start + index not in records])
        return [index for index in range(start, end)
                if index not in records]

    stop_decision: Optional[StopDecision] = None

    def check_stop(n: int) -> bool:
        """Evaluate the stopping rule over the complete prefix 0..n-1.

        Called only at batch barriers, so the tally — and therefore the
        stopping point — is identical for serial, sharded and resumed
        executions of the same job spec.
        """
        nonlocal stop_decision
        if live is not None:
            # The barrier is the live layer's clock: force a sample so
            # every checkpoint lands in the series and the alert rules
            # run even when the throttle would have skipped it.
            live.poll(force=True)
        if controller is None or stop_decision is not None:
            return stop_decision is not None
        counts = tally_prefix(records, n)
        if counts is None:
            raise JournalError(
                f"stopping rule consulted on an incomplete prefix "
                f"(n={n})")
        decision = controller.check(counts, n)
        if decision.stop:
            stop_decision = decision
        return decision.stop

    # Graceful shutdown: the first SIGINT/SIGTERM asks the executor to
    # drain in-flight work and journal an interrupted stop line; a
    # second one forces the default behaviour.  Handlers can only live
    # on the main thread; elsewhere the campaign simply isn't
    # interruptible this way.
    interrupt = threading.Event()
    previous_handlers: Dict[int, object] = {}

    def _on_signal(signum, _frame) -> None:
        if interrupt.is_set():
            raise KeyboardInterrupt
        interrupt.set()
        log.warning(
            "received %s: draining in-flight shards, then stopping "
            "(repeat to force)", signal.Signals(signum).name)

    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, _on_signal)

    queue = ShardQueue(max_retries, quarantine, interrupt.is_set)
    try:
        live = CampaignObservability(
            label=jobspec.display_label(), metrics=metrics,
            journal=journal, writer=writer, serve_obs=serve_obs,
            alert_rules=alert_rules, replayed_alerts=replayed_alerts,
            workers=max(0, workers))
        executor: Union[InProcessExecutor, WorkerPool]
        if workers <= 0:
            executor = InProcessExecutor(runner, queue, lanes)
        else:
            executor = WorkerPool(
                runner, workers, queue, shard_timeout=shard_timeout,
                on_spans=None if trace_writer is None
                else trace_writer.write, lanes=lanes)
        try:
            # Each window is drained completely before its stopping
            # check, so the check sees a complete record prefix.
            # The phases tile the campaign span: barrier checks and the
            # pool's shutdown are experiments, closing down aggregation.
            start = 0
            for end in checkpoints:
                pending = prune_window(start, end)
                with metrics.phase("experiments"):
                    executor.run(pending, take)
                    if check_stop(end):
                        break
                start = end
        finally:
            with metrics.phase("experiments"):
                executor.close()

        final = stop_decision.n if stop_decision is not None else budget
        if controller is not None:
            metrics.resolve_total(final)
            saved = budget - final
            if saved > 0 and stop_decision is not None:
                _SAVED.inc(saved, reason=stop_decision.reason)

        with metrics.phase("aggregate"):
            # From the cache, unless no lane batch ran in this process
            # (every fault resolved statically, run on the reference
            # path or sent to pool workers): then a one-lane pass.
            result = _assemble(jobspec, campaign.golden_run(cycles),
                               faults[:final], records)
            if stop_decision is not None:
                result.stop = stop_decision.to_dict()
            if jobspec.adaptive:
                result.strata = summarize_strata(
                    stream.tags[:final],
                    {index: record["outcome"]
                     for index, record in records.items()},
                    confidence=jobspec.confidence)
            if writer is not None:
                if stop_decision is not None:
                    writer.append_stop(stop_decision.to_dict())
                writer.append_summary(result.counts(),
                                      result.total_emulation_s,
                                      metrics.snapshot().wall_s)
            # Freeing a design built above takes milliseconds: inside
            # the phase, not uncovered when the frame returns.
            del campaign, runner, stream, executor
    except CampaignInterrupted:
        # Every drained in-flight record is already journaled; the stop
        # line marks the interruption so resume (and humans reading the
        # journal) can tell a Ctrl-C from a crash.
        if writer is not None:
            writer.append_interrupt()
        raise
    finally:
        with metrics.phase("aggregate"):
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
            if live is not None:
                # Before the journal closes: the final forced sample may
                # still journal an alert firing.
                live.close()
            if writer is not None:
                writer.close()
    metrics.finish()
    return result


def resume_campaign(journal: str, workers: int = 0,
                    progress: Optional[ProgressCallback] = None,
                    max_retries: int = 2,
                    trace: Optional[str] = None,
                    shard_timeout: Optional[float] = None,
                    serve_obs: Optional[str] = None,
                    alert_rules: Optional[List[AlertRule]] = None
                    ) -> CampaignResult:
    """Finish a journaled campaign from its journal alone.

    Already-journaled fault indices are skipped — including
    ``Quarantined`` records, which replay as-is rather than re-running
    the faults that earned them — and the remaining ones run under the
    job spec recorded in the journal header.
    """
    state = read_journal(journal)
    if state.header is None:
        raise JournalError(
            f"{journal}: not a campaign journal (no header line)")
    return run_campaign(state.jobspec, workers=workers, journal=journal,
                        progress=progress, max_retries=max_retries,
                        trace=trace, shard_timeout=shard_timeout,
                        serve_obs=serve_obs, alert_rules=alert_rules)


def _assemble(jobspec: CampaignJobSpec, golden, faults: List[Fault],
              records: Dict[int, Dict]) -> CampaignResult:
    """Order-independent aggregation into the serial-path result type."""
    missing = [index for index in range(len(faults))
               if index not in records]
    if missing:
        raise JournalError(
            f"campaign incomplete: {len(missing)} experiments without "
            f"records (first missing index {missing[0]})")
    result = CampaignResult(spec_label=jobspec.display_label(),
                            golden=golden)
    for index, fault in enumerate(faults):
        result.experiments.append(
            result_from_record(fault, records[index]))
    return result
