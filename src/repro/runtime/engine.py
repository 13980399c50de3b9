"""Campaign execution engine: the public entry points of the runtime.

:func:`run_campaign` takes a :class:`~repro.runtime.jobspec.CampaignJobSpec`
and returns the very same :class:`~repro.core.campaign.CampaignResult`
the serial ``FadesCampaign.run`` path produces, whatever the execution
strategy:

* ``workers=0`` — in-process, one experiment after another (still gains
  journaling and metrics);
* ``workers>=1`` — a multiprocessing pool; each worker rebuilds the
  campaign from the job spec, so no simulator state crosses process
  boundaries.

With ``journal=<path>`` every experiment record is streamed to an
append-only JSONL file; re-running the same campaign (or calling
:func:`resume_campaign` on the journal alone) skips every fault index
that already has a record.  The determinism contract (see
:mod:`repro.runtime.jobspec`) makes the two interchangeable: a resumed,
sharded campaign tallies exactly like an uninterrupted serial one.
"""

from __future__ import annotations

import hashlib
import json
import signal
import threading
import traceback
from typing import Dict, List, Optional, Union

from ..core import generate_faultload, pool_size
from ..core.campaign import CampaignResult
from ..core.classify import Outcome
from ..errors import (CampaignInterrupted, JournalError,
                      ObservabilityError)
from ..core.faults import Fault
from ..faultload import (FaultStream, SequentialController, StopDecision,
                         summarize_strata, tally_prefix)
from ..obs import metrics as obs_metrics
from ..obs.alerts import AlertRule
from ..obs.logsetup import get_logger
from ..obs.timeseries import DEFAULT_INTERVAL_S
from ..obs.tracing import PARENT_TID, TRACER, TraceWriter, span
from .jobspec import (CampaignJobSpec, JobRunner, build_campaign,
                      result_from_record)
from .journal import JournalWriter, check_compatible, read_journal
from .liveobs import CampaignObservability
from .metrics import CampaignMetrics, ProgressCallback
from .scheduler import WorkerPool, plan_shards

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
                 shard_size: Optional[int] = None,
                 max_retries: int = 2,
                 trace: Union[None, bool, str] = None,
                 shard_timeout: Optional[float] = None,
                 serve_obs: Optional[str] = None,
                 alert_rules: Optional[List[AlertRule]] = None,
                 sample_interval: float = DEFAULT_INTERVAL_S
                 ) -> CampaignResult:
    """Execute one experiment class; see the module docstring.

    ``trace`` opts into span tracing: a path writes a fresh
    Chrome/Perfetto trace file there; ``True`` appends to the journal's
    ``.trace`` sidecar (requires ``journal``), which is how worker span
    streams survive crashes and extend across resumes.
    ``shard_timeout`` pins the watchdog deadline for parallel shards
    (seconds of worker silence); by default the scheduler derives one
    from observed experiment times.

    ``serve_obs`` (``[HOST:]PORT``) starts the live HTTP exporter for
    the campaign's lifetime; ``alert_rules`` replaces the built-in
    alert rule set; ``sample_interval`` throttles the time-series
    sampler (samples persist to ``<journal>.tsdb`` when journaling).
    """
    trace_writer: Optional[TraceWriter] = None
    if trace:
        if trace is True:
            if journal is None:
                raise ObservabilityError(
                    "sidecar tracing (trace=True) needs a journal path")
            path, append = journal + ".trace", True
        else:
            path, append = str(trace), False
        TRACER.reset(enabled=True, tid=PARENT_TID)
        trace_writer = TraceWriter(path, append=append)
    try:
        with span("campaign", label=jobspec.display_label(),
                  workers=workers):
            return _execute(jobspec, workers, journal, progress,
                            shard_size, max_retries, trace_writer,
                            shard_timeout, serve_obs=serve_obs,
                            alert_rules=alert_rules,
                            sample_interval=sample_interval)
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
             shard_size: Optional[int], max_retries: int,
             trace_writer: Optional[TraceWriter],
             shard_timeout: Optional[float] = None,
             serve_obs: Optional[str] = None,
             alert_rules: Optional[List[AlertRule]] = None,
             sample_interval: float = DEFAULT_INTERVAL_S
             ) -> CampaignResult:
    metrics = CampaignMetrics(progress=progress, backend=jobspec.backend)
    budget = jobspec.effective_budget()
    cycles = jobspec.spec.workload_cycles
    with metrics.phase("setup"):
        campaign = build_campaign(jobspec)
        stream: Optional[FaultStream] = None
        if jobspec.adaptive:
            # Faults materialise window by window (stream.ensure); the
            # list below grows in place as the campaign extends.
            stream = FaultStream(
                jobspec.spec, campaign.locmap,
                seed=jobspec.effective_faultload_seed(),
                routed_nets=campaign.impl.routing.is_routed,
                strategy=jobspec.strategy)
            faults: List[Fault] = stream.faults
        else:
            faults = generate_faultload(
                jobspec.spec, campaign.locmap,
                seed=jobspec.effective_faultload_seed(),
                routed_nets=campaign.impl.routing.is_routed)
        pool = pool_size(jobspec.spec, campaign.locmap)

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
        golden = _golden_with_cache(jobspec, campaign, cycles)

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
        take([_quarantined_record(index, reason)])

    # Static fault analysis: journal provably-Silent faults directly and
    # defer equivalence-class members to their representative's record.
    # The plan is a pure function of the job spec (the faultload is
    # seed-derived), so resumed campaigns recompute the identical plan
    # and skip whatever of it is already journaled.  Under early
    # stopping the plan is recomputed per window, with the window's
    # local indices translated onto the campaign's.
    collapsed: Dict[int, int] = {}

    def prepare_window(start: int, end: int) -> List[int]:
        """Materialise, prune and plan one window; pending indices."""
        if stream is not None and len(stream) < end:
            with metrics.phase("plan"):
                stream.ensure(end)
        if jobspec.prune_silent:
            with metrics.phase("prune"):
                plan = campaign.static_plan(faults[start:end], cycles)
                for member, representative in plan.collapsed.items():
                    collapsed[start + member] = start + representative
                take([_pruned_record(start + index)
                      for index in sorted(plan.pruned)
                      if start + index not in records])
        return [index for index in range(start, end)
                if index not in records and index not in collapsed]

    def attribute(start: int, end: int) -> None:
        """Collapsed-fault attribution: every representative of the
        drained window has a record by now (journaled earlier or
        emulated above)."""
        take([_collapsed_record(member, representative,
                                records[representative])
              for member, representative in sorted(collapsed.items())
              if start <= member < end and member not in records])

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

    executed = 0  # end of the last window handed to the executor
    try:
        live = CampaignObservability(
            label=jobspec.display_label(), metrics=metrics,
            journal=journal, writer=writer, serve_obs=serve_obs,
            alert_rules=alert_rules, replayed_alerts=replayed_alerts,
            sample_interval=sample_interval, workers=max(0, workers))
        if workers <= 0:
            runner = JobRunner(jobspec, campaign=campaign,
                               faults=faults, pool=pool)
            # Chunk at the backend's batch size so the compiled
            # backend fills whole lane batches (reference: size 1).
            size = max(1, runner.batch_size())
            start = 0
            for end in checkpoints:
                pending = prepare_window(start, end)
                with metrics.phase("experiments"):
                    for offset in range(0, len(pending), size):
                        if interrupt.is_set():
                            raise CampaignInterrupted(
                                "campaign interrupted between "
                                "experiments")
                        _run_chunk(runner, pending[offset:offset + size],
                                   max_retries, take, quarantine)
                    attribute(start, end)
                executed = end
                if check_stop(end):
                    break
                start = end
        else:
            worker_pool = WorkerPool(
                jobspec, workers=workers, max_retries=max_retries,
                trace=trace_writer is not None,
                shard_timeout=shard_timeout,
                on_quarantine=quarantine)
            on_spans = (None if trace_writer is None else
                        lambda _worker_id, spans:
                        trace_writer.write(spans))
            bounds = [0] + checkpoints
            # Window 0 is prepared eagerly, outside the experiments
            # phase, so the fixed-budget path keeps its historical
            # setup/golden/prune/experiments phase sequence; later
            # windows are prepared at the batch barrier inside the
            # experiments phase.
            first_pending = prepare_window(bounds[0], bounds[1])

            def batches():
                """Shard-batch stream; each pull is a batch barrier.

                The worker pool fully drains window *w* before pulling
                window *w+1*, so the attribution and stopping check at
                the top of each iteration always see a complete record
                prefix.
                """
                nonlocal executed
                next_shard_id = 0
                for window in range(len(checkpoints)):
                    start, end = bounds[window], bounds[window + 1]
                    if window > 0:
                        attribute(bounds[window - 1], start)
                        if check_stop(start):
                            return
                        pending = prepare_window(start, end)
                    else:
                        pending = first_pending
                    shards = plan_shards(pending, workers, shard_size,
                                         first_id=next_shard_id)
                    next_shard_id += len(shards)
                    executed = end
                    yield shards

            with metrics.phase("experiments"):
                worker_pool.run_batches(
                    batches(), lambda _shard, batch: take(batch),
                    on_spans=on_spans,
                    should_stop=interrupt.is_set)
                if executed:
                    attribute(bounds[checkpoints.index(executed)],
                              executed)
                check_stop(executed)

        final = stop_decision.n if stop_decision is not None else budget
        if controller is not None:
            metrics.resolve_total(final)
            saved = budget - final
            if saved > 0 and stop_decision is not None:
                _SAVED.inc(saved, reason=stop_decision.reason)

        with metrics.phase("aggregate"):
            result = _assemble(jobspec, golden, faults[:final], records)
            if stop_decision is not None:
                result.stop = stop_decision.to_dict()
            if stream is not None:
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
    except CampaignInterrupted:
        # Every drained in-flight record is already journaled; the stop
        # line marks the interruption so resume (and humans reading the
        # journal) can tell a Ctrl-C from a crash.
        if writer is not None:
            writer.append_interrupt()
        raise
    finally:
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
                    trace: Union[None, bool, str] = None,
                    shard_timeout: Optional[float] = None,
                    serve_obs: Optional[str] = None,
                    alert_rules: Optional[List[AlertRule]] = None,
                    sample_interval: float = DEFAULT_INTERVAL_S
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
                        serve_obs=serve_obs, alert_rules=alert_rules,
                        sample_interval=sample_interval)


def _run_chunk(runner: JobRunner, chunk: List[int], max_retries: int,
               take, quarantine) -> None:
    """In-process mirror of the scheduler's retry-then-quarantine path.

    A chunk that raises falls back to per-index execution with the same
    retry budget workers get, so a poison fault is isolated and excised
    instead of aborting — serial and parallel campaigns survive the
    same faultloads.
    """
    try:
        take(runner.run_indices(chunk))
        return
    except CampaignInterrupted:
        raise
    except Exception:
        log.warning("chunk of %d experiments raised; isolating "
                    "per-index", len(chunk))
    for index in chunk:
        record: Optional[Dict] = None
        reason = ""
        for _attempt in range(max_retries + 1):
            try:
                record = runner.run_index(index)
                break
            except CampaignInterrupted:
                raise
            except Exception:
                reason = traceback.format_exc()
        if record is None:
            quarantine(index, reason)
        else:
            take([record])


def _golden_with_cache(jobspec: CampaignJobSpec, campaign, cycles: int):
    """Golden run, served from the opt-in on-disk cache when possible.

    Keyed by the full job-spec identity plus the run length, so any
    change to the design, workload, seed or backend misses.
    Reference-backend campaigns using golden checkpoints
    (``checkpoint_interval``) always simulate: the disk entry carries
    no device snapshots, and serving it would silently drop the
    fast-forward optimisation.  (Compiled golden runs never store
    checkpoints, so they always qualify.)
    """
    from ..hdl.trace import Trace
    from . import diskcache

    cache = diskcache.cache_dir()
    if cache is None or (campaign.backend == "reference"
                         and campaign.checkpoint_interval):
        return campaign.golden_run(cycles)
    key = hashlib.sha1(json.dumps(
        [jobspec.to_dict(), cycles], sort_keys=True,
        default=str).encode("utf-8")).hexdigest()
    path = cache / "golden" / f"{key}.json"
    blob = diskcache.load_json(path)
    if isinstance(blob, dict):
        try:
            trace = Trace(tuple(blob["output_names"]))
            trace.samples = [tuple(sample) for sample in blob["samples"]]
            trace.final_state = diskcache.tuplify(blob["final_state"])
            trace.cycles = int(blob["cycles"])
        except (KeyError, TypeError) as error:
            log.warning("golden cache entry %s malformed (%s); "
                        "re-simulating", path, error)
        else:
            campaign._golden[campaign._golden_key(cycles)] = trace
            return trace
    trace = campaign.golden_run(cycles)
    diskcache.store_json(path, {
        "output_names": list(trace.output_names),
        "samples": [list(sample) for sample in trace.samples],
        "final_state": trace.final_state,
        "cycles": trace.cycles,
    })
    return trace


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
    # Mean emulated time covers the experiments that actually ran —
    # statically resolved and quarantined records carry zero cost by
    # construction (the board never completed them), matching the
    # serial path's accounting.
    emulated = [experiment for experiment in result.experiments
                if not experiment.pruned
                and not experiment.quarantined
                and experiment.collapsed_from is None]
    result.total_emulation_s = sum(
        experiment.cost.total_s for experiment in emulated)
    if emulated:
        result.mean_emulation_s = (result.total_emulation_s
                                   / len(emulated))
    return result


def _zero_cost() -> Dict:
    return {"locate_s": 0.0, "transfer_s": 0.0, "workload_s": 0.0,
            "overhead_s": 0.0, "transactions": 0}


def _pruned_record(index: int) -> Dict:
    """Journal record for a fault the static analysis proved Silent."""
    return {"index": index, "outcome": Outcome.SILENT.value,
            "first_divergence": None, "cost": _zero_cost(),
            "pruned": True}


def _collapsed_record(index: int, representative: int,
                      rep_record: Dict) -> Dict:
    """Journal record attributing a representative's outcome."""
    record = {"index": index, "outcome": rep_record["outcome"],
              "first_divergence": rep_record.get("first_divergence"),
              "cost": _zero_cost(), "collapsed_from": representative}
    if rep_record.get("quarantined"):
        # A quarantined representative carries no outcome evidence to
        # attribute; its class members inherit the exclusion.
        record["quarantined"] = True
        record["error"] = rep_record.get(
            "error", f"representative {representative} quarantined")
    return record


def _fingerprint(reason: str) -> str:
    """Compact, journal-friendly identity of a failure traceback."""
    lines = [line.strip() for line in reason.strip().splitlines()
             if line.strip()]
    tail = lines[-1] if lines else "unknown failure"
    return tail[:240]


def _quarantined_record(index: int, reason: str) -> Dict:
    """Journal record for a poison fault excised by the runtime."""
    return {"index": index, "outcome": Outcome.QUARANTINED.value,
            "first_divergence": None, "cost": _zero_cost(),
            "quarantined": True, "error": _fingerprint(reason)}
