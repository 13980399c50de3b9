"""Shard planning and the multiprocessing worker pool.

The scheduler splits a campaign's pending fault indices into
:class:`Shard` units and drives them through worker processes.  Design
points:

* **No shared simulator state.**  Workers receive only the picklable
  :class:`~repro.runtime.jobspec.CampaignJobSpec` and rebuild their own
  campaign; shards carry bare fault indices.
* **Parent-side assignment.**  Each worker holds at most one shard at a
  time, so when a worker dies the parent knows *exactly* which shard was
  in flight — no claim/ack protocol, no lost-message races.
* **One pipe per worker, no shared locks.**  Parent and worker talk
  over a private duplex :func:`multiprocessing.Pipe`.  A shared result
  ``Queue`` would serialise every worker's messages through one
  cross-process write lock held by a background feeder thread — a
  worker killed mid-send would leave that lock acquired forever and
  deadlock the survivors.  With a pipe, messages are sent synchronously
  from the worker's main thread: a crash inside experiment code can
  never interrupt a send, and a poisoned channel can only ever be the
  dead worker's own.
* **Watchdog deadlines.**  Workers heartbeat over their pipe while a
  shard runs; a worker whose last sign of life is older than the shard
  deadline (explicit ``shard_timeout``, or an EWMA of observed
  per-experiment time with a generous floor) is killed and its shard
  re-queued — a *hung* worker can no longer stall the campaign forever.
* **Retry with backoff, then quarantine.**  A shard whose worker died,
  hung or raised goes back on the backlog (exponential backoff) and a
  replacement worker is spawned.  A shard that fails past
  ``max_retries`` is *bisected* rather than aborting the campaign:
  halves re-enter the backlog with fresh retry budgets until the
  offending fault index is isolated, at which point it is handed to
  ``on_quarantine`` and the rest of the campaign proceeds.  Without a
  quarantine callback the historical behaviour — abort with
  :class:`~repro.errors.SchedulerError` — is preserved.
* **Chaos instrumentation.**  Workers re-install the parent's
  :mod:`repro.chaos` plan and honour the ``worker_crash`` /
  ``worker_hang`` / ``slow_result`` fault points, so every recovery
  path above is testable deterministically.

Shards are deliberately small (see :func:`plan_shards`): results stream
back to the journal at shard granularity, so smaller shards mean finer
crash-safety and better load balance at a modest queueing cost.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from multiprocessing import connection as mp_connection
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from .. import chaos
from ..errors import CampaignInterrupted, SchedulerError
from ..obs import metrics as obs_metrics
from ..obs.logsetup import get_logger
from ..obs.metrics import REGISTRY
from ..obs.tracing import TRACER
from .jobspec import CampaignJobSpec, JobRunner

log = get_logger("repro.runtime.scheduler")

_HANGS = obs_metrics.counter(
    "worker_hangs_total",
    "Hung workers killed by the shard watchdog.")
_SHARD_RETRIES = obs_metrics.counter(
    "shard_retries_total",
    "Shard re-queues after a worker failure, by reason.")
_BISECTIONS = obs_metrics.counter(
    "shard_bisections_total",
    "Retry-exhausted shards split in half to isolate a poison fault.")
_WORKERS_ALIVE = obs_metrics.gauge(
    "campaign_workers_alive",
    "Live worker processes in the current campaign's pool.")

#: Callback fed each worker's drained span batch: (worker_id, events).
SpanCallback = Callable[[int, List[Dict]], None]

#: Callback for an isolated poison fault: (fault index, error fingerprint).
QuarantineCallback = Callable[[int, str], None]

#: Upper bound on shard size: keeps the journal hot even on huge
#: campaigns (a crash loses at most this many in-flight experiments
#: per worker).
MAX_SHARD_SIZE = 16

#: How long the event loop blocks on the worker pipes before checking
#: worker liveness.
_POLL_SECONDS = 0.1

#: How often an idle worker checks whether its parent is still alive
#: (a SIGKILLed parent cannot clean up; orphans must exit on their own).
_ORPHAN_POLL_SECONDS = 5.0

#: Minimum spacing between worker heartbeats while a shard runs.
_BEAT_SECONDS = 0.5

#: Watchdog floor: no shard deadline is ever tighter than this unless
#: an explicit ``shard_timeout`` says so.
_WATCHDOG_FLOOR_S = 30.0

#: Deadline headroom over the EWMA per-experiment estimate.
_WATCHDOG_FACTOR = 8.0

#: EWMA weight of the newest per-experiment time sample.
_EWMA_ALPHA = 0.3

#: Retry backoff: ``base * 2**(attempt-1)`` seconds, capped here.
_BACKOFF_CAP_S = 5.0

#: Exit code of a chaos-injected worker crash (diagnosable post-mortem).
CHAOS_CRASH_EXIT = 121

#: Bisected half-shards draw ids from here: far above any id
#: :func:`plan_shards` can produce, so splits never collide with
#: batches the campaign streams in later.
_BISECT_ID_BASE = 2 ** 32


@dataclass(frozen=True)
class Shard:
    """One schedulable unit: a batch of fault indices."""

    shard_id: int
    indices: Tuple[int, ...]


def plan_shards(indices: Sequence[int], workers: int,
                shard_size: Optional[int] = None,
                first_id: int = 0) -> List[Shard]:
    """Split pending fault indices into shards.

    The default size targets ~4 shards per worker (load balance against
    stragglers) capped at :data:`MAX_SHARD_SIZE` (journal granularity).
    ``first_id`` offsets the shard ids so successive batches of one
    streamed campaign stay uniquely identified.
    """
    if not indices:
        return []
    if shard_size is None:
        per_worker = -(-len(indices) // (max(1, workers) * 4))
        shard_size = max(1, min(MAX_SHARD_SIZE, per_worker))
    shard_size = max(1, shard_size)
    return [Shard(shard_id=first_id + n, indices=tuple(chunk))
            for n, chunk in enumerate(
                indices[start:start + shard_size]
                for start in range(0, len(indices), shard_size))]


def _mp_context():
    """Prefer fork (workers skip re-importing the package); fall back to
    the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _worker_main(worker_id: int, jobspec: CampaignJobSpec, conn,
                 trace: bool = False,
                 chaos_spec: Optional[str] = None) -> None:
    """Worker process body: build one campaign, then drain shards."""
    parent = os.getppid()
    # The parent owns interrupt handling: on Ctrl-C it drains in-flight
    # shards and journals an interrupted stop line, which only works if
    # the terminal's process-group SIGINT doesn't kill the workers first.
    # SIGTERM is the opposite case: under fork the child inherits the
    # parent's graceful-shutdown handler, which would absorb the
    # watchdog's terminate() as a polite stop request a hung worker
    # never gets to honour — reset it so terminate() stays lethal.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    # Under fork the child inherits the parent's tracer events, registry
    # values and chaos fire-counts; reset all three so nothing is
    # double-reported, and give this process its own span-stream id
    # (tid 0 is the parent's).
    TRACER.reset(enabled=trace, tid=worker_id + 1)
    REGISTRY.reset()
    chaos.install(chaos.ChaosPlan.from_spec(chaos_spec)
                  if chaos_spec else None)
    try:
        runner = JobRunner(jobspec)
    except BaseException:
        conn.send(("fatal", worker_id, traceback.format_exc()))
        return
    conn.send(("ready", worker_id))
    last_beat = time.monotonic()

    def beat() -> None:
        # Rate-limited heartbeat, sent from the main thread between
        # experiments (same synchronous-send discipline as results).
        nonlocal last_beat
        now = time.monotonic()
        if now - last_beat >= _BEAT_SECONDS:
            last_beat = now
            try:
                conn.send(("beat", worker_id))
            except (OSError, ValueError):
                pass

    while True:
        while not conn.poll(_ORPHAN_POLL_SECONDS):
            # Reparented (original parent died without cleanup): exit
            # rather than wait forever on a pipe no one will feed.
            if os.getppid() != parent:
                return
        try:
            assignment = conn.recv()
        except (EOFError, OSError):
            return
        if assignment is None:
            return
        shard, attempt = assignment
        for index in shard.indices:
            if chaos.fire("worker_crash", key=index, attempt=attempt):
                os._exit(CHAOS_CRASH_EXIT)
        for index in shard.indices:
            if chaos.fire("worker_hang", key=index, attempt=attempt):
                while True:  # stop making progress until the watchdog
                    time.sleep(_ORPHAN_POLL_SECONDS)
                    if os.getppid() != parent:
                        return  # don't outlive an uncleanly-dead parent
        last_beat = time.monotonic()
        try:
            records = runner.run_indices(shard.indices, progress=beat)
        except BaseException:
            # Observability state of the failed shard is discarded: the
            # shard will re-run in full, so shipping partial spans or
            # counts would double-report after the retry.
            TRACER.reset(enabled=trace, tid=worker_id + 1)
            REGISTRY.reset()
            conn.send(("error", worker_id, shard.shard_id,
                       traceback.format_exc()))
        else:
            chaos.sleep("slow_result", key=shard.shard_id,
                        attempt=attempt)
            spans = TRACER.drain() if trace else []
            metrics_state = REGISTRY.to_state()
            REGISTRY.reset()
            conn.send(("result", worker_id, shard.shard_id,
                       records, spans, metrics_state))


class _Worker:
    """Parent-side handle: process + its private message pipe."""

    def __init__(self, ctx, worker_id: int, jobspec: CampaignJobSpec,
                 trace: bool = False,
                 chaos_spec: Optional[str] = None):
        self.worker_id = worker_id
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.shard: Optional[Shard] = None
        self.ready = False
        self.hung = False
        self.assigned_at = 0.0
        self.last_activity = time.monotonic()
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, jobspec, child_conn, trace, chaos_spec),
            daemon=True)
        self.process.start()
        # The parent must not hold the child's end open, or it would
        # never see EOF after the child exits.
        child_conn.close()

    def assign(self, shard: Shard, attempt: int) -> None:
        self.shard = shard
        self.assigned_at = self.last_activity = time.monotonic()
        self._send((shard, attempt))

    def release(self) -> Optional[Shard]:
        shard, self.shard = self.shard, None
        return shard

    def stop(self) -> None:
        if self.process.is_alive():
            self._send(None)

    def _send(self, obj) -> None:
        try:
            self.conn.send(obj)
        except (OSError, ValueError):
            # Worker died; liveness checking requeues its shard.
            pass

    def reap(self, timeout: float = 2.0) -> None:
        """Join, escalating terminate -> kill: never leak a zombie."""
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        if self.process.is_alive():
            # Ignored SIGTERM (masked signals, a wedged C extension):
            # SIGKILL cannot be ignored.
            self.process.kill()
            self.process.join(timeout)
        self.conn.close()


class WorkerPool:
    """Runs shards of one job spec across worker processes."""

    def __init__(self, jobspec: CampaignJobSpec, workers: int,
                 max_retries: int = 2,
                 trace: bool = False,
                 shard_timeout: Optional[float] = None,
                 backoff_base: float = 0.25,
                 on_quarantine: Optional[QuarantineCallback] = None):
        if workers < 1:
            raise SchedulerError("worker pool needs at least one worker")
        self.jobspec = jobspec
        self.workers = workers
        self.max_retries = max_retries
        self.trace = trace
        self.shard_timeout = shard_timeout
        self.backoff_base = backoff_base
        self.on_quarantine = on_quarantine
        #: EWMA of observed per-experiment wall time (None until the
        #: first shard completes); feeds the watchdog deadline.
        self.ewma_experiment_s: Optional[float] = None

    def deadline_for(self, shard: Shard) -> float:
        """Watchdog deadline for one shard, in seconds of silence."""
        if self.shard_timeout is not None:
            return self.shard_timeout
        if self.ewma_experiment_s is None:
            return _WATCHDOG_FLOOR_S
        return max(_WATCHDOG_FLOOR_S,
                   _WATCHDOG_FACTOR * self.ewma_experiment_s
                   * len(shard.indices))

    def run(self, shards: Sequence[Shard],
            on_records: Callable[[Shard, List[Dict]], None],
            on_spans: Optional[SpanCallback] = None) -> None:
        """Execute every shard, streaming record batches to
        ``on_records`` as workers finish them (arrival order).

        Worker observability ships with each result: span batches go to
        ``on_spans`` (when tracing), metrics snapshots merge into this
        process's registry.
        """
        self.run_batches(iter([list(shards)]), on_records, on_spans)

    def run_batches(self, batches: Iterable[Sequence[Shard]],
                    on_records: Callable[[Shard, List[Dict]], None],
                    on_spans: Optional[SpanCallback] = None,
                    should_stop: Optional[Callable[[], bool]] = None
                    ) -> None:
        """Execute a stream of shard batches over one persistent pool.

        Each batch is fully drained before the next one is pulled from
        ``batches`` — that pull is the campaign's batch barrier, where a
        stopping controller can extend the stream or cut it short by
        exhausting the iterator.  Workers persist across batches (each
        one rebuilt its campaign exactly once) and idle at the barrier.
        Shard ids must be unique across the whole stream (see
        :func:`plan_shards`'s ``first_id``).

        ``should_stop`` is polled every scheduling round: once true,
        queued shards are abandoned, in-flight shards drain normally
        (their results still stream to ``on_records``), and the pool
        raises :class:`~repro.errors.CampaignInterrupted`.
        """
        ctx = _mp_context()
        chaos_spec = chaos.active_spec()
        backlog: deque = deque()
        delayed: List[Tuple[float, Shard]] = []
        by_id: Dict[int, Shard] = {}
        attempts: Dict[int, int] = {}
        outstanding: set = set()
        pool: Dict[int, _Worker] = {}
        next_worker_id = 0
        next_bisect_id = _BISECT_ID_BASE
        stopping = False

        def spawn() -> None:
            nonlocal next_worker_id
            worker = _Worker(ctx, next_worker_id, self.jobspec,
                             trace=self.trace, chaos_spec=chaos_spec)
            pool[next_worker_id] = worker
            next_worker_id += 1
            _WORKERS_ALIVE.set(len(pool))

        def feed(worker: _Worker) -> None:
            if stopping:
                return
            if backlog and worker.ready and worker.shard is None:
                shard = backlog.popleft()
                worker.assign(shard, attempts.get(shard.shard_id, 0))

        def check_stop() -> None:
            # Abandon queued work; in-flight shards drain normally so
            # no finished experiment is lost.
            nonlocal stopping
            if stopping or should_stop is None or not should_stop():
                return
            stopping = True
            for shard in backlog:
                outstanding.discard(shard.shard_id)
            backlog.clear()
            for _, shard in delayed:
                outstanding.discard(shard.shard_id)
            delayed.clear()

        def promote_delayed() -> None:
            if not delayed:
                return
            now = time.monotonic()
            due = [entry for entry in delayed if entry[0] <= now]
            if due:
                delayed[:] = [entry for entry in delayed
                              if entry[0] > now]
                for _, shard in due:
                    backlog.append(shard)

        def quarantine(shard: Shard, reason: str) -> None:
            # Retry budget exhausted.  With no quarantine callback this
            # is still fatal (historical behaviour); with one, bisect
            # until the poison fault is isolated, then excise it.
            nonlocal next_bisect_id
            if self.on_quarantine is None:
                raise SchedulerError(
                    f"shard {shard.shard_id} failed "
                    f"{attempts[shard.shard_id]} times; last cause:\n"
                    f"{reason}")
            outstanding.discard(shard.shard_id)
            if len(shard.indices) > 1:
                mid = len(shard.indices) // 2
                _BISECTIONS.inc()
                TRACER.instant("shard_bisect", shard=shard.shard_id,
                               size=len(shard.indices))
                log.warning(
                    "shard %d exhausted %d retries; bisecting %d "
                    "indices to isolate the poison fault",
                    shard.shard_id, attempts[shard.shard_id],
                    len(shard.indices))
                for half in (shard.indices[mid:], shard.indices[:mid]):
                    child = Shard(shard_id=next_bisect_id, indices=half)
                    next_bisect_id += 1
                    by_id[child.shard_id] = child
                    outstanding.add(child.shard_id)
                    backlog.appendleft(child)
            else:
                index = shard.indices[0]
                TRACER.instant("quarantine", index=index)
                log.warning("quarantining poison fault %d: %s",
                            index, reason.strip().splitlines()[-1]
                            if reason.strip() else reason)
                self.on_quarantine(index, reason)

        def requeue(shard: Shard, reason: str, kind: str) -> None:
            if stopping:
                # Interrupted: the shard is abandoned (resume re-runs
                # it) instead of respawning workers on the way out.
                outstanding.discard(shard.shard_id)
                return
            attempts[shard.shard_id] = attempts.get(shard.shard_id, 0) + 1
            if attempts[shard.shard_id] > self.max_retries:
                quarantine(shard, reason)
                return
            _SHARD_RETRIES.inc(reason=kind)
            TRACER.instant("shard_retry", shard=shard.shard_id,
                           reason=kind,
                           attempt=attempts[shard.shard_id])
            delay = min(_BACKOFF_CAP_S,
                        self.backoff_base
                        * (2 ** (attempts[shard.shard_id] - 1)))
            if delay > 0:
                delayed.append((time.monotonic() + delay, shard))
            else:
                backlog.appendleft(shard)

        def dispatch(message, worker: _Worker,
                     alive: bool = True) -> None:
            # Apply one worker message to the pool state.  alive=False
            # is the post-mortem drain of a dead worker's pipe: results
            # still count, but the worker gets no further work.
            worker.last_activity = time.monotonic()
            kind = message[0]
            if kind == "beat":
                return
            if kind == "ready":
                worker.ready = True
                if alive:
                    feed(worker)
            elif kind == "result":
                shard_id, records = message[2], message[3]
                spans, metrics_state = message[4], message[5]
                shard = worker.release()
                if shard is not None and shard.shard_id == shard_id:
                    elapsed = time.monotonic() - worker.assigned_at
                    sample = elapsed / max(1, len(shard.indices))
                    self.ewma_experiment_s = sample \
                        if self.ewma_experiment_s is None \
                        else (_EWMA_ALPHA * sample
                              + (1.0 - _EWMA_ALPHA)
                              * self.ewma_experiment_s)
                if shard_id in outstanding:
                    outstanding.discard(shard_id)
                    if spans and on_spans is not None:
                        on_spans(worker.worker_id, spans)
                    if metrics_state is not None:
                        REGISTRY.merge_state(metrics_state)
                    on_records(by_id[shard_id], records)
                if alive:
                    # An idle worker stays alive: the batch stream may
                    # carry more work after the barrier.  Teardown
                    # happens once the stream is exhausted
                    # (run_batches' finally).
                    feed(worker)
            elif kind == "error":
                shard_id, reason = message[2], message[3]
                worker.release()
                if shard_id in outstanding:
                    requeue(by_id[shard_id], reason, kind="error")
                if alive:
                    feed(worker)
            elif kind == "fatal":
                raise SchedulerError(
                    f"worker {worker.worker_id} failed to start:\n"
                    f"{message[2]}")

        def drain() -> None:
            # Handle every pending worker message (blocking briefly).
            conns = {worker.conn: worker for worker in pool.values()}
            if not conns:
                time.sleep(_POLL_SECONDS)
                return
            for conn in mp_connection.wait(list(conns),
                                           timeout=_POLL_SECONDS):
                for message in self._pending_messages(conn):
                    dispatch(message, conns[conn])

        def patrol_watchdog() -> None:
            # Kill workers whose shard has gone silent past its
            # deadline; the dead-worker scan below requeues the shard.
            now = time.monotonic()
            for worker in pool.values():
                if worker.shard is None or worker.hung \
                        or not worker.process.is_alive():
                    continue
                deadline = self.deadline_for(worker.shard)
                if now - worker.last_activity <= deadline:
                    continue
                worker.hung = True
                _HANGS.inc()
                TRACER.instant("watchdog_kill",
                               worker=worker.worker_id,
                               shard=worker.shard.shard_id,
                               deadline_s=round(deadline, 3))
                log.warning(
                    "worker %d silent for %.1fs on shard %d "
                    "(deadline %.1fs); killing it",
                    worker.worker_id, now - worker.last_activity,
                    worker.shard.shard_id, deadline)
                worker.process.terminate()
                worker.process.join(0.2)
                if worker.process.is_alive():
                    # SIGTERM masked or wedged in C code: SIGKILL
                    # cannot be ignored.
                    worker.process.kill()
                    worker.process.join(0.2)

        def check_liveness() -> None:
            # Requeue shards of dead workers; keep the pool staffed.
            patrol_watchdog()
            for worker_id in [wid for wid, worker in pool.items()
                              if not worker.process.is_alive()]:
                worker = pool.pop(worker_id)
                _WORKERS_ALIVE.set(len(pool))
                # Dispatch any complete messages the worker shipped
                # before dying, so its finished shards are not re-run.
                # Sends are synchronous in the worker, so a crash in
                # experiment code cannot leave a torn message behind.
                for message in self._pending_messages(worker.conn):
                    dispatch(message, worker, alive=False)
                shard = worker.release()
                if shard is not None and shard.shard_id in outstanding:
                    if worker.hung:
                        requeue(shard,
                                f"worker {worker_id} hung (no "
                                "heartbeat within the watchdog "
                                "deadline)", kind="hang")
                    else:
                        requeue(shard,
                                f"worker {worker_id} died (exit code "
                                f"{worker.process.exitcode})",
                                kind="crash")
                worker.reap(timeout=0.5)
            pending = len(backlog) + len(delayed) \
                + sum(1 for worker in pool.values()
                      if worker.shard is not None)
            if not stopping:
                while pending and len(pool) < min(self.workers,
                                                  len(outstanding)):
                    spawn()
                    pending += 1
            # A requeue may have refilled the backlog after a worker
            # went idle; hand those shards out again.
            for worker in pool.values():
                if worker.ready and worker.shard is None and backlog:
                    feed(worker)

        try:
            for shards in batches:
                check_stop()
                if stopping:
                    break
                if not shards:
                    continue
                for shard in shards:
                    if shard.shard_id in by_id:
                        raise SchedulerError(
                            f"duplicate shard id {shard.shard_id} "
                            "across batches")
                    by_id[shard.shard_id] = shard
                    backlog.append(shard)
                    outstanding.add(shard.shard_id)
                while len(pool) < min(self.workers, len(outstanding)):
                    spawn()
                for worker in pool.values():
                    feed(worker)
                while outstanding:
                    check_stop()
                    promote_delayed()
                    drain()
                    check_liveness()
            if stopping:
                raise CampaignInterrupted(
                    "campaign interrupted; in-flight shards drained")
        finally:
            for worker in pool.values():
                worker.stop()
            for worker in pool.values():
                worker.reap()
            _WORKERS_ALIVE.set(0)

    def _pending_messages(self, conn):
        """Yield complete messages waiting on a worker pipe."""
        while True:
            try:
                if not conn.poll(0):
                    return
                yield conn.recv()
            except (EOFError, OSError):
                return  # dead worker: liveness requeues its shard
