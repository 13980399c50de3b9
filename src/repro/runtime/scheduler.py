"""The shard queue, its failure policy, and the two campaign executors.

The engine hands each checkpoint window's pending fault indices to an
executor (``run(indices, on_records)``).  Both executors take their
work from one :class:`ShardQueue`:

* :class:`InProcessExecutor` drains the queue in this process, on the
  engine's :class:`~repro.runtime.jobspec.JobRunner`;
* :class:`WorkerPool` drives the queue's shards through worker
  processes that persist across windows until :meth:`WorkerPool.close`,
  each forked from the engine, so each runs on the engine's runner.

Both size their shards from ``lanes``, the faults one lane pass carries
when the campaign is :attr:`~repro.core.campaign.Campaign.on_lanes`
(0 otherwise).

The queue owns the failure policy, so a serial campaign and a pooled
one treat a failing shard the same way:

* **One shard-id counter.**  Every shard, whether planned from a window
  or split off by bisection, draws its id from the queue, so ids are
  unique for the campaign's lifetime.
* **Retry with backoff, then quarantine.**  A shard that raised, or
  whose worker died or hung, is retried after an exponential backoff.
  A shard that fails past ``max_retries`` is *bisected* rather than
  aborting the campaign: halves re-enter the queue with fresh retry
  budgets until the offending fault index is isolated, at which point
  it is handed to the quarantine callback and the rest of the campaign
  proceeds.  A failed experiment never leaves its injected frames
  behind: :meth:`~repro.runtime.jobspec.JobRunner.run_indices` restores
  the golden configuration before it re-raises.
* **Abandonment on interrupt.**  Once ``should_stop`` turns true, queued
  shards are dropped (resume re-runs them), in-flight shards drain
  normally, and the executor raises
  :class:`~repro.errors.CampaignInterrupted`.

Pool design points:

* **One build per campaign.**  Every worker is a fork of the engine
  (the ``fork`` start method; there is no pool without it), so it
  starts with the engine's :class:`~repro.runtime.jobspec.JobRunner`:
  the campaign, its drawn faultload, golden run, checkpoints and
  compiled design.  A worker builds nothing, and its copy is its own:
  shards carry bare fault indices, and what a worker's experiments
  change stays in that worker.
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
  retried — a *hung* worker can no longer stall the campaign forever.
* **Chaos instrumentation.**  Workers inherit the parent's
  :mod:`repro.chaos` plan, with a fresh fire tally, and honour the
  ``worker_crash`` / ``worker_hang`` / ``slow_result`` fault points, so
  every recovery path above is testable deterministically.

Device shards are deliberately small: one fault in process, a few in
the pool (see :func:`shard_size`).  Results stream back to the journal
at shard granularity, so smaller shards mean finer crash-safety and
better load balance at a modest queueing cost.  A lane campaign instead
runs a lane pass per shard (in the pool, each window split evenly over
the workers): a pass's cost grows far slower than its width.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing.connection import Connection
from typing import (Any, Callable, Deque, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from .. import chaos
from ..errors import CampaignInterrupted, SchedulerError
from ..obs import metrics as obs_metrics
from ..obs.logsetup import get_logger
from ..obs.metrics import REGISTRY
from ..obs.tracing import TRACER
from .jobspec import JobRunner

log = get_logger("repro.runtime.scheduler")

_HANGS = obs_metrics.counter(
    "worker_hangs_total",
    "Hung workers killed by the shard watchdog.")
_SHARD_RETRIES = obs_metrics.counter(
    "shard_retries_total",
    "Shard re-queues after a failure, by reason.")
_BISECTIONS = obs_metrics.counter(
    "shard_bisections_total",
    "Retry-exhausted shards split in half to isolate a poison fault.")
_WORKERS_ALIVE = obs_metrics.gauge(
    "campaign_workers_alive",
    "Live worker processes in the current campaign's pool.")

#: Callback fed the records of one finished shard, in index order.
RecordsCallback = Callable[[List[Dict[str, Any]]], None]

#: Callback fed each worker's drained span batch.
SpanCallback = Callable[[List[Dict[str, Any]]], None]

#: Callback for an isolated poison fault: (fault index, error traceback).
QuarantineCallback = Callable[[int, str], None]

#: Upper bound on pool shard size: keeps the journal hot even on huge
#: campaigns (a crash loses at most this many in-flight experiments
#: per worker).
MAX_SHARD_SIZE = 16

#: How long the executors block (on worker pipes, or on a backing-off
#: shard) before checking liveness and interrupts again.
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

#: Retry backoff: ``_BACKOFF_BASE_S * 2**(attempt-1)`` seconds, capped.
_BACKOFF_BASE_S = 0.25
_BACKOFF_CAP_S = 5.0

#: Exit code of a chaos-injected worker crash (diagnosable post-mortem).
CHAOS_CRASH_EXIT = 121


@dataclass(frozen=True)
class Shard:
    """One schedulable unit: a batch of fault indices."""

    shard_id: int
    indices: Tuple[int, ...]


def shard_size(pending: int, workers: int, lanes: int = 0) -> int:
    """Pool shard size for a window of *pending* indices.

    A lane campaign (``lanes``: the faults one lane pass carries) gives
    each worker an even share of the window, at most one pass.  A
    device campaign takes about four shards per worker (load balance
    against stragglers), capped at :data:`MAX_SHARD_SIZE` (journal
    granularity)."""
    workers = max(1, workers)
    if lanes:
        return max(1, min(lanes, -(-pending // workers)))
    return max(1, min(MAX_SHARD_SIZE, -(-pending // (workers * 4))))


class ShardQueue:
    """A campaign's outstanding shards and the policy for failed ones.

    A shard is *outstanding* from the moment it is queued until
    :meth:`complete`, a quarantine, a bisection or an interrupt retires
    it; ``len(queue)`` counts the outstanding shards, whether queued,
    backing off or in flight.
    """

    def __init__(self, max_retries: int,
                 on_quarantine: QuarantineCallback,
                 should_stop: Callable[[], bool]) -> None:
        self.max_retries = max_retries
        self._on_quarantine = on_quarantine
        self._should_stop = should_stop
        self._next_id = 0
        self._outstanding: Dict[int, Shard] = {}
        self._attempts: Dict[int, int] = {}
        self._backlog: Deque[Shard] = deque()
        #: Shards backing off after a failure: (due time, shard).
        self._delayed: List[Tuple[float, Shard]] = []
        #: Set once ``should_stop`` was seen true; never cleared.
        self.stopping = False

    def __len__(self) -> int:
        return len(self._outstanding)

    def _new(self, indices: Sequence[int]) -> Shard:
        shard = Shard(shard_id=self._next_id, indices=tuple(indices))
        self._next_id += 1
        self._outstanding[shard.shard_id] = shard
        return shard

    def extend(self, indices: Sequence[int], size: int) -> None:
        """Queue *indices*, in order, as shards of at most *size*."""
        for start in range(0, len(indices), size):
            self._backlog.append(self._new(indices[start:start + size]))

    def interrupted(self) -> bool:
        """Whether the campaign is stopping.  The first time
        ``should_stop`` is true, every queued or backing-off shard is
        abandoned; in-flight shards stay outstanding until they report.
        """
        if not self.stopping and self._should_stop():
            self.stopping = True
            abandoned = list(self._backlog) + [
                shard for _, shard in self._delayed]
            for shard in abandoned:
                del self._outstanding[shard.shard_id]
            self._backlog.clear()
            self._delayed.clear()
        return self.stopping

    def pop(self) -> Optional[Tuple[Shard, int]]:
        """The next due shard and its attempt number; ``None`` when no
        shard is due (all backing off or in flight) or when stopping."""
        if self.interrupted():
            return None
        if self._delayed:
            now = time.monotonic()
            self._backlog.extend(shard for due, shard in self._delayed
                                 if due <= now)
            self._delayed = [(due, shard) for due, shard in self._delayed
                             if due > now]
        if not self._backlog:
            return None
        shard = self._backlog.popleft()
        return shard, self._attempts.get(shard.shard_id, 0)

    def complete(self, shard_id: int) -> bool:
        """Retire a finished shard; ``False`` for a result that no
        longer counts (the shard was abandoned or already retired)."""
        return self._outstanding.pop(shard_id, None) is not None

    def fail(self, shard_id: int, reason: str, kind: str) -> None:
        """Apply the failure policy to an in-flight shard: retry with
        exponential backoff, bisect past ``max_retries``, and quarantine
        an isolated index.  *kind* (``error``, ``crash`` or ``hang``)
        labels the retry metric."""
        shard = self._outstanding.get(shard_id)
        if shard is None:
            return
        if self.stopping:
            # Interrupted: abandon (resume re-runs it) rather than retry.
            del self._outstanding[shard_id]
            return
        attempt = self._attempts.get(shard_id, 0) + 1
        self._attempts[shard_id] = attempt
        if attempt <= self.max_retries:
            _SHARD_RETRIES.inc(reason=kind)
            TRACER.instant("shard_retry", shard=shard_id, reason=kind,
                           attempt=attempt)
            delay = min(_BACKOFF_CAP_S,
                        _BACKOFF_BASE_S * 2 ** (attempt - 1))
            self._delayed.append((time.monotonic() + delay, shard))
            return
        del self._outstanding[shard_id]
        if len(shard.indices) > 1:
            _BISECTIONS.inc()
            TRACER.instant("shard_bisect", shard=shard_id,
                           size=len(shard.indices))
            log.warning("shard %d exhausted %d retries; bisecting %d "
                        "indices to isolate the poison fault",
                        shard_id, self.max_retries, len(shard.indices))
            mid = len(shard.indices) // 2
            for half in (shard.indices[mid:], shard.indices[:mid]):
                self._backlog.appendleft(self._new(half))
            return
        index = shard.indices[0]
        TRACER.instant("quarantine", index=index)
        log.warning("quarantining poison fault %d: %s", index,
                    reason.strip().splitlines()[-1]
                    if reason.strip() else reason)
        self._on_quarantine(index, reason)


class InProcessExecutor:
    """Runs the queue's shards in this process, on the engine's
    campaign; backoff waits are slept out between shards.  A shard is
    one lane pass (``lanes`` faults) when the campaign runs on the lane
    engine, else one fault."""

    def __init__(self, runner: JobRunner, queue: ShardQueue,
                 lanes: int) -> None:
        self.runner = runner
        self.queue = queue
        self.lanes = lanes

    def run(self, indices: Sequence[int],
            on_records: RecordsCallback) -> None:
        """Execute *indices*, handing each shard's records to
        ``on_records`` as it finishes."""
        queue = self.queue
        queue.extend(indices, self.lanes or 1)
        while queue:
            item = queue.pop()
            if item is None:
                if queue:  # every queued shard is backing off
                    time.sleep(_POLL_SECONDS)
                continue
            shard = item[0]
            try:
                records = self.runner.run_indices(shard.indices)
            except Exception:
                queue.fail(shard.shard_id, traceback.format_exc(),
                           kind="error")
                continue
            if queue.complete(shard.shard_id):
                on_records(records)
        if queue.stopping:
            raise CampaignInterrupted(
                "campaign interrupted between experiments")

    def close(self) -> None:
        """Nothing to release: the campaign is not this executor's."""


def fork_context() -> Any:
    """The ``fork`` start method, the only one a pool uses: a worker
    runs on the campaign it inherits from the engine."""
    if "fork" not in multiprocessing.get_all_start_methods():
        raise SchedulerError(
            "a worker pool needs the fork start method, which this "
            "platform lacks; run in process (workers=0)")
    return multiprocessing.get_context("fork")


def _worker_main(worker_id: int, runner: JobRunner, conn: Connection,
                 trace: bool = False) -> None:
    """Worker process body: drain shards on the inherited runner."""
    parent = os.getppid()
    # The parent owns interrupt handling: on Ctrl-C it drains in-flight
    # shards and journals an interrupted stop line, which only works if
    # the terminal's process-group SIGINT doesn't kill the workers first.
    # SIGTERM is the opposite case: the child inherits the parent's
    # graceful-shutdown handler, which would absorb the watchdog's
    # terminate() as a polite stop request a hung worker never gets to
    # honour — reset it so terminate() stays lethal.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    # The child inherits the parent's tracer events, registry values and
    # chaos fire tally; reset all three so nothing is double-reported
    # and a plan's ``limit`` counts this process's fires, and give this
    # process its own span-stream id (tid 0 is the parent's).
    TRACER.reset(enabled=trace, tid=worker_id + 1)
    REGISTRY.reset()
    plan = chaos.active()
    if plan is not None:
        chaos.install(chaos.ChaosPlan(plan.seed, plan.rules))
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

    def __init__(self, ctx: Any, worker_id: int, runner: JobRunner,
                 trace: bool = False) -> None:
        self.worker_id = worker_id
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.shard: Optional[Shard] = None
        self.hung = False
        self.assigned_at = 0.0
        self.last_activity = time.monotonic()
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, runner, child_conn, trace),
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

    def _send(self, obj: Any) -> None:
        try:
            self.conn.send(obj)
        except (OSError, ValueError):
            # Worker died; the liveness scan fails its shard.
            pass

    def pending_messages(self) -> Iterator[Tuple[Any, ...]]:
        """Yield the complete messages waiting on this worker's pipe."""
        while True:
            try:
                if not self.conn.poll(0):
                    return
                yield self.conn.recv()
            except (EOFError, OSError):
                return  # dead worker: the liveness scan fails its shard

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
    """Runs the queue's shards across worker processes.

    Workers are forked on demand from this process, each running
    *runner* (the engine's, with the campaign it built), and persist
    across :meth:`run` calls, idling at the engine's window barriers,
    until :meth:`close`.  With ``on_spans`` the workers trace,
    and each result's span batch is handed to it; worker metrics merge
    into this process's registry either way.  ``lanes`` is the faults
    one lane pass carries when the campaign runs on the lane engine
    (0 otherwise); it sizes the shards (:func:`shard_size`).
    """

    def __init__(self, runner: JobRunner, workers: int,
                 queue: ShardQueue,
                 shard_timeout: Optional[float] = None,
                 on_spans: Optional[SpanCallback] = None,
                 lanes: int = 0) -> None:
        if workers < 1:
            raise SchedulerError("worker pool needs at least one worker")
        self.runner = runner
        self.workers = workers
        self.queue = queue
        self.shard_timeout = shard_timeout
        self.on_spans = on_spans
        self.lanes = lanes
        #: EWMA of observed per-experiment wall time (None until the
        #: first shard completes); feeds the watchdog deadline.
        self.ewma_experiment_s: Optional[float] = None
        self._ctx = fork_context()
        self._pool: Dict[int, _Worker] = {}
        self._next_worker_id = 0

    def deadline_for(self, shard: Shard) -> float:
        """Watchdog deadline for one shard, in seconds of silence."""
        if self.shard_timeout is not None:
            return self.shard_timeout
        if self.ewma_experiment_s is None:
            return _WATCHDOG_FLOOR_S
        return max(_WATCHDOG_FLOOR_S,
                   _WATCHDOG_FACTOR * self.ewma_experiment_s
                   * len(shard.indices))

    def run(self, indices: Sequence[int],
            on_records: RecordsCallback) -> None:
        """Execute *indices*, handing each shard's records to
        ``on_records`` as workers finish them (arrival order)."""
        queue = self.queue
        queue.extend(indices,
                     shard_size(len(indices), self.workers, self.lanes))
        while queue:
            if not queue.interrupted():
                while len(self._pool) < min(self.workers, len(queue)):
                    self._spawn()
            for worker in self._pool.values():
                self._feed(worker)
            self._drain(on_records)
            self._check_liveness(on_records)
        if queue.stopping:
            raise CampaignInterrupted(
                "campaign interrupted; in-flight shards drained")

    def close(self) -> None:
        """Stop and reap every worker."""
        for worker in self._pool.values():
            worker.stop()
        for worker in self._pool.values():
            worker.reap()
        self._pool.clear()
        _WORKERS_ALIVE.set(0)

    def _spawn(self) -> None:
        worker = _Worker(self._ctx, self._next_worker_id, self.runner,
                         trace=self.on_spans is not None)
        self._pool[worker.worker_id] = worker
        self._next_worker_id += 1
        _WORKERS_ALIVE.set(len(self._pool))

    def _feed(self, worker: _Worker) -> None:
        if worker.shard is None:
            item = self.queue.pop()
            if item is not None:
                worker.assign(*item)

    def _dispatch(self, message: Tuple[Any, ...], worker: _Worker,
                  on_records: RecordsCallback, alive: bool = True) -> None:
        """Apply one worker message.  ``alive=False`` is the post-mortem
        drain of a dead worker's pipe: results still count, but the
        worker gets no further work."""
        worker.last_activity = time.monotonic()
        kind = message[0]
        if kind == "beat":
            return
        if kind == "result":
            shard_id, records = message[2], message[3]
            spans, metrics_state = message[4], message[5]
            shard = worker.release()
            if shard is not None and shard.shard_id == shard_id:
                elapsed = time.monotonic() - worker.assigned_at
                sample = elapsed / max(1, len(shard.indices))
                self.ewma_experiment_s = sample \
                    if self.ewma_experiment_s is None \
                    else (_EWMA_ALPHA * sample
                          + (1.0 - _EWMA_ALPHA) * self.ewma_experiment_s)
            if self.queue.complete(shard_id):
                if spans and self.on_spans is not None:
                    self.on_spans(spans)
                if metrics_state is not None:
                    REGISTRY.merge_state(metrics_state)
                on_records(records)
        elif kind == "error":
            worker.release()
            self.queue.fail(message[2], message[3], kind="error")
        if alive:
            self._feed(worker)

    def _drain(self, on_records: RecordsCallback) -> None:
        """Handle every pending worker message (blocking briefly)."""
        if not self._pool:
            time.sleep(_POLL_SECONDS)
            return
        ready = set(mp_connection.wait(
            [worker.conn for worker in self._pool.values()],
            timeout=_POLL_SECONDS))
        for worker in list(self._pool.values()):
            if worker.conn in ready:
                for message in worker.pending_messages():
                    self._dispatch(message, worker, on_records)

    def _patrol_watchdog(self) -> None:
        """Kill workers whose shard has gone silent past its deadline;
        the liveness scan then fails the shard."""
        now = time.monotonic()
        for worker in self._pool.values():
            if worker.shard is None or worker.hung \
                    or not worker.process.is_alive():
                continue
            deadline = self.deadline_for(worker.shard)
            if now - worker.last_activity <= deadline:
                continue
            worker.hung = True
            _HANGS.inc()
            TRACER.instant("watchdog_kill", worker=worker.worker_id,
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
                # SIGTERM masked or wedged in C code: SIGKILL cannot be
                # ignored.
                worker.process.kill()
                worker.process.join(0.2)

    def _check_liveness(self, on_records: RecordsCallback) -> None:
        """Fail the shards of dead workers; the next round respawns."""
        self._patrol_watchdog()
        for worker_id in [wid for wid, worker in self._pool.items()
                          if not worker.process.is_alive()]:
            worker = self._pool.pop(worker_id)
            _WORKERS_ALIVE.set(len(self._pool))
            # Dispatch any complete messages the worker shipped before
            # dying, so its finished shards are not re-run.  Sends are
            # synchronous in the worker, so a crash in experiment code
            # cannot leave a torn message behind.
            for message in worker.pending_messages():
                self._dispatch(message, worker, on_records, alive=False)
            shard = worker.release()
            if shard is not None:
                if worker.hung:
                    self.queue.fail(
                        shard.shard_id,
                        f"worker {worker_id} hung (no heartbeat within "
                        "the watchdog deadline)", kind="hang")
                else:
                    self.queue.fail(
                        shard.shard_id,
                        f"worker {worker_id} died (exit code "
                        f"{worker.process.exitcode})", kind="crash")
            worker.reap(timeout=0.5)
