"""Campaign execution runtime (R): parallel campaigns, resume, metrics.

The paper's FADES tool exists to make fault-injection campaigns fast;
this subsystem makes the reproduction's campaigns fast *and durable*:

* :mod:`repro.runtime.jobspec` — picklable campaign descriptions and the
  determinism contract that makes any execution equal a serial one;
* :mod:`repro.runtime.scheduler` — the shard queue that owns the
  failure policy (retry with backoff, bisection, quarantine) and the two
  executors that drain it: in-process, or a worker pool (crash and hang
  detection, respawn);
* :mod:`repro.runtime.journal` — the append-only JSONL result store
  enabling crash-safe checkpoint/resume, with per-line CRC integrity
  checking (``repro journal fsck``);
* :mod:`repro.runtime.metrics` — the one campaign tally (outcomes,
  throughput, per-phase wall-clock versus emulated time) that progress
  callbacks and every live telemetry surface render;
* :mod:`repro.runtime.liveobs` — the live-observability coordinator
  (time-series sampler, alert engine, ``--serve-obs`` HTTP exporter)
  polled at the engine's batch barriers;
* :mod:`repro.runtime.engine` — the public API:
  :func:`~repro.runtime.engine.run_campaign` and
  :func:`~repro.runtime.engine.resume_campaign`.

The engine dispatches incrementally: one loop over checkpoint windows
hands each window to the executor, serial or pooled, and consults a
statistical stopping controller (:mod:`repro.faultload`) at the window
barriers, so adaptive campaigns stop as soon as their confidence target
is met.  Fixed-budget campaigns are the degenerate single-window
schedule.
"""

from .engine import resume_campaign, run_campaign
from .jobspec import (CampaignJobSpec, JobRunner, build_campaign,
                      record_from_result, result_from_record)
from .journal import (JOURNAL_VERSION, JournalScan, JournalState,
                      JournalWriter, check_compatible, read_journal,
                      repair_journal, scan_journal)
from .liveobs import CampaignObservability
from .metrics import CampaignMetrics, MetricsSnapshot, ProgressCallback
from .scheduler import (MAX_SHARD_SIZE, InProcessExecutor, Shard,
                        ShardQueue, WorkerPool, shard_size)

__all__ = [
    "run_campaign",
    "resume_campaign",
    "CampaignJobSpec",
    "JobRunner",
    "build_campaign",
    "record_from_result",
    "result_from_record",
    "JOURNAL_VERSION",
    "JournalScan",
    "JournalState",
    "JournalWriter",
    "check_compatible",
    "read_journal",
    "repair_journal",
    "scan_journal",
    "CampaignObservability",
    "CampaignMetrics",
    "MetricsSnapshot",
    "ProgressCallback",
    "MAX_SHARD_SIZE",
    "InProcessExecutor",
    "Shard",
    "ShardQueue",
    "WorkerPool",
    "shard_size",
]
