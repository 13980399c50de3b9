"""Campaign execution metrics: the one per-campaign tally.

The paper's whole argument is a time argument (table 2's emulation-time
speedups), so the runtime keeps two clocks side by side:

* **host wall-clock** — what this reproduction actually spends, split
  per phase (``setup`` / ``golden`` / ``experiments`` / ``aggregate``);
* **emulated time** — the 2006-era board seconds accumulated from each
  experiment's :class:`~repro.core.timing_model.ExperimentCost`.

A :class:`CampaignMetrics` instance is the only per-campaign tally.  The
engine declares the journal's replayed records through
:meth:`~CampaignMetrics.set_total` and feeds it every new record, so its
outcome counts and emulated seconds cover the whole campaign; the
runtime-health counters of the metrics registry fold in as deltas
against the tally's construction.  Every surface that reports a
campaign — the CLI's progress lines, the ``.tsdb`` sample, ``/status``
and ``repro top <journal>`` — is a view of its immutable
:class:`MetricsSnapshot`, sharing the field set of
:meth:`MetricsSnapshot.to_dict`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, Optional

from ..core.timing_model import ExperimentCost
from ..obs import metrics as obs_metrics
from ..obs.tracing import span

ProgressCallback = Callable[["MetricsSnapshot"], None]

_PHASE_SECONDS = obs_metrics.histogram(
    "campaign_phase_seconds",
    "Host wall-clock spent per engine phase.",
    buckets=(0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0))
_RECORDS = obs_metrics.counter(
    "campaign_records_total", "Journal records accounted, by outcome.")

#: Snapshot fields that are campaign-relative deltas of registry
#: counters (the registry is process-wide and outlives one campaign).
HEALTH_COUNTERS: Dict[str, str] = {
    "hangs": "worker_hangs_total",
    "retries": "shard_retries_total",
    "fallbacks": "emu_backend_fallbacks_total",
    "chaos": "chaos_injected_total",
    "alerts": "alerts_fired_total",
}


@dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time view of a running (or finished) campaign."""

    total: int = 0
    #: Whether ``total`` is exact.  Adaptive campaigns only know an
    #: upper bound until their stopping rule fires, so percentages and
    #: ETAs projected against it would be misleading.
    total_exact: bool = True
    #: Records accounted by this run.
    completed: int = 0
    #: Records replayed from the journal.
    skipped: int = 0
    wall_s: float = 0.0
    #: Emulated board seconds of every record, replayed ones included.
    emulated_s: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    #: Per-outcome counts of every record, replayed ones included.
    outcomes: Dict[str, int] = field(default_factory=dict)
    hangs: int = 0
    retries: int = 0
    fallbacks: int = 0
    chaos: int = 0
    alerts: int = 0

    @property
    def n(self) -> int:
        return self.completed + self.skipped

    @property
    def pending(self) -> int:
        return max(0, self.total - self.n)

    @property
    def quarantined(self) -> int:
        return self.outcomes.get("quarantined", 0)

    @property
    def throughput(self) -> float:
        """Completed experiments per host second."""
        if self.wall_s <= 0.0:
            return 0.0
        return self.completed / self.wall_s

    @property
    def eta_s(self) -> Optional[float]:
        """Projected host seconds until the campaign drains.

        ``None`` when nothing has completed yet (zero throughput gives
        no basis for a projection) or while the total is only an upper
        bound (early stopping may fire at any checkpoint — projecting
        to the budget would overstate the remaining work); ``0.0`` once
        nothing is pending.
        """
        if self.pending <= 0:
            return 0.0
        if not self.total_exact:
            return None
        rate = self.throughput
        if rate <= 0.0:
            return None
        return self.pending / rate

    def to_dict(self) -> Dict[str, Any]:
        """The JSON field set every telemetry surface shares."""
        return {
            "n": self.n,
            "completed": self.completed,
            "skipped": self.skipped,
            "pending": self.pending,
            "total": self.total,
            "total_exact": self.total_exact,
            "emulated_s": round(self.emulated_s, 4),
            "outcomes": dict(self.outcomes),
            "quarantined": self.quarantined,
            "phases": {name: round(seconds, 4)
                       for name, seconds in self.phases.items()},
            "hangs": self.hangs,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "chaos": self.chaos,
            "alerts": self.alerts,
        }

    def render(self) -> str:
        bound = self.total if self.total_exact else f"<={self.total}"
        line = (f"[{self.n}/{bound}] "
                f"{self.throughput:.1f} exp/s | "
                f"emulated {self.emulated_s:.1f} s")
        if self.skipped:
            line += f" | resumed past {self.skipped}"
        if self.retries:
            line += f" | retries {self.retries}"
        if self.quarantined:
            line += f" | quarantined {self.quarantined}"
        if self.pending:
            eta = self.eta_s
            line += (" | eta --:--" if eta is None
                     else f" | eta {eta:.1f} s")
        return line


class CampaignMetrics:
    """Accumulates the campaign tally; fires the progress callback once
    per record.

    ``registry`` is where the :data:`HEALTH_COUNTERS` are read; their
    totals at construction are the baseline the snapshot's deltas are
    taken against.  The clock is injectable so tests can run against a
    fake time source.
    """

    def __init__(self, progress: Optional[ProgressCallback] = None,
                 clock: Callable[[], float] = time.monotonic,
                 registry: obs_metrics.MetricsRegistry = obs_metrics.REGISTRY
                 ) -> None:
        self._progress = progress
        self._clock = clock
        #: Labels each phase as it closes; the engine copies it from the
        #: campaign, whose backend a compile failure can degrade.
        self.backend = "reference"
        self._registry = registry
        self._baseline = self._health_totals()
        self._started = clock()
        self._phase_wall: Dict[str, float] = {}
        self.total = 0
        self.total_exact = True
        self.completed = 0
        self.skipped = 0
        self.emulated_s = 0.0
        self.outcomes: Dict[str, int] = {}
        # Snapshots may be taken from the exporter's server thread
        # while the engine thread is mid-record.
        self._lock = threading.Lock()

    def _health_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for name, counter in HEALTH_COUNTERS.items():
            metric = self._registry.get(counter)
            totals[name] = (metric.total()
                            if isinstance(metric, obs_metrics.Counter)
                            else 0.0)
        return totals

    # -- lifecycle -----------------------------------------------------
    def set_total(self, total: int,
                  replayed: Iterable[Dict[str, Any]] = (),
                  exact: bool = True) -> None:
        """Declare the campaign size and the journal's replayed records.

        Replayed records count toward ``outcomes`` and ``emulated_s``
        and as ``skipped``, never as ``completed``: throughput measures
        only this run's work.  ``exact=False`` marks ``total`` a budget
        cap the stopping rule may undercut.
        """
        with self._lock:
            self.total = total
            self.total_exact = exact
            for record in replayed:
                self._tally(record)
                self.skipped += 1

    def resolve_total(self, total: int) -> None:
        """Pin the final campaign size once the stopping rule fires."""
        self.total = total
        self.total_exact = True

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate wall-clock under a named phase (re-enterable).

        Each phase is also an observability event: a trace span (so
        engine phases appear in ``--trace`` output and partition the
        campaign wall-clock) and a ``campaign_phase_seconds`` sample.
        """
        begin = self._clock()
        with span(name, scope="engine"):
            try:
                yield
            finally:
                elapsed = self._clock() - begin
                self._phase_wall[name] = self._phase_wall.get(name, 0.0) \
                    + elapsed
                _PHASE_SECONDS.observe(elapsed, phase=name,
                                       sim_backend=self.backend)

    def _tally(self, record: Dict[str, Any]) -> str:
        outcome = str(record.get("outcome", "?"))
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.emulated_s += ExperimentCost.from_record(
            record.get("cost") or {}).total_s
        return outcome

    def record(self, record: Dict[str, Any]) -> None:
        """Account one finished experiment (journal-record form)."""
        with self._lock:
            outcome = self._tally(record)
            self.completed += 1
        _RECORDS.inc(outcome=outcome)
        if self._progress is not None:
            self._progress(self.snapshot())

    # -- reporting -----------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        deltas = {name: int(total - self._baseline[name])
                  for name, total in self._health_totals().items()}
        with self._lock:
            return MetricsSnapshot(
                total=self.total,
                total_exact=self.total_exact,
                completed=self.completed,
                skipped=self.skipped,
                wall_s=self._clock() - self._started,
                emulated_s=self.emulated_s,
                phases=dict(self._phase_wall),
                outcomes=dict(self.outcomes),
                hangs=deltas["hangs"],
                retries=deltas["retries"],
                fallbacks=deltas["fallbacks"],
                chaos=deltas["chaos"],
                alerts=deltas["alerts"],
            )

    def finish(self) -> MetricsSnapshot:
        """Final snapshot; fires the progress callback one last time."""
        snap = self.snapshot()
        if self._progress is not None:
            self._progress(snap)
        return snap
