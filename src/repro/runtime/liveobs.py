"""Live-observability coordinator for one running campaign.

:class:`CampaignObservability` is the engine's single attachment point
for the live layer built in :mod:`repro.obs`: the time-series sampler
(``.tsdb`` sidecar + in-memory ring buffer), the alert engine, and the
opt-in ``--serve-obs`` HTTP exporter.  The engine calls :meth:`poll`
from its batch barriers — never from worker hot paths — which is the
barrier-clock sampling contract ``DESIGN.md`` describes: samples land
on the same schedule for serial, sharded and resumed executions, and a
campaign that opts out of everything pays one no-op method call per
record batch.  Samples are timed by the campaign tally's own clock, and
``/status`` is built by :func:`repro.obs.live.build_status`, the same
function ``repro top <journal>`` rebuilds it with.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Sequence

from ..obs import metrics as obs_metrics
from ..obs.alerts import AlertEngine, AlertEvent, AlertRule
from ..obs.live import build_status
from ..obs.logsetup import get_logger
from ..obs.server import ObsServer
from ..obs.timeseries import TimeseriesSampler, tsdb_path_for
from .journal import JournalWriter
from .metrics import CampaignMetrics

log = get_logger("repro.runtime.liveobs")


class CampaignObservability:
    """Sampler + alert engine + optional HTTP exporter, as one unit.

    Construction binds the exporter port (bad ``--serve-obs`` specs
    fail before any experiment runs); :meth:`close` force-takes a final
    sample so even sub-interval campaigns leave a non-empty series.
    """

    def __init__(self, label: str, metrics: CampaignMetrics,
                 journal: Optional[str] = None,
                 writer: Optional[JournalWriter] = None,
                 serve_obs: Optional[str] = None,
                 alert_rules: Optional[Sequence[AlertRule]] = None,
                 replayed_alerts: Optional[Sequence[Dict[str, Any]]] = None,
                 workers: int = 0):
        self.label = label
        self._metrics = metrics
        self._writer = writer
        self._workers = workers
        self._lock = threading.Lock()
        # Delta rules compare the first sample with the campaign's
        # starting point, so a resume never fires again for what it
        # replays from the journal.
        self._prev: Dict[str, Any] = metrics.snapshot().to_dict()
        self.sampler = TimeseriesSampler(
            path=tsdb_path_for(journal) if journal else None)
        self.alerts = AlertEngine(rules=alert_rules,
                                  on_event=self._journal_event)
        if replayed_alerts:
            self.alerts.replay(replayed_alerts)
        self.server: Optional[ObsServer] = None
        if serve_obs is not None:
            self.server = ObsServer(serve_obs, self.status)
            self.server.start()

    # -- engine hooks --------------------------------------------------
    def poll(self, force: bool = False) -> None:
        """Barrier hook: maybe sample, then run the alert rules.

        Serialised because the exporter's ``close``/final sample and
        the engine barrier could otherwise interleave.
        """
        with self._lock:
            sample = self.sampler.sample(self._metrics.snapshot(),
                                         force=force)
            if sample is None:
                return
            self.alerts.evaluate(sample, self._prev)
            self._prev = sample

    def _journal_event(self, event: AlertEvent) -> None:
        if self._writer is not None:
            self._writer.append_alert(event.to_dict())

    # -- /status -------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The ``/status`` payload (also what ``repro top`` renders)."""
        snap = self._metrics.snapshot()
        workers: Dict[str, Any] = {}
        if self._workers:
            # The pool keeps this gauge current as workers come and go.
            gauge = obs_metrics.REGISTRY.get("campaign_workers_alive")
            alive = (gauge.value()
                     if isinstance(gauge, obs_metrics.Gauge) else 0.0)
            workers = {"configured": self._workers, "alive": int(alive)}
        return build_status(
            self.label, snap.to_dict(), elapsed_s=snap.wall_s,
            samples=self.sampler.samples, eta_s=snap.eta_s,
            workers=workers, alerts=self.alerts.active,
            alert_history=list(self.alerts.history), finished=False)

    def close(self) -> None:
        """Final sample, then tear down exporter and sidecar writer."""
        try:
            self.poll(force=True)
        except Exception:  # pragma: no cover - teardown best-effort
            log.exception("final observability sample failed")
        if self.server is not None:
            self.server.close()
            self.server = None
        self.sampler.close()
