"""Observability layer: tracing, metrics, logging, live telemetry.

The paper's claims are time claims, so the reproduction instruments its
own injection pipeline:

* :mod:`~repro.obs.tracing` — hierarchical spans over the hot path,
  exported in Chrome/Perfetto trace format (``--trace out.json``);
* :mod:`~repro.obs.metrics` — process-wide counters/gauges/histograms
  with Prometheus-text and JSON exporters (``--metrics out.prom``);
* :mod:`~repro.obs.logsetup` — the ``repro.*`` structured-logging
  hierarchy behind ``--log-level`` / ``--log-json``;
* :mod:`~repro.obs.summary` — ``repro obs summarize``, the per-phase /
  per-mechanism time table comparable to the paper's Table 2;
* :mod:`~repro.obs.timeseries` — the one implementation of sealed
  (CRC-per-line) files, which the journal and the ``.tsdb`` sidecar
  share, and the campaign time-series sampler; a sample is a view of
  the runtime's one campaign tally,
  :class:`repro.runtime.metrics.CampaignMetrics`, on its clock;
* :mod:`~repro.obs.alerts` — declarative threshold alert rules over
  the sample stream (``--alert``);
* :mod:`~repro.obs.server` — the ``--serve-obs`` HTTP exporter
  (``/metrics``, ``/status``, ``/healthz``);
* :mod:`~repro.obs.live` — the one ``/status`` builder, live and
  offline, and ``repro top``, the terminal dashboard.
"""

from . import (alerts, live, logsetup, metrics, server, summary,
               timeseries, tracing)
from .alerts import AlertEngine, AlertEvent, AlertRule, built_in_rules
from .logsetup import console, get_logger, setup_logging
from .metrics import REGISTRY, MetricsRegistry
from .server import ObsServer
from .summary import render_summary, summarize_trace
from .timeseries import SealedWriter, TimeseriesSampler, read_tsdb
from .tracing import (TRACER, Tracer, TraceWriter, read_trace, span,
                      write_trace)

__all__ = [
    "tracing", "metrics", "logsetup", "summary",
    "timeseries", "alerts", "server", "live",
    "TRACER", "Tracer", "TraceWriter", "span", "read_trace",
    "write_trace", "REGISTRY", "MetricsRegistry",
    "setup_logging", "get_logger", "console",
    "summarize_trace", "render_summary",
    "AlertEngine", "AlertEvent", "AlertRule", "built_in_rules",
    "ObsServer", "TimeseriesSampler", "SealedWriter", "read_tsdb",
]
