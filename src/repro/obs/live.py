"""``repro top`` — a live ANSI dashboard over a running campaign.

Attaches to a campaign two ways:

* **URL** (``repro top http://host:port``) — polls the campaign's
  ``/status`` endpoint (see :mod:`repro.obs.server`);
* **journal path** (``repro top out.jsonl``) — tails the journal and
  its ``.tsdb`` time-series sidecar, reconstructing the same status
  from durable state alone.  This also works after the campaign
  ended: ``repro top out.jsonl --once`` is the offline view of the
  series and the health counters.

Both read one status shape, built by :func:`build_status` for the live
``/status`` endpoint and for :func:`status_from_journal` alike.  The
renderer is a pure function (:func:`render_dashboard`) over that dict
so tests can assert on its output; the loop around it redraws with a
plain ANSI home+clear, no curses.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ObservabilityError
from .logsetup import console, get_logger
from .metrics import MetricsRegistry
from .timeseries import SERIES_LENGTH, read_tsdb, tsdb_path_for

log = get_logger("repro.obs.live")

#: Throughput sparkline glyphs, lowest to highest.
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: Outcome display order and bar glyph.
OUTCOME_ORDER = ("failure", "latent", "silent", "quarantined")
_BAR_GLYPH = "█"

_ANSI_CLEAR = "\x1b[2J\x1b[H"


def is_url(target: str) -> bool:
    return target.startswith(("http://", "https://"))


def fetch_status(url: str, timeout: float = 5.0) -> Dict[str, Any]:
    """GET ``<url>/status`` and parse the JSON payload."""
    endpoint = url.rstrip("/")
    if not endpoint.endswith("/status"):
        endpoint += "/status"
    try:
        with urllib.request.urlopen(endpoint, timeout=timeout) as reply:
            payload = json.loads(reply.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as error:
        raise ObservabilityError(
            f"cannot fetch {endpoint}: {error}") from error
    if not isinstance(payload, dict):
        raise ObservabilityError(f"{endpoint}: not a status object")
    return payload


def build_status(campaign: str, snapshot: Dict[str, Any],
                 elapsed_s: float, samples: Sequence[Dict[str, Any]],
                 eta_s: Optional[float], workers: Dict[str, Any],
                 alerts: List[Dict[str, Any]],
                 alert_history: List[Dict[str, Any]],
                 finished: bool) -> Dict[str, Any]:
    """The ``/status`` payload, live or rebuilt from a journal.

    ``snapshot`` holds the fields of
    :meth:`~repro.runtime.metrics.MetricsSnapshot.to_dict`;
    ``throughput`` and the sparkline ``series`` are the samples' EWMA.
    """
    series = [float(sample.get("ewma", 0.0))
              for sample in samples[-SERIES_LENGTH:]]
    return {
        "campaign": campaign,
        **snapshot,
        "throughput": series[-1] if series else 0.0,
        "eta_s": eta_s,
        "elapsed_s": elapsed_s,
        "workers": workers,
        "series": series,
        "alerts": alerts,
        "alert_history": alert_history,
        "finished": finished,
    }


def status_from_journal(journal: str) -> Dict[str, Any]:
    """Rebuild the ``/status`` payload from journal + tsdb sidecar.

    The journal's records feed the same tally the running campaign
    kept; only timings and health counters come from the last sample.
    """
    from ..runtime.journal import read_journal
    from ..runtime.metrics import HEALTH_COUNTERS, CampaignMetrics

    if not os.path.exists(journal):
        raise ObservabilityError(f"{journal}: no such journal")
    state = read_journal(journal)
    label = "(headerless journal)"
    total = len(state.records)
    total_exact = True
    if state.header is not None:
        jobspec = state.jobspec
        label = jobspec.display_label()
        total = jobspec.effective_budget()
        total_exact = jobspec.epsilon is None
    if state.stop is not None and isinstance(state.stop.get("n"), int):
        total, total_exact = state.stop["n"], True
    tally = CampaignMetrics(registry=MetricsRegistry())
    tally.set_total(total, replayed=state.records.values(),
                    exact=total_exact)

    samples: List[Dict[str, Any]] = []
    tsdb = tsdb_path_for(journal)
    if os.path.exists(tsdb):
        samples, dropped = read_tsdb(tsdb)
        if dropped:
            log.debug("%s: dropped %d unverifiable samples", tsdb,
                      dropped)
    last = samples[-1] if samples else {}
    snapshot = {
        **tally.snapshot().to_dict(),
        **{name: last.get(name, 0) for name in HEALTH_COUNTERS},
        "phases": last.get("phases", {}),
    }
    return build_status(
        label, snapshot, elapsed_s=last.get("t", 0.0), samples=samples,
        eta_s=None, workers={}, alerts=[], alert_history=state.alerts,
        finished=state.summary is not None
        or (state.stop is not None
            and state.stop.get("reason") != "interrupted"))


def sparkline(values: List[float], width: int = 32) -> str:
    """Render the last ``width`` values as unicode block glyphs."""
    tail = [max(0.0, float(value)) for value in values[-width:]]
    if not tail:
        return ""
    peak = max(tail)
    if peak <= 0:
        return SPARK_GLYPHS[0] * len(tail)
    steps = len(SPARK_GLYPHS) - 1
    return "".join(SPARK_GLYPHS[round(value / peak * steps)]
                   for value in tail)


def outcome_bar(outcomes: Dict[str, int], width: int = 40) -> str:
    """Proportional outcome summary: ``failure ███ 12 (35%)  ...``"""
    total = sum(outcomes.values())
    if total <= 0:
        return "(no experiments yet)"
    parts: List[str] = []
    ordered = [name for name in OUTCOME_ORDER if outcomes.get(name)]
    ordered += sorted(set(outcomes) - set(OUTCOME_ORDER))
    for name in ordered:
        count = outcomes.get(name, 0)
        if not count:
            continue
        share = count / total
        bar = _BAR_GLYPH * max(1, round(share * width))
        parts.append(f"{name} {bar} {count} ({share:.0%})")
    return "  ".join(parts)


def _fmt_eta(eta_s: Optional[float]) -> str:
    if eta_s is None:
        return "--:--"
    eta = max(0, int(round(eta_s)))
    return f"{eta // 60:02d}:{eta % 60:02d}"


def render_dashboard(status: Dict[str, Any]) -> str:
    """Pure renderer: status -> text."""
    lines: List[str] = []
    total = status.get("total", 0)
    bound = (f"{total}" if status.get("total_exact", True)
             else f"<={total}")
    state = "done" if status.get("finished") else "running"
    lines.append(f"repro top — {status.get('campaign', '?')}   "
                 f"[{state}]   n {status.get('n', 0)}/{bound}   "
                 f"elapsed {float(status.get('elapsed_s') or 0.0):.1f} s")

    workers = status.get("workers") or {}
    worker_cell = ""
    if workers.get("configured"):
        worker_cell = (f"   workers {workers.get('alive', '?')}"
                       f"/{workers['configured']}")
    lines.append(f"throughput {float(status.get('throughput') or 0.0):.2f}"
                 f" exp/s   eta {_fmt_eta(status.get('eta_s'))}"
                 f"{worker_cell}"
                 f"   retries {int(status.get('retries') or 0)}"
                 f"   hangs {int(status.get('hangs') or 0)}"
                 f"   quarantined "
                 f"{int(status.get('quarantined') or 0)}")
    lines.append("outcomes   "
                 + outcome_bar(dict(status.get("outcomes") or {})))

    series = status.get("series") or []
    if series:
        peak = max(float(value) for value in series)
        lines.append(f"thrpt      {sparkline(list(map(float, series)))}"
                     f"   peak {peak:.2f} exp/s")

    active = status.get("alerts") or []
    history = status.get("alert_history") or []
    if active:
        lines.append("ALERTS     "
                     + "   ".join(f"{alert.get('rule')}"
                                  f" [{alert.get('severity')}]"
                                  f" {alert.get('condition', '')}".rstrip()
                                  for alert in active))
    if history:
        lines.append(f"fired      {len(history)} alert"
                     f"{'s' if len(history) != 1 else ''}:")
        for entry in history[-8:]:
            lines.append(f"  t={float(entry.get('t', 0.0)):7.1f}s  "
                         f"{entry.get('rule', '?'):<22s} "
                         f"[{entry.get('severity', '?')}] "
                         f"{entry.get('message', '')}")
    if not active and not history:
        lines.append("alerts     none")
    return "\n".join(lines)


def _poll(target: str) -> Dict[str, Any]:
    if is_url(target):
        return fetch_status(target)
    return status_from_journal(target)


def run_top(target: str, once: bool = False,
            interval: float = 1.0) -> int:
    """Drive the dashboard; returns a process exit code."""
    try:
        status = _poll(target)
    except ObservabilityError as error:
        log.error("%s", error)
        return 1
    if once:
        console(render_dashboard(status))
        return 0
    try:
        while True:
            console(_ANSI_CLEAR + render_dashboard(status))
            if status.get("finished"):
                return 0
            time.sleep(max(0.1, interval))
            try:
                status = _poll(target)
            except ObservabilityError:
                if is_url(target):
                    # The endpoint lives only as long as the campaign:
                    # a vanished server is the normal end of the show.
                    console("campaign endpoint gone (campaign "
                            "finished or aborted)")
                    return 0
                raise
    except KeyboardInterrupt:
        return 130
