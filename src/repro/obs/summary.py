"""Trace summarisation: ``repro obs summarize out.json``.

Turns a raw span stream back into the tables the paper reasons with:

* an **engine phase** table (setup / plan / golden / prune /
  experiments / aggregate)
  whose rows partition the parent process's campaign wall-clock — with
  ``--workers 4`` these still sum to the wall time, because they are
  measured in the parent;
* an **experiment phase** table (reconfigure / run / readback /
  classify) in *worker-seconds* of self time — with N workers this sums
  to roughly N× the experiments phase;
* a **per-mechanism** table totalling ``reconfigure`` spans by the
  Table 1 mechanism that produced them (ff-lsr, lut-rewrite, ...);
* a **per-backend** table splitting ``run``/``classify``/``experiment``
  time by the simulator backend (``reference`` vs ``compiled``) so
  mixed-backend traces expose where each engine spent its time.

Self time is computed from the explicit parent links the tracer records
(span ids are scoped per ``tid``/process, so the key is ``(tid, id)``),
not from timestamp containment.

Instant markers are tallied as **runtime events** (watchdog kills,
quarantines, shard retries/bisections, chaos injections, alert
firings), and ``repro obs summarize --alerts JOURNAL`` adds the alert
timeline journalled by the campaign.  The time series itself has one
offline view, ``repro top JOURNAL --once`` (:mod:`repro.obs.live`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .tracing import PARENT_TID

#: Instant-marker names surfaced in the runtime-events table, in
#: display order (foreign instants are tallied too, after these).
RUNTIME_EVENTS = ("watchdog_kill", "shard_retry", "shard_bisect",
                  "quarantine", "chaos", "alert")

#: Engine phases in execution order (children of the ``campaign`` span).
ENGINE_PHASES = ("setup", "plan", "golden", "prune", "experiments",
                 "aggregate")

#: Experiment phases in execution order (children of ``experiment``).
EXPERIMENT_PHASES = ("reconfigure", "run", "readback", "classify")


_SpanKey = Tuple[Any, Any]


def _span_key(event: Dict[str, Any]) -> Optional[_SpanKey]:
    span_id = event.get("args", {}).get("id")
    if span_id is None:
        return None
    return (event.get("tid"), span_id)


def summarize_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a trace event list into per-phase/per-mechanism totals.

    All times are reported in seconds.  Complete (``"ph": "X"``) events
    feed the time tables; instant markers (``"ph": "i"``) are counted
    as runtime events.
    """
    spans = [event for event in events if event.get("ph") == "X"]
    runtime_events: Dict[str, int] = {}
    for event in events:
        if event.get("ph") == "i":
            name = str(event.get("name", "?"))
            runtime_events[name] = runtime_events.get(name, 0) + 1

    # Self time: a span's duration minus its direct children's.
    children_dur: Dict[_SpanKey, float] = {}
    for event in spans:
        parent = event.get("args", {}).get("parent")
        if parent is not None:
            key = (event.get("tid"), parent)
            children_dur[key] = (children_dur.get(key, 0.0)
                                 + event.get("dur", 0.0))

    def self_us(event: Dict[str, Any]) -> float:
        key = _span_key(event)
        child = children_dur.get(key, 0.0) if key else 0.0
        return max(0.0, event.get("dur", 0.0) - child)

    wall_us = 0.0
    engine: Dict[str, Dict[str, Any]] = {}
    phases: Dict[str, Dict[str, Any]] = {}
    mechanisms: Dict[str, Dict[str, Any]] = {}
    backends: Dict[str, Dict[str, Dict[str, Any]]] = {}
    experiments: Dict[str, Any] = {"count": 0, "total_s": 0.0}
    workers = set()

    for event in spans:
        name = event.get("name")
        dur_us = event.get("dur", 0.0)
        tid = event.get("tid")
        if tid not in (None, PARENT_TID):
            workers.add(tid)
        if name == "campaign":
            wall_us += dur_us
        elif name in ENGINE_PHASES and tid == PARENT_TID:
            row = engine.setdefault(name, {"total_s": 0.0, "count": 0})
            row["total_s"] += dur_us / 1e6
            row["count"] += 1
        elif name == "experiment":
            experiments["count"] += 1
            experiments["total_s"] += dur_us / 1e6
        if name in ("run", "classify", "experiment"):
            label = event.get("args", {}).get("backend", "reference")
            row = backends.setdefault(label, {}).setdefault(
                name, {"total_s": 0.0, "count": 0})
            row["total_s"] += dur_us / 1e6
            row["count"] += 1
        if name in EXPERIMENT_PHASES:
            row = phases.setdefault(name, {"self_s": 0.0, "total_s": 0.0,
                                           "count": 0})
            row["self_s"] += self_us(event) / 1e6
            row["total_s"] += dur_us / 1e6
            row["count"] += 1
            if name == "reconfigure":
                label = event.get("args", {}).get("mechanism", "?")
                mech = mechanisms.setdefault(
                    label, {"total_s": 0.0, "count": 0})
                mech["total_s"] += dur_us / 1e6
                mech["count"] += 1

    wall_s = wall_us / 1e6
    phase_sum = sum(row["total_s"] for row in engine.values())
    return {
        "wall_s": wall_s,
        "engine_phases": engine,
        "phase_coverage": (phase_sum / wall_s) if wall_s > 0 else 0.0,
        "experiment_phases": phases,
        "mechanisms": mechanisms,
        "backends": backends,
        "experiments": experiments,
        "workers": len(workers),
        "events": len(spans),
        "runtime_events": runtime_events,
    }


def _fmt_s(seconds: float) -> str:
    return f"{seconds:10.3f}"


def render_summary(summary: Dict[str, Any],
                   alerts: Optional[List[Dict[str, Any]]] = None) -> str:
    """Human-readable table for ``repro obs summarize``.

    ``alerts``, the journalled alerts (``--alerts``), adds an alert
    timeline section.
    """
    lines: List[str] = []
    wall = summary["wall_s"]
    lines.append(f"campaign wall-clock   {wall:.3f} s   "
                 f"({summary['events']} spans, "
                 f"{summary['workers']} worker streams)")
    lines.append("")

    engine = summary["engine_phases"]
    if engine:
        lines.append("engine phase      total (s)    share")
        lines.append("-" * 38)
        ordered = [name for name in ENGINE_PHASES if name in engine]
        ordered += sorted(set(engine) - set(ENGINE_PHASES))
        for name in ordered:
            row = engine[name]
            share = row["total_s"] / wall if wall > 0 else 0.0
            lines.append(f"{name:<14s} {_fmt_s(row['total_s'])}   "
                         f"{share:6.1%}")
        covered = sum(engine[name]["total_s"] for name in engine)
        share = covered / wall if wall > 0 else 0.0
        lines.append(f"{'(covered)':<14s} {_fmt_s(covered)}   "
                     f"{share:6.1%}")
        lines.append("")

    phases = summary["experiment_phases"]
    if phases:
        lines.append("experiment phase  self (s)     count   "
                     "mean (ms)   [worker-seconds]")
        lines.append("-" * 62)
        ordered = [name for name in EXPERIMENT_PHASES if name in phases]
        ordered += sorted(set(phases) - set(EXPERIMENT_PHASES))
        for name in ordered:
            row = phases[name]
            mean_ms = (row["total_s"] / row["count"] * 1e3
                       if row["count"] else 0.0)
            lines.append(f"{name:<14s} {_fmt_s(row['self_s'])}   "
                         f"{row['count']:7d}   {mean_ms:9.3f}")
        lines.append("")

    mechanisms = summary["mechanisms"]
    if mechanisms:
        lines.append("mechanism (Table 1)   reconfig (s)    count   "
                     "mean (ms)")
        lines.append("-" * 56)
        for label in sorted(mechanisms):
            row = mechanisms[label]
            mean_ms = (row["total_s"] / row["count"] * 1e3
                       if row["count"] else 0.0)
            lines.append(f"{label:<20s} {_fmt_s(row['total_s'])}     "
                         f"{row['count']:7d}   {mean_ms:9.3f}")
        lines.append("")

    backends = summary.get("backends", {})
    if len(backends) > 1 or "compiled" in backends:
        lines.append("backend        span          total (s)    count   "
                     "mean (ms)")
        lines.append("-" * 58)
        for label in sorted(backends):
            for name in ("experiment", "run", "classify"):
                row = backends[label].get(name)
                if not row:
                    continue
                mean_ms = (row["total_s"] / row["count"] * 1e3
                           if row["count"] else 0.0)
                lines.append(f"{label:<12s}   {name:<10s} "
                             f"{_fmt_s(row['total_s'])}   "
                             f"{row['count']:7d}   {mean_ms:9.3f}")
        lines.append("")

    experiments = summary["experiments"]
    if experiments["count"]:
        mean_ms = experiments["total_s"] / experiments["count"] * 1e3
        lines.append(f"experiments: {experiments['count']} spans, "
                     f"{experiments['total_s']:.3f} worker-seconds, "
                     f"mean {mean_ms:.3f} ms")

    runtime_events = summary.get("runtime_events") or {}
    if runtime_events:
        lines.append("")
        lines.append("runtime event         count")
        lines.append("-" * 27)
        ordered = [name for name in RUNTIME_EVENTS
                   if name in runtime_events]
        ordered += sorted(set(runtime_events) - set(RUNTIME_EVENTS))
        for name in ordered:
            lines.append(f"{name:<20s} {runtime_events[name]:6d}")

    if alerts is not None:
        lines.append("")
        if not alerts:
            lines.append("alerts: none fired")
        else:
            lines.append(f"alert timeline ({len(alerts)} fired)")
            lines.append("-" * 48)
            for entry in alerts:
                replayed = " (replayed)" if entry.get("replayed") else ""
                lines.append(
                    f"  t={float(entry.get('t', 0.0)):8.1f}s  "
                    f"{str(entry.get('rule', '?')):<22s} "
                    f"[{entry.get('severity', '?')}]"
                    f"{replayed}")
    return "\n".join(lines)
