"""Hierarchical spans over the injection pipeline.

The paper's whole argument is a *time* argument (table 2's speed-ups,
section 5's per-mechanism reconfiguration costs), so the reproduction
needs to see where an experiment's wall-clock actually goes.  A *span*
is one timed region with a name and attributes::

    with tracing.span("experiment", index=7, model="bitflip"):
        with tracing.span("reconfigure", mechanism="ff-lsr"):
            ...

Spans nest through a context-local current-span variable; each finished
span records its parent's id, so exporters and the summariser can
rebuild the hierarchy (and compute *self* time) without relying on
timestamp containment.

Design points:

* **Disabled by default, near-zero cost.**  The process-wide
  :data:`TRACER` starts disabled; a disabled ``span()`` yields without
  taking the lock or reading the clock, so the instrumented hot path
  (:mod:`repro.core.campaign`, :mod:`repro.runtime.jobspec`) stays
  within the overhead budget asserted by
  ``benchmarks/bench_obs_overhead.py``.
* **Multiprocessing-aware.**  Each worker process runs its own tracer
  under its own ``tid`` (span ids are scoped per ``tid``; the parent's
  is :data:`PARENT_TID`); the runtime scheduler ships each shard's
  :meth:`Tracer.drain` to the parent, which writes the events straight
  to its :class:`TraceWriter`.  ``time.monotonic`` is system-wide on the
  platforms we support, so timestamps from different processes share a
  timeline.
* **Chrome/Perfetto-compatible export.**  Events use the Trace Event
  ``"X"`` (complete) phase; the file layout is a JSON array written one
  event per line, which both ``chrome://tracing`` and Perfetto load
  (the closing bracket is optional in the Trace Event format) and which
  behaves like an append-only JSONL journal: a torn tail line — the
  crash signature — is dropped on read, exactly like
  :mod:`repro.runtime.journal` does.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import (Any, Callable, ContextManager, Dict, Iterator,
                    List, Optional)

from ..errors import ObservabilityError

#: ``tid`` used for spans recorded by the campaign's parent process.
PARENT_TID = 0


class Tracer:
    """Records spans as Chrome trace events; one instance per process."""

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 tid: int = PARENT_TID) -> None:
        self._clock = clock
        self.enabled = False
        self.tid = tid
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._current: contextvars.ContextVar[Optional[int]] = \
            contextvars.ContextVar("repro_obs_span", default=None)

    # -- lifecycle -----------------------------------------------------
    def enable(self, tid: Optional[int] = None) -> None:
        """Start recording spans (optionally under a new stream id)."""
        if tid is not None:
            self.tid = tid
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self, enabled: bool = False,
              tid: Optional[int] = None) -> None:
        """Drop all state (worker processes call this after ``fork`` so
        events inherited from the parent are not double-reported)."""
        with self._lock:
            self._events = []
            self._next_id = 0
        if tid is not None:
            self.tid = tid
        self.enabled = enabled

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[int]]:
        """Time a region; yields the span id (``None`` when disabled)."""
        if not self.enabled:
            yield None
            return
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = self._current.get()
        token = self._current.set(span_id)
        start = self._clock()
        try:
            yield span_id
        finally:
            duration = self._clock() - start
            self._current.reset(token)
            args = dict(attrs)
            args["id"] = span_id
            args["parent"] = parent
            event: Dict[str, Any] = {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": self.tid,
                "ts": round(start * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "args": args,
            }
            with self._lock:
                self._events.append(event)

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration marker event."""
        if not self.enabled:
            return
        event: Dict[str, Any] = {
            "name": name, "ph": "i", "pid": 1, "tid": self.tid,
            "ts": round(self._clock() * 1e6, 3), "s": "t",
            "args": dict(attrs)}
        with self._lock:
            self._events.append(event)

    # -- collection ----------------------------------------------------
    @property
    def events(self) -> List[Dict[str, Any]]:
        """Snapshot of the finished events recorded so far."""
        with self._lock:
            return list(self._events)

    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return all finished events (worker shipping)."""
        with self._lock:
            events, self._events = self._events, []
        return events


#: The process-wide tracer every instrumented module records into.
TRACER = Tracer()


def span(name: str, **attrs: Any) -> ContextManager[Optional[int]]:
    """Open a span on the process-wide tracer (the usual entry point)."""
    return TRACER.span(name, **attrs)


# ---------------------------------------------------------------------------
# Chrome-trace file format (JSON array, one event per line, torn-tail safe)
# ---------------------------------------------------------------------------
class TraceWriter:
    """Streams trace events to disk as they arrive.

    The engine keeps one of these open for a traced campaign, so a
    crashed campaign still leaves a loadable trace of everything that
    finished.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "w", encoding="utf-8")
        self._handle.write("[\n")
        self._handle.flush()

    def write(self, events: List[Dict[str, Any]]) -> None:
        for event in events:
            self._handle.write(json.dumps(event, sort_keys=True) + ",\n")
        if events:
            self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


def write_trace(path: str, events: List[Dict[str, Any]]) -> None:
    """Write a complete trace file in one go (overwrites)."""
    with TraceWriter(path) as writer:
        writer.write(events)


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a trace file back into its event list.

    Like the journal reader, malformed lines are dropped rather than
    fatal: a torn tail line only loses the spans that were in flight
    when the process died.
    """
    if not os.path.exists(path):
        raise ObservabilityError(f"{path}: no such trace file")
    events: List[Dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip().rstrip(",")
            if not line or line in "[]":
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail (or foreign garbage): drop
            if isinstance(entry, dict):
                events.append(entry)
    return events
