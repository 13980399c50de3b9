"""Campaign time series: periodic samples of a running campaign.

A *sample* is one flat JSON object describing the campaign at a moment
in time: the fields of a :class:`~repro.runtime.metrics.MetricsSnapshot`
(progress, cumulative outcome counts, emulated seconds, phase
wall-clock and the runtime-health counters: hangs, retries,
compiled-backend fallbacks, chaos injections, alert firings) plus the
sample's time and its instantaneous and smoothed throughput.  Samples
are taken at the engine's batch barriers (see ``DESIGN.md``:
barrier-clock sampling), throttled to a minimum spacing, and land in
two places:

* a bounded in-memory ring buffer, which feeds the ``/status`` endpoint
  and the ``repro top`` sparkline;
* an append-only ``<journal>.tsdb`` JSONL sidecar using the journal's
  CRC-per-line convention (:func:`line_crc` / :func:`seal_line` live
  here and :mod:`repro.runtime.journal` imports them), so a crashed
  campaign leaves a loadable series and a resumed one extends it.

Unlike the journal, the time series is advisory telemetry: a corrupt
line anywhere is *dropped* on read rather than refused — losing a
sample never loses a result.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ObservabilityError

#: Suffix appended to a journal path to derive its time-series sidecar.
TSDB_SUFFIX = ".tsdb"

#: Default minimum spacing between samples, seconds.
DEFAULT_INTERVAL_S = 1.0

#: Default ring-buffer capacity (samples kept in memory for /status).
DEFAULT_CAPACITY = 512

#: EWMA weight of the newest instantaneous-throughput sample.
_EWMA_ALPHA = 0.3


def line_crc(entry: Dict[str, Any]) -> str:
    """CRC32 (hex) of an entry's canonical JSON, minus the crc itself."""
    payload = {key: value for key, value in entry.items() if key != "crc"}
    canonical = json.dumps(payload, sort_keys=True)
    return format(zlib.crc32(canonical.encode("utf-8")), "08x")


def seal_line(entry: Dict[str, Any]) -> str:
    """Serialise one journal/tsdb entry with its integrity checksum."""
    sealed = dict(entry)
    sealed["crc"] = line_crc(entry)
    return json.dumps(sealed, sort_keys=True)


def verify_line(raw: str) -> Optional[Dict[str, Any]]:
    """Parse one sealed line; ``None`` when torn, unsealed or
    CRC-mismatched."""
    try:
        entry = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(entry, dict):
        return None
    if entry.get("crc") != line_crc(entry):
        return None
    return entry


class TsdbWriter:
    """Appends sealed sample lines with per-append durability.

    Mirrors :class:`repro.runtime.journal.JournalWriter`'s torn-tail
    discipline: opening truncates a partial final line in place so a
    crash signature never glues onto the next sample.
    """

    def __init__(self, path: str):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._truncate_torn_tail()
        self._handle = open(path, "a", encoding="utf-8")

    def _truncate_torn_tail(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            data = handle.read()
        if not data or data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1  # 0 when no complete line exists
        with open(self.path, "r+b") as handle:
            handle.truncate(keep)

    def append(self, sample: Dict[str, Any]) -> None:
        self._handle.write(seal_line(sample) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "TsdbWriter":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


def read_tsdb(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Read a time-series sidecar: ``(samples, dropped_lines)``.

    Any line that fails to parse or verify is dropped — a torn tail is
    the expected crash signature and interior rot only costs telemetry,
    never results.
    """
    if not os.path.exists(path):
        raise ObservabilityError(f"{path}: no such time-series file")
    samples: List[Dict[str, Any]] = []
    dropped = 0
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if not raw:
                continue
            entry = verify_line(raw)
            if entry is None:
                dropped += 1
                continue
            samples.append(entry)
    return samples, dropped


def tsdb_path_for(journal: str) -> str:
    """Sidecar path next to a journal (``out.jsonl`` -> ``out.jsonl.tsdb``)."""
    return journal + TSDB_SUFFIX


class TimeseriesSampler:
    """Builds throttled samples from campaign metrics snapshots.

    Fed :class:`~repro.runtime.metrics.MetricsSnapshot` objects at the
    engine's batch barriers; emits a sample at most every ``interval``
    seconds (barrier-clock sampling: the hot path never pays for a
    sample, only the parent's per-batch bookkeeping does).  Throughput
    counts only the snapshot's ``completed`` records, so records a
    resumed campaign replays from its journal never read as a burst.
    """

    def __init__(self, path: Optional[str] = None,
                 interval: float = DEFAULT_INTERVAL_S,
                 capacity: int = DEFAULT_CAPACITY,
                 clock: Callable[[], float] = time.monotonic):
        self.interval = max(0.0, interval)
        self.capacity = max(2, capacity)
        self._clock = clock
        self._writer = TsdbWriter(path) if path else None
        self._started = clock()
        self._last_t: Optional[float] = None
        self._last_completed = 0
        self.ewma: Optional[float] = None
        self.samples: List[Dict[str, Any]] = []

    @property
    def last(self) -> Optional[Dict[str, Any]]:
        return self.samples[-1] if self.samples else None

    def sample(self, snapshot: Any,
               force: bool = False) -> Optional[Dict[str, Any]]:
        """Take one sample, or return ``None`` while throttled.

        ``snapshot`` is a :class:`~repro.runtime.metrics.MetricsSnapshot`
        (typed loosely to keep this module free of runtime imports).
        """
        now = self._clock()
        t = now - self._started
        if not force and self._last_t is not None \
                and t - self._last_t < self.interval:
            return None
        completed = int(snapshot.completed)
        dt = t - self._last_t if self._last_t is not None else t
        inst = (completed - self._last_completed) / dt if dt > 0 else 0.0
        self.ewma = inst if self.ewma is None else \
            _EWMA_ALPHA * inst + (1.0 - _EWMA_ALPHA) * self.ewma
        self._last_t, self._last_completed = t, completed
        entry: Dict[str, Any] = {
            "t": round(t, 4),
            **snapshot.to_dict(),
            "throughput": round(inst, 4),
            "ewma": round(self.ewma, 4),
        }
        self.samples.append(entry)
        if len(self.samples) > self.capacity:
            del self.samples[:len(self.samples) - self.capacity]
        if self._writer is not None:
            self._writer.append(entry)
        return entry

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
