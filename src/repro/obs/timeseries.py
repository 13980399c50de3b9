"""Sealed-line files and the campaign time series.

A *sealed line* is one JSON object carrying a CRC32 of its own
canonical JSON (:func:`seal_line`).  Both durable files of a campaign
are sealed-line files: the result journal
(:mod:`repro.runtime.journal`) and its ``<journal>.tsdb`` time-series
sidecar.  This module is the one implementation of the format:
:func:`scan_sealed` parses every line and checks its CRC, and
:class:`SealedWriter` appends fsync'd lines after truncating a torn
tail — a final line that is unterminated or fails to verify, the
signature of a crash mid-append — so the next line never glues onto
it.  What a reader does with a bad *interior* line is the file's own
policy: the journal refuses it (results are sacred), while
:func:`read_tsdb` drops it (losing a sample never loses a result).

A *sample* is one flat JSON object describing the campaign at a moment
in time: the fields of a :class:`~repro.runtime.metrics.MetricsSnapshot`
(progress, cumulative outcome counts, emulated seconds, phase
wall-clock and the runtime-health counters: hangs, retries,
compiled-backend fallbacks, chaos injections, alert firings) plus its
time ``t`` and its instantaneous and smoothed (EWMA) throughput.  ``t``
is the snapshot's ``wall_s``, the clock of the campaign tally, which
starts before setup.  Samples are taken at the engine's batch barriers
(see ``DESIGN.md``: barrier-clock sampling), at most one per
:data:`SAMPLE_INTERVAL_S` unless forced, and land in a ring of the last
:data:`SERIES_LENGTH` samples that feeds ``/status`` and, when the
campaign journals, in the ``.tsdb`` sidecar, so a crashed campaign
leaves a loadable series and a resumed one extends it.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ObservabilityError

#: Suffix appended to a journal path to derive its time-series sidecar.
TSDB_SUFFIX = ".tsdb"

#: Minimum spacing between samples on the tally's clock, seconds.
SAMPLE_INTERVAL_S = 1.0

#: Samples kept in memory: the trailing series ``/status`` ships.
SERIES_LENGTH = 60

#: EWMA weight of the newest instantaneous-throughput sample.
_EWMA_ALPHA = 0.3


def line_crc(entry: Dict[str, Any]) -> str:
    """CRC32 (hex) of an entry's canonical JSON, minus the crc itself."""
    payload = {key: value for key, value in entry.items() if key != "crc"}
    canonical = json.dumps(payload, sort_keys=True)
    return format(zlib.crc32(canonical.encode("utf-8")), "08x")


def seal_line(entry: Dict[str, Any]) -> str:
    """Serialise one entry with its integrity checksum."""
    sealed = dict(entry)
    sealed["crc"] = line_crc(entry)
    return json.dumps(sealed, sort_keys=True)


@dataclass(frozen=True)
class LineIssue:
    """One line that failed integrity checking."""

    line_no: int  # 1-based
    offset: int   # byte offset of the line start (truncation point)
    kind: str     # "torn" (unterminated or not a JSON object) | "corrupt"
    detail: str


@dataclass
class LineScan:
    """Integrity verdict over every line of a sealed-line file."""

    path: str
    size: int = 0
    lines: int = 0
    checked: int = 0  # lines whose CRC verified
    issues: List[LineIssue] = field(default_factory=list)

    @property
    def torn_tail(self) -> Optional[LineIssue]:
        """The file's final line, when it is bad (a crash signature)."""
        if self.issues and self.issues[-1].line_no == self.lines:
            return self.issues[-1]
        return None

    @property
    def interior(self) -> List[LineIssue]:
        """Bad lines that verified data follows (not crash signatures)."""
        tail = self.torn_tail
        return [issue for issue in self.issues if issue is not tail]

    def verdict(self) -> str:
        if not self.issues:
            return "clean"
        if not self.interior:
            return "torn-tail"
        return "corrupt"

    def truncate_offset(self) -> Optional[int]:
        """Byte offset of the last verifiable prefix (repair point)."""
        if not self.issues:
            return None
        return self.issues[0].offset

    def to_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "verdict": self.verdict(),
                "size": self.size, "lines": self.lines,
                "checked": self.checked,
                "issues": [{"line": issue.line_no,
                            "offset": issue.offset,
                            "kind": issue.kind,
                            "detail": issue.detail}
                           for issue in self.issues]}


def scan_sealed(path: str) -> Tuple[List[Dict[str, Any]], LineScan]:
    """Walk a sealed-line file byte-exactly: the entries that verify,
    in file order, and the verdict.  A missing file scans empty."""
    scan = LineScan(path=path)
    entries: List[Dict[str, Any]] = []
    if not os.path.exists(path):
        return entries, scan
    with open(path, "rb") as handle:
        data = handle.read()
    scan.size = len(data)
    offset = 0
    for raw in data.split(b"\n"):
        line_start, offset = offset, offset + len(raw) + 1
        if not raw.strip():
            continue
        scan.lines += 1
        if offset > len(data):
            scan.issues.append(LineIssue(
                line_no=scan.lines, offset=line_start, kind="torn",
                detail="no line terminator"))
            continue
        try:
            entry = json.loads(raw.decode("utf-8"))
            if not isinstance(entry, dict):
                raise ValueError("line is not an object")
        except (ValueError, UnicodeDecodeError) as error:
            scan.issues.append(LineIssue(
                line_no=scan.lines, offset=line_start, kind="torn",
                detail=f"not a JSON object: {error}"))
            continue
        expected = line_crc(entry)
        if entry.get("crc") != expected:
            scan.issues.append(LineIssue(
                line_no=scan.lines, offset=line_start, kind="corrupt",
                detail=f"CRC mismatch (recorded {entry.get('crc')!r}, "
                       f"computed {expected!r})"))
            continue
        scan.checked += 1
        entries.append(entry)
    return entries, scan


class SealedWriter:
    """Appends sealed lines to a file, each one fsync'd.

    Opening truncates a torn tail in place: appending after one would
    glue the next line onto the partial one and turn a recoverable
    tail into interior damage.
    """

    def __init__(self, path: str):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tail = scan_sealed(path)[1].torn_tail
        if tail is not None:
            with open(path, "r+b") as handle:
                handle.truncate(tail.offset)
        self._handle = open(path, "a", encoding="utf-8")

    def write(self, text: str) -> None:
        """Write raw text durably (callers normally use :meth:`append`)."""
        self._handle.write(text)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, entry: Dict[str, Any]) -> None:
        self.write(seal_line(entry) + "\n")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "SealedWriter":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


def read_tsdb(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Read a time-series sidecar: ``(samples, dropped_lines)``.

    Every bad line is dropped — a torn tail is the expected crash
    signature and interior rot only costs telemetry, never results.
    """
    if not os.path.exists(path):
        raise ObservabilityError(f"{path}: no such time-series file")
    samples, scan = scan_sealed(path)
    return samples, len(scan.issues)


def tsdb_path_for(journal: str) -> str:
    """Sidecar path next to a journal (``out.jsonl`` -> ``out.jsonl.tsdb``)."""
    return journal + TSDB_SUFFIX


class TimeseriesSampler:
    """Builds throttled samples from campaign metrics snapshots.

    Fed :class:`~repro.runtime.metrics.MetricsSnapshot` objects at the
    engine's batch barriers; emits a sample at most every
    :data:`SAMPLE_INTERVAL_S` of the snapshots' ``wall_s`` (barrier-clock
    sampling: the hot path never pays for a sample, only the parent's
    per-batch bookkeeping does).  Throughput counts only the snapshot's
    ``completed`` records, so records a resumed campaign replays from
    its journal never read as a burst.
    """

    def __init__(self, path: Optional[str] = None):
        self._writer = SealedWriter(path) if path else None
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
        t = float(snapshot.wall_s)
        if not force and self._last_t is not None \
                and t - self._last_t < SAMPLE_INTERVAL_S:
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
        del self.samples[:-SERIES_LENGTH]
        if self._writer is not None:
            self._writer.append(entry)
        return entry

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
