"""Append-only JSONL result journal with crash-safe resume and fsck.

The journal is the campaign's durable state.  Line one is a header
carrying the full :class:`~repro.runtime.jobspec.CampaignJobSpec`; every
subsequent line is one per-experiment record (see
:func:`repro.runtime.jobspec.record_from_result`) or, after a campaign
completes, a summary line with the aggregate tally.

Crash safety relies on three properties:

* records are appended and fsync'd as they arrive, so a killed process
  loses at most the experiments whose records were still in flight;
* every line carries a CRC32 of its canonical JSON payload, so silent
  bit-rot is *detected* rather than resumed from;
* a torn or unverifiable **final** line (the classic partial-write
  signature of a crash) is dropped on read — and truncated away before
  any append, so a torn tail can never swallow the next record — while
  an unverifiable **interior** line means data between it and the tail
  may be wrong, so reading refuses with a diagnosis until
  ``repro journal fsck --repair`` truncates to the last verifiable
  prefix.

Resuming is therefore trivial: read the journal, skip every fault index
that already has a record, run the rest, append.  Records are keyed by
fault index; because the engine's determinism contract makes every
experiment's outcome a pure function of (spec, seed, index), a re-run of
a lost index reproduces the lost record's outcome and first divergence
exactly.  Its cost agrees only to rounding: ``Board.since`` subtracts two
running totals, so a cost's last bits depend on what ran before it on
that board.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import chaos
from ..errors import ChaosError, JournalError
# Canonical home of the CRC-per-line convention is the observability
# layer (the .tsdb sidecar shares it); re-exported here because the
# journal is where existing callers know to find it.
from ..obs.timeseries import line_crc, seal_line
from .jobspec import CampaignJobSpec

__all__ = [
    "JOURNAL_VERSION", "line_crc", "seal_line", "LineIssue",
    "JournalScan", "scan_journal", "repair_journal", "JournalState",
    "read_journal", "check_compatible", "JournalWriter",
]

JOURNAL_VERSION = 1


@dataclass(frozen=True)
class LineIssue:
    """One line that failed integrity checking."""

    line_no: int  # 1-based
    offset: int   # byte offset of the line start (truncation point)
    kind: str     # "torn" (not valid JSON) | "corrupt" (CRC bad/missing)
    detail: str


@dataclass
class JournalScan:
    """Integrity verdict over every line of a journal file."""

    path: str
    size: int = 0
    lines: int = 0
    checked: int = 0  # lines whose CRC verified
    issues: List[LineIssue] = field(default_factory=list)

    @property
    def torn_tail(self) -> Optional[LineIssue]:
        """The file's final line, when it is the (only) bad one."""
        if len(self.issues) == 1 and self.issues[0].line_no == self.lines:
            return self.issues[0]
        return None

    @property
    def interior(self) -> List[LineIssue]:
        """Bad lines that verified data follows (not crash signatures)."""
        tail = self.torn_tail
        return [issue for issue in self.issues if issue is not tail]

    def verdict(self) -> str:
        if not self.issues:
            return "clean"
        if self.torn_tail is not None:
            return "torn-tail"
        return "corrupt"

    def truncate_offset(self) -> Optional[int]:
        """Byte offset of the last verifiable prefix (repair point)."""
        if not self.issues:
            return None
        return self.issues[0].offset

    def to_dict(self) -> Dict:
        return {"path": self.path, "verdict": self.verdict(),
                "size": self.size, "lines": self.lines,
                "checked": self.checked,
                "issues": [{"line": issue.line_no,
                            "offset": issue.offset,
                            "kind": issue.kind,
                            "detail": issue.detail}
                           for issue in self.issues]}


def _scan_lines(path: str) -> Tuple[List[Dict], JournalScan]:
    """Walk a journal byte-exactly: entries that verify + the verdict."""
    scan = JournalScan(path=path)
    entries: List[Dict] = []
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
        try:
            entry = json.loads(raw.decode("utf-8"))
            if not isinstance(entry, dict):
                raise ValueError("journal line is not an object")
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


def scan_journal(path: str) -> JournalScan:
    """Integrity-check a journal without interpreting it (``fsck``)."""
    return _scan_lines(path)[1]


def repair_journal(path: str) -> Tuple[JournalScan, int]:
    """Truncate a journal to its last verifiable prefix.

    Returns the pre-repair scan and the number of bytes dropped (zero
    when the journal was already clean).
    """
    scan = scan_journal(path)
    offset = scan.truncate_offset()
    if offset is None:
        return scan, 0
    with open(path, "r+b") as handle:
        handle.truncate(offset)
    return scan, scan.size - offset


@dataclass
class JournalState:
    """Everything a journal file currently holds."""

    header: Optional[Dict] = None
    records: Dict[int, Dict] = field(default_factory=dict)
    summary: Optional[Dict] = None
    #: Early-stopping decision of an adaptive campaign (latest wins):
    #: stop reason, experiment count and achieved confidence intervals.
    stop: Optional[Dict] = None
    #: Alert firings journalled by the live-observability layer, in
    #: append order; resume replays them so an alert that fired before
    #: a crash is not silently forgotten.
    alerts: List[Dict] = field(default_factory=list)
    dropped_lines: int = 0

    @property
    def jobspec(self) -> CampaignJobSpec:
        if self.header is None:
            raise JournalError("journal has no header line")
        return CampaignJobSpec.from_dict(self.header.get("jobspec", {}))

    def done_indices(self, count: int) -> Dict[int, Dict]:
        """Journaled records that fall inside the current faultload."""
        return {index: record for index, record in self.records.items()
                if 0 <= index < count}


def read_journal(path: str) -> JournalState:
    """Parse a journal file; a missing file reads as an empty state.

    A bad **final** line (torn write or CRC mismatch) is dropped rather
    than fatal: it is the expected crash signature, and losing a record
    only means one deterministic experiment re-runs on resume.  A bad
    **interior** line is refused with a pointer at ``repro journal
    fsck`` — verified lines follow it, so silently dropping it would
    resume from a journal whose history is provably damaged.
    """
    state = JournalState()
    entries, scan = _scan_lines(path)
    if scan.interior:
        first = scan.interior[0]
        raise JournalError(
            f"{path}: line {first.line_no} is {first.kind} "
            f"({first.detail}) but verified lines follow it; run "
            f"'repro journal fsck {path}' to inspect, or fsck "
            "--repair to truncate to the last verifiable prefix")
    if scan.torn_tail is not None:
        state.dropped_lines += 1
    for entry in entries:
        kind = entry.get("type")
        if kind == "header":
            if state.header is None:
                state.header = entry
        elif kind == "record":
            index = entry.get("index")
            if isinstance(index, int):
                state.records[index] = entry
        elif kind == "summary":
            state.summary = entry
        elif kind == "stop":
            state.stop = entry
        elif kind == "alert":
            state.alerts.append(entry)
        else:
            state.dropped_lines += 1
    return state


def check_compatible(state: JournalState, jobspec: CampaignJobSpec,
                     path: str) -> None:
    """Refuse to mix two different campaigns in one journal file."""
    if state.header is None:
        return
    recorded = state.header.get("jobspec")
    if recorded != jobspec.to_dict():
        raise JournalError(
            f"{path}: journal belongs to a different campaign "
            f"(label {CampaignJobSpec.from_dict(recorded or {}).display_label()!r}); "
            "use 'repro resume' or pick a fresh journal path")


class JournalWriter:
    """Appends header/record/summary lines with per-append durability.

    Opening the writer truncates a torn tail in place (the crash
    signature resume already tolerates): appending after one would glue
    the next record onto the partial line and turn a recoverable tail
    into interior corruption.
    """

    def __init__(self, path: str, jobspec: CampaignJobSpec,
                 state: Optional[JournalState] = None):
        self.path = path
        state = state if state is not None else read_journal(path)
        check_compatible(state, jobspec, path)
        # Chaos decisions are salted with the dropped-line count so a
        # torn_write that already fired (and was dropped on resume)
        # does not re-fire on the re-append — self-clearing, exactly
        # like the transient faults the campaign injects.
        self._chaos_salt = state.dropped_lines
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(path):
            scan = scan_journal(path)
            offset = scan.truncate_offset()
            if scan.torn_tail is not None and offset is not None:
                with open(path, "r+b") as handle:
                    handle.truncate(offset)
        self._handle = open(path, "a", encoding="utf-8")
        if state.header is None:
            self._append({"type": "header", "version": JOURNAL_VERSION,
                          "jobspec": jobspec.to_dict()})

    def _append(self, entry: Dict) -> None:
        line = seal_line(entry)
        key = entry.get("index")
        key = key if isinstance(key, int) else 0
        if chaos.fire("torn_write", key=key, attempt=self._chaos_salt):
            # A power cut mid-write: half the line lands on disk and
            # the writing process dies (ChaosError unwinds it).
            self._handle.write(line[:max(1, len(line) // 2)])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            raise ChaosError(
                "chaos-injected torn journal write "
                f"(index {key}); resume to recover")
        if chaos.fire("corrupt_record", key=key,
                      attempt=self._chaos_salt):
            # Silent bit-rot: the line lands whole but its payload no
            # longer matches its CRC.
            crc = line_crc(entry)
            bad = format(int(crc, 16) ^ 0xFFFFFFFF, "08x")
            line = line.replace(f'"crc": "{crc}"', f'"crc": "{bad}"')
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append_record(self, record: Dict) -> None:
        entry = dict(record)
        entry["type"] = "record"
        self._append(entry)

    def append_stop(self, decision: Dict) -> None:
        """Record an adaptive campaign's stopping decision.

        Written before the summary so a resumed early-stopped campaign
        knows the achieved sample size without replaying the stopping
        rule; campaigns without a stopping rule never write one.
        """
        entry = dict(decision)
        entry["type"] = "stop"
        self._append(entry)

    def append_alert(self, event: Dict) -> None:
        """Journal one alert firing (see :mod:`repro.obs.alerts`).

        Alerts are part of the campaign's durable story: a resumed
        campaign replays them into the alert engine's history instead
        of pretending the incident never happened.
        """
        entry = dict(event)
        entry["type"] = "alert"
        self._append(entry)

    def append_interrupt(self) -> None:
        """Terminal line of an interrupted campaign (SIGINT/SIGTERM).

        Carries no ``n``: resume must re-derive the target from the
        spec and keep going, unlike a converged/budget stop line.
        """
        self._append({"type": "stop", "reason": "interrupted"})

    def append_summary(self, counts, total_emulation_s: float,
                       wall_s: float) -> None:
        """Terminal line: lets readers spot a finished campaign at a
        glance (resume treats it as informational only)."""
        entry = {
            "type": "summary",
            "failure": counts.failure,
            "latent": counts.latent,
            "silent": counts.silent,
            "total_emulation_s": total_emulation_s,
            "wall_s": wall_s,
        }
        quarantined = getattr(counts, "quarantined", 0)
        if quarantined:
            entry["quarantined"] = quarantined
        self._append(entry)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
