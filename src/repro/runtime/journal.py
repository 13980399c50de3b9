"""Append-only JSONL result journal with crash-safe resume and fsck.

The journal is the campaign's durable state.  Line one is a header
carrying the full :class:`~repro.runtime.jobspec.CampaignJobSpec`; every
subsequent line is one per-experiment record (built in
:mod:`repro.runtime.jobspec`: emulated, pruned or quarantined) or,
after a campaign completes, a summary line with the aggregate tally.

The journal is a sealed-line file (:mod:`repro.obs.timeseries` holds
the one implementation of the format, shared with the ``.tsdb``
sidecar).  Crash safety relies on three properties:

* records are appended and fsync'd as they arrive, so a killed process
  loses at most the experiments whose records were still in flight;
* every line carries a CRC32 of its canonical JSON payload, so silent
  bit-rot is *detected* rather than resumed from;
* a torn **final** line (unterminated or unverifiable: the classic
  partial-write signature of a crash) is dropped on read — and
  truncated away before any append, so a torn tail can never swallow
  the next record — while an unverifiable **interior** line means data
  between it and the tail may be wrong, so reading refuses with a
  diagnosis until ``repro journal fsck --repair`` truncates to the last
  verifiable prefix.

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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import chaos
from ..errors import ChaosError, JournalError
from ..obs.timeseries import (LineScan, SealedWriter, line_crc,
                              scan_sealed, seal_line)
from .jobspec import CampaignJobSpec

__all__ = [
    "JOURNAL_VERSION", "scan_journal", "repair_journal", "JournalState",
    "read_journal", "check_compatible", "JournalWriter",
]

JOURNAL_VERSION = 1


def scan_journal(path: str) -> LineScan:
    """Integrity-check a journal without interpreting it (``fsck``)."""
    return scan_sealed(path)[1]


def repair_journal(path: str) -> Tuple[LineScan, int]:
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
    resume from a journal whose history is provably damaged.  Alert
    lines keep only the alert's own fields, as the live alert history
    holds them.

    A record that carries ``collapsed_from`` (an outcome copied from an
    equivalent fault, which older versions journaled at zero cost) is
    left out, so a resume emulates that index.
    """
    state = JournalState()
    entries, scan = scan_sealed(path)
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
            if isinstance(index, int) and "collapsed_from" not in entry:
                state.records[index] = entry
        elif kind == "summary":
            state.summary = entry
        elif kind == "stop":
            state.stop = entry
        elif kind == "alert":
            state.alerts.append({key: value for key, value in entry.items()
                                 if key not in ("type", "crc")})
        else:
            state.dropped_lines += 1
    return state


def check_compatible(state: JournalState, jobspec: CampaignJobSpec,
                     path: str) -> None:
    """Refuse to mix two different campaigns in one journal file.

    The header's job spec is compared parsed, so a journal written
    before a job-spec field existed still matches the class it holds."""
    if state.header is None:
        return
    recorded = state.jobspec
    if recorded != jobspec:
        raise JournalError(
            f"{path}: journal belongs to a different campaign "
            f"(label {recorded.display_label()!r}); "
            "use 'repro resume' or pick a fresh journal path")


class JournalWriter:
    """Appends header/record/summary lines with per-append durability.

    Opening the writer truncates a torn tail in place (the crash
    signature resume already tolerates; see
    :class:`~repro.obs.timeseries.SealedWriter`).
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
        self._log = SealedWriter(path)
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
            self._log.write(line[:max(1, len(line) // 2)])
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
        self._log.write(line + "\n")

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
        self._log.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
