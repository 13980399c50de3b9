"""Host prototyping-board model: configuration-port transfer accounting.

The paper's prototype ran on a Celoxica RC1000-PP board; reconfiguration
and readback crossed the host PCI bus through the JBits API and the board
driver, and that traffic — not the workload execution — dominated each
experiment's wall-clock time (sections 6.2 and 7.1).

:class:`Board` emulates that cost: every transaction pays a fixed
latency (driver + JBits overhead) plus a bandwidth-proportional term.  The
defaults are calibrated so that the mechanism recipes of
:mod:`repro.core.injector` land on the per-fault times of the paper's
figure 10 / table 2 (e.g. a full ~750 KiB configuration download costs
about 0.8 s, a three-transaction LSR bit-flip about 0.26 s).

Emulated time is bookkeeping only — no real sleeping happens; benchmarks
read the accumulated totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class BoardParams:
    """Cost constants of the host/board/driver path."""

    latency_s: float = 0.085        # per-transaction fixed overhead
    bandwidth_bytes_per_s: float = 1.0e6  # effective configuration port rate
    clock_hz: float = 40e6          # emulation clock fed to the design


@dataclass
class Transaction:
    """One logged configuration-port transaction."""

    op: str          # 'read' | 'write' | 'write_full' | 'read_full'
    kind: str        # frame kind, or 'full'
    nbytes: int
    seconds: float
    label: str = ""  # optional mechanism tag for reports


class Board:
    """Transfer accounting for one emulation session."""

    def __init__(self, params: BoardParams = BoardParams()):
        self.params = params
        self.transactions: List[Transaction] = []
        self._label = ""
        # Running sum of ``transactions[*].seconds``, added left to right
        # as the log grows, so it equals ``sum()`` over the log bit for
        # bit and every marker is O(1).
        self._seconds = 0.0

    def set_label(self, label: str) -> None:
        """Tag subsequent transactions (e.g. with the fault model name)."""
        self._label = label

    def transaction(self, op: str, kind: str, nbytes: int) -> float:
        """Log one transaction; returns its emulated duration in seconds."""
        seconds = (self.params.latency_s
                   + nbytes / self.params.bandwidth_bytes_per_s)
        self.transactions.append(
            Transaction(op=op, kind=kind, nbytes=nbytes, seconds=seconds,
                        label=self._label))
        self._seconds += seconds
        return seconds

    # -- aggregation -----------------------------------------------------
    @property
    def total_seconds(self) -> float:
        """Accumulated emulated transfer time."""
        return self._seconds

    @property
    def total_bytes(self) -> int:
        """Accumulated bytes moved over the configuration port."""
        return sum(t.nbytes for t in self.transactions)

    def seconds_by_label(self) -> Dict[str, float]:
        """Emulated seconds grouped by mechanism label."""
        totals: Dict[str, float] = {}
        for transaction in self.transactions:
            totals[transaction.label] = (totals.get(transaction.label, 0.0)
                                         + transaction.seconds)
        return totals

    def workload_seconds(self, cycles: int) -> float:
        """Emulated time to execute *cycles* on the FPGA clock."""
        return cycles / self.params.clock_hz

    def clear(self) -> None:
        """Drop the log (start of a new campaign)."""
        self.transactions.clear()
        self._seconds = 0.0

    def snapshot(self) -> Tuple[int, float]:
        """(transaction count, emulated seconds) marker for deltas."""
        return (len(self.transactions), self._seconds)

    def since(self, marker: Tuple[int, float]) -> Tuple[int, float]:
        """Transactions and seconds accumulated since *marker*."""
        count, seconds = marker
        return (len(self.transactions) - count, self._seconds - seconds)
