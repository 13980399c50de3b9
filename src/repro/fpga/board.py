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

Emulated time is bookkeeping only — no real sleeping happens.  The board
keeps a transaction count and a running seconds total; per-operation
transaction and byte counts are the ``reconfig_transactions_total`` and
``reconfig_bytes_total`` metrics of :mod:`repro.fpga.jbits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class BoardParams:
    """Cost constants of the host/board/driver path."""

    latency_s: float = 0.085        # per-transaction fixed overhead
    bandwidth_bytes_per_s: float = 1.0e6  # effective configuration port rate
    clock_hz: float = 40e6          # emulation clock fed to the design


class Board:
    """Transfer accounting for one emulation session."""

    def __init__(self, params: BoardParams = BoardParams()):
        self.params = params
        self._count = 0
        # Running sum of every transaction's seconds, added left to
        # right, so every marker is O(1).
        self._seconds = 0.0

    def transaction(self, nbytes: int) -> float:
        """Account one transaction; returns its emulated duration in
        seconds."""
        seconds = (self.params.latency_s
                   + nbytes / self.params.bandwidth_bytes_per_s)
        self._count += 1
        self._seconds += seconds
        return seconds

    @property
    def total_seconds(self) -> float:
        """Accumulated emulated transfer time."""
        return self._seconds

    def workload_seconds(self, cycles: int) -> float:
        """Emulated time to execute *cycles* on the FPGA clock."""
        return cycles / self.params.clock_hz

    def snapshot(self) -> Tuple[int, float]:
        """(transaction count, emulated seconds) marker for deltas."""
        return (self._count, self._seconds)

    def since(self, marker: Tuple[int, float]) -> Tuple[int, float]:
        """Transactions and seconds accumulated since *marker*."""
        count, seconds = marker
        return (self._count - count, self._seconds - seconds)
