"""Emulation-time model for FADES experiments.

The paper's emulation time (section 6.2, figure 10, table 2) decomposes
into the parts this model accounts:

* **fault location analysis** — mapping the HDL-level location pool onto
  device resources; proportional to the number of candidate resources
  (this reproduces the paper's observation that combinational-delay
  experiments ran longer than sequential ones "since the selected model
  presents fewer sequential injection points");
* **reconfiguration transfers** — the dominant share; the board seconds
  between the experiment's markers, so it reflects the *actual* frames
  each mechanism moved;
* **workload execution** — cycles divided by the emulation clock;
  negligible, as the paper notes in section 7.1.

All times are *emulated 2006-era* seconds; nothing sleeps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping

from ..fpga.board import Board


@dataclass(frozen=True)
class FadesTimingParams:
    """Cost constants outside the board's transfer model."""

    #: Fault-location analysis cost per candidate resource in the pool,
    #: paid once per experiment (model/configuration-file analysis).
    locate_seconds_per_candidate: float = 2.0e-5
    #: Fixed per-experiment software overhead (setup, trace comparison).
    experiment_overhead_s: float = 0.01


@dataclass
class ExperimentCost:
    """Time breakdown of one fault-injection experiment: the only record
    of emulated time (campaign totals are sums over these)."""

    locate_s: float = 0.0
    transfer_s: float = 0.0
    workload_s: float = 0.0
    overhead_s: float = 0.0
    transactions: int = 0

    @property
    def total_s(self) -> float:
        return (self.locate_s + self.transfer_s + self.workload_s
                + self.overhead_s)

    def to_record(self) -> Dict[str, Any]:
        """JSON-compatible form (a journal record's ``cost``)."""
        return asdict(self)

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "ExperimentCost":
        """Inverse of :meth:`to_record`; missing terms read as zero."""
        return cls(locate_s=float(record.get("locate_s", 0.0)),
                   transfer_s=float(record.get("transfer_s", 0.0)),
                   workload_s=float(record.get("workload_s", 0.0)),
                   overhead_s=float(record.get("overhead_s", 0.0)),
                   transactions=int(record.get("transactions", 0)))


class EmulationTimeModel:
    """Prices one experiment from the board's transfer accounting."""

    def __init__(self, board: Board,
                 params: FadesTimingParams = FadesTimingParams()):
        self.board = board
        self.params = params

    def begin_experiment(self):
        """Board marker; pass the result to :meth:`end_experiment`."""
        return self.board.snapshot()

    def end_experiment(self, marker, cycles: int,
                       pool_size: int) -> ExperimentCost:
        """Close one experiment; returns its cost breakdown."""
        transactions, transfer_s = self.board.since(marker)
        return ExperimentCost(
            locate_s=self.params.locate_seconds_per_candidate * pool_size,
            transfer_s=transfer_s,
            workload_s=self.board.workload_seconds(cycles),
            overhead_s=self.params.experiment_overhead_s,
            transactions=transactions,
        )
