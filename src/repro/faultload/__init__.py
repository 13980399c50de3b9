"""Statistical campaign planning: stratified sampling + early stopping.

The planner treats a fault-injection campaign as a sampling problem
instead of a fixed count:

* :mod:`repro.faultload.strata` partitions the fault space by
  (fault model, target kind, resource group) and draws deterministic
  seed-derived samples per stratum — uniform, proportional-stratified
  or importance-weighted by SFA fan-out cones;
* :mod:`repro.faultload.sequential` stops the campaign as soon as every
  tracked outcome rate's Wilson interval is within ``±epsilon``
  (anytime-valid over a geometric check schedule), under a hard budget.

The runtime engine (:mod:`repro.runtime.engine`) consumes both through
its incremental dispatch loop; the CLI exposes them as
``--strategy/--epsilon/--confidence/--budget``.
"""

from typing import Optional

from .sequential import (SequentialController, StopDecision,
                         TRACKED_OUTCOMES, plan_checkpoints, tally_prefix)
from .strata import (STRATEGIES, DrawnFaults, FaultStream,
                     StratifiedSampler, Stratum, cone_weight,
                     partition_strata, summarize_strata)


def is_adaptive(strategy: str, epsilon: Optional[float],
                budget: Optional[int]) -> bool:
    """Whether a campaign uses the planner at all: non-uniform sampling,
    a stopping rule, or an explicit budget."""
    return (strategy != "uniform" or epsilon is not None
            or budget is not None)


__all__ = [
    "DrawnFaults",
    "FaultStream",
    "STRATEGIES",
    "SequentialController",
    "StopDecision",
    "StratifiedSampler",
    "Stratum",
    "TRACKED_OUTCOMES",
    "cone_weight",
    "is_adaptive",
    "partition_strata",
    "plan_checkpoints",
    "summarize_strata",
    "tally_prefix",
]
