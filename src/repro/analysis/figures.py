"""Generators for the paper's figures 10–15 (data series, text-rendered).

Figures are bar charts in the paper; here each figure is a list of labelled
series (Failure/Latent/Silent percentages, or mean emulation times) plus an
ASCII rendering for bench output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..core import FaultModel, Outcome
from ..core.faults import BAND_LABELS, Fault, Target, TargetKind
from .experiments import Evaluation, default_fault_count


@dataclass
class FigureBar:
    """One bar (or bar group) of a figure."""

    label: str
    failure: float = 0.0
    latent: float = 0.0
    silent: float = 0.0
    #: A time bar's emulated seconds per fault; NaN when no experiment
    #: of its class was emulated (all pruned).
    mean_time_s: Optional[float] = None
    n: int = 0
    failure_ci: str = ""  # Wilson interval rendering of the failure rate


@dataclass
class Figure:
    """A complete figure: a title plus its bars."""

    title: str
    bars: List[FigureBar] = field(default_factory=list)

    def render(self) -> str:
        lines = [self.title, "-" * len(self.title)]
        for bar in self.bars:
            if bar.mean_time_s is not None and math.isnan(bar.mean_time_s):
                lines.append(f"{bar.label:<28} no emulated experiments"
                             f"  (n={bar.n})")
            elif bar.mean_time_s is not None:
                lines.append(f"{bar.label:<28} {bar.mean_time_s:8.3f} s/fault"
                             f"  (n={bar.n})")
            else:
                blocks = int(round(bar.failure / 5))
                ci = f" CI{bar.failure_ci}" if bar.failure_ci else ""
                lines.append(
                    f"{bar.label:<28} F {bar.failure:5.1f}% "
                    f"L {bar.latent:5.1f}% S {bar.silent:5.1f}%  "
                    f"|{'#' * blocks:<20}| (n={bar.n}){ci}")
        return "\n".join(lines)


def _bar_from(result, label: str) -> FigureBar:
    from .stats import failure_interval
    counts = result.counts()
    interval = failure_interval(counts)
    _point, low, high = interval.percent()
    return FigureBar(
        label=label,
        failure=counts.percent(Outcome.FAILURE),
        latent=counts.percent(Outcome.LATENT),
        silent=counts.percent(Outcome.SILENT),
        n=counts.total,
        failure_ci=f"[{low:.0f},{high:.0f}]",
    )


# ---------------------------------------------------------------------------
def generate_fig10(evaluation: Evaluation,
                   count: Optional[int] = None) -> Figure:
    """Figure 10: mean emulation time of experiments performed via FADES.

    Includes the oscillating-indetermination variant the paper quotes in
    the text (~4605 s for 3000 faults of 10–20 cycles).
    """
    figure = Figure("Figure 10. Mean emulation time per experiment class "
                    "(emulated seconds per fault)")
    oscillating = evaluation.spec(FaultModel.INDETERMINATION, "ffs", 2,
                                  count, oscillate=True)
    for name, spec in evaluation.experiment_matrix(count) + [
            ("indet/Sequential osc. 11-20", oscillating)]:
        result = evaluation.run_fades(spec)
        # A class whose every fault was pruned has no time to draw.
        figure.bars.append(FigureBar(
            label=name, n=len(result.experiments),
            mean_time_s=(result.mean_emulation_s
                         if result.emulated_count() else math.nan)))
    return figure


def generate_fig11(evaluation: Evaluation, count: Optional[int] = None,
                   screen: bool = True) -> Figure:
    """Figure 11: bit-flip outcomes into registers vs memory.

    The paper pre-screens locations (section 6.3): only the registers that
    can cause failures ("14 registers, 81 FFs out of 637") and the memory
    positions the workload occupies are targeted.
    """
    import random
    fades = evaluation.fades
    n = count if count is not None else default_fault_count()
    figure = Figure("Figure 11. Results from the bit-flip emulation")

    if screen:
        eligible = fades.screen_sensitive_ffs(evaluation.cycles,
                                              samples_per_ff=1)
    else:
        eligible = list(range(len(fades.locmap.mapped.ffs)))
    rng = random.Random(evaluation.seed)
    faults = [Fault(FaultModel.BITFLIP,
                    Target(TargetKind.FF, rng.choice(eligible)),
                    rng.randrange(evaluation.cycles))
              for _ in range(n)]
    result = fades.run_faults(faults, evaluation.cycles, label="bitflip/ffs")
    bar = _bar_from(result, f"Registers ({len(eligible)} eligible FFs)")
    figure.bars.append(bar)

    spec = evaluation.spec(FaultModel.BITFLIP, "memory:iram", 1, n)
    result = evaluation.run_fades(spec)
    figure.bars.append(_bar_from(result, "Memory (occupied positions)"))
    return figure


def _band_sweep(evaluation: Evaluation, model: FaultModel, pool: str,
                label: str, count: Optional[int]) -> List[FigureBar]:
    bars = []
    for band, band_label in enumerate(BAND_LABELS):
        spec = evaluation.spec(model, pool, band, count)
        result = evaluation.run_fades(spec, seed=evaluation.seed + band)
        bars.append(_bar_from(result, f"{label} {band_label}"))
    return bars


def generate_fig12(evaluation: Evaluation,
                   count: Optional[int] = None) -> Figure:
    """Figure 12: delay and indetermination into sequential logic."""
    figure = Figure("Figure 12. Delay and indetermination emulation into "
                    "sequential logic (by fault duration)")
    figure.bars += _band_sweep(evaluation, FaultModel.DELAY, "nets:seq",
                               "delay", count)
    figure.bars += _band_sweep(evaluation, FaultModel.INDETERMINATION,
                               "ffs", "indetermination", count)
    return figure


def generate_fig13(evaluation: Evaluation,
                   count: Optional[int] = None) -> Figure:
    """Figure 13: pulse emulation per combinational unit (ALU/MEM/FSM)."""
    figure = Figure("Figure 13. Results from pulse emulation "
                    "(per unit, by fault duration)")
    for unit in ("ALU", "MEM", "FSM"):
        figure.bars += _band_sweep(evaluation, FaultModel.PULSE,
                                   f"luts:{unit}", f"pulse {unit}", count)
    return figure


def generate_fig14(evaluation: Evaluation,
                   count: Optional[int] = None) -> Figure:
    """Figure 14: indetermination into combinational units."""
    figure = Figure("Figure 14. Results from indetermination emulation "
                    "into combinational logic")
    for unit in ("ALU", "MEM", "FSM"):
        figure.bars += _band_sweep(evaluation, FaultModel.INDETERMINATION,
                                   f"luts:{unit}", f"indet {unit}", count)
    return figure


def generate_fig15(evaluation: Evaluation,
                   count: Optional[int] = None) -> Figure:
    """Figure 15: delay into combinational units."""
    figure = Figure("Figure 15. Results from delay emulation into "
                    "combinational logic")
    for unit in ("ALU", "MEM", "FSM"):
        figure.bars += _band_sweep(evaluation, FaultModel.DELAY,
                                   f"nets:comb:{unit}", f"delay {unit}",
                                   count)
    return figure
