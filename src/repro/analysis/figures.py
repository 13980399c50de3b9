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
from .experiments import (MEMORY_BITFLIPS, TIMED_CLASSES, Evaluation,
                          default_fault_count)


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
    classes = [(name, model, pool, band, False)
               for name, model, pool, band in TIMED_CLASSES]
    classes.append(("indet/Sequential osc. 11-20",
                    FaultModel.INDETERMINATION, "ffs", 2, True))
    for name, model, pool, band, oscillate in classes:
        result = evaluation.result("fades", model, pool, band, count,
                                   oscillate=oscillate)
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

    _name, model, pool, band = MEMORY_BITFLIPS
    result = evaluation.result("fades", model, pool, band, n)
    figure.bars.append(_bar_from(result, "Memory (occupied positions)"))
    return figure


def _sweep_figure(evaluation: Evaluation, title: str, sweeps,
                  count: Optional[int]) -> Figure:
    """A figure of band sweeps: one bar per (label, model, pool) and
    duration band (:meth:`Evaluation.band_sweep`)."""
    figure = Figure(title)
    for label, model, pool in sweeps:
        results = evaluation.band_sweep("fades", model, pool, count=count)
        figure.bars += [_bar_from(result, f"{label} {band_label}")
                        for band_label, result in zip(BAND_LABELS, results)]
    return figure


def _unit_sweeps(label: str, model: FaultModel, pool: str):
    """Sweeps over the combinational units (Figs. 13–15)."""
    return [(f"{label} {unit}", model, f"{pool}:{unit}")
            for unit in ("ALU", "MEM", "FSM")]


def generate_fig12(evaluation: Evaluation,
                   count: Optional[int] = None) -> Figure:
    """Figure 12: delay and indetermination into sequential logic."""
    return _sweep_figure(
        evaluation, "Figure 12. Delay and indetermination emulation into "
        "sequential logic (by fault duration)",
        [("delay", FaultModel.DELAY, "nets:seq"),
         ("indetermination", FaultModel.INDETERMINATION, "ffs")], count)


def generate_fig13(evaluation: Evaluation,
                   count: Optional[int] = None) -> Figure:
    """Figure 13: pulse emulation per combinational unit (ALU/MEM/FSM)."""
    return _sweep_figure(
        evaluation, "Figure 13. Results from pulse emulation "
        "(per unit, by fault duration)",
        _unit_sweeps("pulse", FaultModel.PULSE, "luts"), count)


def generate_fig14(evaluation: Evaluation,
                   count: Optional[int] = None) -> Figure:
    """Figure 14: indetermination into combinational units."""
    return _sweep_figure(
        evaluation, "Figure 14. Results from indetermination emulation "
        "into combinational logic",
        _unit_sweeps("indet", FaultModel.INDETERMINATION, "luts"), count)


def generate_fig15(evaluation: Evaluation,
                   count: Optional[int] = None) -> Figure:
    """Figure 15: delay into combinational units."""
    return _sweep_figure(
        evaluation, "Figure 15. Results from delay emulation into "
        "combinational logic",
        _unit_sweeps("delay", FaultModel.DELAY, "nets:comb"), count)
