"""Shared evaluation setup: the 8051 + Bubblesort testbed of section 6.

One :class:`Evaluation` object lazily builds everything the paper's
evaluation needs — the microcontroller model, the synthesised/implemented
design, a FADES campaign and a VFIT campaign — and runs each experiment
class (tool x fault model x location x duration band) once
(:meth:`Evaluation.result`), both tools through the one runtime driver
(:meth:`Evaluation.run`); section 6's classes are data, below.

Scaling: the paper injects 3000 faults per experiment on a 1303-cycle
workload.  A pure-Python substrate cannot afford that per bench run, so
``faults_per_experiment`` defaults to a small count and can be raised via
the ``REPRO_FAULTS`` / ``REPRO_PAPER_SCALE`` environment knobs; emulated
times are additionally *projected* to paper scale (3000 faults, 1303
cycles, the paper's 6000-element model) so table 2's speed-ups can be
compared directly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core import (CampaignResult, FadesCampaign, FaultLoadSpec,
                    FaultModel, build_fades)
from ..core.campaign import CHECKPOINT_INTERVAL
from ..core.faults import DURATION_BANDS
from ..faultload import is_adaptive
from ..mc8051 import Iss, Mc8051Model, Workload, build_mc8051, bubblesort
from ..vfit import VfitCampaign, VfitTimeModel

#: Paper constants (section 6).
PAPER_FAULTS_PER_EXPERIMENT = 3000
PAPER_WORKLOAD_CYCLES = 1303
PAPER_VFIT_MEAN_S = 7.2          # 21600 s / 3000 faults
PAPER_MODEL_ELEMENTS = 6000      # ~5310 LUTs + 637 FFs


def default_fault_count(fallback: int = 24) -> int:
    """Faults per experiment, honouring the environment knobs."""
    if os.environ.get("REPRO_PAPER_SCALE"):
        return PAPER_FAULTS_PER_EXPERIMENT
    value = os.environ.get("REPRO_FAULTS")
    if value:
        return max(1, int(value))
    return fallback


@dataclass
class Evaluation:
    """Lazily constructed testbed shared by tables, figures and benches."""

    values: Tuple[int, ...] = (9, 3, 12, 5)   # short sort for fast benches
    seed: int = 2006
    #: Worker processes per experiment class (:meth:`run`).
    workers: int = 0
    #: Simulator backend for FADES campaigns: ``reference`` steps the
    #: device model per experiment; ``compiled`` packs experiments into
    #: the bit-parallel :mod:`repro.emu` engine (same classification).
    backend: str = "reference"
    #: Static fault analysis (:mod:`repro.sfa`): resolve provably
    #: Silent faults without emulating them.  Outcome tallies are
    #: guaranteed identical; only the wall-clock changes.
    prune_silent: bool = False
    #: Statistical campaign planning (:mod:`repro.faultload`):
    #: ``strategy`` picks the FADES sampler (``uniform`` is the
    #: historical draw; ``stratified``/``importance`` allocate per
    #: resource group), ``epsilon`` enables confidence-driven early
    #: stopping at ±epsilon Wilson half-width, ``budget`` caps the
    #: experiment count; the stopping rule and the cap apply to both
    #: tools.  All defaults keep the fixed-budget behaviour bit-exact.
    strategy: str = "uniform"
    confidence: float = 0.95
    epsilon: Optional[float] = None
    budget: Optional[int] = None
    _workload: Optional[Workload] = None
    _model: Optional[Mc8051Model] = None
    _cycles: int = 0
    _fades: Optional[FadesCampaign] = None
    _vfit: Optional[VfitCampaign] = None
    _results: Dict[Tuple, CampaignResult] = field(
        default_factory=dict, init=False, repr=False)

    # -- lazy pieces -----------------------------------------------------
    @property
    def workload(self) -> Workload:
        if self._workload is None:
            self._workload = bubblesort(list(self.values))
        return self._workload

    @property
    def model(self) -> Mc8051Model:
        if self._model is None:
            self._model = build_mc8051(self.workload.rom)
        return self._model

    @property
    def cycles(self) -> int:
        """Experiment length: golden run to the terminal loop, plus slack."""
        if not self._cycles:
            iss = Iss(self.workload.rom)
            iss.run_until_idle()
            self._cycles = iss.cycles + 4
        return self._cycles

    @property
    def fades(self) -> FadesCampaign:
        if self._fades is None:
            self._fades = build_fades(
                self.model.netlist, seed=self.seed,
                checkpoint_interval=CHECKPOINT_INTERVAL,
                backend=self.backend)
        return self._fades

    @property
    def vfit(self) -> VfitCampaign:
        if self._vfit is None:
            self._vfit = VfitCampaign(self.model.netlist, seed=self.seed)
        return self._vfit

    # -- campaign execution -----------------------------------------------
    @property
    def adaptive(self) -> bool:
        """Whether campaigns use the statistical planner at all
        (:func:`repro.faultload.is_adaptive`)."""
        return is_adaptive(self.strategy, self.epsilon, self.budget)

    def run(self, spec: FaultLoadSpec, seed: Optional[int] = None,
            tool: str = "fades", **options: Any) -> CampaignResult:
        """Run one experiment class of *tool* (``fades`` or ``vfit``)
        through :func:`~repro.runtime.run_campaign` (``options`` are its
        keywords), its faultload drawn at *seed* (default :attr:`seed`).

        It runs on :attr:`fades` or :attr:`vfit`, in process or in
        :attr:`workers` forks of this process, with or without a
        journal, so a report's classes share one design and golden
        trace per tool.  A VFIT class takes none of the FADES settings
        above (:meth:`~repro.runtime.CampaignJobSpec.from_evaluation`).
        """
        from ..runtime import CampaignJobSpec, run_campaign
        jobspec = CampaignJobSpec.from_evaluation(
            self, spec, faultload_seed=self.seed if seed is None else seed,
            tool=tool)
        return run_campaign(jobspec, workers=self.workers,
                            campaign=getattr(self, tool), **options)

    def result(self, tool: str, model: FaultModel, pool: str,
               band: int = 1, count: Optional[int] = None,
               oscillate: bool = False, mechanism: str = "",
               seed: Optional[int] = None) -> CampaignResult:
        """One experiment class run through *tool* (``fades`` or
        ``vfit``), its faultload drawn at *seed* (default :attr:`seed`),
        memoised per distinct class.  Like :attr:`fades`, the memo
        assumes the settings above are fixed before the first run."""
        spec = self.spec(model, pool, band, count, oscillate, mechanism)
        seed = self.seed if seed is None else seed
        key = (tool, model, pool, band, spec.count, oscillate, mechanism,
               seed)
        if key not in self._results:
            self._results[key] = self.run(spec, seed=seed, tool=tool)
        return self._results[key]

    def band_sweep(self, tool: str, model: FaultModel, pool: str,
                   bands: Tuple[int, ...] = (0, 1, 2),
                   count: Optional[int] = None) -> List[CampaignResult]:
        """One :meth:`result` per duration band; band *b* draws its
        faultload at ``seed + b`` (Table 3 and Figs. 12–15)."""
        return [self.result(tool, model, pool, band, count,
                            seed=self.seed + band)
                for band in bands]

    # -- derived parameters -------------------------------------------------
    @property
    def period_ns(self) -> float:
        return self.fades.impl.timing.period

    def delay_magnitudes(self) -> Tuple[float, float]:
        """Delay-fault magnitude range, calibrated to the design's clock.

        Uniform over (0.1, 0.8) of the period: small enough that many
        injections are absorbed by slack (the paper's "may or may not
        affect the circuit"), large enough that long paths violate.
        """
        return (0.1 * self.period_ns, 0.8 * self.period_ns)

    @property
    def occupied_memory(self) -> Tuple[int, int]:
        """The workload's data array in IRAM.

        The paper pre-selected memory positions whose corruption is likely
        observable ("the occurrence of a bit-flip in the selected memory
        positions will very likely cause a failure", section 6.3); for
        Bubblesort that is the array being sorted.
        """
        return (0x30, 0x30 + len(self.values))

    # -- experiment classes ---------------------------------------------------
    def spec(self, model: FaultModel, pool: str, band: int = 1,
             count: Optional[int] = None, oscillate: bool = False,
             mechanism: str = "") -> FaultLoadSpec:
        """Build one experiment class over a paper duration band."""
        duration = DURATION_BANDS[band]
        magnitudes = (self.delay_magnitudes()
                      if model is FaultModel.DELAY else (0.0, 0.0))
        mem_range = (self.occupied_memory
                     if pool.startswith("memory") else None)
        return FaultLoadSpec(
            model=model,
            pool=pool,
            count=count if count is not None else default_fault_count(),
            duration_range=duration,
            workload_cycles=self.cycles,
            mem_addr_range=mem_range,
            magnitude_range_ns=magnitudes,
            oscillate=oscillate,
            mechanism=mechanism,
        )

    # -- paper-scale projections ------------------------------------------
    def project_fades_seconds(self, mean_transfer_s: float) -> float:
        """Per-fault FADES time at the paper's workload length."""
        return (mean_transfer_s
                + self.fades.board.workload_seconds(PAPER_WORKLOAD_CYCLES))

    def project_vfit_seconds(self) -> float:
        """Per-fault VFIT time at paper scale (its measured 7.2 s)."""
        model = VfitTimeModel(PAPER_MODEL_ELEMENTS,
                              self.vfit.time_model.params)
        return model.cost(PAPER_WORKLOAD_CYCLES).total_s


#: Bit-flips into the workload's data (Table 2, Fig. 11's memory bar).
MEMORY_BITFLIPS = ("bitflip/Memory", FaultModel.BITFLIP, "memory:iram", 1)

#: Table 2's and Fig. 10's classes, at the evaluation seed: name, fault
#: model, location pool, duration band.
TIMED_CLASSES: Tuple[Tuple[str, FaultModel, str, int], ...] = (
    ("bitflip/FFs", FaultModel.BITFLIP, "ffs", 1),
    MEMORY_BITFLIPS,
    ("pulse/Comb(<1)", FaultModel.PULSE, "luts", 0),
    ("pulse/Comb(>=1)", FaultModel.PULSE, "luts", 1),
    ("delay/Sequential", FaultModel.DELAY, "nets:seq", 1),
    ("delay/Comb", FaultModel.DELAY, "nets:comb", 1),
    ("indet/Sequential", FaultModel.INDETERMINATION, "ffs", 1),
    ("indet/Comb", FaultModel.INDETERMINATION, "luts", 1),
)

#: Table 3's rows: fault model, location pool, location label and the
#: duration bands swept (:meth:`Evaluation.band_sweep`).
COMPARISON_ROWS: Tuple[Tuple[FaultModel, str, str, Tuple[int, ...]], ...] = (
    (FaultModel.BITFLIP, "ffs", "FFs", (1,)),
    (FaultModel.BITFLIP, "memory:iram", "Memory", (1,)),
    (FaultModel.PULSE, "luts:ALU", "ALU", (0, 1, 2)),
    (FaultModel.DELAY, "nets:seq", "FFs", (0, 1, 2)),
    (FaultModel.DELAY, "nets:comb:ALU", "ALU", (0, 1, 2)),
    (FaultModel.INDETERMINATION, "ffs", "FFs", (0, 1, 2)),
    (FaultModel.INDETERMINATION, "luts:ALU", "ALU", (0, 1, 2)),
)


#: Paper-reported reference values for EXPERIMENTS.md comparisons.
PAPER_TABLE2 = {
    # experiment class -> (FADES mean s/fault, VFIT mean s/fault, speed-up)
    "bitflip/FFs": (916 / 3000, 7.2, 23.60),
    "bitflip/Memory": (536 / 3000, 7.2, 40.30),
    "pulse/Comb(<1)": (755 / 3000, 7.2, 28.60),
    "pulse/Comb(>=1)": (1520 / 3000, 7.2, 14.21),
    "delay/Sequential": (2487 / 3000, 7.2, 8.68),
    "delay/Comb": (2778 / 3000, 7.2, 7.77),
    "indet/Sequential": (1065 / 3000, 7.2, 20.28),
    "indet/Comb": (805 / 3000, 7.2, 26.83),
}

PAPER_TABLE3 = {
    # (model, location) -> failure % per band, FADES vs VFIT
    ("bitflip", "FFs"): {"fades": (43.86,), "vfit": (43.70,)},
    ("bitflip", "Memory"): {"fades": (80.95,), "vfit": (81.76,)},
    ("pulse", "ALU"): {"fades": (0.06, 3.13, 8.86),
                       "vfit": (1.36, 3.53, 7.43)},
    ("delay", "FFs"): {"fades": (5.7, 18.6, 31.67), "vfit": None},
    ("delay", "ALU"): {"fades": (0.0, 0.57, 2.1), "vfit": None},
    ("indetermination", "FFs"): {"fades": (29.53, 45.9, 61.4),
                                 "vfit": (18.87, 35.90, 52.47)},
    ("indetermination", "ALU"): {"fades": (0.37, 1.37, 3.57),
                                 "vfit": (1.30, 3.03, 8.23)},
}
