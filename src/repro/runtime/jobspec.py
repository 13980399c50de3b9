"""Picklable campaign descriptions for the execution runtime.

A :class:`CampaignJobSpec` describes one experiment class completely —
the tool, the Bubblesort input, the seeds and the
:class:`~repro.core.config.FaultLoadSpec` — so the class's
:class:`~repro.core.campaign.Campaign` can be built from it alone
(:func:`build_campaign`).  It heads the class's journal, from which a
resume rebuilds the campaign.  A job spec refuses, when it is made, a
class its tool cannot run (:func:`check_tool`).

A :class:`JobRunner` is the one place a job spec meets a campaign: the
campaign draws the faultload
(:meth:`~repro.core.campaign.Campaign.fault_stream`) and runs every
shard (:meth:`~repro.core.campaign.Campaign.run_batch`).  The engine
builds it in set-up; pool workers are forks of the engine and run on
it.

Determinism contract
--------------------
Sharded execution must be outcome-identical to serial execution for the
same spec and seed.  Two derivations guarantee it:

* the faultload seed is fixed in the spec, so a resume draws the
  identical fault list, and a worker that extends an adaptive faultload
  it inherited draws what the engine draws;
* every experiment seeds the injector randomiser (used by
  indetermination faults, and consumed per cycle in oscillating mode)
  from :func:`repro.core.campaign.derive_fault_seed`, a pure function of
  the campaign seed and the fault index — so an experiment's outcome
  cannot depend on which worker runs it or on how many experiments ran
  before it.  So a run on a pre-built campaign equals one on a rebuilt
  campaign, and both equal ``FadesCampaign.run`` over that faultload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import FaultModel, build_fades
from ..core.campaign import CHECKPOINT_INTERVAL, Campaign, ExperimentResult
from ..core.classify import Outcome
from ..core.config import FaultLoadSpec
from ..core.faults import Fault
from ..core.timing_model import ExperimentCost
from ..errors import InjectionError, JournalError
from ..faultload import is_adaptive
from ..vfit import VfitCampaign
from ..vfit.commands import check_vfit_model

#: The tools a job spec can name: FADES and the VFIT baseline.
TOOLS = ("fades", "vfit")


def check_tool(tool: str, model: FaultModel, backend: str = "reference",
               prune_silent: bool = False, strategy: str = "uniform"
               ) -> None:
    """Refuse a class *tool* cannot run: an unknown tool, or a VFIT
    class with a fault model simulator commands cannot inject
    (:func:`~repro.vfit.commands.check_vfit_model`) or a FADES setting
    (the compiled backend, static pruning, stratified sampling)."""
    if tool not in TOOLS:
        raise InjectionError(
            f"unknown tool {tool!r} (expected one of {', '.join(TOOLS)})")
    if tool == "fades":
        return
    check_vfit_model(model)
    for setting, fades_only in ((f"the {backend} backend",
                                 backend != "reference"),
                                ("static pruning (prune-silent)",
                                 prune_silent),
                                (f"the {strategy} strategy",
                                 strategy != "uniform")):
        if fades_only:
            raise InjectionError(
                f"VFIT cannot use {setting}: it is a FADES setting")


@dataclass(frozen=True)
class CampaignJobSpec:
    """One experiment class, self-contained and picklable.

    ``faultload_seed`` defaults to ``seed``, the campaign seed — as a
    campaign's ``run(spec)`` draws its faultload.
    """

    spec: FaultLoadSpec
    #: Bubblesort input of the 8051 workload.
    values: Tuple[int, ...] = (9, 3, 12, 5)
    seed: int = 2006
    faultload_seed: Optional[int] = None
    label: str = ""
    #: The injection tool (:data:`TOOLS`).
    tool: str = "fades"
    backend: str = "reference"
    #: Let :mod:`repro.sfa` resolve provably Silent faults statically.
    prune_silent: bool = False
    #: Statistical campaign planning (:mod:`repro.faultload`).  The
    #: defaults describe a fixed-budget campaign: uniform sampling,
    #: ``spec.count`` experiments, no stopping rule.
    strategy: str = "uniform"
    confidence: float = 0.95
    #: Target Wilson half-width; ``None`` disables early stopping.
    epsilon: Optional[float] = None
    #: Hard experiment cap for adaptive campaigns (``None`` -> count).
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        check_tool(self.tool, self.spec.model, self.backend,
                   self.prune_silent, self.strategy)

    @classmethod
    def from_evaluation(cls, evaluation, spec: FaultLoadSpec,
                        faultload_seed: Optional[int] = None,
                        label: str = "", tool: str = "fades"
                        ) -> "CampaignJobSpec":
        """Describe one experiment class of an evaluation testbed.

        The evaluation's backend, pruning and sampling strategy are
        FADES settings, which a class of another tool goes without; its
        label carries the tool's prefix (``vfit:``), as that campaign's
        ``run`` labels its result."""
        fades = {"backend": evaluation.backend,
                 "prune_silent": evaluation.prune_silent,
                 "strategy": evaluation.strategy} if tool == "fades" else {}
        prefix = "" if tool == "fades" else f"{tool}:"
        return cls(spec=spec, values=tuple(evaluation.values),
                   seed=evaluation.seed, faultload_seed=faultload_seed,
                   label=label or prefix + spec.label(), tool=tool,
                   confidence=evaluation.confidence,
                   epsilon=evaluation.epsilon,
                   budget=evaluation.budget, **fades)

    def effective_faultload_seed(self) -> int:
        return self.seed if self.faultload_seed is None else \
            self.faultload_seed

    @property
    def adaptive(self) -> bool:
        """Whether this campaign uses the statistical planner at all
        (:func:`repro.faultload.is_adaptive`)."""
        return is_adaptive(self.strategy, self.epsilon, self.budget)

    def effective_budget(self) -> int:
        """Upper bound on the number of experiments this campaign runs."""
        return self.spec.count if self.budget is None else self.budget

    def display_label(self) -> str:
        return self.label or self.spec.label()

    # -- serialisation (journal headers) -------------------------------
    def to_dict(self) -> Dict:
        """JSON-compatible form of every field, stable across sessions."""
        spec = self.spec
        return {
            "spec": {
                "model": spec.model.value,
                "pool": spec.pool,
                "count": spec.count,
                "duration_range": list(spec.duration_range),
                "workload_cycles": spec.workload_cycles,
                "mem_addr_range": (list(spec.mem_addr_range)
                                   if spec.mem_addr_range else None),
                "magnitude_range_ns": list(spec.magnitude_range_ns),
                "mechanism": spec.mechanism,
                "oscillate": spec.oscillate,
                "lut_lines": spec.lut_lines,
            },
            "values": list(self.values),
            "seed": self.seed,
            "faultload_seed": self.faultload_seed,
            "label": self.label,
            "tool": self.tool,
            "backend": self.backend,
            "prune_silent": self.prune_silent,
            "strategy": self.strategy,
            "confidence": self.confidence,
            "epsilon": self.epsilon,
            "budget": self.budget,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignJobSpec":
        try:
            raw = dict(data["spec"])
            spec = FaultLoadSpec(
                model=FaultModel(raw["model"]),
                pool=raw["pool"],
                count=int(raw["count"]),
                duration_range=tuple(raw["duration_range"]),
                workload_cycles=int(raw["workload_cycles"]),
                mem_addr_range=(tuple(raw["mem_addr_range"])
                                if raw["mem_addr_range"] else None),
                magnitude_range_ns=tuple(raw["magnitude_range_ns"]),
                mechanism=raw["mechanism"],
                oscillate=bool(raw["oscillate"]),
                lut_lines=bool(raw["lut_lines"]),
            )
            return cls(spec=spec,
                       values=tuple(data["values"]),
                       seed=int(data["seed"]),
                       faultload_seed=data["faultload_seed"],
                       label=data["label"],
                       # Journals written before job specs named their
                       # tool hold FADES classes.
                       tool=data.get("tool", "fades"),
                       backend=data["backend"],
                       prune_silent=bool(data["prune_silent"]),
                       strategy=data["strategy"],
                       confidence=float(data["confidence"]),
                       epsilon=(float(data["epsilon"])
                                if data["epsilon"] is not None else None),
                       budget=(int(data["budget"])
                               if data["budget"] is not None else None))
        except (KeyError, TypeError, ValueError) as error:
            raise JournalError(f"malformed job spec: {error}") from error

    def with_count(self, count: int) -> "CampaignJobSpec":
        return replace(self, spec=replace(self.spec, count=count))


def build_campaign(jobspec: CampaignJobSpec) -> Campaign:
    """Construct the campaign of a job spec: the job spec's tool on the
    8051 running Bubblesort over ``jobspec.values``.

    Mirrors ``Evaluation.fades`` and ``Evaluation.vfit`` exactly (same
    seed, same checkpoint interval) so engine results line up with the
    serial testbed.
    """
    # Imported per call: perfbench's layer tracer swaps in a timed
    # wrapper of repro.mc8051.build_mc8051 while it runs.
    from ..mc8051 import bubblesort, build_mc8051

    model = build_mc8051(bubblesort(list(jobspec.values)).rom)
    if jobspec.tool == "vfit":
        return VfitCampaign(model.netlist, seed=jobspec.seed)
    return build_fades(model.netlist, seed=jobspec.seed,
                       checkpoint_interval=CHECKPOINT_INTERVAL,
                       backend=jobspec.backend)


class JobRunner:
    """Runs fault indices of one job spec on one campaign.

    A fixed budget's faultload (:attr:`stream`, drawn by the campaign)
    is drawn whole here; an adaptive campaign's grows window by window,
    as indices ask for it.
    """

    def __init__(self, jobspec: CampaignJobSpec, campaign: Campaign):
        self.jobspec = jobspec
        self.campaign = campaign
        self.stream = campaign.fault_stream(
            jobspec.spec, jobspec.effective_faultload_seed(),
            strategy=jobspec.strategy)
        if not jobspec.adaptive:
            self.stream.ensure(jobspec.effective_budget())

    def run_indices(self, indices: Sequence[int],
                    progress: Optional[Callable[[], None]] = None
                    ) -> List[Dict]:
        """Run several experiments; records in *indices* order.

        Every shard runs through the campaign's
        :meth:`~repro.core.campaign.Campaign.run_batch`, whichever tool
        and simulator it runs on; each experiment seeds itself from its
        index (see the module docstring).
        ``progress`` (if given) is called between experiments — the
        scheduler's workers hang their heartbeat on it so the watchdog
        can tell a slow shard from a hung one.

        A failing experiment can raise between its injection and its
        restore; the golden system
        (:meth:`~repro.core.campaign.Campaign.recover`) is restored
        before the error propagates, so whatever runs next on this
        campaign (a retry, or a worker's next shard) starts from it.
        """
        faults = self.stream.ensure(max(indices) + 1)
        try:
            results = self.campaign.run_batch(
                [faults[index] for index in indices],
                self.jobspec.spec.workload_cycles, pool=self.stream.pool,
                indices=list(indices), progress=progress)
        except BaseException:
            self.campaign.recover()
            raise
        return [record_from_result(index, result)
                for index, result in zip(indices, results)]


# ---------------------------------------------------------------------------
# Journal records (the journal's unit of persistence)
# ---------------------------------------------------------------------------
def record_from_result(index: int, result: ExperimentResult) -> Dict:
    """Flatten one emulated experiment into a JSON-compatible record:
    its outcome and cost, without markers."""
    return {
        "index": index,
        "outcome": result.outcome.value,
        "first_divergence": result.first_divergence,
        "cost": result.cost.to_record(),
    }


def pruned_record(index: int) -> Dict:
    """Journal record for a fault the static analysis proved Silent."""
    return {"index": index, "outcome": Outcome.SILENT.value,
            "first_divergence": None, "cost": ExperimentCost().to_record(),
            "pruned": True}


def _fingerprint(reason: str) -> str:
    """Compact, journal-friendly identity of a failure traceback."""
    lines = [line.strip() for line in reason.strip().splitlines()
             if line.strip()]
    tail = lines[-1] if lines else "unknown failure"
    return tail[:240]


def quarantined_record(index: int, reason: str) -> Dict:
    """Journal record for a poison fault excised by the runtime."""
    return {"index": index, "outcome": Outcome.QUARANTINED.value,
            "first_divergence": None, "cost": ExperimentCost().to_record(),
            "quarantined": True, "error": _fingerprint(reason)}


def result_from_record(fault: Fault, record: Dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from its journal record."""
    try:
        return ExperimentResult(
            fault=fault,
            outcome=Outcome(record["outcome"]),
            cost=ExperimentCost.from_record(record.get("cost") or {}),
            first_divergence=record.get("first_divergence"),
            pruned=bool(record.get("pruned", False)),
            quarantined=bool(record.get("quarantined", False)),
            error=record.get("error"),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise JournalError(f"malformed record: {error}") from error
