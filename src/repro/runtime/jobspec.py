"""Picklable campaign descriptions for the execution runtime.

A :class:`CampaignJobSpec` is everything a worker process needs to rebuild
one experiment class from scratch — the workload, the seeds and the
:class:`~repro.core.config.FaultLoadSpec` — without sharing any simulator
state with the parent.  Workers receive the spec (pickled through the job
queue), construct their own :class:`~repro.core.campaign.FadesCampaign`,
regenerate the exact same faultload the parent planned from, and run only
the fault indices they are handed.

Determinism contract
--------------------
Sharded execution must be outcome-identical to serial execution for the
same spec and seed.  Two derivations guarantee it:

* the faultload seed is fixed in the spec, so every process draws the
  identical fault list;
* every experiment seeds the injector randomiser (used by
  indetermination faults, and consumed per cycle in oscillating mode)
  from :func:`repro.core.campaign.derive_fault_seed`, a pure function of
  the campaign seed and the fault index — so an experiment's outcome
  cannot depend on which worker runs it or on how many experiments ran
  before it.  ``FadesCampaign.run`` follows the same rule, so a serial
  campaign equals ``run_campaign(workers=0)`` by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.experiments import CHECKPOINT_INTERVAL
from ..analysis.specfile import WORKLOADS
from ..core import FaultModel, build_fades, pool_size
from ..core.campaign import ExperimentResult, FadesCampaign
from ..core.classify import Outcome
from ..core.config import FaultLoadSpec
from ..core.faults import Fault
from ..core.timing_model import ExperimentCost
from ..errors import JournalError
from ..faultload import FaultStream


@dataclass(frozen=True)
class CampaignJobSpec:
    """One experiment class, self-contained and picklable.

    ``faultload_seed`` defaults to ``seed`` — the same convention as
    ``FadesCampaign.run(spec, seed=...)`` call sites use throughout the
    analysis layer.
    """

    spec: FaultLoadSpec
    values: Tuple[int, ...] = (9, 3, 12, 5)
    workload: str = "bubblesort"
    seed: int = 2006
    faultload_seed: Optional[int] = None
    checkpoint_interval: int = CHECKPOINT_INTERVAL
    label: str = ""
    backend: str = "reference"
    #: Let :mod:`repro.sfa` resolve provably Silent faults statically
    #: and collapse equivalent faults onto one representative.
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

    @classmethod
    def from_evaluation(cls, evaluation, spec: FaultLoadSpec,
                        faultload_seed: Optional[int] = None,
                        label: str = "") -> "CampaignJobSpec":
        """Describe one experiment class of an evaluation testbed."""
        return cls(spec=spec, values=tuple(evaluation.values),
                   seed=evaluation.seed, faultload_seed=faultload_seed,
                   label=label or spec.label(),
                   backend=getattr(evaluation, "backend", "reference"),
                   prune_silent=getattr(evaluation, "prune_silent",
                                        False),
                   strategy=getattr(evaluation, "strategy", "uniform"),
                   confidence=getattr(evaluation, "confidence", 0.95),
                   epsilon=getattr(evaluation, "epsilon", None),
                   budget=getattr(evaluation, "budget", None))

    def effective_faultload_seed(self) -> int:
        return self.seed if self.faultload_seed is None else \
            self.faultload_seed

    @property
    def adaptive(self) -> bool:
        """Whether this campaign uses the statistical planner at all
        (non-uniform sampling, a stopping rule, or an explicit budget).
        """
        return (self.strategy != "uniform" or self.epsilon is not None
                or self.budget is not None)

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
            "workload": self.workload,
            "seed": self.seed,
            "faultload_seed": self.faultload_seed,
            "checkpoint_interval": self.checkpoint_interval,
            "label": self.label,
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
                       workload=data["workload"],
                       seed=int(data["seed"]),
                       faultload_seed=data["faultload_seed"],
                       checkpoint_interval=int(data["checkpoint_interval"]),
                       label=data["label"],
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


def build_campaign(jobspec: CampaignJobSpec) -> FadesCampaign:
    """Construct this process's own campaign for a job spec.

    Mirrors ``Evaluation.fades`` exactly (same seed, same checkpoint
    interval) so engine results line up with the serial testbed.
    """
    # Imported per call: perfbench's layer tracer swaps in a timed
    # wrapper of repro.mc8051.build_mc8051 while it runs.
    from ..mc8051 import build_mc8051

    try:
        factory = WORKLOADS[jobspec.workload]
    except KeyError:
        raise JournalError(
            f"unknown workload {jobspec.workload!r}") from None
    workload = factory(list(jobspec.values))
    model = build_mc8051(workload.rom)
    return build_fades(model.netlist, seed=jobspec.seed,
                       checkpoint_interval=jobspec.checkpoint_interval,
                       backend=jobspec.backend,
                       prune_silent=jobspec.prune_silent)


class JobRunner:
    """Executes individual fault indices of one job spec.

    Each worker process owns exactly one runner; the engine's in-process
    path reuses the parent's campaign through the keyword arguments.
    """

    def __init__(self, jobspec: CampaignJobSpec,
                 campaign: Optional[FadesCampaign] = None,
                 faults: Optional[Sequence[Fault]] = None,
                 pool: Optional[int] = None):
        self.jobspec = jobspec
        self.campaign = campaign if campaign is not None \
            else build_campaign(jobspec)
        if faults is not None:
            # Lists are aliased, not copied: the engine's adaptive path
            # hands the runner a faultload that still grows as the
            # stopping controller extends the campaign.
            self.faults: List[Fault] = faults if isinstance(faults, list) \
                else list(faults)
        else:
            self.faults = self._regenerate_faults()
        self.pool = pool if pool is not None \
            else pool_size(jobspec.spec, self.campaign.locmap)

    def _regenerate_faults(self) -> List[Fault]:
        """Re-derive the faultload this process was not handed.

        Workers rebuild the exact sequence the parent planned from: the
        planner's :class:`~repro.faultload.strata.FaultStream`,
        materialised out to the budget (fault descriptors are cheap,
        experiments are not).
        """
        jobspec = self.jobspec
        stream = FaultStream(
            jobspec.spec, self.campaign.locmap,
            seed=jobspec.effective_faultload_seed(),
            routed_nets=self.campaign.impl.routing.is_routed,
            strategy=jobspec.strategy)
        return stream.ensure(jobspec.effective_budget())

    def run_index(self, index: int) -> Dict:
        """Run one experiment and return its journal record."""
        result = self.campaign.run_experiment(
            self.faults[index], self.jobspec.spec.workload_cycles,
            pool=self.pool, index=index)
        return record_from_result(index, result)

    def batch_size(self) -> int:
        """Experiments to hand to :meth:`run_indices` at a time.

        The compiled backend evaluates a whole lane batch per simulator
        pass, so shard-sized chunks should match its lane budget; the
        reference backend gains nothing from batching.
        """
        if getattr(self.campaign, "backend", "reference") == "compiled":
            from ..emu import lane_width
            return max(1, lane_width() - 1)
        return 1

    def run_indices(self, indices: Sequence[int],
                    progress: Optional[Callable[[], None]] = None
                    ) -> List[Dict]:
        """Run several experiments; records in *indices* order.

        Routes through the campaign's backend-aware batch path so the
        compiled backend can pack the shard into bit lanes; each
        experiment seeds itself from its index either way (see the
        module docstring).
        ``progress`` (if given) is called between experiments — the
        scheduler's workers hang their heartbeat on it so the watchdog
        can tell a slow shard from a hung one.

        A failing experiment can raise between its injection and its
        restore; the golden system (configuration and routing database,
        :meth:`~repro.core.campaign.FadesCampaign.recover`) is restored
        before the error propagates, so whatever runs next on this
        campaign (a retry, or a worker's next shard) starts from it.
        """
        try:
            if self.batch_size() == 1:
                records = []
                for index in indices:
                    records.append(self.run_index(index))
                    if progress is not None:
                        progress()
                return records

            faults = [self.faults[index] for index in indices]
            results = self.campaign.run_batch(
                faults, self.jobspec.spec.workload_cycles, pool=self.pool,
                indices=list(indices))
        except BaseException:
            self.campaign.recover()
            raise
        if progress is not None:
            progress()
        return [record_from_result(index, result)
                for index, result in zip(indices, results)]


# ---------------------------------------------------------------------------
# Experiment <-> record conversion (the journal's unit of persistence)
# ---------------------------------------------------------------------------
def record_from_result(index: int, result: ExperimentResult) -> Dict:
    """Flatten one experiment into a JSON-compatible record."""
    cost = result.cost
    record = {
        "index": index,
        "outcome": result.outcome.value,
        "first_divergence": result.first_divergence,
        "cost": {
            "locate_s": cost.locate_s,
            "transfer_s": cost.transfer_s,
            "workload_s": cost.workload_s,
            "overhead_s": cost.overhead_s,
            "transactions": cost.transactions,
        },
    }
    # Markers only appear when set: an emulated record carries just its
    # outcome and cost.
    if result.pruned:
        record["pruned"] = True
    if result.collapsed_from is not None:
        record["collapsed_from"] = result.collapsed_from
    if result.quarantined:
        record["quarantined"] = True
        if result.error is not None:
            record["error"] = result.error
    return record


def result_from_record(fault: Fault, record: Dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from its journal record."""
    try:
        cost = record.get("cost") or {}
        return ExperimentResult(
            fault=fault,
            outcome=Outcome(record["outcome"]),
            cost=ExperimentCost(
                locate_s=float(cost.get("locate_s", 0.0)),
                transfer_s=float(cost.get("transfer_s", 0.0)),
                workload_s=float(cost.get("workload_s", 0.0)),
                overhead_s=float(cost.get("overhead_s", 0.0)),
                transactions=int(cost.get("transactions", 0)),
            ),
            first_divergence=record.get("first_divergence"),
            pruned=bool(record.get("pruned", False)),
            collapsed_from=record.get("collapsed_from"),
            quarantined=bool(record.get("quarantined", False)),
            error=record.get("error"),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise JournalError(f"malformed record: {error}") from error
