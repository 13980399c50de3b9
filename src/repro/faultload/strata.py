"""Stratified faultload sampling.

The paper draws each campaign's faults uniformly over one location pool
and runs a fixed count.  Treating fault grading as a *sampling* problem
(López-Ongil et al.'s fast fault grading; Rhod et al.'s per-resource
vulnerability estimates) calls for more structure: partition the fault
space into **strata** — one per (fault model, target kind, resource
group) — and draw deterministic, seed-derived samples per stratum.

Three sampling strategies share the machinery:

* ``uniform`` — the historical draw order of
  :func:`repro.core.config.iter_faultload`, bit-identical to
  ``generate_faultload``'s prefix; strata exist only as reporting tags;
* ``stratified`` — proportional allocation: strata are visited by a
  deterministic largest-remainder schedule weighted by stratum size, so
  every resource group is covered early instead of at the whim of the
  uniform draw;
* ``importance`` — like ``stratified`` but weighted by the static fault
  analysis' combinational fan-out cones (:mod:`repro.sfa.graph`):
  faults whose targets reach more logic get sampled more often.
  Per-stratum rates stay unbiased (draws are uniform *within* each
  stratum); the pooled point estimate is importance-allocated, not a
  uniform-population estimate.

Everything is a pure function of ``(spec, locmap, seed, strategy)``:
serial, sharded and resumed campaigns regenerate the identical fault
sequence, which is the determinism contract the runtime journal relies
on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Tuple)

from ..core.config import (FaultLoadSpec, candidate_targets, finish_fault,
                           iter_faultload, pool_size)
from ..core.faults import Fault, Target, TargetKind
from ..synth.locmap import LocationMap

#: Sampling strategies understood by :class:`FaultStream` (and the
#: ``--strategy`` CLI flag).
STRATEGIES = ("uniform", "stratified", "importance")


@dataclass(frozen=True)
class Stratum:
    """One cell of the fault-space partition.

    ``key`` reads ``<model>/<kind>/<group>`` — e.g. ``bitflip/ff/ALU``
    or ``bitflip/memory_bit/scratch``; ``weight`` drives the allocation
    schedule (stratum size under proportional sampling, cone mass under
    importance sampling).
    """

    key: str
    targets: Tuple[Target, ...]
    weight: float


def _group_of(target: Target, locmap: LocationMap,
              net_units: Mapping[int, str]) -> str:
    """Resource group of one target: functional unit or memory block."""
    mapped = locmap.mapped
    if target.kind is TargetKind.FF:
        return str(mapped.ffs[target.index].unit)
    if target.kind is TargetKind.LUT:
        return str(mapped.luts[target.index].unit)
    if target.kind is TargetKind.MEMORY_BIT:
        return str(mapped.brams[target.index].name)
    if target.kind is TargetKind.NET:
        return net_units.get(target.index, "routing")
    return "design"


def _net_units(locmap: LocationMap) -> Dict[int, str]:
    """Driving unit per net (FF Q outputs and LUT outputs)."""
    mapped = locmap.mapped
    units: Dict[int, str] = {}
    for ff in mapped.ffs:
        units[ff.q] = str(ff.unit)
    for lut in mapped.luts:
        units[lut.out] = str(lut.unit)
    return units


def partition_strata(
        spec: FaultLoadSpec, locmap: LocationMap,
        routed_nets: Optional[Callable[[int], bool]] = None,
        target_weight: Optional[Callable[[Target], float]] = None,
) -> List[Stratum]:
    """Partition a spec's location pool into strata.

    Stratum order follows first appearance in the (deterministic)
    target enumeration, so the partition itself is reproducible.
    ``target_weight`` customises the weight mass each target
    contributes (default 1.0 — proportional allocation).
    """
    targets = candidate_targets(spec, locmap, routed_nets)
    net_units = _net_units(locmap)
    grouped: Dict[str, List[Target]] = {}
    weights: Dict[str, float] = {}
    for target in targets:
        key = "/".join((spec.model.value, target.kind.value,
                        _group_of(target, locmap, net_units)))
        grouped.setdefault(key, []).append(target)
        mass = 1.0 if target_weight is None else target_weight(target)
        weights[key] = weights.get(key, 0.0) + mass
    return [Stratum(key=key, targets=tuple(members),
                    weight=max(weights[key], 1e-12))
            for key, members in grouped.items()]


def cone_weight(locmap: LocationMap) -> Callable[[Target], float]:
    """Importance mass per target: size of its combinational fan-out
    cone (how much logic a fault there can disturb), from the static
    fault analysis' structural graph."""
    from ..sfa.graph import StructuralGraph  # local: heavy, optional

    mapped = locmap.mapped
    graph = StructuralGraph.from_design(mapped)

    def weight(target: Target) -> float:
        if target.kind is TargetKind.FF:
            net = mapped.ffs[target.index].q
        elif target.kind is TargetKind.LUT:
            net = mapped.luts[target.index].out
        elif target.kind is TargetKind.NET:
            net = target.index
        elif target.kind is TargetKind.MEMORY_BIT:
            rdata = mapped.brams[target.index].rdata
            net = rdata[(target.bit or 0) % len(rdata)] if rdata else -1
        else:
            return 1.0
        if not 0 <= net < graph.n_nets:
            return 1.0
        return 1.0 + len(graph.comb_fanout(net))

    return weight


class StratifiedSampler:
    """Deterministic weighted round-robin over strata.

    Each draw advances a largest-remainder schedule: every stratum
    accrues credit proportional to its weight and the most-overdue
    stratum (ties broken by partition order) is sampled next — uniform
    within the stratum, attributes via the shared
    :func:`~repro.core.config.finish_fault` draw.  The schedule is
    anytime: allocation over any prefix is within one draw of the exact
    weighted split, with no total count fixed in advance.
    """

    def __init__(self, spec: FaultLoadSpec, strata: List[Stratum],
                 seed: int = 0):
        if not strata:
            raise ValueError("cannot sample from an empty partition")
        self.spec = spec
        self.strata = strata
        self._rng = random.Random(seed)
        total = sum(stratum.weight for stratum in strata)
        self._share = [stratum.weight / total for stratum in strata]
        self._credit = [0.0] * len(strata)

    def __iter__(self) -> "StratifiedSampler":
        return self

    def __next__(self) -> Tuple[Fault, str]:
        for index, share in enumerate(self._share):
            self._credit[index] += share
        pick = max(range(len(self._credit)),
                   key=lambda index: (self._credit[index], -index))
        self._credit[pick] -= 1.0
        stratum = self.strata[pick]
        target = stratum.targets[self._rng.randrange(len(stratum.targets))]
        return finish_fault(self.spec, target, self._rng), stratum.key


class DrawnFaults:
    """A deterministic fault sequence, materialised on demand.

    ``draws`` yields (fault, stratum tag) pairs without end.  The runtime
    engine pulls faults in checkpoint-sized windows via :meth:`ensure`;
    ``faults[i]`` and ``tags[i]`` stay stable once issued, so fault
    indices keep their journal meaning however far a campaign grows the
    sequence.  ``pool`` is the size of the location pool the faults are
    drawn from (what the fault-location process analyses).
    """

    def __init__(self, draws: Iterator[Tuple[Fault, str]], pool: int):
        self.faults: List[Fault] = []
        self.tags: List[str] = []
        self.pool = pool
        self._draws = draws

    def ensure(self, count: int) -> List[Fault]:
        """Materialise the sequence out to *count* faults (idempotent)."""
        while len(self.faults) < count:
            fault, tag = next(self._draws)
            self.faults.append(fault)
            self.tags.append(tag)
        return self.faults

    def __len__(self) -> int:
        return len(self.faults)


class FaultStream(DrawnFaults):
    """FADES's fault sequence over one implementation's location pools.

    With strategy ``uniform`` the sequence is exactly the
    :func:`~repro.core.config.generate_faultload` sequence (strata are
    reporting tags only); the stratified strategies re-order the draws
    through :class:`StratifiedSampler`.
    """

    def __init__(self, spec: FaultLoadSpec, locmap: LocationMap,
                 seed: int = 0,
                 routed_nets: Optional[Callable[[int], bool]] = None,
                 strategy: str = "uniform"):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown sampling strategy {strategy!r} "
                f"(choose from {', '.join(STRATEGIES)})")
        weight = cone_weight(locmap) if strategy == "importance" else None
        self.strata = partition_strata(spec, locmap, routed_nets, weight)
        draws: Iterator[Tuple[Fault, str]]
        if strategy == "uniform":
            tag_of = {target: stratum.key for stratum in self.strata
                      for target in stratum.targets}
            draws = ((fault, tag_of[fault.target]) for fault
                     in iter_faultload(spec, locmap, seed, routed_nets))
        else:
            draws = StratifiedSampler(spec, self.strata, seed=seed)
        super().__init__(draws, pool_size(spec, locmap))


def summarize_strata(tags: Iterable[str], outcomes: Mapping[int, str],
                     confidence: float = 0.95) -> List[Dict[str, object]]:
    """Per-stratum outcome rates with Wilson intervals.

    ``tags`` maps fault index -> stratum key (positionally);
    ``outcomes`` maps fault index -> outcome string (missing indices —
    unexecuted under early stopping — are skipped).  Rows are sorted by
    stratum key; rates are ``[percent, low, high]`` triples, JSON-ready
    for the journal and report tables.
    """
    from ..analysis.stats import wilson  # local: avoid import cycle

    counts: Dict[str, Dict[str, int]] = {}
    for index, tag in enumerate(tags):
        outcome = outcomes.get(index)
        if outcome is None:
            continue
        row = counts.setdefault(tag, {"failure": 0, "latent": 0,
                                      "silent": 0})
        if outcome in row:
            row[outcome] += 1
    table: List[Dict[str, object]] = []
    for key in sorted(counts):
        row = counts[key]
        n = sum(row.values())
        rates: Dict[str, List[float]] = {}
        for outcome in ("failure", "latent", "silent"):
            interval = wilson(row[outcome], n, confidence)
            rates[outcome] = [round(value, 4)
                              for value in interval.percent()]
        table.append({"stratum": key, "n": n, "rates": rates})
    return table
