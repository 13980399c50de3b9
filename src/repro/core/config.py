"""Experiment setup: campaign configuration and faultload generation.

This is the library equivalent of the FADES *experiments setup module*
(paper, section 5, figure 9): "the length of the experiments, the type of
fault to be emulated, the fault location and duration, the observation
points, etc."

A :class:`FaultLoadSpec` describes one experiment class — fault model,
location pool, duration band, count — and :func:`generate_faultload` draws
the concrete :class:`~repro.core.faults.Fault` instances with injection
instants "uniformly distributed along the workload duration" (section 6.1).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..errors import InjectionError, LocationError
from ..synth.locmap import LocationMap
from .faults import Fault, FaultModel, Target, TargetKind


@dataclass
class FaultLoadSpec:
    """One experiment class (one bar/row of the paper's evaluation).

    ``pool`` selects where faults land:

    * ``'ffs'`` — all placed flip-flops ("registers");
    * ``'ffs:<unit>'`` — flip-flops of one functional unit;
    * ``'memory:<name>'`` — bits of one memory block (optionally
      restricted by ``mem_addr_range`` to the occupied region);
    * ``'luts:<unit>'`` — function generators of one unit (``'luts'``
      alone draws from every LUT);
    * ``'nets:seq'`` / ``'nets:comb'`` / ``'nets:comb:<unit>'`` — routed
      lines driven by sequential or combinational logic (delay faults).
    """

    model: FaultModel
    pool: str
    count: int
    duration_range: Tuple[float, float] = (1.0, 10.0)
    workload_cycles: int = 1000
    mem_addr_range: Optional[Tuple[int, int]] = None
    magnitude_range_ns: Tuple[float, float] = (0.0, 0.0)
    mechanism: str = ""
    oscillate: bool = False
    lut_lines: bool = False  # pulses may hit input lines, not just outputs

    def __post_init__(self) -> None:
        check_cycles(self.workload_cycles)

    def label(self) -> str:
        """Short identifier used in reports."""
        return f"{self.model.value}/{self.pool}/{self.duration_range}"


def check_cycles(cycles: int) -> None:
    """Reject a run of no cycles: it observes nothing."""
    if cycles < 1:
        raise InjectionError(f"a run needs at least one cycle, not {cycles}")


def pool_targets(spec: FaultLoadSpec, locmap: LocationMap) -> List[Target]:
    """Enumerate the candidate targets of a spec's location pool.

    The enumeration order is deterministic (it follows the placed
    netlist), which is what makes seed-derived sampling reproducible.
    """
    parts = spec.pool.split(":")
    kind = parts[0]
    if kind == "ffs":
        if len(parts) > 1:
            indices = locmap.ffs_in_unit(parts[1])
        else:
            indices = list(range(len(locmap.mapped.ffs)))
        return [Target(TargetKind.FF, index) for index in indices]
    if kind == "memory":
        if len(parts) < 2:
            raise LocationError(f"pool {spec.pool!r}: expected memory:<block>")
        bram_index = locmap.memory(parts[1])
        bram = locmap.mapped.brams[bram_index]
        lo, hi = spec.mem_addr_range or (0, bram.depth)
        return [Target(TargetKind.MEMORY_BIT, bram_index, addr=addr, bit=bit)
                for addr in range(lo, min(hi, bram.depth))
                for bit in range(bram.width)]
    if kind == "luts":
        if len(parts) > 1:
            indices = locmap.luts_in_unit(parts[1])
        else:
            indices = list(range(len(locmap.mapped.luts)))
        targets = []
        for index in indices:
            lines = [-1]
            if spec.lut_lines:
                lines += list(range(len(locmap.mapped.luts[index].ins)))
            for line in lines:
                targets.append(Target(TargetKind.LUT, index, line=line))
        return targets
    if kind == "nets":
        mapped = locmap.mapped
        if parts[1:2] == ["seq"]:
            nets = [ff.q for ff in mapped.ffs]
        elif parts[1:2] == ["comb"]:
            if len(parts) > 2:
                indices = locmap.luts_in_unit(parts[2])
            else:
                indices = range(len(mapped.luts))
            nets = [mapped.luts[i].out for i in indices]
        else:
            raise LocationError(f"pool {spec.pool!r}: expected "
                                "nets:seq or nets:comb[:<unit>]")
        return [Target(TargetKind.NET, net) for net in nets]
    raise InjectionError(f"unknown location pool {spec.pool!r}")


def pool_size(spec: FaultLoadSpec, locmap: LocationMap) -> int:
    """Number of candidate locations the fault-location process analyses."""
    return len(pool_targets(spec, locmap))


def candidate_targets(spec: FaultLoadSpec, locmap: LocationMap,
                      routed_nets=None) -> List[Target]:
    """The location pool after routing-aware filtering.

    ``routed_nets`` (a predicate) filters net targets down to lines that
    actually exist in the routed design — a packed FF's D line, for
    example, cannot carry a delay fault.
    """
    targets = pool_targets(spec, locmap)
    if spec.model is FaultModel.DELAY and routed_nets is not None:
        targets = [t for t in targets if routed_nets(t.index)]
    if not targets:
        raise LocationError(
            f"location pool {spec.pool!r} is empty after implementation")
    return targets


def finish_fault(spec: FaultLoadSpec, target: Target,
                 rng: random.Random) -> Fault:
    """Draw the per-fault attributes (duration, instant, magnitude…).

    The draw order — duration, start cycle, magnitude, value, phase — is
    a compatibility contract: journals and tests pin faultloads by seed,
    so any reordering changes every campaign ever generated.
    """
    lo, hi = spec.duration_range
    duration = rng.uniform(lo, hi)
    start = rng.randrange(spec.workload_cycles)
    magnitude = rng.uniform(*spec.magnitude_range_ns)
    value = rng.randrange(2) \
        if spec.model is FaultModel.INDETERMINATION else None
    return Fault(
        model=spec.model,
        target=target,
        start_cycle=start,
        duration_cycles=duration,
        phase=rng.random(),
        value=value,
        magnitude_ns=magnitude,
        mechanism=spec.mechanism,
        oscillate=spec.oscillate,
    )


def iter_faultload(spec: FaultLoadSpec, locmap: LocationMap,
                   seed: int = 0,
                   routed_nets=None) -> Iterator[Fault]:
    """Unbounded uniform-random fault stream for one experiment class.

    Yields the same sequence :func:`generate_faultload` materialises,
    without an upper bound — the runtime engine consumes only as many
    faults as its stopping rule demands.
    """
    rng = random.Random(seed)
    targets = candidate_targets(spec, locmap, routed_nets)
    while True:
        target = rng.choice(targets)
        yield finish_fault(spec, target, rng)


def generate_faultload(spec: FaultLoadSpec, locmap: LocationMap,
                       seed: int = 0,
                       routed_nets=None) -> List[Fault]:
    """Draw *spec.count* faults for one experiment class.

    ``routed_nets`` (a predicate) filters net targets down to lines that
    actually exist in the routed design — a packed FF's D line, for
    example, cannot carry a delay fault.
    """
    return list(itertools.islice(
        iter_faultload(spec, locmap, seed, routed_nets), spec.count))
