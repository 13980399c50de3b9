"""Generators for the paper's tables 1–4.

Each function regenerates one table as structured data plus a plain-text
rendering; the corresponding bench in ``benchmarks/`` prints it and checks
the shape assertions recorded in ``DESIGN.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core import FaultModel, Target, TargetKind, pulse_equivalent_mbu
from ..core.faults import Fault
from ..errors import UnsupportedFaultError
from .experiments import (Evaluation, PAPER_FAULTS_PER_EXPERIMENT,
                          PAPER_TABLE2)


# ---------------------------------------------------------------------------
# Table 1 — fault model / FPGA target / mechanism matrix
# ---------------------------------------------------------------------------
@dataclass
class MechanismRow:
    """One row of table 1, validated by actually executing the mechanism."""

    fault_model: str
    fpga_target: str
    description: str
    observations: str
    transactions: int = 0  # proof the mechanism really reconfigured


TABLE1_ROWS: List[Tuple[str, str, str, str]] = [
    ("bitflip", "FFs (GSR line)", "Pulse GSR line", "Slower than LSR"),
    ("bitflip", "FFs (LSR line)", "Pulse LSR line", "Faster than GSR"),
    ("bitflip", "Memory blocks", "Modify memory bit",
     "Persists until rewritten"),
    ("pulse", "CB inputs", "Use the input inverter mux",
     "Not applicable to LUT inputs"),
    ("pulse", "LUTs", "Modify LUT contents", "Any LUT line"),
    ("delay", "PMs (fan-out)", "Increase fan-out", "Good for small delays"),
    ("delay", "PMs (reroute)", "Increase routing path",
     "Good for large delays"),
    ("indetermination", "FFs", "See Bit-flip",
     "Randomly generate the final value"),
    ("indetermination", "LUTs", "See Pulse",
     "Randomly generate the final value"),
]


def generate_table1(evaluation: Evaluation) -> List[MechanismRow]:
    """Execute every mechanism once; report the transactions it used."""
    fades = evaluation.fades
    cycles = min(evaluation.cycles, 120)
    locmap = fades.locmap
    mapped = locmap.mapped
    routed_ff = next(
        (i for i, _ff in enumerate(mapped.ffs)
         if not fades.impl.placement.sites[
             fades.impl.placement.site_of_ff[i]].packed),
        0)
    mag = sum(evaluation.delay_magnitudes()) / 2
    exemplars = [
        Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0), 10,
              mechanism="gsr"),
        Fault(FaultModel.BITFLIP, Target(TargetKind.FF, 0), 10,
              mechanism="lsr"),
        Fault(FaultModel.BITFLIP,
              Target(TargetKind.MEMORY_BIT, locmap.memory("iram"),
                     addr=0x30, bit=0), 10),
        Fault(FaultModel.PULSE, Target(TargetKind.CB_INPUT, routed_ff), 10,
              duration_cycles=2),
        Fault(FaultModel.PULSE, Target(TargetKind.LUT, 0), 10,
              duration_cycles=2),
        Fault(FaultModel.DELAY, Target(TargetKind.NET, mapped.ffs[0].q), 10,
              duration_cycles=2, magnitude_ns=0.1, mechanism="fanout"),
        Fault(FaultModel.DELAY, Target(TargetKind.NET, mapped.ffs[0].q), 10,
              duration_cycles=2, magnitude_ns=mag, mechanism="reroute"),
        Fault(FaultModel.INDETERMINATION, Target(TargetKind.FF, 0), 10,
              duration_cycles=2),
        Fault(FaultModel.INDETERMINATION, Target(TargetKind.LUT, 0), 10,
              duration_cycles=2),
    ]
    rows: List[MechanismRow] = []
    for (model, target, descr, obs), fault in zip(TABLE1_ROWS, exemplars):
        result = fades.run_experiment(fault, cycles)
        rows.append(MechanismRow(model, target, descr, obs,
                                 transactions=result.cost.transactions))
    return rows


def render_table1(rows: List[MechanismRow]) -> str:
    lines = ["Table 1. Emulation of transient fault models with FPGAs",
             f"{'Fault model':<16} {'FPGA target':<18} "
             f"{'Description':<28} {'Observations':<30} txns"]
    for row in rows:
        lines.append(f"{row.fault_model:<16} {row.fpga_target:<18} "
                     f"{row.description:<28} {row.observations:<30} "
                     f"{row.transactions}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 2 — emulation time and speed-up, FADES vs VFIT
# ---------------------------------------------------------------------------
@dataclass
class SpeedupRow:
    """One row of table 2."""

    experiment: str
    fades_mean_s: float          # measured on this testbed
    vfit_mean_s: float           # measured (model-size-scaled) VFIT time
    speedup: float               # measured ratio
    fades_projected_s: float     # projected to the paper's scale
    vfit_projected_s: float
    speedup_projected: float
    paper_speedup: Optional[float] = None


def generate_table2(evaluation: Evaluation,
                    count: Optional[int] = None) -> List[SpeedupRow]:
    """Run every experiment class through both tools and compare times."""
    fades = evaluation.fades
    vfit = evaluation.vfit
    rows: List[SpeedupRow] = []
    vfit_projected = evaluation.project_vfit_seconds()
    for name, spec in evaluation.experiment_matrix(count):
        fades_result = evaluation.run_fades(spec)
        try:
            vfit_result = vfit.run(spec, seed=evaluation.seed)
            vfit_mean = vfit_result.mean_emulation_s
        except UnsupportedFaultError:
            vfit_mean = float("nan")
        if fades_result.emulated_count():
            fades_mean = fades_result.mean_emulation_s
            projected = evaluation.project_fades_seconds(
                fades_mean
                - fades.board.workload_seconds(fades_result.golden.cycles))
        else:  # every fault pruned: no FADES time to compare or project
            fades_mean = projected = float("nan")
        rows.append(SpeedupRow(
            experiment=name,
            fades_mean_s=fades_mean,
            vfit_mean_s=vfit_mean,
            speedup=(vfit_mean / fades_mean) if fades_mean else 0.0,
            fades_projected_s=projected,
            vfit_projected_s=vfit_projected,
            speedup_projected=vfit_projected / projected if projected else 0,
            paper_speedup=(PAPER_TABLE2.get(name) or (None, None, None))[2],
        ))
    return rows


def render_table2(rows: List[SpeedupRow]) -> str:
    lines = [
        "Table 2. Speed-up obtained when performing the experiments "
        "via FADES",
        f"{'Experiment':<18} {'FADES s/f':>10} {'VFIT s/f':>9} "
        f"{'speedup':>8} | {'proj FADES':>10} {'proj VFIT':>9} "
        f"{'proj x':>7} {'paper x':>8}"]
    for row in rows:
        lines.append(
            f"{row.experiment:<18} {row.fades_mean_s:>10.3f} "
            f"{row.vfit_mean_s:>9.3f} {row.speedup:>8.2f} | "
            f"{row.fades_projected_s:>10.3f} {row.vfit_projected_s:>9.3f} "
            f"{row.speedup_projected:>7.2f} "
            f"{row.paper_speedup if row.paper_speedup else float('nan'):>8.2f}")
    # Only the classes that emulated something have a FADES time.
    timed = [r.fades_projected_s for r in rows
             if not math.isnan(r.fades_projected_s)]
    mean_proj = sum(timed) / len(timed) if timed else float("nan")
    scope = ("all models" if len(timed) == len(rows) else
             f"the {len(timed)} of {len(rows)} classes with emulated faults")
    lines.append(
        f"Estimated mean time for {PAPER_FAULTS_PER_EXPERIMENT} faults "
        f"({scope}): FADES {mean_proj * PAPER_FAULTS_PER_EXPERIMENT:.0f} s"
        f" vs VFIT {rows[0].vfit_projected_s * PAPER_FAULTS_PER_EXPERIMENT:.0f} s"
        f" -> x{rows[0].vfit_projected_s / mean_proj:.2f} "
        "(paper: 1379 s vs 21600 s -> x15.66)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 3 — percentage of failures, FADES vs VFIT
# ---------------------------------------------------------------------------
@dataclass
class ComparisonRow:
    """One row of table 3: failure %, per duration band, both tools."""

    fault_model: str
    location: str
    fades_pct: Tuple[float, ...]
    vfit_pct: Optional[Tuple[float, ...]]


def generate_table3(evaluation: Evaluation,
                    count: Optional[int] = None) -> List[ComparisonRow]:
    """The paper's FADES-vs-VFIT agreement experiment (section 6.3)."""
    vfit = evaluation.vfit
    experiments = [
        (FaultModel.BITFLIP, "ffs", "FFs", (1,)),
        (FaultModel.BITFLIP, "memory:iram", "Memory", (1,)),
        (FaultModel.PULSE, "luts:ALU", "ALU", (0, 1, 2)),
        (FaultModel.DELAY, "nets:seq", "FFs", (0, 1, 2)),
        (FaultModel.DELAY, "nets:comb:ALU", "ALU", (0, 1, 2)),
        (FaultModel.INDETERMINATION, "ffs", "FFs", (0, 1, 2)),
        (FaultModel.INDETERMINATION, "luts:ALU", "ALU", (0, 1, 2)),
    ]
    rows: List[ComparisonRow] = []
    for model, pool, location, bands in experiments:
        fades_pct: List[float] = []
        vfit_pct: List[float] = []
        vfit_supported = True
        for band in bands:
            spec = evaluation.spec(model, pool, band, count)
            fades_pct.append(
                evaluation.run_fades(spec, seed=evaluation.seed + band)
                .failure_percent())
            if vfit_supported:
                try:
                    vfit_pct.append(
                        vfit.run(spec, seed=evaluation.seed + band)
                        .failure_percent())
                except UnsupportedFaultError:
                    vfit_supported = False
        rows.append(ComparisonRow(
            fault_model=model.value, location=location,
            fades_pct=tuple(fades_pct),
            vfit_pct=tuple(vfit_pct) if vfit_supported else None))
    return rows


def render_table3(rows: List[ComparisonRow]) -> str:
    lines = ["Table 3. Comparison of the results obtained via FADES and "
             "VFIT (percentage of failures, duration bands <1 / 1-10 / "
             "11-20 cycles)",
             f"{'Fault model':<16} {'Location':<9} {'FADES':<24} {'VFIT'}"]
    for row in rows:
        fades = " / ".join(f"{p:.2f}" for p in row.fades_pct)
        vfit = (" / ".join(f"{p:.2f}" for p in row.vfit_pct)
                if row.vfit_pct is not None else "-")
        lines.append(f"{row.fault_model:<16} {row.location:<9} "
                     f"{fades:<24} {vfit}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 4 — a combinational pulse manifests as a multiple bit-flip
# ---------------------------------------------------------------------------
@dataclass
class MultipleBitflipRow:
    """Registers affected by one combinational pulse (table 4)."""

    injection_point: str
    affected: List[Tuple[str, int, int]]  # (register, golden, faulty)


def generate_table4(evaluation: Evaluation,
                    max_rows: int = 2) -> List[MultipleBitflipRow]:
    """Find LUTs whose single-cycle pulse flips several registers at once.

    Reproduces the paper's section 7.2 observation: "the occurrence of a
    fault in a combinational path, which can drive many FFs, may lead to
    the occurrence of a bit-flip in many of these FFs".
    """
    fades = evaluation.fades
    locmap = fades.locmap
    # Register -> its flip-flops, for registers held wholly in FFs.
    registers = {
        name: [bit.index for bit in locmap.signals[name].bits]
        for name in evaluation.model.register_signals
        if name in locmap.signals
        and all(bit.kind == "ff" for bit in locmap.signals[name].bits)}

    def value(state: Sequence[int], ffs: List[int]) -> int:
        return sum(state[ff] << position for position, ff in enumerate(ffs))

    candidates = (locmap.luts_in_unit("MEM") + locmap.luts_in_unit("FSM")
                  + locmap.luts_in_unit("ALU"))
    inject_cycle = max(4, evaluation.cycles // 3)
    rows: List[MultipleBitflipRow] = []
    for lut_index in candidates:
        if len(rows) >= max_rows:
            break
        # One-cycle pulse on the LUT output at inject_cycle, against the
        # golden state one cycle later.
        equivalent = pulse_equivalent_mbu(fades, lut_index, inject_cycle)
        golden = equivalent.golden_ffs
        faulty = list(golden)
        for ff in equivalent.flipped_ffs:
            faulty[ff] ^= 1
        affected = [(name, value(golden, ffs), value(faulty, ffs))
                    for name, ffs in registers.items()
                    if value(golden, ffs) != value(faulty, ffs)]
        if len(affected) >= 2:
            site = fades.impl.placement.site_of_lut[lut_index]
            rows.append(MultipleBitflipRow(
                injection_point=f"CB{site} LUT {lut_index}",
                affected=affected))
    return rows


def render_table4(rows: List[MultipleBitflipRow]) -> str:
    lines = ["Table 4. Effects of the occurrence of pulses in "
             "combinational logic",
             f"{'Injection point':<26} {'Affected register':<16} "
             f"{'Fault free':>10} {'Faulty':>7}"]
    for row in rows:
        first = True
        for name, golden, faulty in row.affected:
            point = row.injection_point if first else ""
            lines.append(f"{point:<26} {name:<16} "
                         f"{golden:>10X} {faulty:>7X}")
            first = False
    return "\n".join(lines)
