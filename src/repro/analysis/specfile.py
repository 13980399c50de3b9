"""Declarative campaign specifications (JSON in, JSON report out).

The paper's setup GUI let users describe whole experiment suites; the
headless equivalent is a JSON spec file::

    {
      "workload": {"type": "bubblesort", "values": [9, 3, 12, 5]},
      "seed": 7,
      "experiments": [
        {"name": "alu-pulses", "tool": "fades", "model": "pulse",
         "pool": "luts:ALU", "count": 20, "band": 1},
        {"name": "register-flips", "tool": "vfit", "model": "bitflip",
         "pool": "ffs", "count": 20}
      ]
    }

run through ``python -m repro run-spec spec.json -o report.json`` or
:func:`run_spec_file`.  The report carries, per experiment, the outcome
tally, failure percentage with its Wilson interval, and the emulated
campaign time.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from ..core import FaultModel, Outcome
from ..errors import UnsupportedFaultError, WorkloadError
from ..mc8051 import (array_sum, bubblesort, fibonacci, multiply,
                      sum_of_squares, table_lookup)
from .experiments import Evaluation, default_fault_count
from .stats import failure_interval

#: Workload constructors addressable from spec files.
WORKLOADS = {
    "bubblesort": bubblesort,
    "array_sum": array_sum,
    "fibonacci": fibonacci,
    "multiply": multiply,
    "sum_of_squares": sum_of_squares,
    "table_lookup": table_lookup,
}


def load_spec(path: str) -> Dict:
    """Read and structurally validate a campaign spec file."""
    with open(path) as handle:
        spec = json.load(handle)
    if not isinstance(spec, dict) or "experiments" not in spec:
        raise WorkloadError(f"{path}: spec needs an 'experiments' list")
    if not isinstance(spec["experiments"], list) or not spec["experiments"]:
        raise WorkloadError(f"{path}: 'experiments' must be non-empty")
    for index, experiment in enumerate(spec["experiments"]):
        for key in ("model",):
            if key not in experiment:
                raise WorkloadError(
                    f"{path}: experiment {index} lacks {key!r}")
        FaultModel(experiment["model"])  # raises on unknown model
    workload = spec.get("workload", {})
    kind = workload.get("type", "bubblesort")
    if kind not in WORKLOADS:
        raise WorkloadError(
            f"{path}: unknown workload type {kind!r} "
            f"(available: {sorted(WORKLOADS)})")
    return spec


def _build_evaluation(spec: Dict) -> Evaluation:
    workload = spec.get("workload", {})
    kind = workload.get("type", "bubblesort")
    if kind == "bubblesort":
        values = tuple(workload.get("values", (9, 3, 12, 5)))
        return Evaluation(values=values, seed=spec.get("seed", 2006))
    # Non-default workloads: build the Evaluation around their ROM.
    evaluation = Evaluation(seed=spec.get("seed", 2006))
    if kind == "fibonacci":
        built = WORKLOADS[kind](workload.get("terms", 8))
    elif kind == "multiply":
        built = WORKLOADS[kind](workload.get("a", 13), workload.get("b", 11))
    else:
        built = WORKLOADS[kind](workload.get("values", [9, 3, 12, 5]))
    evaluation._workload = built
    return evaluation


def run_spec(spec: Dict) -> Dict:
    """Execute every experiment of a loaded spec; return the report."""
    evaluation = _build_evaluation(spec)
    report: Dict = {
        "workload": evaluation.workload.name,
        "cycles": evaluation.cycles,
        "implementation": evaluation.fades.impl.describe(),
        "experiments": [],
    }
    for index, entry in enumerate(spec["experiments"]):
        model = FaultModel(entry["model"])
        tool_name = entry.get("tool", "fades")
        pool = entry.get("pool", "ffs")
        count = entry.get("count", 20)
        record: Dict = {
            "name": entry.get("name", f"experiment{index}"),
            "tool": tool_name,
            "model": model.value,
            "pool": pool,
            "count": default_fault_count() if count is None else count,
        }
        try:
            result = evaluation.result(
                tool_name, model, pool, band=entry.get("band", 1),
                count=count, oscillate=entry.get("oscillate", False),
                mechanism=entry.get("mechanism", ""),
                seed=entry.get("seed", spec.get("seed", 0)))
        except UnsupportedFaultError as error:
            record["error"] = str(error)
            report["experiments"].append(record)
            continue
        counts = result.counts()
        interval = failure_interval(counts)
        record.update({
            "failure": counts.failure,
            "latent": counts.latent,
            "silent": counts.silent,
            "failure_pct": counts.percent(Outcome.FAILURE),
            "failure_ci_pct": list(interval.percent()[1:]),
            "mean_emulation_s": result.mean_emulation_s,
            "total_emulation_s": result.total_emulation_s,
        })
        report["experiments"].append(record)
    return report


def run_spec_file(path: str, output: Optional[str] = None) -> Dict:
    """Load, run and (optionally) write the report of one spec file."""
    report = run_spec(load_spec(path))
    if output:
        with open(output, "w") as handle:
            json.dump(report, handle, indent=2)
    return report
