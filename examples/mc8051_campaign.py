#!/usr/bin/env python
"""The paper's experiment: fault emulation on an 8051 running Bubblesort.

Reproduces section 6 end to end on a reduced scale: the 8051-subset model
sorts an array, faults of all four transient models are injected into the
paper's five location classes (registers, RAM, ALU, memory control, FSM),
and outcomes are classified Failure / Latent / Silent against the golden
run.

Run:  python examples/mc8051_campaign.py  [faults-per-class, default 15]
"""

import sys

from repro.core import FaultLoadSpec, FaultModel, build_fades
from repro.mc8051 import Iss, build_mc8051, bubblesort


def main(count: int = 15) -> None:
    workload = bubblesort([23, 7, 250, 1, 99, 42, 180, 16])
    iss = Iss(workload.rom)
    iss.run_until_idle()
    cycles = iss.cycles + 4
    print(f"workload: {workload.description}")
    print(f"golden run: {iss.cycles} clock cycles, "
          f"P1 stream {workload.expected_p1}")

    model = build_mc8051(workload.rom)
    fades = build_fades(model.netlist, seed=42)
    print(fades.impl.describe())
    period = fades.impl.timing.period

    experiments = [
        ("bitflip", "Registers", FaultModel.BITFLIP, "ffs", {}),
        ("bitflip", "RAM", FaultModel.BITFLIP, "memory:iram",
         {"mem_addr_range": (0x00, 0x38)}),
        ("pulse", "ALU", FaultModel.PULSE, "luts:ALU", {}),
        ("pulse", "MEM", FaultModel.PULSE, "luts:MEM", {}),
        ("pulse", "FSM", FaultModel.PULSE, "luts:FSM", {}),
        ("delay", "Sequential", FaultModel.DELAY, "nets:seq",
         {"magnitude_range_ns": (0.1 * period, 0.8 * period)}),
        ("indetermination", "Registers", FaultModel.INDETERMINATION,
         "ffs", {}),
        ("indetermination", "ALU", FaultModel.INDETERMINATION,
         "luts:ALU", {}),
    ]

    title = "Fault emulation campaign on the 8051 (Bubblesort workload)"
    print()
    print(title)
    print("=" * len(title))
    for model_name, location, fault_model, pool, extra in experiments:
        spec = FaultLoadSpec(fault_model, pool, count=count,
                             workload_cycles=cycles,
                             duration_range=(1.0, 10.0), **extra)
        result = fades.run(spec)
        print(f"{model_name:<16} {location:<11} {result.counts()}  "
              f"t={result.mean_emulation_s:.3f} s/fault")
    print(f"{count} faults per class; durations uniform in 1-10 cycles; "
          "emulated times use the 2006-era board model")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 15)
