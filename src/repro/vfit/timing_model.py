"""Execution-time model of the VFIT baseline.

VFIT "makes use of the simulator commands technique, resulting in very
similar execution times for any type and length of the studied fault
models.  The average execution time for the experiments was 21600 seconds"
for 3000 faults (paper, section 6.2) — i.e. 7.2 s per experiment of 1303
clock cycles on the selected 8051 model.

The mechanistic model: a VHDL simulator evaluates every model element every
clock cycle on the host CPU, so one experiment costs::

    seconds = cycles * elements * seconds_per_element_cycle + overhead

The default rate constant is calibrated from the paper's numbers assuming
a model of roughly 6000 evaluated elements (gates + state), i.e. a 2006-era
CPU doing ~1.1 million element-evaluations per second under a full-featured
VHDL simulator.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VfitTimingParams:
    """Cost constants of simulator-command fault injection."""

    #: Host seconds per (element x cycle): 7.2 s / (1303 cycles * 6000
    #: elements) from the paper's measurements, i.e. roughly 1.1 million
    #: element evaluations per second on a 2006-era CPU.
    seconds_per_element_cycle: float = 9.2e-7
    #: Per-experiment overhead: script generation, checkpointing, trace
    #: dumping and comparison.
    experiment_overhead_s: float = 0.15


@dataclass
class VfitExperimentCost:
    """Time breakdown of one VFIT experiment."""

    simulate_s: float = 0.0
    overhead_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.simulate_s + self.overhead_s


class VfitTimeModel:
    """Prices one VFIT experiment from its simulated cycle count."""

    def __init__(self, elements: int,
                 params: VfitTimingParams = VfitTimingParams()):
        self.elements = elements
        self.params = params

    def cost(self, cycles: int) -> VfitExperimentCost:
        """Cost of one experiment of *cycles* simulated clock cycles."""
        return VfitExperimentCost(
            simulate_s=(cycles * self.elements
                        * self.params.seconds_per_element_cycle),
            overhead_s=self.params.experiment_overhead_s)
