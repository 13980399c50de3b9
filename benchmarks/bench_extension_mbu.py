"""Extension bench — multiple bit-flips (paper §8 / §7.2).

Two studies:

* failure rate vs MBU multiplicity (1/2/4 simultaneous FF flips) — wider
  upsets defeat more masking;
* pulse-equivalence: for a sample of combinational LUTs, the multiple
  bit-flip measured from a one-cycle pulse must reproduce the pulse's
  classification (the emulation path the paper sketches in §7.2).
"""

import random

from repro.core import (Fault, FaultModel, Target, TargetKind,
                        multi_ff_bitflip, pulse_equivalent_mbu)


def test_extension_mbu(benchmark, evaluation, bench_count, record_artefact):
    fades = evaluation.fades
    cycles = evaluation.cycles
    n_ffs = len(fades.locmap.mapped.ffs)
    count = max(bench_count, 10)

    def run_all():
        rng = random.Random(9)
        by_width = {}
        for width in (1, 2, 4):
            faults = [multi_ff_bitflip(rng.sample(range(n_ffs), width),
                                       rng.randrange(cycles))
                      for _ in range(count)]
            by_width[width] = fades.run_faults(
                faults, cycles, label=f"mbu{width}")
        # Pulse-equivalence sample.
        matched = checked = 0
        n_luts = len(fades.locmap.mapped.luts)
        probe = max(4, cycles // 3)
        sample = range(0, n_luts, max(1, n_luts // 10))
        for equivalent in pulse_equivalent_mbu(fades, sample, probe):
            if equivalent.mbu is None:
                continue
            pulse = Fault(FaultModel.PULSE,
                          Target(TargetKind.LUT, equivalent.lut_index),
                          probe, duration_cycles=1.0)
            checked += 1
            matched += (fades.run_experiment(pulse, cycles).outcome
                        == fades.run_experiment(equivalent.mbu,
                                                cycles).outcome)
        return by_width, matched, checked

    by_width, matched, checked = benchmark.pedantic(run_all, iterations=1,
                                                    rounds=1)

    lines = ["Extension: multiple bit-flips (MBU)",
             f"{'width':>6} {'failure%':>9} {'latent%':>8} {'silent%':>8}"]
    for width, result in by_width.items():
        counts = result.counts()
        lines.append(f"{width:>6} "
                     f"{100 * counts.failure / counts.total:>9.1f} "
                     f"{100 * counts.latent / counts.total:>8.1f} "
                     f"{100 * counts.silent / counts.total:>8.1f}")
    lines.append("")
    lines.append(f"pulse-equivalent MBU reproduced the pulse outcome for "
                 f"{matched}/{checked} sampled LUTs")
    record_artefact("extension_mbu", "\n".join(lines))

    # Shape: wider upsets are at least as dangerous as single flips.
    assert by_width[4].failure_percent() >= \
        by_width[1].failure_percent() - 1e-9
    # The §7.2 emulation path holds for the overwhelming majority.
    assert checked > 0
    assert matched >= checked * 0.8
