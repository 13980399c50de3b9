#!/usr/bin/env python
"""Multiple bit-flips from combinational pulses (paper section 7.2).

The paper argues that combinational fault models cannot be replaced by
single bit-flips: one pulse on a combinational path that fans out to many
flip-flops lands as a *multiple* bit-flip whose distribution depends on the
affected path.  This study reproduces table 4 and then quantifies the
distribution: for a sample of LUTs, how many registers does a single-cycle
pulse corrupt?

Run:  python examples/multiple_bitflip_study.py
"""

from collections import Counter

from repro.analysis import Evaluation, generate_table4, render_table4
from repro.core import Fault, FaultModel, Target, TargetKind


def flip_width_distribution(evaluation, sample=40, probes=3):
    """For each sampled LUT: the worst-case number of FFs whose state a
    1-cycle pulse changes, probed at several workload phases (how many
    registers a pulse corrupts depends on the machine state when it
    strikes, which is the paper's point about needing the distribution).
    """
    fades = evaluation.fades
    device = fades.device
    cycles = evaluation.cycles
    probe_cycles = [max(4, cycles * (k + 1) // (probes + 2))
                    for k in range(probes)]
    n_luts = len(fades.locmap.mapped.luts)
    widths = Counter()
    step = max(1, n_luts // sample)
    # Dense coverage of the early (control/decode) LUTs, strided beyond.
    indices = sorted(set(range(min(16, n_luts)))
                     | set(range(0, n_luts, step)))
    goldens = {}
    for cycle in probe_cycles:
        device.reset_system()
        device.run(cycle + 1)
        goldens[cycle] = device.ff_state()
    for lut_index in indices:
        worst = 0
        for cycle in probe_cycles:
            fault = Fault(FaultModel.PULSE,
                          Target(TargetKind.LUT, lut_index),
                          cycle, duration_cycles=1.0)
            device.reset_system()
            injection = fades.injector.prepare(fault)
            device.run(cycle)
            injection.inject()
            device.step()
            injection.remove()
            flipped = sum(1 for a, b in zip(goldens[cycle],
                                            device.ff_state()) if a != b)
            worst = max(worst, flipped)
            fades._restore_configuration()
        widths[worst] += 1
    return widths


def main() -> None:
    evaluation = Evaluation()
    print(evaluation.fades.impl.describe(), "\n")

    print(render_table4(generate_table4(evaluation, max_rows=3)))

    widths = flip_width_distribution(evaluation)
    total = sum(widths.values())
    print("\nDistribution: flip-flops corrupted by one combinational "
          "pulse (sampled LUTs)")
    for width in sorted(widths):
        count = widths[width]
        bar = "#" * round(40 * count / total)
        print(f"{width:>3} FFs: {count:>4} LUTs ({100 * count / total:5.1f}%) {bar}")
    multi = sum(count for width, count in widths.items() if width >= 2)
    print(f"\n{100 * multi / total:.1f}% of sampled pulses land as "
          "MULTIPLE bit-flips -> single-bit-flip campaigns cannot emulate "
          "them (paper, section 7.2).")

    demonstrate_mbu_equivalence(evaluation)


def demonstrate_mbu_equivalence(evaluation, sample=12):
    """Close the paper's loop: once a pulse's bit-flip footprint is known,
    the equivalent MBU reproduces its outcome exactly."""
    from repro.core import pulse_equivalent_mbu

    fades = evaluation.fades
    cycles = evaluation.cycles
    probe = max(4, cycles // 3)
    matched = checked = 0
    n_luts = len(fades.locmap.mapped.luts)
    luts = range(0, n_luts, max(1, n_luts // sample))
    for equivalent in pulse_equivalent_mbu(fades, luts, probe):
        if equivalent.mbu is None:
            continue
        pulse = Fault(FaultModel.PULSE,
                      Target(TargetKind.LUT, equivalent.lut_index),
                      probe, duration_cycles=1.0)
        pulse_outcome = fades.run_experiment(pulse, cycles).outcome
        mbu_outcome = fades.run_experiment(equivalent.mbu, cycles).outcome
        checked += 1
        matched += pulse_outcome == mbu_outcome
    print(f"\nMBU equivalence (paper 7.2): for {matched}/{checked} sampled "
          "pulses, injecting the measured multiple bit-flip instead of the "
          "pulse produced the identical classification.")


if __name__ == "__main__":
    main()
