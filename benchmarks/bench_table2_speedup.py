"""Table 2 — FADES vs VFIT emulation time and speed-up.

Reported both as measured on this testbed (short workload, small model —
where, as the paper's section 7.1 predicts, the CPU-based tool looks
relatively better) and projected to the paper's scale (1303-cycle workload,
6000-element model, 3000 faults), where the paper's speed-up ordering and
magnitudes must reappear.

This module also measures the *host-side* backend speed-up: the same
seeded faultload through the reference device simulator and the
bit-parallel compiled backend (``repro.emu``), recorded to
``benchmarks/results/BENCH_table2_speedup.json``.  Runnable standalone::

    python benchmarks/bench_table2_speedup.py --backend compiled
"""

import argparse
import json
import os
import pathlib
import sys
import time

import pytest

from repro.analysis import generate_table2, render_table2
from repro.analysis.experiments import Evaluation
from repro.core import FaultModel

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Faults for the backend speed-up measurement.  Enough to fill the
#: compiled backend's lane batches; the reference path scales linearly.
BACKEND_BENCH_FAULTS = int(os.environ.get("REPRO_EMU_BENCH_FAULTS", "252"))

#: Floor asserted on the compiled backend's host wall-clock advantage.
MIN_BACKEND_SPEEDUP = 20.0


def _time_backend(backend: str, count: int, seed: int = 2006):
    """Wall-clock one bitflip/FFs campaign on *backend*.

    The testbed build and the golden run are warmed outside the timed
    region: the measurement is the experiment loop itself, which is what
    the backends differ on.
    """
    evaluation = Evaluation(seed=seed, backend=backend)
    spec = evaluation.spec(FaultModel.BITFLIP, "ffs", count=count)
    evaluation.fades.golden_run(evaluation.cycles)
    begin = time.perf_counter()
    result = evaluation.run(spec)
    wall_s = time.perf_counter() - begin
    return wall_s, result, evaluation


def measure_backend_speedup(count: int = BACKEND_BENCH_FAULTS,
                            seed: int = 2006) -> dict:
    """Reference vs compiled wall-clock on one seeded faultload."""
    from repro.emu import lane_width

    ref_wall, ref_result, evaluation = _time_backend("reference", count,
                                                     seed)
    emu_wall, emu_result, _ = _time_backend("compiled", count, seed)
    outcomes_match = (
        [e.outcome for e in ref_result.experiments]
        == [e.outcome for e in emu_result.experiments])
    return {
        "experiment": "bitflip/FFs",
        "faults": count,
        "workload_cycles": evaluation.cycles,
        "lanes": lane_width(),
        "reference_wall_s": round(ref_wall, 4),
        "compiled_wall_s": round(emu_wall, 4),
        "speedup": round(ref_wall / emu_wall, 2) if emu_wall else None,
        "outcomes_match": outcomes_match,
        "counts": str(emu_result.counts()),
    }


def record_backend_speedup(payload: dict,
                           output: "pathlib.Path" = None) -> pathlib.Path:
    path = output or RESULTS_DIR / "BENCH_table2_speedup.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def test_table2_speedup(benchmark, evaluation, bench_count, record_artefact):
    rows = benchmark.pedantic(generate_table2,
                              args=(evaluation, bench_count),
                              iterations=1, rounds=1)
    record_artefact("table2_speedup", render_table2(rows))

    by_name = {row.experiment: row for row in rows}

    # Shape 1: memory bit-flips are the cheapest mechanism, delays the
    # most expensive (paper: 536 s vs 2487-2778 s per 3000 faults).
    cheapest = min(rows, key=lambda r: r.fades_mean_s)
    assert cheapest.experiment == "bitflip/Memory"
    slowest = max(rows, key=lambda r: r.fades_mean_s)
    assert slowest.experiment.startswith("delay")

    # Shape 2: sub-cycle pulses cost about half of >=1-cycle pulses
    # ("two injections" needed, paper 6.2).
    ratio = (by_name["pulse/Comb(>=1)"].fades_mean_s
             / by_name["pulse/Comb(<1)"].fades_mean_s)
    assert 1.5 < ratio < 2.5

    # Shape 3: projected speed-ups land near the paper's column —
    # at least an order of magnitude overall, best for memory bit-flips,
    # worst for delays.
    for row in rows:
        assert row.speedup_projected > 1.0
        if row.paper_speedup:
            assert row.speedup_projected == \
                pytest.approx(row.paper_speedup, rel=0.6), row.experiment
    assert by_name["bitflip/Memory"].speedup_projected == max(
        r.speedup_projected for r in rows)
    assert min(r.speedup_projected for r in rows) == min(
        by_name["delay/Sequential"].speedup_projected,
        by_name["delay/Comb"].speedup_projected)


def test_backend_speedup(record_artefact):
    """The compiled backend beats the reference wall-clock by >= 20x.

    Identical outcomes are asserted here too (the dedicated equivalence
    property tests cover every model; this pins the benchmarked pair),
    and the measurement lands in ``BENCH_table2_speedup.json`` so the
    perf trajectory is recorded run over run.
    """
    payload = measure_backend_speedup()
    path = record_backend_speedup(payload)
    record_artefact("backend_speedup",
                    json.dumps(payload, indent=2, sort_keys=True))
    assert payload["outcomes_match"]
    assert payload["speedup"] >= MIN_BACKEND_SPEEDUP, payload
    assert path.exists()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="backend speed-up measurement "
                    "(reference vs compiled, bitflip/FFs)")
    parser.add_argument("--backend", choices=("reference", "compiled"),
                        default="compiled",
                        help="backend under test (timed against the "
                             "reference backend)")
    parser.add_argument("--faults", type=int,
                        default=BACKEND_BENCH_FAULTS)
    parser.add_argument("--output", default=None,
                        help="JSON result path (default "
                             "benchmarks/results/BENCH_table2_speedup"
                             ".json)")
    args = parser.parse_args(argv)
    if args.backend == "reference":
        wall, result, _ = _time_backend("reference", args.faults)
        print(f"reference backend: {wall:.3f} s for {args.faults} faults "
              f"({result.counts()})")
        return 0
    payload = measure_backend_speedup(count=args.faults)
    path = record_backend_speedup(
        payload, pathlib.Path(args.output) if args.output else None)
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"recorded to {path}")
    if not payload["outcomes_match"]:
        print("FAIL: backends disagree on outcomes")
        return 1
    if payload["speedup"] < MIN_BACKEND_SPEEDUP:
        print(f"FAIL: speedup {payload['speedup']} < "
              f"{MIN_BACKEND_SPEEDUP}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
