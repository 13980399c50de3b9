"""One repetition of a benchmark workload, in a fresh process.

Started by ``run.py`` with a cleaned environment and ``PYTHONPATH``
pointing at the checkout's ``src/``; being a fresh process, it has never
installed a layer tracer before its run.  Runs every campaign of the
workload through ``repro.runtime.run_campaign`` in-process (``workers=0``)
with a journal, the path ``repro campaign --journal`` takes, and prints
one JSON object: timings, the output digest and, with ``--trace 1``,
per-layer values.

The host's speed drifts by up to 60% over minutes when other tenants
load it, so a fixed pure-Python loop is timed right before and right
after the campaigns.  ``wall_s``, ``setup_s``, ``campaign_s`` and
``faults_per_s`` are scaled to the speed at which that loop takes
``REFERENCE_CALIBRATION_S``; the measured seconds are kept under ``raw``.
Per-layer values are not scaled.

    python3 perfbench/rep.py --workload ffs-short --slot 0 \\
        --journal-dir DIR [--trace 1] [--scale tiny]
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import List

from layers import LayerTracer, layer_metrics, layer_shares
from workloads import WORKLOADS, faultload_seed

#: Engine phases that run before the first experiment of a fixed-budget,
#: unpruned campaign.
SETUP_PHASES = ("setup", "golden")

SRC = Path(__file__).resolve().parent.parent / "src"

#: Seconds :func:`calibration_s` takes at the reference speed, that of an
#: unloaded 2.1 GHz Xeon vCPU under CPython 3.11.  Only a scale: a
#: comparison between two commits does not depend on it.
REFERENCE_CALIBRATION_S = 0.07


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's speed."""
    begin = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - begin


def output_digest(results) -> str:
    """Hash of what the campaigns computed: per-fault outcomes, the
    F/L/S tally, total emulated seconds and board transactions."""
    sha = hashlib.sha256()
    for result in results:
        outcomes = [experiment.outcome.value
                    for experiment in result.experiments]
        sha.update(json.dumps({
            "outcomes": outcomes,
            "tally": collections.Counter(outcomes),
            "emulated_s": repr(result.total_emulation_s),
            "transactions": sum(experiment.cost.transactions
                                for experiment in result.experiments),
        }, sort_keys=True).encode("utf-8"))
    return sha.hexdigest()


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--slot", type=int, required=True)
    parser.add_argument("--journal-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    import repro
    from repro.analysis.experiments import Evaluation
    from repro.core import FaultModel
    from repro.emu import lane_width
    from repro.obs import metrics as obs_metrics
    from repro.obs.tracing import TRACER
    from repro.runtime import CampaignJobSpec, run_campaign

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    TRACER.disable()

    calibration = [calibration_s()]
    workload = WORKLOADS[args.workload]
    begin = time.perf_counter()
    evaluation = Evaluation(values=workload.values,
                            backend=workload.backend)
    jobspecs = [
        CampaignJobSpec.from_evaluation(
            evaluation,
            evaluation.spec(FaultModel(row.model), row.pool, row.band,
                            count=count),
            faultload_seed=faultload_seed(args.slot, index))
        for index, (row, count) in enumerate(
            zip(workload.rows, workload.counts(args.scale)))]
    prep_s = time.perf_counter() - begin

    tracer = LayerTracer() if args.trace else None
    results = []
    campaign_s = 0.0
    with tracer if tracer is not None else contextlib.nullcontext():
        for index, jobspec in enumerate(jobspecs):
            run = functools.partial(
                run_campaign, jobspec, workers=0,
                journal=os.path.join(args.journal_dir,
                                     f"campaign{index}.jsonl"))
            started = time.perf_counter()
            results.append(tracer.root(run) if tracer is not None
                           else run())
            campaign_s += time.perf_counter() - started
    wall_s = time.perf_counter() - begin
    calibration.append(calibration_s())
    scale = REFERENCE_CALIBRATION_S / (sum(calibration) / len(calibration))

    phases = obs_metrics.REGISTRY.get("campaign_phase_seconds").series()
    setup_s = prep_s + sum(data["sum"] for key, data in phases.items()
                           if dict(key).get("phase") in SETUP_PHASES)
    faults = sum(len(result.experiments) for result in results)
    report = {
        "faults": faults,
        "quarantined": sum(experiment.quarantined for result in results
                           for experiment in result.experiments),
        "wall_s": wall_s * scale,
        "setup_s": setup_s * scale,
        "campaign_s": campaign_s * scale,
        "faults_per_s": faults / ((wall_s - setup_s) * scale),
        "raw": {"wall_s": wall_s, "setup_s": setup_s,
                "campaign_s": campaign_s, "calibration_s": calibration},
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": output_digest(results),
        "tallies": [str(result.counts()) for result in results],
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, faults, lane_width())
        report["shares"] = layer_shares(tracer)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
