"""Observability overhead — tracing and live observability must be cheap.

Runs the same fault-injection workload through one
:class:`~repro.runtime.jobspec.JobRunner` under two instrumentation
regimes and asserts each costs less than 5% of campaign wall-clock:

* **tracing** — spans disabled vs. enabled, guarding the per-experiment
  hot path (every experiment opens reconfigure/run/readback/classify
  spans, so a regression multiplies across whole campaigns);
* **live** — bare per-record loop vs. the full ``--serve-obs`` stack
  as campaigns run it: ``CampaignMetrics`` accounting (the one campaign
  tally, whose snapshot, registry health-counter deltas included, every
  sample and ``/status`` render) and the engine's live coordinator,
  :class:`~repro.runtime.liveobs.CampaignObservability`, polled after
  every record — the ``.tsdb`` time-series sampler at its 1 s spacing,
  the built-in alert rules, and its ``ObsServer`` being scraped
  concurrently.  The barrier-clock design promises near-zero hot-path
  cost; this bench is the number behind that promise.

Scale: 200 faults by default (``REPRO_OBS_BENCH_FAULTS=<n>`` overrides);
timings are min-of-3 to shed scheduler noise.  Both verdicts are merged
into ``benchmarks/results/BENCH_obs_overhead.json`` under their mode
key.
"""

import json
import os
import pathlib
import threading
import time
import urllib.request

from repro.core import FaultModel
from repro.obs.tracing import TRACER
from repro.runtime import CampaignJobSpec, CampaignObservability
from repro.runtime.jobspec import JobRunner, build_campaign
from repro.runtime.metrics import CampaignMetrics

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULT_FILE = "BENCH_obs_overhead.json"

MAX_OVERHEAD = 0.05
ROUNDS = 3
#: ``repro top`` default refresh cadence — the realistic scrape load.
SCRAPE_INTERVAL_S = 1.0


def _persist(mode, result):
    """Merge one mode's verdict into the shared result file."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / RESULT_FILE
    payload = {}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except ValueError:
            payload = {}
    if not isinstance(payload, dict) or "overhead_fraction" in payload:
        # Legacy flat layout from before the live mode existed.
        payload = {"tracing": payload} if payload else {}
    payload[mode] = result
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _bench_spec(evaluation):
    count = int(os.environ.get("REPRO_OBS_BENCH_FAULTS", "200"))
    spec = evaluation.spec(FaultModel.BITFLIP, "ffs", count=count)
    jobspec = CampaignJobSpec.from_evaluation(evaluation, spec)
    return JobRunner(jobspec, build_campaign(jobspec)), tuple(range(count))


def _time_runs(runner, indices, enabled):
    best = float("inf")
    for _ in range(ROUNDS):
        TRACER.reset(enabled=enabled)
        start = time.perf_counter()
        records = runner.run_indices(indices)
        best = min(best, time.perf_counter() - start)
        assert len(records) == len(indices)
        events = TRACER.drain()
        if enabled:
            assert len(events) >= len(indices)  # spans really recorded
        else:
            assert events == []
    TRACER.disable()
    return best


def test_tracing_overhead_under_5_percent(evaluation, record_artefact):
    runner, indices = _bench_spec(evaluation)
    count = len(indices)

    disabled_s = _time_runs(runner, indices, enabled=False)
    enabled_s = _time_runs(runner, indices, enabled=True)
    overhead = (enabled_s - disabled_s) / disabled_s

    result = {
        "faults": count,
        "rounds": ROUNDS,
        "disabled_s": round(disabled_s, 4),
        "enabled_s": round(enabled_s, 4),
        "overhead_fraction": round(overhead, 4),
        "budget_fraction": MAX_OVERHEAD,
    }
    _persist("tracing", result)
    record_artefact(
        "obs_overhead",
        f"tracing overhead: {count} faults | "
        f"disabled {disabled_s:.3f} s | enabled {enabled_s:.3f} s | "
        f"overhead {overhead * 100:+.2f}% (budget "
        f"{MAX_OVERHEAD * 100:.0f}%)")
    assert overhead < MAX_OVERHEAD, (
        f"tracing adds {overhead * 100:.1f}% (> "
        f"{MAX_OVERHEAD * 100:.0f}% budget)")


def _run_per_record(runner, indices, observe=None):
    """Per-record loop shared by both live-bench sides.

    The bare side runs the identical loop shape so the measured delta
    is purely the observability work, not ``run_indices`` call overhead.
    """
    records = []
    for index in indices:
        (record,) = runner.run_indices((index,))
        records.append(record)
        if observe is not None:
            observe(record)
    return records


def _time_bare_runs(runner, indices):
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        records = _run_per_record(runner, indices)
        best = min(best, time.perf_counter() - start)
        assert len(records) == len(indices)
    return best


def _time_live_runs(runner, indices, tmp_dir):
    best = float("inf")
    for round_no in range(ROUNDS):
        metrics = CampaignMetrics()
        metrics.set_total(len(indices))
        # The journal path only names the .tsdb sidecar.
        journal = str(tmp_dir / f"bench{round_no}.jsonl")
        live = CampaignObservability("bench", metrics, journal=journal,
                                     serve_obs="127.0.0.1:0")
        stop = threading.Event()

        def scrape():
            # A live dashboard polling /metrics while the campaign
            # runs; its lock/GIL contention lands on the hot loop and
            # must fit the same budget.
            url = live.server.url + "/metrics"
            while not stop.is_set():
                try:
                    urllib.request.urlopen(url, timeout=1.0).read()
                except OSError:
                    pass
                stop.wait(SCRAPE_INTERVAL_S)

        scraper = threading.Thread(target=scrape, daemon=True)

        def observe(record):
            metrics.record(record)
            live.poll()

        try:
            scraper.start()
            start = time.perf_counter()
            records = _run_per_record(runner, indices, observe)
            best = min(best, time.perf_counter() - start)
        finally:
            stop.set()
            scraper.join(timeout=5.0)
            live.close()
        assert len(records) == len(indices)
        assert live.sampler.last is not None  # the sampler really sampled
    return best


def test_live_observability_overhead_under_5_percent(
        evaluation, record_artefact, tmp_path):
    runner, indices = _bench_spec(evaluation)
    count = len(indices)
    TRACER.disable()

    bare_s = _time_bare_runs(runner, indices)
    live_s = _time_live_runs(runner, indices, tmp_path)
    overhead = (live_s - bare_s) / bare_s

    result = {
        "faults": count,
        "rounds": ROUNDS,
        "bare_s": round(bare_s, 4),
        "live_s": round(live_s, 4),
        "overhead_fraction": round(overhead, 4),
        "budget_fraction": MAX_OVERHEAD,
        "scrape_interval_s": SCRAPE_INTERVAL_S,
    }
    _persist("live", result)
    record_artefact(
        "obs_live_overhead",
        f"live observability overhead: {count} faults | "
        f"bare {bare_s:.3f} s | live {live_s:.3f} s | "
        f"overhead {overhead * 100:+.2f}% (budget "
        f"{MAX_OVERHEAD * 100:.0f}%)")
    assert overhead < MAX_OVERHEAD, (
        f"live observability adds {overhead * 100:.1f}% (> "
        f"{MAX_OVERHEAD * 100:.0f}% budget)")
