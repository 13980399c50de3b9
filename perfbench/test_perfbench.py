"""Smoke tests of the benchmark itself (tiny scale).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import rep
import run
from workloads import BASELINE_SEED, HELD_OUT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, env=None, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=str(cwd), env=env, timeout=170)
    return proc


def parse(stdout: str):
    lines = stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, detail


def tiny_args(workload: str, seed: int, trace: int):
    return ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--scale", "tiny"]


def tiny(workload: str, seed: int, trace: int, env=None):
    proc = bench(*tiny_args(workload, seed, trace), env=env)
    assert proc.returncode == 0, proc.stderr
    return parse(proc.stdout)


def test_benchmark_json_lists_the_emitted_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(layers.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_emits_every_metric(workload):
    result, detail = tiny(workload, BASELINE_SEED, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == detail["reps"][0]["faults"] > 0
    assert {name: value["unit"] for name, value in
            result["metrics"].items()} == dict(run.END_TO_END)
    assert all(value["value"] > 0 for value in result["metrics"].values())
    assert set(detail["env"]) >= {"git_sha", "src_sha1", "nproc", "python"}
    first = detail["reps"][0]
    scale = rep.REFERENCE_CALIBRATION_S / statistics.mean(
        first["raw"]["calibration_s"])
    assert first["wall_s"] == pytest.approx(first["raw"]["wall_s"] * scale)

    result, detail = tiny(workload, BASELINE_SEED, 1)
    assert result["correct"]
    assert [rep["traced"] for rep in detail["reps"]] == [True, False]
    assert {name: value["unit"] for name, value in
            result["metrics"].items()} == dict(layers.PER_LAYER)
    metrics = {name: value["value"]
               for name, value in result["metrics"].items()}
    wall = metrics["tracing.traced_wall_s"]
    assert sum(value for name, value in metrics.items()
               if name.endswith(".s")) == pytest.approx(wall)
    assert metrics["runtime.engine.s"] < 0.2 * wall
    assert sum(detail["reps"][0]["shares"].values()) == pytest.approx(1.0)


def test_held_out_seed_digest_matches():
    result, detail = tiny("ffs-short", HELD_OUT_SEED, 0)
    assert result["correct"]
    assert detail["slot"] == HELD_OUT_SEED


def test_tampered_digest_trips_failed_fraction(tmp_path, monkeypatch,
                                               capsys):
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    pinned = digests["tiny"]["ffs-short"][str(BASELINE_SEED)]
    digests["tiny"]["ffs-short"][str(BASELINE_SEED)] = pinned[::-1]
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps(digests), encoding="utf-8")
    monkeypatch.setattr(run, "DIGESTS", tampered)
    assert run.main(tiny_args("ffs-short", BASELINE_SEED, 0)) == 0
    result, detail = parse(capsys.readouterr().out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert detail["failed_fraction"] == 1.0


def test_caller_knobs_do_not_reach_the_program():
    env = dict(os.environ, REPRO_EMU_LANES="2", REPRO_FAULTS="1",
               REPRO_CHAOS="seed=1;worker_crash:p=1")
    result, detail = tiny("ffs-short", BASELINE_SEED, 0, env=env)
    assert result["correct"]
    assert detail["env"]["cleared_env"] == [
        "REPRO_EMU_LANES", "REPRO_CHAOS", "REPRO_FAULTS"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ffs-short", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture()
def repro_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    for knob in run.CLEARED_ENV:
        monkeypatch.delenv(knob, raising=False)


def test_tracer_restores_every_attribute(repro_on_path):
    assert layers.wrapped_attributes() == []
    tracer = layers.LayerTracer()
    with tracer:
        wrapped = layers.wrapped_attributes()
        assert len(wrapped) == len(layers.all_targets()) > len(
            layers.TARGETS)
        originals = [(owner, attr, original)
                     for owner, attr, original in tracer._installed]
    assert layers.wrapped_attributes() == []
    for owner, attr, original in originals:
        current = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        assert current is original


def test_tracer_uninstalls_when_the_run_raises(repro_on_path):
    with pytest.raises(ZeroDivisionError):
        with layers.LayerTracer() as tracer:
            tracer.root(lambda: 1 / 0)
    assert layers.wrapped_attributes() == []


def test_self_times_partition_the_traced_wall(repro_on_path, tmp_path):
    from repro.analysis.experiments import Evaluation
    from repro.core import FaultModel
    from repro.runtime import CampaignJobSpec, run_campaign

    evaluation = Evaluation(backend="compiled")
    jobspec = CampaignJobSpec.from_evaluation(
        evaluation, evaluation.spec(FaultModel.BITFLIP, "ffs", count=4),
        faultload_seed=1)
    with layers.LayerTracer() as tracer:
        tracer.root(run_campaign, jobspec, workers=0,
                    journal=str(tmp_path / "j.jsonl"))
    wall = tracer.counters["traced_wall_s"]
    assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=1e-9)
    assert tracer.calls["emu.lanes.run"] == 1
    assert tracer.calls["runtime.journal.append"] == 4
    assert all(seconds >= 0 for seconds in tracer.self_s.values())
