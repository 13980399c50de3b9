"""Layer-attributed FADES campaign benchmark.

    python3 perfbench/run.py --workload ffs-short --seed 0 --seconds 32 \\
        --trace 0

Runs repetitions of one workload (see ``workloads.py``), each in a fresh
process (``rep.py``), for about ``--seconds``, and checks every
repetition's output digest against ``digests.json``.  The last line of
standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over untraced
repetitions); ``--trace 1`` alternates traced and untraced repetitions
and reports the per-layer metrics (medians over traced repetitions) plus
the tracing overhead (traced ÷ untraced campaign seconds).  The line
before it carries the per-repetition figures and the environment (git
sha, source hash, nproc, Python).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from layers import PER_LAYER
from workloads import WORKLOADS, slot_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SCRATCH = ROOT / ".perfbench_tmp"

#: End-to-end metrics of an untraced run: (name, unit).  Each name is
#: also the key of that value in a repetition's report.
END_TO_END = (("faults_per_s", "faults/s"), ("setup_s", "s"),
              ("wall_s", "s"), ("peak_rss_mb", "MiB"))

#: Knobs that change what a campaign does or how fast; never inherited.
CLEARED_ENV = ("REPRO_CACHE_DIR", "REPRO_EMU_LANES", "REPRO_CHAOS",
               "REPRO_FAULTS", "REPRO_PAPER_SCALE")

#: A run must end within this many seconds, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0


class RepFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    """The caller's environment without any ``REPRO_*`` knob, with
    ``src/`` as the only import path and a fixed hash seed."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_rep(workload: str, slot: int, trace: int, scale: str,
            timeout: float) -> Dict:
    """One repetition in a fresh process; its JSON report."""
    SCRATCH.mkdir(exist_ok=True)
    journal_dir = tempfile.mkdtemp(prefix="rep-", dir=SCRATCH)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), "--workload", workload,
             "--slot", str(slot), "--journal-dir", journal_dir,
             "--trace", str(trace), "--scale", scale],
            env=child_env(), cwd=str(ROOT), capture_output=True,
            text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as error:
        raise RepFailed(f"repetition timed out after {error.timeout:.0f} s")
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"repetition exited {proc.returncode}:\n"
                        + proc.stderr[-4000:])
    report = json.loads(lines[-1])
    report["traced"] = bool(trace)
    return report


def environment() -> Dict:
    sha: Optional[str] = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass  # the source hash below still identifies the code
    tree = hashlib.sha1()
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode("utf-8"))
        tree.update(path.read_bytes())
    return {"git_sha": sha, "src_sha1": tree.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "cleared_env": [key for key in CLEARED_ENV if key in os.environ]}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="layer-attributed FADES campaign benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"),
                        default="full",
                        help="fault counts (tiny: smoke tests)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program under test: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    with open(DIGESTS, encoding="utf-8") as handle:
        digests = json.load(handle)
    slot = slot_of(args.seed)
    expected = digests.get(args.scale, {}).get(args.workload, {}).get(
        str(slot))

    started = time.monotonic()
    modes = (1, 0) if args.trace else (0,)
    reps: List[Dict] = []
    last_s = 0.0
    try:
        # Start a repetition only if one as long as the last still ends
        # within --seconds, so a run lasts about --seconds, not up to one
        # repetition more.
        while (len(reps) < len(modes)
               or time.monotonic() - started + last_s <= args.seconds):
            trace = modes[len(reps) % len(modes)]
            begin = time.monotonic()
            reps.append(run_rep(
                args.workload, slot, trace, args.scale,
                RUN_LIMIT_S - (begin - started)))
            last_s = time.monotonic() - begin
    except RepFailed as error:
        print(f"{args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    attempted = sum(rep["faults"] for rep in reps)
    failed = 0
    for rep in reps:
        rep["digest_ok"] = rep["digest"] == expected
        failed += rep["quarantined"] if rep["digest_ok"] else rep["faults"]

    untraced = [rep for rep in reps if not rep["traced"]]
    if args.trace:
        traced = [rep for rep in reps if rep["traced"]]
        metrics = {
            name: {"value": statistics.median(
                rep["layers"][name] for rep in traced), "unit": unit}
            for name, unit in PER_LAYER if name != "tracing.overhead_ratio"}
        metrics["tracing.overhead_ratio"] = {
            "value": statistics.median(rep["campaign_s"] for rep in traced)
            / statistics.median(rep["campaign_s"] for rep in untraced),
            "unit": "ratio"}
    else:
        metrics = {name: {"value": statistics.median(
            rep[name] for rep in untraced), "unit": unit}
            for name, unit in END_TO_END}

    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed, "slot": slot,
        "scale": args.scale, "expected_digest": expected,
        "failed_fraction": failed / attempted,
        "env": environment(),
        "reps": [{key: value for key, value in rep.items()
                  if key != "layers"} for rep in reps]}}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
