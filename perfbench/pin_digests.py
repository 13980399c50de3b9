"""Pin the expected output digest of every workload, seed slot and scale.

    python3 perfbench/pin_digests.py

Runs one untraced repetition per (scale, workload, slot), two at a time,
and rewrites ``digests.json``.  Run it only on a commit whose simulated
results are trusted: a change that only makes the program faster must
leave every digest as it is, and the benchmark counts a mismatch as
failed.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

from run import DIGESTS, run_rep
from workloads import SLOTS, WORKLOADS


def main() -> int:
    jobs = [(scale, name, slot) for scale in ("tiny", "full")
            for name in WORKLOADS for slot in range(SLOTS)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        reports = list(pool.map(
            lambda job: run_rep(job[1], job[2], 0, job[0], 600.0), jobs))
    digests: dict = {}
    for (scale, name, slot), report in zip(jobs, reports):
        if report["quarantined"]:
            print(f"{scale}/{name}/{slot}: {report['quarantined']} "
                  "experiments quarantined; not pinning", file=sys.stderr)
            return 1
        digests.setdefault(scale, {}).setdefault(name, {})[str(slot)] = \
            report["digest"]
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"pinned {len(jobs)} digests in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
