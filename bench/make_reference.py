"""Regenerate ``reference.json``: the rows the benchmark checks against.

    python3 bench/make_reference.py

Runs each workload that has bracket or check rows once for each of SEEDS,
in a fresh worker process, and stores
``{config digest: [[N, lower, upper], ...]}``. A later bracket must
intersect the stored one, as every valid certified enclosure of the same
value does, and neither bracket nor check row may be much looser (see
``checks.WIDTH_SLACK`` and ``checks.LOWER_SLACK``). Regenerate only from a
commit whose brackets are known to be valid and tight.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WITH_BRACKETS = ("strong-avg", "recurrence-window")
SEEDS = range(20)


def main() -> int:
    reference = {}
    for workload in WITH_BRACKETS:
        for seed in SEEDS:
            configs = workloads.configs_for(workload, seed)
            if all(checks.config_digest(c) in reference
                   for c in configs if c["op"] in checks.STORED_OPS):
                continue  # same inputs as an earlier seed
            results = run.spawn({"mode": "run", "configs": configs})[1]["results"]
            bad = [r["error"] for r in results if r["error"]]
            if bad:
                raise SystemExit(f"{workload} seed {seed} failed: {bad}")
            reference.update(checks.reference_rows(configs, results))
            print(f"{workload} seed {seed} done", flush=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
