#!/usr/bin/env python3
"""Record bench/reference.json: per op, its verdicts and the sha256 of its
report without timing_seconds, at seed 0.

    python3 bench/record_reference.py

Run from the repository root, only when a change is meant to alter verdicts
or report bytes, and say why in CHANGES.md.  Refuses to record a workload
whose reports fail the checker.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads

SEED = 0


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    doc = {"seed": SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        workdir = os.path.join(run.WORK, f"reference-{name}")
        try:
            batch = run.Batch(name, SEED, workdir)
            batch.refs = [None] * len(batch.ops)  # judged by the checker alone
            batch.run_pass(run.fresh_cli())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if batch.failed:
            print("\n".join(batch.problems), file=sys.stderr)
            return 1
        doc["workloads"][name] = [
            {"verdict": v, "sha256": d} for v, d in zip(batch.summaries, batch.digests)
        ]
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
