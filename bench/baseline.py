#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize its spread.

    python3 bench/baseline.py --seeds 1-10 [--workloads check_scan,...]
                              [--traced] [--out bench/baseline.json]

Run from the repository root.  For every workload, runs the command in
BENCHMARK.json once per seed with tracing off and reports, per end-to-end
metric, the median and the quartile spread (q3 - q1) / median that the
benchmark's bounds are judged against.  ``--traced`` adds one traced run at
seed 0 with each layer's share of the traced op time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


# Layer shares of the traced op time (the sum of every span's self time).
SHARES = {
    "csw+linprog": ("csw.self_s", "csw.pattern_realizable.self_s", "linprog.self_s"),
    "solver+solve_linear": ("solver.self_s", "rational.solve_linear.self_s"),
    "det+representatives+classes": ("rational.det.self_s", "representatives.self_s",
                                    "classes.self_s"),
    "linprog": ("linprog.self_s",),
    "det": ("rational.det.self_s",),
    "harness": ("harness.self_s",),
    "csw": ("csw.self_s", "csw.pattern_realizable.self_s"),
    "solver": ("solver.self_s",),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report: dict = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for name in names:
        results = [run(spec, name, s, 0) for s in seeds(args.seeds)]
        entry: dict = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                "bound": metric["bound"], "unit": metric["unit"], "values": values,
            }
            print(f"{name:11s} {metric['name']:12s} median {med:10.4f} "
                  f"spread {(q3 - q1) / med:6.3f} (bound {metric['bound']}) "
                  + " ".join(f"{v:.4g}" for v in values), flush=True)
        if args.traced:
            traced = run(spec, name, 0, 1)
            layers = {k: v["value"] for k, v in traced["metrics"].items()}
            total = layers["trace.op_s"]
            entry["per_layer"] = layers
            entry["shares"] = {
                label: sum(layers[m] for m in parts) / total for label, parts in SHARES.items()
            }
            print(f"{name:11s} shares " + json.dumps(
                {k: round(v, 3) for k, v in entry["shares"].items()}), flush=True)
        report["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
