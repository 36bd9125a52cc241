#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the ehlcp CLI.

    python3 bench/run.py --workload check_scan --seed 0 --seconds 20 --trace 0

Run from the repository root.  One client calls ``ehlcp.cli.main(argv)``
in-process in a closed loop (each op starts when the previous one returns),
on instance files the benchmark generates itself, and checks every report
with the independent checker in ``check.py``.  The batch of ops is run in
passes until ``--seconds`` have passed and at least ``MIN_PASSES`` are done;
each pass re-imports ``ehlcp``, so no pass reuses state a previous pass left
in the program.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

MIN_PASSES = 3  # per-op median of at least three passes
TRACE_PASSES = 2  # untraced and traced passes each, in a --trace 1 run
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # op_tail_ms: the latency with this many ops above it
REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(HERE, ".work")


# Host-speed normalisation.  On a shared host the same op can take twice as
# long for tens of seconds at a time, too long for medians within one run
# to absorb.  So every op's wall time is scaled by CALIBRATION_S / c, where
# c is the time of a fixed Fraction and int loop measured just before and
# just after the op, and CALIBRATION_S is that loop's time on an idle host
# (2 vCPUs, Python 3.11).  Reported times are "seconds at nominal host
# speed"; work the program does is measured, host slowdowns are not.
CALIBRATION_S = 0.0004
_CAL_ROW = [Fraction(i % 7 + 1, i % 5 + 2) for i in range(40)]


def _calibration_loop():
    row = _CAL_ROW
    for _ in range(3):
        f = row[3]
        row = [x - f * y for x, y in zip(row, _CAL_ROW)]
    m = 1
    for i in range(1, 300):
        m = (m * i + 7) % 1000003
    return row, m


def calibrate() -> float:
    """Median of five timings of the calibration loop."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def fresh_cli():
    """Import ehlcp.cli with every ehlcp module executed anew."""
    for key in [k for k in sys.modules if k == "ehlcp" or k.startswith("ehlcp.")]:
        del sys.modules[key]
    return importlib.import_module("ehlcp.cli")


def run_op(cli, argv: list):
    """(seconds, exit code or exception, stdout text) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a raising op is a failed op
        code = exc
    return time.perf_counter() - started, code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def validate(op, code, text: str, ref) -> tuple:
    """(problems, verdict summary, sha256 of the report without timing)."""
    if code != 0:
        return [f"exit code {code!r}"], None, None
    try:
        doc = json.loads(text)
        if op.command == "check":
            problems = check.check_report(op.instance, doc)
        elif op.command == "solve":
            problems = check.check_solve(op.instance, doc)
        else:
            problems = check.check_verify(doc, op.trials)
        summary = check.verdict_summary(op.command, doc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"unreadable report: {exc!r}"], None, None
    if ref is not None and summary != ref["verdict"]:
        problems.append("verdicts differ from the reference")
    return problems, summary, digest(check.canonical(doc))


class Batch:
    """A workload's ops with their instance files, and the outcome of every
    op executed so far."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.ops = workloads.build(name, seed)
        if len(self.ops) <= TAIL_BEYOND:
            raise ValueError(f"{name}: a pass needs more than {TAIL_BEYOND} ops")
        os.makedirs(workdir, exist_ok=True)
        self.argv = []
        for i, op in enumerate(self.ops):
            path = os.path.join(workdir, f"op{i:03d}.json")
            if op.instance is not None:
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(gen.to_json(op.instance), fh)
            self.argv.append([a.replace("{file}", path) for a in op.argv])
        self.refs = [None] * len(self.ops)
        self.ref_digests = [None] * len(self.ops)
        if os.path.exists(REFERENCE):
            with open(REFERENCE, encoding="utf-8") as fh:
                ref = json.load(fh)
            entries = ref["workloads"].get(name)
            if entries is not None and len(entries) == len(self.ops):
                self.refs = entries
                if seed == ref["seed"]:
                    self.ref_digests = [e["sha256"] for e in entries]
        self.checked = [False] * len(self.ops)
        self.bad = [False] * len(self.ops)
        self.digests = [None] * len(self.ops)
        self.summaries = [None] * len(self.ops)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def run_pass(self, cli, tracer=None) -> tuple:
        """Run every op once; returns (wall seconds, normalised seconds),
        each a list over the ops."""
        wall, normalised = [], []
        for i, argv in enumerate(self.argv):
            # each op starts with empty young GC generations, as in a fresh
            # CLI process, so a collection owed by earlier work never lands
            # inside the next op
            gc.collect()
            cal = calibrate()
            if tracer is not None:
                tracer.op_id = i
            seconds, code, text = run_op(cli, argv)
            cal_after = calibrate()
            wall.append(seconds)
            normalised.append(seconds * 2 * CALIBRATION_S / (cal + cal_after))
            self.attempted += 1
            if not self.checked[i]:
                self.checked[i] = True
                problems, self.summaries[i], self.digests[i] = validate(
                    self.ops[i], code, text, self.refs[i])
                self.bad[i] = bool(problems)
            elif self.bad[i]:
                problems = ["failed its first check"]
            elif code != 0:
                problems = [f"exit code {code!r}"]
            else:
                try:
                    same = digest(check.canonical(json.loads(text))) == self.digests[i]
                except ValueError:
                    same = False
                problems = [] if same else ["report differs from the first pass"]
            if problems:
                self.failed += 1
                self.problems.append(f"op {i} ({' '.join(argv[:2])}): {'; '.join(problems)}")
        return wall, normalised

    def outputs_changed(self) -> int:
        """Ops whose report bytes differ from the recorded reference while
        their verdicts match it (only the reference seed has bytes)."""
        return sum(
            1 for d, r in zip(self.digests, self.ref_digests)
            if r is not None and d is not None and d != r
        )


def per_op_medians(passes: list) -> list:
    """Median over passes of each op's normalised latency."""
    return [statistics.median(samples) for samples in zip(*passes)]


def setup(name: str, seed: int, workdir: str) -> tuple:
    """Import, generate, write files and run one warm-up op, SETUP_REPEATS
    times; returns (median normalised seconds, batch)."""
    times = []
    for _ in range(SETUP_REPEATS):
        cal = calibrate()
        started = time.perf_counter()
        cli = fresh_cli()
        batch = Batch(name, seed, workdir)
        run_op(cli, batch.argv[0])
        seconds = time.perf_counter() - started
        times.append(seconds * 2 * CALIBRATION_S / (cal + calibrate()))
    return statistics.median(times), batch


def end_to_end(latencies: list, setup_s: float) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    return {
        "ops_per_s": (n / sum(ordered), "ops/s"),
        "op_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "op_tail_ms": (ordered[n - 1 - TAIL_BEYOND] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _layer(summary: dict, prefix: str, exclude=()) -> tuple:
    names = [f"{m}.{f}" for m, f in TRACED if m == prefix and f"{m}.{f}" not in exclude]
    calls = sum(summary.get(n, {}).get("calls", 0) for n in names)
    self_s = sum(summary.get(n, {}).get("self_s", 0.0) for n in names)
    return calls, self_s


def per_layer(summary: dict) -> dict:
    """Per-layer metrics of one traced pass, from Tracer.summary()."""

    def get(name: str, key: str):
        return summary.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    lp_calls = get("linprog.lp_solve", "calls")
    pivots = get("linprog._pivot", "calls")
    tested = get("csw.pattern_realizable", "calls")
    realized = tested - get("csw.pattern_realizable", "none")
    branches = get("solver.solve_branch", "calls")
    feasible = branches - get("solver.solve_branch", "none")
    csw_calls, csw_self = _layer(summary, "csw", exclude=("csw.pattern_realizable",))
    rep_calls, rep_self = _layer(summary, "representatives")
    out = {
        "rational.det.calls": (get("rational.det", "calls"), "count"),
        "rational.det.self_s": (get("rational.det", "self_s"), "s"),
        "rational.solve_linear.calls": (get("rational.solve_linear", "calls"), "count"),
        "rational.solve_linear.self_s": (get("rational.solve_linear", "self_s"), "s"),
        "rational.inverse.calls": (get("rational.inverse", "calls"), "count"),
        "rational.inverse.self_s": (get("rational.inverse", "self_s"), "s"),
        "linprog.lp_solve.calls": (lp_calls, "count"),
        "linprog.lp_solve.self_s": (get("linprog.lp_solve", "self_s"), "s"),
        "linprog.pivots": (pivots, "count"),
        "linprog.pivot_s": (get("linprog._pivot", "self_s"), "s"),
        "linprog.pivots_per_lp": (ratio(pivots, lp_calls), "pivots/lp"),
        "csw.calls": (csw_calls, "count"),
        "csw.self_s": (csw_self, "s"),
        "csw.pattern_realizable.self_s": (get("csw.pattern_realizable", "self_s"), "s"),
        "csw.patterns_tested": (tested, "count"),
        "csw.patterns_realized": (realized, "count"),
        "csw.realized_frac": (ratio(realized, tested), "ratio"),
        "representatives.calls": (rep_calls, "count"),
        "representatives.self_s": (rep_self, "s"),
        "classes.principal_minors.calls": (get("classes.principal_minors", "calls"), "count"),
        "classes.self_s": (_layer(summary, "classes")[1], "s"),
        "solver.solve_all.calls": (get("solver.solve_all", "calls"), "count"),
        "solver.branches": (branches, "count"),
        "solver.branches_feasible": (feasible, "count"),
        "solver.feasible_frac": (ratio(feasible, branches), "ratio"),
        "solver.solve_branch.self_s": (get("solver.solve_branch", "self_s"), "s"),
        "solver.solve_all.self_s": (get("solver.solve_all", "self_s"), "s"),
        "solver.self_s": (_layer(summary, "solver")[1], "s"),
        "linprog.self_s": (_layer(summary, "linprog")[1], "s"),
        "harness.verify_theorem.calls": (get("harness.verify_theorem", "calls"), "count"),
        "harness.self_s": (_layer(summary, "harness")[1], "s"),
        "io.self_s": (_layer(summary, "io")[1], "s"),
        "cli.self_s": (_layer(summary, "cli")[1], "s"),
        "trace.op_s": (sum(v["self_s"] for v in summary.values()), "s"),
    }
    return out


def traced_run(batch: Batch, seconds: float, trace_path: str) -> dict:
    """Alternate untraced and traced passes.  Per-layer times are scaled by
    the pass's normalised-to-wall ratio; each metric is the median over the
    traced passes (counts repeat exactly between passes)."""
    tracer = Tracer()
    untraced, traced, layers = [], [], []
    started = time.perf_counter()
    while len(layers) < TRACE_PASSES or time.perf_counter() - started < seconds:
        untraced.append(batch.run_pass(fresh_cli())[1])
        cli = fresh_cli()
        tracer.install()
        first = len(tracer)
        wall, normalised = batch.run_pass(cli, tracer)
        traced.append(normalised)
        scale = sum(normalised) / sum(wall)
        layers.append({
            k: (v * scale if unit == "s" else v, unit)
            for k, (v, unit) in per_layer(tracer.summary(first)).items()
        })
    tracer.write(trace_path)
    if tracer.absent:
        print(f"traced names absent from this version: {', '.join(tracer.absent)}",
              file=sys.stderr)
    metrics = {
        k: (statistics.median(p[k][0] for p in layers), unit)
        for k, (_, unit) in layers[0].items()
    }
    metrics["cli.outputs_changed"] = (batch.outputs_changed(), "count")
    overhead = sum(per_op_medians(traced)) / sum(per_op_medians(untraced)) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ehlcp", "cli.py")):
        print(f"ehlcp sources not found under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        setup_s, batch = setup(args.workload, args.seed, workdir)
        gc.freeze()  # the benchmark's own objects: keep them out of every collection
        if args.trace:
            trace_path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
            metrics = traced_run(batch, args.seconds, trace_path)
        else:
            started = time.perf_counter()
            passes = []
            while len(passes) < MIN_PASSES or time.perf_counter() - started < args.seconds:
                passes.append(batch.run_pass(fresh_cli())[1])
            metrics = end_to_end(per_op_medians(passes), setup_s)
            n = len(batch.ops)
            print(f"{args.workload}: {n} ops x {len(passes)} passes; op_tail_ms is "
                  f"p{100 * (n - TAIL_BEYOND) / n:.0f} of {n} per-op medians",
                  file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in batch.problems[:10]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": batch.failed == 0,
        "attempted": batch.attempted,
        "failed": batch.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
