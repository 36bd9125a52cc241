"""The four workloads: each is a fixed batch of CLI calls ("ops").

Base instances come from ``gen`` with ``CATALOGUE_SEED``; the workload seed
only transforms them (see ``gen``), so every seed runs the same amount of
search.  The picks for ``check_scan`` were made once, by verdict class, so
the batch mixes tuples where cS-W holds (every pattern refuted) with tuples
where it fails at a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import gen

CATALOGUE_SEED = 11

SCAN_PROPS = "csw,cone_csw,column_ndw_def,column_ndw,column_w,column_w0"
DET_PROPS = "column_w,column_w0,column_ndw,p,nondegenerate"


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``argv`` names the instance file as ``{file}``."""

    command: str
    argv: tuple
    instance: Optional[dict] = None  # exact instance, for the checker
    trials: int = 0  # verify only


# check_scan picks: (family, n, k, catalogue index), grouped by the verdicts
# at the catalogue (csw, cone_csw, column_ndw_def, column_ndw, column_w,
# column_w0).  (k+1)n = 6 throughout; 9 would cost about 15 s per op.
_SCAN_PICKS = (
    # column W holds: cS-W by the fast path
    ("generic", 2, 2, 26), ("z", 3, 1, 24),
    # cS-W holds without column W: every candidate pattern refuted
    ("degenerate", 2, 2, 25),
    # ND-W holds, cS-W fails
    ("generic", 2, 2, 1), ("generic", 2, 2, 2), ("generic", 2, 2, 4),
    ("generic", 3, 1, 16), ("z", 2, 2, 1),
    ("z", 2, 2, 2), ("z", 2, 2, 25), ("z", 3, 1, 5), ("z", 3, 1, 8),
    # only the cone variant holds
    ("generic", 2, 2, 9),
    # only column W0 holds
    ("generic", 2, 2, 12), ("degenerate", 2, 2, 28),
    # nothing holds
    ("generic", 2, 2, 5), ("generic", 2, 2, 10), ("generic", 2, 2, 13),
    ("generic", 2, 2, 16), ("generic", 2, 2, 19), ("generic", 3, 1, 0),
    ("generic", 3, 1, 22), ("generic", 3, 1, 26), ("degenerate", 2, 2, 4),
    ("degenerate", 2, 2, 7), ("degenerate", 2, 2, 9), ("degenerate", 2, 2, 12),
    ("z", 2, 2, 0), ("z", 2, 2, 3), ("z", 2, 2, 4), ("z", 2, 2, 8),
    ("z", 3, 1, 3), ("z", 3, 1, 7),
)

# check_dets: (family, n, k, how many[, copies of each]); every op
# enumerates (k+1)^n representatives and up to (k+1)(2^n - 1) principal
# minors.  op_tail_ms falls among the n = 8 ops, so they are copies of one
# base tuple (each transformed differently): the tail then does not depend
# on which of several unequal tuples lands on its rank.
_DET_SHAPES = (
    ("generic", 7, 1, 18), ("degenerate", 7, 1, 4),
    ("generic", 8, 1, 1, 8), ("generic", 9, 1, 2), ("generic", 10, 1, 1),
    ("generic", 7, 2, 1),
)

# solve_enum: (kind, n, k, how many); 2^(kn) branches per op, so n = 4,
# k = 3 (4 096 branches, about 25 s) is left out.
_SOLVE_SHAPES = (
    ("generic", 3, 2, 14), ("segment", 3, 2, 8), ("generic", 4, 2, 1),
    ("segment", 4, 2, 1), ("generic", 3, 3, 1),
)

# verify_mix: (theorem, how many ops, trials per op, k), all at n = 2.
# Every op also checks the suite's three fixed golden tuples.  T4.4, T4.2
# and T3.1 run their trials at k = 1: at k = 2 one trial of theirs costs
# 0.03 s to 1 s depending on the draw, which moved ops_per_s by a fifth
# from one seed to the next.
# The costs of T4.1 to T3.1 ops depend on the drawn trials, so there are
# only 6 of them: op_p50_ms and op_tail_ms (10 ops above it) then both fall
# well inside the T2.1 ops, whose cost is the CLI's fixed per-call cost.
_VERIFY_OPS = (
    ("T2.1-equiv", 16, 2, 2), ("T4.1-ndw", 1, 2, 2), ("T4.4-cone", 1, 2, 1),
    ("T4.2-equiv", 2, 2, 1), ("T3.1-convex", 2, 2, 1),
)

_FAMILY_IDS = {"generic": 0, "degenerate": 1, "z": 2, "segment": 3}


def _base(kind: str, n: int, k: int, index: int) -> dict:
    rng = gen.Rng(CATALOGUE_SEED, _FAMILY_IDS[kind], n, k, index)
    if kind == "segment":
        return gen.segment_instance(n, k, rng)
    return gen.random_instance(kind, n, k, rng)




def _expand(shapes) -> list:
    return [
        (kind, n, k, i)
        for kind, n, k, count, *copies in shapes
        for i in range(count)
        for _ in range(copies[0] if copies else 1)
    ]


def build(name: str, seed: int) -> list:
    """The ops of a workload for a seed, in run order."""
    ops = []
    if name == "check_scan":
        for idx, (kind, n, k, i) in enumerate(_SCAN_PICKS):
            move = gen.diagonal_similarity if kind == "z" else gen.permute_rows
            inst = move(_base(kind, n, k, i), gen.Rng(seed, idx))
            ops.append(Op("check", ("check", "--file", "{file}", "--props", SCAN_PROPS), inst))
    elif name == "check_dets":
        for idx, (kind, n, k, i) in enumerate(_expand(_DET_SHAPES)):
            inst = gen.signature_similarity(_base(kind, n, k, i), gen.Rng(seed, idx))
            ops.append(Op("check", ("check", "--exhaustive", "--file", "{file}",
                                    "--props", DET_PROPS), inst))
    elif name == "solve_enum":
        for idx, (kind, n, k, i) in enumerate(_expand(_SOLVE_SHAPES)):
            inst = gen.permute_rows(_base(kind, n, k, i), gen.Rng(seed, idx))
            ops.append(Op("solve", ("solve", "--file", "{file}"), inst))
    elif name == "verify_mix":
        idx = 0
        for theorem, count, trials, k in _VERIFY_OPS:
            for _ in range(count):
                op_seed = gen.Rng(seed, idx).next_u64() % 2**31
                ops.append(Op("verify", ("verify", "--theorem", theorem, "--trials",
                                         str(trials), "--seed", str(op_seed),
                                         "--n", "2", "--k", str(k)), trials=trials))
                idx += 1
    else:
        raise KeyError(name)
    return ops


WORKLOADS = ("check_scan", "solve_enum", "verify_mix", "check_dets")
