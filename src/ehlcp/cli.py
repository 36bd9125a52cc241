"""Command-line front end: check, solve, verify, gen.

Exit codes: 0 success, 1 theorem violations, 2 input error, 3 resource cap,
4 internal invariant failure (an InvariantError, a --recheck pass that
disagreed with the report, or a solve piece whose point, or a step from it
along one of its directions, is not a solution).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import __version__
from .classes import (
    is_column_sufficient,
    is_m,
    is_nondegenerate,
    is_p,
    is_z,
)
from .csw import (
    check_column_ndw_def,
    check_cone_csw,
    check_csw,
    check_x_column_pairs,
)
from .errors import CapExceeded, InputError, InvariantError
from .harness import GenSpec, THEOREM_IDS, gen_instance, gen_tuple, verify_theorem
from .io import (
    dump_json,
    instance_to_json,
    load_instance,
    piece_to_json,
    verdict_to_json,
)
from .representatives import (
    check_column_ndw_det,
    check_column_w,
    check_column_w0,
)
from .solver import is_solution, solve_all


def _per_matrix(oracle, t) -> dict:
    return {f"C{i}": oracle(m) for i, m in enumerate(t.mats)}


# Property name -> (tuple, parsed args) -> verdict or {entry name: verdict}.
# The lambdas look oracles up when called, so rebinding a module attribute
# (as a call tracer does) reaches every dispatch.
PROPERTIES = {
    "column_w": lambda t, a: check_column_w(t, exhaustive=a.exhaustive),
    "column_w0": lambda t, a: check_column_w0(t),
    "column_ndw": lambda t, a: check_column_ndw_det(t),
    "column_ndw_def": lambda t, a: check_column_ndw_def(t),
    "csw": lambda t, a: check_csw(t),
    "cone_csw": lambda t, a: check_cone_csw(t),
    "x_col_suff": lambda t, a: {
        f"pair_{i}_{i + 1}": v for i, v in enumerate(check_x_column_pairs(t))
    },
    "z": lambda t, a: _per_matrix(is_z, t),
    "m": lambda t, a: _per_matrix(is_m, t),
    "p": lambda t, a: _per_matrix(is_p, t),
    "nondegenerate": lambda t, a: _per_matrix(is_nondegenerate, t),
    "column_sufficient": lambda t, a: _per_matrix(is_column_sufficient, t),
}


def _check_verdicts(inst, props, args) -> dict:
    out: dict = {}
    for prop in props:
        result = PROPERTIES[prop](inst.matrix_tuple, args)
        if isinstance(result, dict):
            out[prop] = {name: verdict_to_json(v) for name, v in result.items()}
        else:
            out[prop] = verdict_to_json(result)
    return out


def cmd_check(args) -> int:
    inst = load_instance(args.file)
    props = [p.strip() for p in args.props.split(",") if p.strip()]
    if not props:
        raise InputError("--props names no property")
    for p in props:
        if p not in PROPERTIES:
            raise InputError(f"unknown property {p!r}; known: {', '.join(PROPERTIES)}")
    started = time.monotonic()
    verdicts = _check_verdicts(inst, props, args)
    report = {
        "command": "check",
        "version": __version__,
        "verdicts": verdicts,
        "timing_seconds": round(time.monotonic() - started, 6),
    }
    if args.recheck:
        # a fresh instance: the cached determinant scan, integer A and
        # cocircuits of the first pass are recomputed, not read back
        again = _check_verdicts(load_instance(args.file), props, args)
        if again != verdicts:
            print("recheck mismatch: verdicts are not reproducible", file=sys.stderr)
            return 4
        report["recheck"] = "ok"
    _emit(report, args.out)
    return 0


def _solve_payload(pieces) -> dict:
    return {"path": "enumeration", "pieces": [piece_to_json(p) for p in pieces]}


def _steps_solve(inst, point, v) -> bool:
    """True when point + t v and point - t v both solve, for t half the
    largest step the box 0 <= x <= inst.upper allows along +v and -v.  A
    direction that moves a coordinate sitting at its bound gives t = 0, and
    so does the zero vector: both fail."""
    room = []
    for x, dx, hi in zip(point, v, inst.upper):
        if dx:
            room.append(x / abs(dx))
            if hi is not None:
                room.append((hi - x) / abs(dx))
    t = min(room, default=0) / 2
    return t > 0 and all(
        is_solution(inst, tuple(x + sign * t * dx for x, dx in zip(point, v)))
        for sign in (1, -1)
    )


def cmd_solve(args) -> int:
    inst = load_instance(args.file)
    started = time.monotonic()
    pieces = solve_all(inst)
    payload = _solve_payload(pieces)
    report = {
        "command": "solve",
        "version": __version__,
        "timing_seconds": round(time.monotonic() - started, 6),
    }
    report.update(payload)
    if args.recheck:
        if _solve_payload(solve_all(inst)) != payload:
            print("recheck mismatch: pieces are not reproducible", file=sys.stderr)
            return 4
        # by definition (A x = q, bounds, wedges), sharing no code with solve_all
        bad = [p.selector for p in pieces if not is_solution(inst, p.point)]
        if bad:
            print(f"recheck failed: the point of selector {list(bad[0])} is not a "
                  f"solution ({len(bad)} of {len(pieces)} pieces)", file=sys.stderr)
            return 4
        bad = [p.selector for p in pieces
               if not all(_steps_solve(inst, p.point, v) for v in p.kernel_basis)]
        if bad:
            print(f"recheck failed: a direction of selector {list(bad[0])} leaves the "
                  f"solution set ({len(bad)} of {len(pieces)} pieces)", file=sys.stderr)
            return 4
        report["recheck"] = "ok"
    _emit(report, args.out)
    return 0


def cmd_verify(args) -> int:
    spec = GenSpec(args.n, args.k, args.family, args.entry_range, args.seed)
    violations = verify_theorem(args.theorem, args.trials, spec)
    doc = {
        "command": "verify",
        "version": __version__,
        "theorem": args.theorem,
        "seed": args.seed,
        "trials": args.trials,
        "passed": not violations,
        "violations": violations,
    }
    _emit(doc, args.out)
    return 1 if violations else 0


def cmd_gen(args) -> int:
    spec = GenSpec(args.n, args.k, args.family, args.entry_range, args.seed)
    t = gen_tuple(spec)
    inst = gen_instance(t, spec.seed, spec.entry_range)
    doc = instance_to_json(inst)
    doc["family"] = spec.family
    doc["seed"] = spec.seed
    _emit(doc, args.out)
    return 0


def _emit(report: dict, out: str | None) -> None:
    text = dump_json(report)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write report file: {exc}") from exc
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="ehlcp",
        description="Exact matrix-tuple property checks and EHLCP solving",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run property oracles on an instance file")
    p.add_argument("--file", required=True)
    p.add_argument("--props", required=True,
                   help="comma-separated subset of: " + ",".join(PROPERTIES))
    p.add_argument("--exhaustive", action="store_true",
                   help="report every violating selector, not just the first")
    p.add_argument("--recheck", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="solve an EHLCP instance file")
    p.add_argument("--file", required=True)
    p.add_argument("--recheck", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run a theorem verification suite")
    p.add_argument("--theorem", required=True, help=", ".join(THEOREM_IDS))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--family", default="generic")
    p.add_argument("--entry-range", dest="entry_range", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded instance file")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--entry-range", dest="entry_range", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
