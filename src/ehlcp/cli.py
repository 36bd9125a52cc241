"""Command-line front end: check, solve, verify, gen.

Exit codes: 0 success, 1 theorem violations, 2 input error, 3 resource cap,
4 internal invariant failure (an InvariantError, or a --recheck pass
disagreed with the report).
"""

from __future__ import annotations

import argparse
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
    check_x_column_sufficiency,
)
from .errors import CapExceeded, InputError, InvariantError
from .harness import GenSpec, THEOREM_IDS, gen_instance, gen_tuple, verify_theorem
from .io import dump_json, instance_to_json, load_instance, piece_to_json, solution_to_json
from .representatives import (
    check_column_ndw_det,
    check_column_w,
    check_column_w0,
)
from .solver import solve_all, solve_m_fast

TUPLE_PROPS = ("column_w", "column_w0", "column_ndw", "column_ndw_def", "csw", "cone_csw")
PAIR_PROPS = ("x_col_suff",)
MATRIX_PROPS = ("z", "m", "p", "nondegenerate", "column_sufficient")
ALL_PROPS = TUPLE_PROPS + PAIR_PROPS + MATRIX_PROPS


def _verdict_json(v) -> dict:
    return {
        "property": v.property_name,
        "holds": v.holds,
        "certificate": v.certificate,
        "witness": v.witness,
    }


def _csw_json(name: str, v) -> dict:
    witness = None
    if v.witness is not None:
        pattern, xs = v.witness
        witness = {
            "pattern": [list(row) for row in pattern.signs],
            "x": [[str(e) for e in x] for x in xs],
        }
    return {
        "property": name,
        "holds": v.holds,
        "decided_by": v.decided_by,
        "witness": witness,
    }


def _check_verdicts(inst, props, exhaustive: bool, force: bool) -> dict:
    t = inst.matrix_tuple
    out: dict = {}
    for prop in props:
        if prop == "column_w":
            out[prop] = _verdict_json(check_column_w(t, exhaustive=exhaustive, force=force))
        elif prop == "column_w0":
            out[prop] = _verdict_json(check_column_w0(t, force=force))
        elif prop == "column_ndw":
            out[prop] = _verdict_json(check_column_ndw_det(t, force=force))
        elif prop == "column_ndw_def":
            out[prop] = _verdict_json(check_column_ndw_def(t))
        elif prop == "csw":
            out[prop] = _csw_json(prop, check_csw(t))
        elif prop == "cone_csw":
            out[prop] = _csw_json(prop, check_cone_csw(t))
        elif prop == "x_col_suff":
            out[prop] = {
                f"pair_{i}_{i + 1}": _verdict_json(
                    check_x_column_sufficiency(t.mats[i], t.mats[i + 1])
                )
                for i in range(t.k)
            }
        else:
            oracle = {
                "z": is_z,
                "m": is_m,
                "p": is_p,
                "nondegenerate": is_nondegenerate,
                "column_sufficient": is_column_sufficient,
            }[prop]
            out[prop] = {
                f"C{i}": _verdict_json(oracle(m)) for i, m in enumerate(t.mats)
            }
    return out


def cmd_check(args) -> int:
    inst = load_instance(args.file)
    props = [p.strip() for p in args.props.split(",") if p.strip()]
    for p in props:
        if p not in ALL_PROPS:
            raise InputError(f"unknown property {p!r}; known: {', '.join(ALL_PROPS)}")
    started = time.monotonic()
    verdicts = _check_verdicts(inst, props, args.exhaustive, args.force)
    report = {
        "command": "check",
        "version": __version__,
        "verdicts": verdicts,
        "timing_seconds": round(time.monotonic() - started, 6),
    }
    if args.recheck:
        again = _check_verdicts(inst, props, args.exhaustive, args.force)
        if again != verdicts:
            print("recheck mismatch: verdicts are not reproducible", file=sys.stderr)
            return 4
        report["recheck"] = "ok"
    _emit(report, args.out)
    return 0


def _solve_payload(inst, fast_m: bool) -> dict:
    payload: dict = {}
    if fast_m:
        fast = solve_m_fast(inst)
        if fast is not None:
            payload["path"] = "m_fast"
            payload["pieces"] = [
                {"branch": None, "point": solution_to_json(fast),
                 "dimension": 0, "kernel_basis": []}
            ]
            return payload
        payload["path"] = "enumeration (fast path hypotheses not met)"
    else:
        payload["path"] = "enumeration"
    payload["pieces"] = [piece_to_json(p) for p in solve_all(inst)]
    return payload


def cmd_solve(args) -> int:
    inst = load_instance(args.file)
    started = time.monotonic()
    payload = _solve_payload(inst, args.fast_m)
    report = {
        "command": "solve",
        "version": __version__,
        "timing_seconds": round(time.monotonic() - started, 6),
    }
    report.update(payload)
    if args.recheck:
        again = _solve_payload(inst, args.fast_m)
        if again != payload:
            print("recheck mismatch: pieces are not reproducible", file=sys.stderr)
            return 4
        report["recheck"] = "ok"
    _emit(report, args.out)
    return 0


def cmd_verify(args) -> int:
    spec = GenSpec(args.n, args.k, args.family, args.entry_range, args.seed)
    report = verify_theorem(args.theorem, args.trials, spec)
    doc = {
        "command": "verify",
        "version": __version__,
        "theorem": report.theorem_id,
        "seed": args.seed,
        "trials": report.trials,
        "passed": report.passed,
        "violations": report.violations,
    }
    _emit(doc, args.out)
    return 0 if report.passed else 1


def cmd_gen(args) -> int:
    spec = GenSpec(args.n, args.k, args.family, args.entry_range, args.seed)
    t = gen_tuple(spec)
    inst = gen_instance(t, spec.seed, spec.entry_range)
    doc = instance_to_json(inst)
    doc["family"] = spec.family
    doc["seed"] = spec.seed
    text = dump_json(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _emit(report: dict, out: str | None) -> None:
    text = dump_json(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehlcp",
        description="Exact matrix-tuple property checks and EHLCP solving",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run property oracles on an instance file")
    p.add_argument("--file", required=True)
    p.add_argument("--props", required=True,
                   help="comma-separated subset of: " + ",".join(ALL_PROPS))
    p.add_argument("--exhaustive", action="store_true",
                   help="report every violating selector, not just the first")
    p.add_argument("--force", action="store_true",
                   help="override the representative enumeration cap")
    p.add_argument("--recheck", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="solve an EHLCP instance file")
    p.add_argument("--file", required=True)
    p.add_argument("--fast-m", dest="fast_m", action="store_true",
                   help="try the M-matrix closed form first")
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
