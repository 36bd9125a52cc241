"""Sign-pattern decision procedures for the column sufficient-W family.

Each candidate violation of a property is a {-, 0, +} pattern over the
components of (x_0, ..., x_k).  A pattern is realizable when the homogeneous
system C_0 x_0 = sum C_i x_i admits a vector with exactly those component
signs; strictness is handled by maximizing a scale variable t <= 1, which is
sound because the hypothesis system is a cone (strict solutions scale).
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import product
from typing import Iterator, Optional

from .errors import InputError, UndecidedSize
from .linprog import lp_solve
from .rational import Mat, rat_str, zeros
from .representatives import (
    MatrixTuple,
    PropertyVerdict,
    check_column_ndw_det,
    check_column_w,
    make_tuple,
)

PATTERN_CAP_DEFAULT = 12
PATTERN_CAP_ENV = "EHLCP_MAX_PATTERN_COMPONENTS"

SYMBOLS = (-1, 0, 1)  # canonical symbol order (-, 0, +)


def pattern_cap(explicit: Optional[int] = None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(PATTERN_CAP_ENV)
    if env is None:
        return PATTERN_CAP_DEFAULT
    try:
        return int(env)
    except ValueError as exc:
        raise InputError(f"{PATTERN_CAP_ENV} must be an integer, got {env!r}") from exc


def _require_within_cap(t: MatrixTuple, cap: Optional[int]) -> None:
    limit = pattern_cap(cap)
    size = (t.k + 1) * t.n
    if size > limit:
        raise UndecidedSize(
            f"undecided: size ((k+1)*n = {size} exceeds pattern cap {limit}; "
            f"raise it via {PATTERN_CAP_ENV} or an explicit cap argument)"
        )


def pattern_realizable(t: MatrixTuple, signs: tuple) -> Optional[tuple]:
    """Vector tuple realizing the (k+1) x n sign pattern exactly, or None.

    Row i of signs is the pattern of x_i over {-1, 0, 1}.  Zero components
    are eliminated from the system; each nonzero component (i, r) becomes a
    variable constrained by signs[i][r] * x_{i,r} >= t.
    Realizable iff the maximum of t (capped at 1) equals 1.
    """
    support = [
        (i, r) for i in range(t.k + 1) for r in range(t.n) if signs[i][r] != 0
    ]
    n_vars = len(support) + 1  # support components plus t
    t_col = len(support)

    eq = []
    for row in range(t.n):
        coeffs = [Fraction(0)] * n_vars
        for col, (i, r) in enumerate(support):
            c = t.mats[i][row][r]
            coeffs[col] = c if i == 0 else -c
        eq.append((tuple(coeffs), Fraction(0)))
    ineq = []
    for col, (i, r) in enumerate(support):
        row = [Fraction(0)] * n_vars
        row[col] = Fraction(signs[i][r])
        row[t_col] = Fraction(-1)
        ineq.append((tuple(row), Fraction(0)))  # sign * x - t >= 0
    cap_row = [Fraction(0)] * n_vars
    cap_row[t_col] = Fraction(-1)
    ineq.append((tuple(cap_row), Fraction(-1)))  # t <= 1

    objective = tuple(Fraction(0) for _ in support) + (Fraction(1),)
    res = lp_solve(objective, eq, ineq)
    if res.status != "optimal" or res.objective_value != 1:
        return None
    xs = [list(zeros(t.n)) for _ in range(t.k + 1)]
    for col, (i, r) in enumerate(support):
        xs[i][r] = res.point[col]
    return tuple(tuple(x) for x in xs)


def _violating_patterns(t: MatrixTuple, mode: str) -> Iterator[tuple]:
    """Hypothesis-satisfying, conclusion-violating patterns in canonical order.

    Enumeration is row-major over components (i, r) with symbol order
    (-, 0, +), so the first realizable pattern is schedule-independent.
    """
    k, n = t.k, t.n
    if mode == "cone":
        domains = [SYMBOLS if i == 0 else (0, 1) for i in range(k + 1) for _ in range(n)]
    else:
        domains = [SYMBOLS for _ in range((k + 1) * n)]
    for flat in product(*domains):
        signs = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(k + 1))
        if mode == "ndw":
            # pairwise-disjoint supports, not identically zero
            if all(s == 0 for row in signs for s in row):
                continue
            if any(sum(signs[i][r] != 0 for i in range(k + 1)) > 1 for r in range(n)):
                continue
        else:
            # (a) x_i * x_j >= 0 componentwise for 1 <= i < j <= k
            if mode == "csw" and any(
                signs[i][r] * signs[j][r] < 0
                for i in range(1, k + 1)
                for j in range(i + 1, k + 1)
                for r in range(n)
            ):
                continue
            # (b) x_0 * x_i <= 0 componentwise
            if any(
                signs[0][r] * signs[i][r] > 0
                for i in range(1, k + 1)
                for r in range(n)
            ):
                continue
            # (c) some consecutive product nonzero
            if not any(
                signs[s][r] != 0 and signs[s + 1][r] != 0
                for s in range(k)
                for r in range(n)
            ):
                continue
        yield signs


def _first_violation(t: MatrixTuple, mode: str) -> Optional[dict]:
    """JSON-ready witness {"pattern", "x"} of the first realizable pattern."""
    for signs in _violating_patterns(t, mode):
        xs = pattern_realizable(t, signs)
        if xs is not None:
            return {
                "pattern": [list(row) for row in signs],
                "x": [[rat_str(v) for v in x] for x in xs],
            }
    return None


def check_csw(
    t: MatrixTuple,
    cap: Optional[int] = None,
    use_fast_paths: bool = True,
) -> PropertyVerdict:
    """Column sufficient-W property of the tuple.

    Fast path 1: the column W-property implies cS-W.  Fast path 2: all
    representative determinants nonzero but not column W implies not cS-W;
    the witness is still located by pattern enumeration when the size cap
    allows it.  decided_by names the rule that decided.
    """
    if use_fast_paths:
        if check_column_w(t).holds:
            return PropertyVerdict("csw", True, decided_by="fast_path_column_w")
        if check_column_ndw_det(t).holds:
            witness = None
            if (t.k + 1) * t.n <= pattern_cap(cap):
                witness = _first_violation(t, "csw")
            return PropertyVerdict("csw", False, witness, decided_by="fast_path_ndw_not_w")
    _require_within_cap(t, cap)
    witness = _first_violation(t, "csw")
    return PropertyVerdict("csw", witness is None, witness, decided_by="pattern_enumeration")


def check_cone_csw(
    t: MatrixTuple,
    cap: Optional[int] = None,
    use_fast_paths: bool = True,
) -> PropertyVerdict:
    """Cone variant: quantified x_1, ..., x_k restricted to the nonnegative
    orthant.  Only the column W fast path is sound here; failing cS-W does
    not in general fail the cone property."""
    if use_fast_paths and check_column_w(t).holds:
        return PropertyVerdict("cone_csw", True, decided_by="fast_path_column_w")
    _require_within_cap(t, cap)
    witness = _first_violation(t, "cone")
    return PropertyVerdict(
        "cone_csw", witness is None, witness, decided_by="pattern_enumeration"
    )


def check_column_ndw_def(t: MatrixTuple, cap: Optional[int] = None) -> PropertyVerdict:
    """Definition-based column ND-W decision via disjoint-support patterns.

    Exists to cross-validate the determinant route; the two must agree.
    """
    _require_within_cap(t, cap)
    witness = _first_violation(t, "ndw")
    certificate = (
        "no nonzero disjoint-support kernel pattern is realizable" if witness is None
        else "a nonzero disjoint-support kernel tuple exists"
    )
    return PropertyVerdict("column_ndw_def", witness is None, witness, certificate)


def check_x_column_sufficiency(a: Mat, b: Mat, cap: Optional[int] = None) -> PropertyVerdict:
    """X-column-sufficiency of the pair (a, b): C_0 x_0 - C_1 x_1 = 0 and
    x_0 * x_1 <= 0 force x_0 * x_1 = 0.  This is the k = 1 specialization of
    the cS-W decision."""
    verdict = check_csw(make_tuple([a, b]), cap=cap)
    certificate = (
        "decided by " + verdict.decided_by
        + ("" if verdict.holds else "; witness violates x_0 * x_1 = 0")
    )
    return PropertyVerdict("x_column_sufficiency", verdict.holds, verdict.witness, certificate)
