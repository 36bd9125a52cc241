"""Exact rational vectors, dense matrices, determinants and linear solves.

Scalars are ``fractions.Fraction``; vectors are tuples of them and matrices
tuples of row tuples.  Nothing here rounds, so every sign test downstream
is reliable.

The package has one elimination step, pivot_step: a fraction-free
Gauss-Jordan pivot (Bareiss 1968) on integer rows, which keeps every entry
an integer minor.  The determinant is the last pivot; solve_linear,
left_divide and inverse read their results off the rows divided by it, and
the harness's _normalized reads s C_0^{-1} C_i off the rows of A undivided,
s the last pivot's absolute value.  linprog's tableau is the rational one
times the last pivot, and the elimination trees over column subsets
(representatives._cocircuits) and column selectors
(representatives._det_numerators, solver._selector_pieces) pivot once per
node and read their last levels off the rows left; their modules say how.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Optional

from .errors import CapExceeded, DimensionError, InputError

Vec = tuple  # tuple[Fraction, ...]
Mat = tuple  # tuple[tuple[Fraction, ...], ...]

# Largest decimal exponent rat accepts: Fraction builds 10**exponent, so an
# unbounded exponent lets a short string cost unbounded time and memory.
# Every finite float (1e-324 .. 1.8e308) stays inside it.
MAX_DECIMAL_EXPONENT = 1000


def _exponent_too_large(text: str) -> bool:
    """True if text has a decimal exponent beyond MAX_DECIMAL_EXPONENT."""
    _, mark, exponent = text.upper().partition("E")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if not mark or not digits.isdecimal():
        return False  # no exponent, or one that Fraction rejects below
    return len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits) > MAX_DECIMAL_EXPONENT


def rat(x) -> Fraction:
    """Convert int / Fraction / "p/q" / decimal string or literal to Fraction.

    Decimal literals convert exactly: rat("0.25") == Fraction(1, 4).  A
    decimal exponent beyond MAX_DECIMAL_EXPONENT in magnitude is an
    InputError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputError(f"not a rational scalar: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        # exact decimal reading of the shortest repr, not the binary float;
        # inf and nan have no rational reading and fail to parse below
        x = repr(x)
    if isinstance(x, str):
        if _exponent_too_large(x):
            raise InputError(
                f"decimal exponent of {x[:40]!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude"
            )
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational {x[:40]!r}") from exc
    raise InputError(f"not a rational scalar: {x!r}")


def rat_str(x: Fraction) -> str:
    """Serialize exactly; integers drop the "/1".  A numerator or denominator
    longer than Python's int-to-string digit limit is CapExceeded."""
    try:
        return str(x)
    except ValueError:  # too many digits: ratio_str raises the CapExceeded
        return ratio_str(x.numerator, x.denominator)


def ratio_str(num: int, den: int) -> str:
    """rat_str(Fraction(num, den)) for ints num and den > 0, reduced by
    their gcd with no Fraction built."""
    g = gcd(num, den)
    try:
        return str(num // g) if g == den else f"{num // g}/{den // g}"
    except ValueError as exc:
        raise CapExceeded(f"a result exceeds Python's int-to-string limit of "
                          f"{sys.get_int_max_str_digits()} digits") from exc


def vec(entries: Iterable) -> Vec:
    v = tuple(rat(x) for x in entries)
    if not v:
        raise InputError("empty vector")
    return v


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(tuple(rat(x) for x in row) for row in rows)
    if not m or not m[0]:
        raise InputError("empty matrix")
    width = len(m[0])
    if any(len(row) != width for row in m):
        raise InputError("ragged matrix rows")
    return m


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_vec(m: Mat, v: Vec) -> Vec:
    if len(m[0]) != len(v):
        raise DimensionError("matrix-vector dimension mismatch")
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def require_square(m: Mat) -> int:
    """Order n of a square matrix; every row must have n entries."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError("square matrix required")
    return n


def int_row(row, mult: Optional[int] = None) -> list[int]:
    """row times mult as ints; mult must be a multiple of every denominator,
    and defaults to their lcm."""
    if mult is None:
        mult = lcm(*(x.denominator for x in row))
    return [x.numerator * (mult // x.denominator) for x in row]


def pivot_step(a: list[list[int]], r: int, c: int, prev: int) -> None:
    """One fraction-free Gauss-Jordan pivot (Bareiss 1968) on a[r][c]: every
    other row becomes (row * a[r][c] - row[c] * a[r]) // prev, an exact
    division.  If a was prev times a rational tableau, it becomes a[r][c]
    times that tableau pivoted on (r, c)."""
    piv, top = a[r][c], a[r]
    for i, row in enumerate(a):
        f = row[c]
        if i != r and (f or piv != prev):
            a[i] = [(x * piv - f * y) // prev for x, y in zip(row, top)]


def _echelon(a: list[list[int]], pivot_cols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan on integer rows in place, pivoting in the
    first pivot_cols columns only.  Returns the pivot columns, the last
    pivot and the sign of the row permutation: the RREF is a divided by
    the last pivot, which for square nonsingular a is sign * det(a)."""
    pivots: list[int] = []
    prev = sign = 1
    for c in range(pivot_cols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        pivot_step(a, r, c, prev)
        prev = a[r][c]
        pivots.append(c)
    return pivots, prev, sign


def det(m: Mat) -> Fraction:
    """Exact determinant: the last fraction-free pivot of the rows scaled to
    integers, divided by the row scales and the permutation sign."""
    n = require_square(m)
    mults = [lcm(*(x.denominator for x in row)) for row in m]
    pivots, last, sign = _echelon([int_row(row, k) for row, k in zip(m, mults)], n)
    return Fraction(sign * last, prod(mults)) if len(pivots) == n else Fraction(0)


@dataclass(frozen=True)
class LinearSolveResult:
    """Outcome of an exact linear solve.

    kind is "unique", "affine" or "inconsistent".  For the affine case the
    full solution set is particular + span(kernel_basis).
    """

    kind: str
    particular: Optional[Vec] = None
    kernel_basis: tuple = field(default_factory=tuple)


def solve_linear(a: Mat, b: Vec) -> LinearSolveResult:
    """Exact solve of a x = b with a full kernel basis in the affine case,
    read off the echelon form of [a | b]."""
    if len(a) != len(b):
        raise DimensionError("rows of a must match dimension of b")
    n_cols = len(a[0])
    rows = [int_row([*row, x]) for row, x in zip(a, b)]
    pivots, last, _ = _echelon(rows, n_cols)
    if any(row[n_cols] for row in rows[len(pivots):]):
        return LinearSolveResult("inconsistent")
    particular = [Fraction(0)] * n_cols
    for r, c in enumerate(pivots):
        particular[c] = Fraction(rows[r][n_cols], last)
    free_cols = [c for c in range(n_cols) if c not in set(pivots)]
    kernel = []
    for f in free_cols:
        direction = [Fraction(0)] * n_cols
        direction[f] = Fraction(1)
        for r, c in enumerate(pivots):
            direction[c] = Fraction(-rows[r][f], last)
        kernel.append(tuple(direction))
    return LinearSolveResult("affine" if kernel else "unique", tuple(particular), tuple(kernel))


def left_divide(a: Mat, b: Mat) -> Optional[Mat]:
    """Exact a^{-1} b for square a, read off the echelon form of [a | b], or
    None when a is singular."""
    n = require_square(a)
    if len(b) != n:
        raise DimensionError("rows of a must match rows of b")
    rows = [int_row([*ra, *rb]) for ra, rb in zip(a, b)]
    pivots, last, _ = _echelon(rows, n)
    if len(pivots) < n:
        return None
    return tuple(tuple(Fraction(x, last) for x in row[n:]) for row in rows)


def inverse(m: Mat) -> Optional[Mat]:
    """Exact inverse, or None when the matrix is singular."""
    return left_divide(m, identity(len(m)))
