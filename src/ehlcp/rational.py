"""Exact rational vectors, dense matrices, determinants and linear solves.

Scalars are ``fractions.Fraction`` throughout; vectors are tuples of
Fractions and matrices are tuples of row tuples.  Nothing in this module
ever rounds, so every sign test downstream is reliable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

from .errors import DimensionError, InputError

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
            raise InputError(f"cannot parse rational {x!r}") from exc
    raise InputError(f"not a rational scalar: {x!r}")


def rat_str(x: Fraction) -> str:
    """Serialize exactly; integers drop the "/1"."""
    return str(x)


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


def mat_mul(a: Mat, b: Mat) -> Mat:
    if len(a[0]) != len(b):
        raise DimensionError("matrix-matrix dimension mismatch")
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def pointwise(a: Vec, b: Vec) -> Vec:
    """Componentwise product of two equal-length vectors."""
    if len(a) != len(b):
        raise DimensionError("pointwise on vectors of different dimension")
    return tuple(x * y for x, y in zip(a, b))


def require_square(m: Mat) -> int:
    """Order n of a square matrix; every row must have n entries."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError("square matrix required")
    return n


def det(m: Mat) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Rows are scaled to integers first so all intermediate divisions are
    exact integer divisions; the scale is divided back out at the end.
    """
    n = require_square(m)
    scale = 1
    a = []
    for row in m:
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        a.append([int(x * mult) for x in row])
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return Fraction(sign * a[n - 1][n - 1], scale)


@dataclass(frozen=True)
class LinearSolveResult:
    """Outcome of an exact linear solve.

    kind is "unique", "affine" or "inconsistent".  For the affine case the
    full solution set is particular + span(kernel_basis).
    """

    kind: str
    particular: Optional[Vec] = None
    kernel_basis: tuple = field(default_factory=tuple)


def _rref(rows: list[list[Fraction]], pivot_cols: int | None = None) -> list[int]:
    """In-place reduced row echelon form; returns the pivot column list.

    Pivoting is restricted to the first pivot_cols columns so augmented
    right-hand sides are eliminated but never chosen as pivots.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    if pivot_cols is None:
        pivot_cols = n_cols
    pivots: list[int] = []
    r = 0
    for c in range(pivot_cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def solve_linear(a: Mat, b: Vec) -> LinearSolveResult:
    """Exact solve of a x = b with a full kernel basis in the affine case."""
    if len(a) != len(b):
        raise DimensionError("rows of a must match dimension of b")
    n_cols = len(a[0])
    rows = [list(a[i]) + [b[i]] for i in range(len(a))]
    pivots = _rref(rows, n_cols)
    rank = len(pivots)
    for i in range(rank, len(rows)):
        if rows[i][n_cols] != 0:
            return LinearSolveResult("inconsistent")
    particular = [Fraction(0)] * n_cols
    for r, c in enumerate(pivots):
        particular[c] = rows[r][n_cols]
    free_cols = [c for c in range(n_cols) if c not in set(pivots)]
    kernel = []
    for f in free_cols:
        direction = [Fraction(0)] * n_cols
        direction[f] = Fraction(1)
        for r, c in enumerate(pivots):
            direction[c] = -rows[r][f]
        kernel.append(tuple(direction))
    kind = "unique" if not kernel else "affine"
    return LinearSolveResult(kind, tuple(particular), tuple(kernel))


def inverse(m: Mat) -> Optional[Mat]:
    """Exact inverse, or None when the matrix is singular."""
    n = require_square(m)
    rows = [list(m[i]) + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    pivots = _rref(rows, n)
    if len(pivots) < n:
        return None
    return tuple(tuple(rows[i][n:]) for i in range(n))
