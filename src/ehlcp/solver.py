"""Exact EHLCP solver by column-selector enumeration.

For a column selector s in {0..k}^n, column r of the solution keeps one free
unknown x_{s_r,r}; the wedge conditions pin every other component of that
column to 0 or to its bound d.  Each of the (k+1)^n selectors is therefore an
n x n linear system plus box inequalities.  Selectors with singular systems
can contribute whole polyhedral pieces; their dimension and a basis of their
affine hull are computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Optional

from .errors import DimensionError, InputError, InvariantError
from .linprog import lp_solve
from .rational import Vec, identity, mat_vec, solve_linear, zeros
from .representatives import MatrixTuple, check_selector_cap, selectors


@dataclass(frozen=True)
class EhlcpInstance:
    """Problem data: matrix tuple, strictly positive bounds d_1..d_{k-1}, q."""

    matrix_tuple: MatrixTuple
    d: tuple  # k-1 strictly positive vectors of dimension n
    q: Vec

    def __post_init__(self):
        t = self.matrix_tuple
        if len(self.d) != t.k - 1:
            raise InputError("d must contain exactly k - 1 vectors")
        for dj in self.d:
            if len(dj) != t.n:
                raise DimensionError("each d_j must have dimension n")
            if any(x <= 0 for x in dj):
                raise InputError("d must be strictly positive")
        if len(self.q) != t.n:
            raise DimensionError("q must have dimension n")

    @cached_property
    def upper(self) -> tuple:
        """Upper bounds of the stacked x = (x_0, ..., x_k): d_{j,r} at index
        j*n + r for 0 < j < k, None (unbounded) in blocks 0 and k.  Not a
        dataclass field, so == and hash ignore it."""
        unbounded = (None,) * self.matrix_tuple.n
        return unbounded + tuple(chain.from_iterable(self.d)) + unbounded


@dataclass(frozen=True)
class SolutionPiece:
    """One selector's contribution: a point, the piece dimension, and a basis
    of directions spanning the piece's affine hull, all stacked vectors
    (x_0, ..., x_k) of length (k+1)n."""

    selector: tuple
    point: Vec
    piece_dimension: int
    kernel_basis: tuple = field(default_factory=tuple)


def is_solution(inst: EhlcpInstance, x: Vec) -> bool:
    """Exact validity check of the EHLCP system for a stacked x = (x_0, ...,
    x_k): A x = q for A = t.stacked, 0 <= x <= inst.upper, and every wedge
    product x_{0,r} x_{1,r} and (d_{j,r} - x_{j,r}) x_{j+1,r} zero.  A
    vector whose length is not (k+1)n raises DimensionError."""
    t = inst.matrix_tuple
    if any(a != b for a, b in zip(mat_vec(t.stacked, x), inst.q)):
        return False
    if any(v < 0 or (hi is not None and v > hi) for v, hi in zip(x, inst.upper)):
        return False
    # wedge j pairs x_0 (j = 0) or the slack d_j - x_j with x_{j+1}
    return not any(
        (x[i] if hi is None else hi - x[i]) * x[i + t.n]
        for i, hi in enumerate(inst.upper[: t.k * t.n])
    )


def _selector_system(inst: EhlcpInstance, selector: tuple):
    """Reduced n x n system of one column selector.

    With m = selector[r], the wedge conditions pin x_{0,r} = 0 (m > 0),
    x_{j,r} = d_{j,r} (0 < j < m) and x_{j,r} = 0 (j > m), leaving x_{m,r}
    free.  Returns the stacked indices i*n + r of the free unknowns in
    increasing order (the order fixes which unknowns the RREF leaves free,
    and so the reported point and basis), the matrix and right-hand side over them, the stacked
    vector of pinned values, and the bounds on the free unknowns as
    (column, sign, bound) meaning sign * y_column >= bound: y >= 0 first,
    then y <= d_m for 0 < m < k.
    """
    t = inst.matrix_tuple
    n = t.n
    upper = inst.upper
    free = sorted(m * n + r for r, m in enumerate(selector))
    a = tuple(tuple(row[i] for i in free) for row in t.stacked)
    pinned = [Fraction(0)] * len(upper)
    for r, m in enumerate(selector):
        for j in range(1, m):
            pinned[j * n + r] = upper[j * n + r]
    # the pinned d terms move to the right-hand side
    rhs = tuple(
        q - sum(row[i] * v for i, v in enumerate(pinned) if v)
        for q, row in zip(inst.q, t.stacked)
    )
    box = [(c, 1, Fraction(0)) for c in range(n)] + [
        (c, -1, -upper[i]) for c, i in enumerate(free) if upper[i] is not None
    ]
    return free, a, rhs, pinned, box


def solve_branch(inst: EhlcpInstance, selector: tuple) -> Optional[SolutionPiece]:
    """Solution piece of one column selector, or None when it is infeasible."""
    t = inst.matrix_tuple
    if len(selector) != t.n or any(not 0 <= m <= t.k for m in selector):
        raise InputError("selector must have n entries in 0..k")
    free, a, rhs, pinned, box = _selector_system(inst, selector)
    res = solve_linear(a, rhs)
    if res.kind == "inconsistent":
        return None
    if res.kind == "unique":
        y, basis = res.particular, ()
        if any(sign * y[c] < bound for c, sign, bound in box):
            return None
    else:
        hull = _affine_piece(res.particular, res.kernel_basis, box)
        if hull is None:
            return None
        y, basis = hull

    def stacked(values, base):
        out = list(base)
        for i, v in zip(free, values):
            out[i] = v
        return tuple(out)

    zero = (Fraction(0),) * len(pinned)
    return SolutionPiece(
        tuple(selector), stacked(y, pinned), len(basis),
        tuple(stacked(v, zero) for v in basis),
    )


def _affine_piece(particular, kernel, box) -> Optional[tuple]:
    """Feasibility polytope of an underdetermined selector system, in the
    kernel coordinates: a relative-interior point and a basis of the affine
    hull, both in the free unknowns; None when the polytope is empty."""
    dim_a = len(kernel)
    # box row c in alpha coordinates: grad . alpha >= bound - sign * particular[c]
    alpha_ineqs = []
    for c, sign, bound in box:
        grad = tuple(sign * direction[c] for direction in kernel)
        rest = bound - sign * particular[c]
        if any(grad):
            alpha_ineqs.append((grad, rest))
        elif rest > 0:
            return None  # an unknown outside the kernel violates its bound
    # classify each inequality: implicit equality on the whole polytope, or
    # attainably slack; average the slack maximizers for a relative-interior
    # point (slack capped at 1 so unbounded pieces stay bounded problems).
    # A slack LP is infeasible iff the polytope is empty, so the first one
    # decides that; one runs, as the y >= 0 rows of a kernel have gradients
    interior_points = []
    implicit_grads = []
    objective = (Fraction(0),) * dim_a + (Fraction(1),)
    base_rows = [(tuple(g) + (Fraction(0),), bd) for g, bd in alpha_ineqs]
    cap_row = ((Fraction(0),) * dim_a + (Fraction(-1),), Fraction(-1))  # s <= 1
    for index, (grad, bound) in enumerate(alpha_ineqs):
        # maximize s subject to grad . alpha - s >= bound, all constraints, s <= 1
        rows = base_rows + [(tuple(grad) + (Fraction(-1),), bound), cap_row]
        res = lp_solve(objective, [], rows)
        if res.status == "infeasible" and index == 0:
            return None
        if res.status != "optimal":
            raise InvariantError(
                f"slack LP of a feasible polytope returned {res.status!r}"
            )
        if res.objective_value == 0:
            implicit_grads.append(grad)
        else:
            interior_points.append(res.point[:dim_a])
    if interior_points:
        alpha = tuple(sum(xs) / len(interior_points) for xs in zip(*interior_points))
    else:
        # every row is tight, and the y >= 0 rows pin alpha: a single point
        alpha = res.point[:dim_a]

    # affine hull: alpha directions annihilating every implicit equality
    if implicit_grads:
        null = solve_linear(tuple(implicit_grads), zeros(len(implicit_grads)))
        free = null.kernel_basis
    else:
        free = identity(dim_a)
    basis = tuple(
        tuple(
            sum(beta[m] * kernel[m][j] for m in range(dim_a))
            for j in range(len(particular))
        )
        for beta in free
    )

    point = tuple(
        x + sum(alpha[m] * kernel[m][j] for m in range(dim_a))
        for j, x in enumerate(particular)
    )
    return point, basis


def branch_label(selector: tuple, k: int) -> list:
    """k x n wedge sides of a selector: row j, column r is "left" (x_{0,r} = 0
    for j = 0, x_{j,r} = d_{j,r} otherwise) iff j < selector[r]."""
    return [["left" if j < m else "right" for m in selector] for j in range(k)]


def solve_all(inst: EhlcpInstance) -> list:
    """Union of all selector pieces, dimension-0 points deduplicated exactly.

    Selectors are visited in row-major order of their branch labels, left
    before right, so the first occurrence of a repeated point is kept.
    """
    t = inst.matrix_tuple
    check_selector_cap(t)
    pieces = []
    seen_points = set()
    for s in sorted(selectors(t.n, t.k), key=lambda s: branch_label(s, t.k)):
        piece = solve_branch(inst, s)
        if piece is None:
            continue
        if piece.piece_dimension == 0:
            if piece.point in seen_points:
                continue
            seen_points.add(piece.point)
        pieces.append(piece)
    return pieces
