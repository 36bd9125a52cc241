"""Exact EHLCP solver by column-selector enumeration.

For a column selector s in {0..k}^n, column r of the solution keeps one free
unknown x_{s_r,r}; the wedge conditions pin every other component of that
column to 0 or to its bound d.  Each of the (k+1)^n selectors is therefore an
n x n linear system, over the representative matrix of (C_0, -C_1, ..., -C_k),
plus box inequalities.

solve_all decides every selector in one fraction-free elimination tree that
carries the right-hand side (_selector_pieces): a nonsingular selector reads
its unique point off its leaf, and an inconsistent singular one is rejected
there.  A consistent singular selector can contribute a whole polyhedral
piece; solve_branch solves its system from scratch and computes the piece's
dimension and a basis of its affine hull exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterator, Optional

from .errors import DimensionError, InputError, InvariantError
from .linprog import nonneg_solution
from .rational import Vec, identity, int_row, mat_vec, pivot_step, solve_linear, zeros
from .representatives import MatrixTuple, check_selector_cap


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
    """Reduced n x n system of one column selector, built from scratch for
    solve_branch; solve_all calls that only for consistent singular leaves,
    whose pieces the tree of _selector_pieces cannot finish.

    With m = selector[r], the wedge conditions pin x_{0,r} = 0 (m > 0),
    x_{j,r} = d_{j,r} (0 < j < m) and x_{j,r} = 0 (j > m), leaving x_{m,r}
    free.  Returns the stacked indices i*n + r of the free unknowns in
    increasing order (the order fixes which unknowns the RREF leaves free,
    and so the reported point and basis), the matrix and right-hand side
    over them, the stacked vector of pinned values, and the bounds on the
    free unknowns as (column, sign, bound) meaning sign * y_column >= bound:
    y >= 0 first, then y <= d_m for 0 < m < k.
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
    """Feasibility polytope P = {alpha : g_i . alpha >= h_i} of an
    underdetermined selector system, one row per box row, in the kernel
    coordinates alpha: a relative-interior point and a basis of the affine
    hull, both in the free unknowns; None when P is empty.

    Every LP is a phase-1 problem (nonneg_solution) over alpha = u - v and
    one surplus per row.  [G | -G | -I] z = h gives a point alpha_0 of P, or
    shows P empty.  For each row j not yet seen slack, [G | -G | -h | -I] w
    = e_j over (u, v, t, s) >= 0 is infeasible exactly when row j is an
    implicit equality of P (Schrijver 1986, ch. 8); otherwise its
    (alpha_j, t_j) has G alpha_j - t_j h >= 0 with slack at least 1 on row
    j, so (alpha_0 + sum alpha_j) / (1 + sum t_j) is in P and strict on
    every row that is not implicit.  The hull is the kernel of the
    implicit rows.
    """
    dim_a = len(kernel)
    # box row c in alpha coordinates: grad . alpha >= bound - sign * particular[c]
    grads, rests = [], []
    for c, sign, bound in box:
        grad = tuple(sign * direction[c] for direction in kernel)
        rest = bound - sign * particular[c]
        if any(grad):
            grads.append(grad)
            rests.append(rest)
        elif rest > 0:
            return None  # an unknown outside the kernel violates its bound
    if not grads:
        # a kernel direction moves some unknown, whose y >= 0 row then has a gradient
        raise InvariantError("no box row of an underdetermined system has a gradient")
    rows = range(len(grads))
    surplus = [[-int(i == j) for j in rows] for i in rows]
    split = [[*g, *(-x for x in g)] for g in grads]
    z = nonneg_solution([g + s for g, s in zip(split, surplus)], rests)
    if z is None:
        return None
    num = [u - v for u, v in zip(z, z[dim_a:2 * dim_a])]
    den = 1
    slack = {i for i in rows if z[2 * dim_a + i]}
    homogenized = [g + [-h] + s for g, h, s in zip(split, rests, surplus)]
    implicit_grads = []
    for j in rows:
        if j in slack:
            continue
        w = nonneg_solution(homogenized, [int(i == j) for i in rows])
        if w is None:
            implicit_grads.append(grads[j])
            continue
        num = [x + u - v for x, u, v in zip(num, w, w[dim_a:2 * dim_a])]
        den += w[2 * dim_a]
        slack.update(i for i in rows if w[2 * dim_a + 1 + i])
    alpha = [x / den for x in num]

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


def _selector_pieces(inst: EhlcpInstance) -> Iterator[tuple]:
    """(selector, piece) for every column selector, in selectors order;
    piece is None when the selector is infeasible.

    One fraction-free tree walks the selectors as
    representatives._det_numerators does, with the right-hand side
    carried down.  Row i of a node holds the column last pivoted on (zero
    at the root), the right-hand side, and then, for each position r not
    yet chosen, the k+1 candidate columns A[i][s*n + r] and the
    pinned-bound terms g_r(s)[i] = sum_{0<j<s} d_{j,r} C_j[i][r] for
    s = 2..k (g_r(0) and g_r(1) are zero); the root rows hold q and are
    scaled to integers.  Choosing s at depth r adds g_r(s) into the
    right-hand side, drops position r's other columns and pivots
    (rational.pivot_step) on the first unpivoted row nonzero in candidate
    column s.  The pivoted rows stay and keep being reduced (Gauss-Jordan),
    so at a leaf of full rank the row pivoted at position r holds y_r times
    the last pivot.  A candidate column zero on every unpivoted row gets no
    pivot: y_r is a free unknown, and the column stays zero on the
    unpivoted rows, since every later update of such a row combines it with
    another unpivoted one.  A leaf of rank below n is therefore
    inconsistent iff an unpivoted row has a nonzero right-hand side; only
    the consistent singular leaves go to solve_branch.
    """
    t = inst.matrix_tuple
    n, k = t.n, t.k
    upper = inst.upper
    block = 2 * k  # per position: k + 1 candidate columns, then g_r(2..k)
    root = []
    for row, q in zip(t.stacked, inst.q):
        cells = [0, q]
        for r in range(n):
            cells += [row[s * n + r] for s in range(k + 1)]
            g = 0
            for j in range(1, k):
                g -= upper[j * n + r] * row[j * n + r]  # row holds -C_j[i][r]
                cells.append(g)
        root.append(int_row(cells))
    zero = Fraction(0)

    def leaf_piece(sel, nums, last):
        """Piece of a nonsingular selector with y_r = nums[r] / last, or
        None when y breaks a bound; the point is built as solve_branch
        builds it."""
        if last < 0:
            nums, last = [-v for v in nums], -last
        if any(v < 0 for v in nums):
            return None
        point = [zero] * len(upper)
        for r, (m, v) in enumerate(zip(sel, nums)):
            for j in range(1, m):
                point[j * n + r] = upper[j * n + r]
            y = point[m * n + r] = Fraction(v, last)
            if upper[m * n + r] is not None and y > upper[m * n + r]:
                return None
        return SolutionPiece(sel, tuple(point), 0)

    def subtree(rows, prefix, prev, rank):
        """(selector, piece) over the completions of prefix, given the
        node's rows: rank pivoted ones, then the unpivoted ones; prev is the
        last pivot."""
        depth = len(prefix)
        for s in range(k + 1):
            sel = prefix + (s,)
            c = 2 + s
            if s > 1:  # g_r(s) joins the right-hand side
                a = [[row[c], row[1] + row[c + k - 1]] + row[2 + block:] for row in rows]
            else:
                a = [[row[c], row[1]] + row[2 + block:] for row in rows]
            last, pivoted = prev, rank  # y_r stays free if no row can pivot
            p = next((i for i in range(rank, n) if a[i][0]), None)
            if p is not None:
                a[rank], a[p] = a[p], a[rank]
                pivot_step(a, rank, 0, prev)
                last, pivoted = a[rank][0], rank + 1
            if depth < n - 1:
                yield from subtree(a, sel, last, pivoted)
            elif pivoted == n:
                yield sel, leaf_piece(sel, [row[1] for row in a], last)
            elif any(row[1] for row in a[pivoted:]):
                yield sel, None  # inconsistent
            else:
                yield sel, solve_branch(inst, sel)

    return subtree(root, (), 1, 0)


def solve_all(inst: EhlcpInstance) -> list:
    """Union of all selector pieces, dimension-0 points deduplicated exactly.

    Pieces are taken in row-major order of their selectors' branch labels,
    left before right, so the first occurrence of a repeated point is kept.
    Only feasible pieces are held while the tree is walked.
    """
    t = inst.matrix_tuple
    check_selector_cap(t)
    found = sorted(
        (piece for _, piece in _selector_pieces(inst) if piece is not None),
        key=lambda piece: branch_label(piece.selector, t.k),
    )
    pieces = []
    seen_points = set()
    for piece in found:
        if piece.piece_dimension == 0:
            if piece.point in seen_points:
                continue
            seen_points.add(piece.point)
        pieces.append(piece)
    return pieces
