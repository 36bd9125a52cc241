"""Exact EHLCP solver by column-selector enumeration.

For a column selector s in {0..k}^n, column r of the solution keeps one free
unknown x_{s_r,r}; the wedge conditions pin every other component of that
column to 0 or to its bound d.  Each of the (k+1)^n selectors is therefore an
n x n linear system, over the representative matrix of (C_0, -C_1, ..., -C_k),
plus box inequalities.

solve_all decides every selector in one fraction-free elimination tree that
carries the right-hand side (_selector_pieces).  Each leaf holds the RREF of
its selector's system: a nonsingular selector reads its unique point off it,
an inconsistent singular one is rejected there, and a consistent singular
one reads a particular point and a kernel basis off it, as integer
numerators over the leaf's last pivot, from which _affine_piece computes
the polyhedral piece's dimension, a relative-interior point and a basis of
its affine hull exactly, by phase-1 problems on integer rows.  Below a node
at depth n - 1 with no free unknown the tree takes no pivot: one row is
left unpivoted, and each nonsingular leaf is decided from it and the
pivoted rows in integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain
from math import lcm
from operator import mul
from typing import Iterator, Optional

from .errors import DimensionError, InputError, InvariantError
from .linprog import nonneg_solution
from .rational import Vec, _echelon, int_row, pivot_step
from .representatives import MatrixTuple, check_selector_cap


@dataclass(frozen=True)
class EhlcpInstance:
    """Problem data: matrix tuple, strictly positive bounds d_1..d_{k-1}, q,
    each checked against the tuple.  upper, a field that == and hash
    ignore, bounds the stacked x: d_{j,r} at index j*n + r for 0 < j < k,
    None (unbounded) in blocks 0 and k."""

    matrix_tuple: MatrixTuple
    d: tuple  # k-1 strictly positive vectors of dimension n
    q: Vec
    upper: tuple = field(init=False, compare=False, repr=False)

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
        none = (None,) * t.n
        object.__setattr__(self, "upper", none + tuple(chain.from_iterable(self.d)) + none)


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
    x_k): A x = q for A = [C_0 | -C_1 | ... | -C_k], 0 <= x <= inst.upper,
    and every wedge product x_{0,r} x_{1,r} and (d_{j,r} - x_{j,r})
    x_{j+1,r} zero.  A vector whose length is not (k+1)n raises
    DimensionError.  Decided by solves_numerators, on x's numerators over
    their lcm."""
    den = lcm(*(v.denominator for v in x))
    return solves_numerators(inst, int_row(x, den), den)


def solves_numerators(inst: EhlcpInstance, nums: list, den: int) -> bool:
    """is_solution at x = nums / den, for ints nums and den > 0, in ints: side
    i is x_i, or the slack d_i - x_i times d_i's denominator, over den, and
    row . nums * q_i's denominator == int_scale * den * q_i's numerator for
    each row of t.int_stacked."""
    t = inst.matrix_tuple
    if len(nums) != (t.k + 1) * t.n:
        raise DimensionError("matrix-vector dimension mismatch")
    sides = [v if hi is None else hi.numerator * den - v * hi.denominator
             for v, hi in zip(nums, inst.upper)]
    # wedge j pairs x_0 (j = 0) or the slack d_j - x_j with x_{j+1}
    if min(nums) < 0 or min(sides) < 0 or any(a and b for a, b in zip(sides, nums[t.n:])):
        return False
    scale = t.int_scale * den
    return all(sum(map(mul, row, nums)) * q.denominator == scale * q.numerator
               for row, q in zip(t.int_stacked, inst.q))


def _affine_piece(particular, kernel, last, box) -> Optional[tuple]:
    """Feasibility polytope P = {alpha : g_i . alpha >= h_i} of an
    underdetermined selector system, one row per box row, in the kernel
    coordinates alpha: a relative-interior point and a basis of the affine
    hull, both in the free unknowns; None when P is empty.  The system's
    solutions are y = (particular + sum_m alpha_m kernel[m]) / last, given
    as integer numerators over the nonzero integer last; a box row (c,
    side, bound) means side * y_c >= bound.

    Every LP is a phase-1 problem (nonneg_solution) over alpha = u - v and
    one surplus per row.  [G | -G | -I] z = h gives a point alpha_0 of P, or
    shows P empty.  For each row j not yet seen slack, [G | -G | -h | -I] w
    = e_j over (u, v, t, s) >= 0 is infeasible exactly when row j is an
    implicit equality of P (Schrijver 1986, ch. 8); otherwise its
    (alpha_j, t_j) has G alpha_j - t_j h >= 0 with slack at least 1 on row
    j, so (alpha_0 + sum alpha_j) / (1 + sum t_j) is in P and strict on
    every row that is not implicit.  The hull is the kernel of the
    implicit rows.

    Every LP is built in integers: each entry is its rational value times
    one factor, |last| times the lcm of the used bounds' denominators, so
    Bland's rule takes the path it takes on the rational rows (a factor
    per row would change the reduced-cost row, and so the point).  alpha
    is kept as integer numerators over a running scale, and a Fraction is
    built only per output coordinate.
    """
    dim_a = len(kernel)
    sign = -1 if last < 0 else 1
    # box row c times |last|: grad . alpha >= bound * |last| - shift
    used = []
    for c, side, bound in box:
        grad = [sign * side * direction[c] for direction in kernel]
        shift = sign * side * particular[c]
        if any(grad):
            used.append((grad, shift, bound))
        elif bound.numerator * abs(last) > shift * bound.denominator:
            return None  # an unknown outside the kernel violates its bound
    if not used:
        # a kernel direction moves some unknown, whose y >= 0 row then has a gradient
        raise InvariantError("no box row of an underdetermined system has a gradient")
    mult = lcm(*(bound.denominator for _, _, bound in used))
    scale = abs(last) * mult
    rows = range(len(used))
    split = [[mult * x for x in grad] + [-mult * x for x in grad] for grad, _, _ in used]
    rests = [bound.numerator * (mult // bound.denominator) * abs(last) - mult * shift
             for _, shift, bound in used]
    surplus = [[-scale * (i == j) for j in rows] for i in rows]
    found = nonneg_solution([g + s + [h] for g, s, h in zip(split, surplus, rests)])
    if found is None:
        return None
    z, den = found
    # alpha = num / total: (alpha_0 + sum alpha_j) and (1 + sum t_j) over den
    num = [u - v for u, v in zip(z, z[dim_a:2 * dim_a])]
    total = den
    slack = {i for i in rows if z[2 * dim_a + i]}
    homogenized = [g + [-h] + s for g, h, s in zip(split, rests, surplus)]
    implicit = []
    for j in rows:
        if j in slack:
            continue
        found = nonneg_solution([row + [scale * (i == j)] for i, row in enumerate(homogenized)])
        if found is None:
            implicit.append(split[j][:dim_a])
            continue
        w, w_den = found
        num = [x * w_den + (u - v) * den for x, u, v in zip(num, w, w[dim_a:2 * dim_a])]
        total = total * w_den + w[2 * dim_a] * den
        den *= w_den
        slack.update(i for i in rows if w[2 * dim_a + 1 + i])

    point = tuple(
        Fraction(x * total + sum(a * direction[j] for a, direction in zip(num, kernel)),
                 last * total)
        for j, x in enumerate(particular)
    )
    if not implicit:
        return point, tuple(tuple(Fraction(x, last) for x in direction) for direction in kernel)
    # affine hull: alpha directions beta annihilating every implicit
    # equality, last_i times the kernel of their RREF, in integers
    pivots, last_i, _ = _echelon(implicit, dim_a)
    basis = []
    for f in (c for c in range(dim_a) if c not in pivots):
        beta = [0] * dim_a
        beta[f] = last_i
        for row, c in zip(implicit, pivots):
            beta[c] = -row[f]
        basis.append(tuple(
            Fraction(sum(b * direction[j] for b, direction in zip(beta, kernel)), last * last_i)
            for j in range(len(particular))
        ))
    return point, tuple(basis)


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
    at the root), the right-hand side, then, for each position r not yet
    chosen, the k+1 candidate columns A[i][s*n + r] and the pinned-bound
    terms g_r(s)[i] = sum_{0<j<s} d_{j,r} C_j[i][r] for s = 2..k (g_r(0)
    and g_r(1) are zero), and last the columns of the free positions
    chosen so far.  Root row i is int_scale * f times that rational row, f
    the lcm of the denominators of q and d, built in integers from row i of
    t.int_stacked and q and d times f: a positive factor per row, which
    moves no leaf's RREF, only its last pivot.
    Choosing s at depth r adds g_r(s) into the right-hand side, drops
    position r's other columns and pivots (rational.pivot_step) on the
    first unpivoted row nonzero in candidate column s.  The pivoted rows
    stay and keep being reduced (Gauss-Jordan), so at a leaf they are the
    last pivot times the RREF of the selector's system, the unknowns taken
    in position order.  A candidate column zero on every unpivoted row gets
    no pivot: y_r is a free unknown, and its column moves to the end of
    every row, where later pivots reduce it with the rest.  It stays zero
    on the unpivoted rows, since every later update of such a row combines
    it with another unpivoted one.  A leaf of rank below n is therefore
    inconsistent iff an unpivoted row has a nonzero right-hand side, and
    every other leaf is read as an RREF: the free unknowns zero in the
    particular point, and one kernel direction per free unknown.

    The last level below a node with no free position (depth n - 1, rank
    n - 1) builds no rows: a candidate column nonzero on the one unpivoted
    row u gives a nonsingular leaf, whose pivot and numerators
    last_piece reads off u and the pivoted rows as pivot_step would
    compute them, and decides in integers.  A zero there, and every node
    with a free position, takes the path above.
    """
    t = inst.matrix_tuple
    n, k = t.n, t.k
    upper = inst.upper
    block = 2 * k  # per position: k + 1 candidate columns, then g_r(2..k)
    f = lcm(*{x.denominator for x in chain(inst.q, *inst.d)})
    bounds = [[x.numerator * (f // x.denominator) for x in dj] for dj in inst.d]
    root = []
    for row, q in zip(t.int_stacked, inst.q):
        cells = [0, q.numerator * (f // q.denominator) * t.int_scale]
        for r in range(n):
            column = row[r::n]  # A[i][s*n + r] for s = 0..k: C_0[i][r], then -C_s[i][r]
            cells += [f * v for v in column]
            cells += accumulate(-b[r] * v for b, v in zip(bounds, column[1:k]))
        root.append(cells)
    zero = Fraction(0)
    zero_point = (zero,) * len(upper)

    def stacked(sel, values, base):
        """base with x_{m,r} = values[r] for m = sel[r]."""
        out = list(base)
        for r, (m, v) in enumerate(zip(sel, values)):
            out[m * n + r] = v
        return tuple(out)

    def piece(sel, y, basis):
        """SolutionPiece of sel with x_{sel[r],r} = y[r], the unknowns sel
        pins at their bounds, and the directions basis, given like y."""
        pinned = list(zero_point)
        for r, m in enumerate(sel):
            for j in range(1, m):
                pinned[j * n + r] = upper[j * n + r]
        return SolutionPiece(sel, stacked(sel, y, pinned), len(basis),
                             tuple(stacked(sel, v, zero_point) for v in basis))

    def last_piece(sel, rows, prev):
        """Piece of a nonsingular selector at depth n - 1 from a node with
        no free position, or None when its unique y breaks a bound, decided
        in integers with no pivot: rows end with the one unpivoted row u,
        and u[c], c = 2 + s for s = sel[-1], is the pivot the leaf would
        take.  y_r's numerator over that pivot is (rhs_i * u[c] - row_i[c]
        * rhs_u) // prev for the pivoted row i of position r, and rhs_u for
        r = n - 1; for s > 1 each right-hand side carries g_r(s), column g.
        A Fraction is built only for a kept point."""
        *pivoted, u = rows
        c = 2 + sel[-1]
        g = c + k - 1 if sel[-1] > 1 else None
        piv = u[c]
        sign = -1 if piv < 0 else 1
        rhs_u = u[1] if g is None else u[1] + u[g]
        if sign * rhs_u < 0:
            return None
        nums = []
        for row in pivoted:
            rhs = row[1] if g is None else row[1] + row[g]
            num = sign * ((rhs * piv - row[c] * rhs_u) // prev)
            if num < 0:
                return None  # y_r < 0
            nums.append(num)
        nums.append(sign * rhs_u)
        piv *= sign
        for r, m in enumerate(sel):
            if 0 < m < k:
                hi = upper[m * n + r]
                if nums[r] * hi.denominator > hi.numerator * piv:
                    return None  # y_r > d_{m,r}
        return piece(sel, [Fraction(num, piv) for num in nums], ())

    def leaf_piece(sel, rows, free, last):
        """Piece of the selector at a consistent leaf with a free position,
        or None when no solution of its system meets the box; rows are the
        pivoted rows, one per position not in free, in position order.
        Over the last pivot last, the particular y has numerators row[1] on
        the pivoted positions and 0 on the free ones; the free position f
        (column 2 + j, the j-th in free) gives the direction with
        numerators last at f and -row[2 + j] on the pivoted positions.  The
        box is y_r >= 0, then y_r <= d_{m,r} for 0 < m = sel[r] < k, both in
        position order."""
        pivots = [r for r in range(n) if r not in free]
        y = [0] * n
        for r, row in zip(pivots, rows):
            y[r] = row[1]
        kernel = []
        for col, f in enumerate(free, 2):
            v = [0] * n
            v[f] = last
            for r, row in zip(pivots, rows):
                v[r] = -row[col]
            kernel.append(v)
        box = [(r, 1, zero) for r in range(n)]
        box += [(r, -1, -upper[m * n + r]) for r, m in enumerate(sel) if 0 < m < k]
        hull = _affine_piece(y, kernel, last, box)
        return None if hull is None else piece(sel, *hull)

    def subtree(rows, prefix, prev, free):
        """(selector, piece) over the completions of prefix, given the
        node's rows: the pivoted ones, one per position of prefix not in
        free, then the unpivoted ones; prev is the last pivot."""
        depth = len(prefix)
        rank = depth - len(free)
        last_level = depth == n - 1 and not free
        for s in range(k + 1):
            sel = prefix + (s,)
            c = 2 + s
            if last_level and rows[-1][c]:
                yield sel, last_piece(sel, rows, prev)
                continue
            if s > 1:  # g_r(s) joins the right-hand side
                a = [[row[c], row[1] + row[c + k - 1]] + row[2 + block:] for row in rows]
            else:
                a = [[row[c], row[1]] + row[2 + block:] for row in rows]
            p = next((i for i in range(rank, n) if a[i][0]), None)
            if p is None:  # y_r is free: its column moves to the end of every row
                for row in a:
                    row.append(row[0])
                last, pivoted, below = prev, rank, free + (depth,)
            else:
                a[rank], a[p] = a[p], a[rank]
                pivot_step(a, rank, 0, prev)
                last, pivoted, below = a[rank][0], rank + 1, free
            if depth < n - 1:
                yield from subtree(a, sel, last, below)
            elif any(row[1] for row in a[pivoted:]):
                yield sel, None  # inconsistent
            else:
                yield sel, leaf_piece(sel, a[:pivoted], below, last)

    return subtree(root, (), 1, ())


def solve_all(inst: EhlcpInstance) -> list:
    """Union of all selector pieces, dimension-0 points deduplicated exactly.

    Pieces are taken in row-major order of their selectors' branch labels,
    left before right, so the first occurrence of a repeated point is kept.
    Only feasible pieces are held while the tree is walked.
    """
    t = inst.matrix_tuple
    check_selector_cap(t.n, t.k)
    found = sorted(
        (piece for _, piece in _selector_pieces(inst) if piece is not None),
        key=lambda piece: branch_label(piece.selector, t.k),
    )
    pieces = []
    seen_points = set()  # as (numerator, denominator) pairs: Fraction's hash is slow
    for piece in found:
        if piece.piece_dimension == 0:
            key = tuple((x.numerator, x.denominator) for x in piece.point)
            if key in seen_points:
                continue
            seen_points.add(key)
        pieces.append(piece)
    return pieces
