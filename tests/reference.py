"""Reference code kept out of the package and shared by the tests.

stacked_matrix builds A = [C_0 | -C_1 | ... | -C_k] from the tuple's
matrices by the definition, as Fractions, with no scale; the package keeps
A only in integers (MatrixTuple.int_stacked).  representative_matrix
builds the column representative of one selector, the per-selector
reference of the determinant walk.  walk_dets reads that walk,
representatives._det_numerators, as (selector, Fraction determinant) pairs.
mat_mul is the plain matrix product.  solution_points, _step, combine and
midpoints_solve are the sampled convexity check that harness.nonconvex_pair
replaced: every piece point plus a half step along each basis direction,
and the weights 1/4, 1/2 and 3/4 on every pair.  It can miss a violation,
so it serves only as the other side of a differential test.

ndw_two_solutions builds the two-solution instance that the convexity
suites build for a tuple without column ND-W.

solve_branch is the per-selector path that the solver tree replaced: the
selector's n x n system built from scratch by selector_system, solved by
solve_linear and handed to solver._affine_piece, its rational particular
point and kernel put over one common denominator by
over_common_denominator.  It lists the free unknowns in position order, so
its RREF leaves free the same unknowns as the tree, and the two give the
same pieces byte for byte.

lp_solve is the one reference simplex: a two-phase LP over free variables
on a Fraction tableau, Bland's rule throughout, the zero-valued artificials
driven out after phase 1, and a phase 2 that can end unbounded.  It shares
no code with ehlcp.linprog, whose integer tableau is the rational one times
a positive scale; ref_nonneg_solution is its phase 1 alone, the reference
of linprog.nonneg_solution down to the pivot count.
affine_piece_lp is the solver's former _affine_piece on top of lp_solve: one
slack-maximizing LP per box row with a gradient, and the average of the
slack maximizers as the point.  It takes _affine_piece's integer
numerators and denominator and divides them out first.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import lcm
from typing import Optional

from ehlcp import solver
from ehlcp.csw import check_column_ndw_def
from ehlcp.errors import DimensionError, InputError, InvariantError
from ehlcp.harness import two_solutions
from ehlcp.rational import Mat, Vec, identity, rat, solve_linear, vec, zeros
from ehlcp.representatives import MatrixTuple, _det_numerators
from ehlcp.solver import EhlcpInstance, SolutionPiece, is_solution, solve_all


def stacked_matrix(t: MatrixTuple) -> Mat:
    """A = [C_0 | -C_1 | ... | -C_k]: column i*n + r is column r of C_i,
    negated for i >= 1."""
    return tuple(
        tuple(m[r][c] if i == 0 else -m[r][c] for i, m in enumerate(t.mats) for c in range(t.n))
        for r in range(t.n)
    )


def representative_matrix(t: MatrixTuple, selector: tuple) -> Mat:
    """Matrix whose column j is column j of C_{selector[j]}."""
    if len(selector) != t.n:
        raise DimensionError("selector length must equal n")
    if any(not 0 <= s <= t.k for s in selector):
        raise InputError("selector entry out of range")
    return tuple(
        tuple(t.mats[selector[j]][i][j] for j in range(t.n)) for i in range(t.n)
    )


def selector_system(inst: EhlcpInstance, selector: tuple):
    """Reduced n x n system of one column selector, built from scratch.

    With m = selector[r], the wedge conditions pin x_{0,r} = 0 (m > 0),
    x_{j,r} = d_{j,r} (0 < j < m) and x_{j,r} = 0 (j > m), leaving x_{m,r}
    free.  Returns the stacked indices m*n + r of the free unknowns in
    position order (the order fixes which unknowns the RREF leaves free,
    and so the reported point and basis), the matrix and right-hand side
    over them, the stacked vector of pinned values, and the bounds on the
    free unknowns as (column, sign, bound) meaning sign * y_column >= bound:
    y >= 0 first, then y <= d_m for 0 < m < k.
    """
    t = inst.matrix_tuple
    n = t.n
    upper = inst.upper
    free = [m * n + r for r, m in enumerate(selector)]
    stacked = stacked_matrix(t)
    a = tuple(tuple(row[i] for i in free) for row in stacked)
    pinned = [Fraction(0)] * len(upper)
    for r, m in enumerate(selector):
        for j in range(1, m):
            pinned[j * n + r] = upper[j * n + r]
    # the pinned d terms move to the right-hand side
    rhs = tuple(
        q - sum(row[i] * v for i, v in enumerate(pinned) if v)
        for q, row in zip(inst.q, stacked)
    )
    box = [(c, 1, Fraction(0)) for c in range(n)] + [
        (c, -1, -upper[i]) for c, i in enumerate(free) if upper[i] is not None
    ]
    return free, a, rhs, pinned, box


def over_common_denominator(particular, kernel) -> tuple:
    """(particular, kernel, den) of solver._affine_piece for a rational
    particular point and kernel directions: their integer numerators over
    den, the least common positive denominator."""
    den = lcm(*(x.denominator for x in chain(particular, *kernel)))
    return ([x.numerator * (den // x.denominator) for x in particular],
            [[x.numerator * (den // x.denominator) for x in v] for v in kernel], den)


def solve_branch(inst: EhlcpInstance, selector: tuple) -> Optional[SolutionPiece]:
    """Solution piece of one column selector, or None when it is infeasible."""
    t = inst.matrix_tuple
    if len(selector) != t.n or any(not 0 <= m <= t.k for m in selector):
        raise InputError("selector must have n entries in 0..k")
    free, a, rhs, pinned, box = selector_system(inst, selector)
    res = solve_linear(a, rhs)
    if res.kind == "inconsistent":
        return None
    if res.kind == "unique":
        y, basis = res.particular, ()
        if any(sign * y[c] < bound for c, sign, bound in box):
            return None
    else:
        hull = solver._affine_piece(*over_common_denominator(res.particular, res.kernel_basis), box)
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


def walk_dets(t: MatrixTuple):
    """(selector, determinant) over all representatives, in selectors order,
    lazily; the call checks the selector cap before any selector."""
    denom, walk = _det_numerators(t)
    return ((sel, Fraction(num, denom)) for sel, num in walk)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if len(a[0]) != len(b):
        raise DimensionError("matrix-matrix dimension mismatch")
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def solution_points(inst: EhlcpInstance) -> list:
    """Representative solution points: every piece point, plus a half-step
    along each spanning direction of positive-dimensional pieces."""
    points = []
    for piece in solve_all(inst):
        points.append(piece.point)
        for direction in piece.kernel_basis:
            stepped = _step(inst, piece.point, direction)
            if stepped is not None:
                points.append(stepped)
    return list(dict.fromkeys(points))


def _step(inst: EhlcpInstance, point: Vec, direction: Vec) -> Optional[Vec]:
    """point + (half the largest feasible step) along a stacked direction."""
    limit: Optional[Fraction] = None
    for x, dx, hi in zip(point, direction, inst.upper):
        if dx > 0 and hi is not None:
            room = (hi - x) / dx
            limit = room if limit is None else min(limit, room)
        elif dx < 0:
            room = -x / dx
            limit = room if limit is None else min(limit, room)
    step = Fraction(1) if limit is None else limit / 2
    if step == 0:
        return None
    candidate = tuple(x + step * dx for x, dx in zip(point, direction))
    return candidate if is_solution(inst, candidate) else None


def combine(a: Vec, b: Vec, weight: Fraction) -> Vec:
    return tuple(weight * xa + (1 - weight) * xb for xa, xb in zip(a, b))


def midpoints_solve(inst: EhlcpInstance, points: list) -> bool:
    """True when every 1/4, 1/2 and 3/4 combination of every pair solves."""
    weights = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for a, b in combinations(points, 2):
        for w in weights:
            if not is_solution(inst, combine(a, b, w)):
                return False
    return True


def ndw_two_solutions(t: MatrixTuple) -> Optional[tuple]:
    """two_solutions(t, x) for the witness x of check_column_ndw_def, or
    None when t has column ND-W."""
    verdict = check_column_ndw_def(t)
    if verdict.holds:
        return None
    return two_solutions(t, vec(chain.from_iterable(verdict.witness["x"])))


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    point: Optional[Vec] = None
    objective_value: Optional[Fraction] = None


def _pivot(tab, basis, row, col) -> None:
    """Gauss-Jordan pivot of the Fraction tableau on tab[row][col]."""
    piv = tab[row][col]
    tab[row] = [x / piv if x else x for x in tab[row]]
    for i, other in enumerate(tab):
        if i != row and other[col]:
            f = other[col]
            tab[i] = [x - f * y if y else x for x, y in zip(other, tab[row])]
    basis[row] = col


def _simplex(tab, basis, cost) -> tuple:
    """Maximize cost . x from the basic tableau (tab, basis) with Bland's
    rule, the least entering column and then the least ratio, ties to the
    least basic index: ("optimal" | "unbounded", number of pivots)."""
    m, n_vars = len(tab), len(cost)
    reduced = [cost[j] - sum(cost[b] * row[j] for b, row in zip(basis, tab) if row[j])
               for j in range(n_vars)]
    pivots = 0
    while (enter := next((j for j in range(n_vars) if reduced[j] > 0), -1)) >= 0:
        rows = [i for i in range(m) if tab[i][enter] > 0]
        if not rows:
            return "unbounded", pivots
        leave = min(rows, key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]))
        _pivot(tab, basis, leave, enter)
        pivots += 1
        f = reduced[enter]
        reduced = [r - f * x if x else r for r, x in zip(reduced, tab[leave])]
    return "optimal", pivots


def _phase1(rows, n) -> tuple:
    """Phase 1 on the Fraction rows [A | b], A of n columns, from an
    artificial basis: ((tab, basis) of a basic z >= 0 with A z = b, or None
    if there is none, number of pivots)."""
    m = len(rows)
    tab = [[x if row[-1] >= 0 else -x for x in row[:-1]] + [Fraction(j == i) for j in range(m)]
           + [abs(row[-1])] for i, row in enumerate(rows)]
    basis = [n + i for i in range(m)]
    _, pivots = _simplex(tab, basis, [Fraction(0)] * n + [Fraction(-1)] * m)
    if any(row[-1] for row, col in zip(tab, basis) if col >= n):
        return None, pivots
    return (tab, basis), pivots


def _basic_point(tab, basis, n) -> list:
    """The first n coordinates of the tableau's basic solution."""
    basic = {col: row[-1] for row, col in zip(tab, basis)}
    return [basic.get(j, Fraction(0)) for j in range(n)]


def ref_nonneg_solution(a, b) -> tuple:
    """(some z >= 0 with a . z = b, or None, number of pivots): phase 1
    alone, ending on the basic solution, as linprog.nonneg_solution."""
    n = len(a[0])
    found, pivots = _phase1([[*map(rat, row), rat(rhs)] for row, rhs in zip(a, b)], n)
    return (None if found is None else tuple(_basic_point(*found, n))), pivots


def lp_solve(objective: Vec, eq=(), ineq=()) -> LpResult:
    """Maximize objective . x subject to eq rows (= rhs) and ineq rows (>= rhs)."""
    dim, n_eq, n_ineq = len(objective), len(eq), len(ineq)
    rows = [[*map(rat, row), rat(rhs)] for row, rhs in [*eq, *ineq]]
    if any(len(row) != dim + 1 for row in rows):
        raise DimensionError("constraint row dimension mismatch")
    # standard form: x = u - v with u, v >= 0, plus one surplus per inequality
    n_std = 2 * dim + n_ineq
    rows = [row[:-1] + [-x for x in row[:-1]] + [Fraction(-(s == i - n_eq)) for s in range(n_ineq)]
            + row[-1:] for i, row in enumerate(rows)]
    found, _ = _phase1(rows, n_std)
    if found is None:
        return LpResult("infeasible")
    tab, basis = found
    # drive the remaining (zero-valued) artificials out of the basis; a row
    # with no nonzero original column is redundant and is dropped
    for i in range(len(rows)):
        if basis[i] >= n_std:
            col = next((j for j in range(n_std) if tab[i][j]), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    keep = [i for i in range(len(rows)) if basis[i] < n_std]

    # phase 2 on the original columns
    tab, basis = [tab[i][:n_std] + tab[i][-1:] for i in keep], [basis[i] for i in keep]
    obj = [rat(x) for x in objective]
    status, _ = _simplex(tab, basis, obj + [-x for x in obj] + [Fraction(0)] * n_ineq)
    if status == "unbounded":
        return LpResult("unbounded")
    values = _basic_point(tab, basis, n_std)
    point = tuple(values[j] - values[dim + j] for j in range(dim))
    return LpResult("optimal", point, sum(o * p for o, p in zip(obj, point)))


def affine_piece_lp(particular, kernel, last, box) -> Optional[tuple]:
    """solver._affine_piece by slack-maximizing LPs: (point, basis) in the
    free unknowns, or None when the polytope is empty."""
    particular = [Fraction(x, last) for x in particular]
    kernel = [[Fraction(x, last) for x in v] for v in kernel]
    dim_a = len(kernel)
    alpha_ineqs = []
    for c, sign, bound in box:
        grad = tuple(sign * direction[c] for direction in kernel)
        rest = bound - sign * particular[c]
        if any(grad):
            alpha_ineqs.append((grad, rest))
        elif rest > 0:
            return None
    # maximize s subject to grad . alpha - s >= bound, every row, s <= 1: an
    # implicit equality has maximum 0; the first LP is infeasible iff the
    # polytope is empty
    interior_points = []
    implicit_grads = []
    objective = (Fraction(0),) * dim_a + (Fraction(1),)
    base_rows = [(tuple(g) + (Fraction(0),), bd) for g, bd in alpha_ineqs]
    cap_row = ((Fraction(0),) * dim_a + (Fraction(-1),), Fraction(-1))
    for index, (grad, bound) in enumerate(alpha_ineqs):
        row = (tuple(grad) + (Fraction(-1),), bound)
        res = lp_solve(objective, [], base_rows + [row, cap_row])
        if res.status == "infeasible" and index == 0:
            return None
        if res.status != "optimal":
            raise InvariantError(f"slack LP of a feasible polytope returned {res.status!r}")
        if res.objective_value == 0:
            implicit_grads.append(grad)
        else:
            interior_points.append(res.point[:dim_a])
    if interior_points:
        alpha = tuple(sum(xs) / len(interior_points) for xs in zip(*interior_points))
    else:
        alpha = res.point[:dim_a]  # every row tight: a single point
    if implicit_grads:
        free = solve_linear(tuple(implicit_grads), zeros(len(implicit_grads))).kernel_basis
    else:
        free = identity(dim_a)
    basis = tuple(
        tuple(sum(beta[m] * kernel[m][j] for m in range(dim_a)) for j in range(len(particular)))
        for beta in free
    )
    point = tuple(
        x + sum(alpha[m] * kernel[m][j] for m in range(dim_a)) for j, x in enumerate(particular)
    )
    return point, basis
