"""Reference code kept out of the package and shared by the tests.

representative_matrix builds the column representative of one selector, the
per-selector reference of the determinant walk.  walk_dets reads that walk,
representatives._det_numerators, as (selector, Fraction determinant) pairs.
mat_mul is the plain matrix product.  solution_points, _step, combine and
midpoints_solve are the sampled convexity check that harness.nonconvex_pair
replaced: every piece point plus a half step along each basis direction,
and the weights 1/4, 1/2 and 3/4 on every pair.  It can miss a violation,
so it serves only as the other side of a differential test.

ndw_two_solutions builds the two-solution instance that the convexity
suites build for a tuple without column ND-W.
"""

from fractions import Fraction
from itertools import chain, combinations
from typing import Optional

from ehlcp.csw import check_column_ndw_def
from ehlcp.errors import DimensionError, InputError
from ehlcp.harness import two_solutions
from ehlcp.rational import Mat, Vec, vec
from ehlcp.representatives import MatrixTuple, _det_numerators
from ehlcp.solver import EhlcpInstance, is_solution, solve_all


def representative_matrix(t: MatrixTuple, selector: tuple) -> Mat:
    """Matrix whose column j is column j of C_{selector[j]}."""
    if len(selector) != t.n:
        raise DimensionError("selector length must equal n")
    if any(not 0 <= s <= t.k for s in selector):
        raise InputError("selector entry out of range")
    return tuple(
        tuple(t.mats[selector[j]][i][j] for j in range(t.n)) for i in range(t.n)
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
