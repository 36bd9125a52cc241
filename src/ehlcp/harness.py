"""Seeded generators and end-to-end theorem verification suites.

The random stream is a SplitMix64 generator written out in full below so
reports are reproducible bit-for-bit from (seed, trial index) alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, combinations, count, repeat
from math import lcm
from operator import mul
from typing import Optional

from . import csw
from .classes import is_m, is_z
from .csw import check_column_ndw_def, check_cone_csw, check_csw, check_x_column_pairs
from .errors import CapExceeded, InputError, InvariantError
from .io import instance_to_json, tuple_to_json, vec_to_json
from .rational import Mat, Vec, _echelon, identity, int_row, mat, zeros
from .representatives import (
    MatrixTuple,
    check_column_ndw_det,
    check_column_w,
    check_column_w0,
)
from .solver import EhlcpInstance, is_solution, solve_all, solves_numerators

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64: state advances by the 64-bit golden ratio; outputs are the
    state mixed by two xor-shift-multiply rounds.

        state = (state + 0x9E3779B97F4A7C15) mod 2^64
        z = state
        z = ((z xor (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
        z = ((z xor (z >> 27)) * 0x94D049BB133111EB) mod 2^64
        output = z xor (z >> 31)

    randint reduces by modulo; the bias is irrelevant at desk-scale ranges
    and keeps the stream identical across implementations.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] via modulo reduction."""
        if hi < lo:
            raise InputError("randint needs lo <= hi")
        return lo + self.next_u64() % (hi - lo + 1)


def subseed(seed: int, index: int) -> int:
    """Per-trial sub-seed: one SplitMix64 output of seed xor (index+1)*golden."""
    return SplitMix64((seed ^ ((index + 1) * _GOLDEN)) & _MASK).next_u64()


FAMILIES = ("generic", "column_w_constructive", "z_structured", "degenerate")


@dataclass(frozen=True)
class GenSpec:
    n: int
    k: int
    family: str = "generic"
    entry_range: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}")
        if self.entry_range < 1 or self.n < 1 or self.k < 1:
            raise InputError("GenSpec needs n, k, entry_range >= 1")


def _random_matrix(rng: SplitMix64, n: int, lo: int, hi: int) -> Mat:
    """n x n integer entries drawn by rng.randint(lo, hi) in row order."""
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))


def _column_scaled_tuple(rng: SplitMix64, c0: Mat, k: int, b: int) -> MatrixTuple:
    """(C_0, C_0 D_1, ..., C_0 D_k): each D_i diagonal with its n entries
    drawn by rng.randint(1, b) in column order, D_1 first."""
    n = len(c0)
    diags = ([rng.randint(1, b) for _ in range(n)] for _ in range(k))
    return MatrixTuple(n, k, (c0, *(tuple(tuple(v * dj for v, dj in zip(row, d)) for row in c0)
                                    for d in diags)))


def gen_tuple(spec: GenSpec) -> MatrixTuple:
    """Deterministic tuple for the spec; family postconditions re-certified."""
    rng = SplitMix64(spec.seed)
    n, k, b = spec.n, spec.k, spec.entry_range
    if spec.family == "generic":
        return MatrixTuple(n, k, tuple(_random_matrix(rng, n, -b, b) for _ in range(k + 1)))
    if spec.family == "degenerate":
        mats = [_random_matrix(rng, n, -b, b) for _ in range(k + 1)]
        which = rng.randint(0, k)
        col = rng.randint(0, n - 1)
        mats[which] = tuple(row[:col] + (0,) + row[col + 1:] for row in mats[which])
        t = MatrixTuple(n, k, tuple(mats))
        if check_column_ndw_det(t).holds:
            raise InvariantError("degenerate family produced a column ND-W tuple")
        return t
    if spec.family == "column_w_constructive":
        for _ in range(1000):
            c0 = _random_matrix(rng, n, -b, b)
            if len(_echelon([list(row) for row in c0], n)[0]) == n:  # invertible
                break
        else:
            raise CapExceeded("no invertible C_0 within the cap of 1000 draws")
        t = _column_scaled_tuple(rng, c0, k, b)
        if not check_column_w(t).holds:
            raise InvariantError("constructive family produced a non-column-W tuple")
        return t
    # z_structured: C_0 = I and every C_i a Z-matrix
    mats = [identity(n)]
    for _ in range(k):
        mats.append(tuple(tuple(rng.randint(-b, b) if i == j else rng.randint(-b, 0)
                                for j in range(n)) for i in range(n)))
    t = MatrixTuple(n, k, tuple(mats))
    if not all(is_z(m).holds for m in t.mats[1:]):
        raise InvariantError("z_structured family produced a non-Z matrix")
    return t


def gen_instance(t: MatrixTuple, seed: int, entry_range: int = 2) -> EhlcpInstance:
    """Random instance data: d_j in {1..B}^n, q in {-B..B}^n."""
    rng = SplitMix64(seed)
    b = entry_range
    d = tuple(
        tuple(Fraction(rng.randint(1, b)) for _ in range(t.n))
        for _ in range(t.k - 1)
    )
    q = tuple(Fraction(rng.randint(-b, b)) for _ in range(t.n))
    return EhlcpInstance(t, d, q)


# --- golden data ------------------------------------------------------------

_I2, _SKEW, _ZERO2 = identity(2), mat([[0, 1], [-1, 0]]), mat([[0, 0], [0, 0]])


def paper_example_tuple() -> MatrixTuple:
    """The 2x2 triple (I, [[0,1],[-1,0]], I): cS-W without column W."""
    return MatrixTuple(2, 2, (_I2, _SKEW, _I2))


def skew_pair_tuple() -> MatrixTuple:
    return MatrixTuple(2, 1, (_I2, _SKEW))


def w0_not_csw_tuple() -> MatrixTuple:
    """(I, 0, 0): column W0 holds but cS-W fails."""
    return MatrixTuple(2, 2, (_I2, _ZERO2, _ZERO2))


# --- two-solution instances -------------------------------------------------

def two_solutions(t: MatrixTuple, u: Vec) -> tuple:
    """(instance, a, b) with a and b = a + u two stacked solutions.

    u must be a nonzero stacked vector in ker A with at most one nonzero
    block m in each column r.  a fills blocks 0 < j < m with d_j = 1, sets
    a_{m,r} = max(0, -u_{m,r}) and, when 0 < m < k, d_{m,r} = |u_{m,r}| + 1;
    every other d is 1 and q = A a.
    """
    n, k = t.n, t.k
    support = [(r, m) for r in range(n) for m in range(k + 1) if u[m * n + r]]
    if not support or len({r for r, _ in support}) < len(support):
        raise InvariantError("two_solutions needs a nonzero u with one nonzero block per column")
    d = [[Fraction(1)] * n for _ in range(k - 1)]
    a = list(zeros((k + 1) * n))
    for r, m in support:
        v = u[m * n + r]
        for j in range(1, m):
            a[j * n + r] = Fraction(1)
        a[m * n + r] = max(Fraction(0), -v)
        if 0 < m < k:
            d[m - 1][r] = abs(v) + 1
    a = tuple(a)
    b = tuple(x + y for x, y in zip(a, u))
    den = lcm(*(x.denominator for x in a))
    nums, scale = int_row(a, den), t.int_scale * den
    q = tuple(Fraction(sum(map(mul, row, nums)), scale) for row in t.int_stacked)
    inst = EhlcpInstance(t, tuple(map(tuple, d)), q)
    if not (is_solution(inst, a) and is_solution(inst, b)):
        raise InvariantError("two_solutions: an endpoint does not solve the instance")
    return inst, a, b


# --- theorem verification ---------------------------------------------------

def _violation(spec: GenSpec, index: int, t: MatrixTuple, detail: str, **extra) -> dict:
    payload = {
        "seed": spec.seed,
        "trial": index,
        "tuple": tuple_to_json(t),
        "detail": detail,
    }
    payload.update(extra)
    return payload


def nonconvex_pair(inst: EhlcpInstance, pieces: list) -> Optional[tuple]:
    """The first pair (a, b) of piece points, in piece order, whose midpoint
    does not solve inst; None when the solution set is convex.

    A midpoint of two solutions meets A x = q and the bounds, and its wedge
    products are a quarter of the pair's cross products.  The pairs are
    scanned only when the mean of the piece points fails, for the set is
    convex iff that mean solves (Cottle, Pang and Stone 1992, section 3.5;
    Rockafellar 1970, section 18): each piece point is relative-interior to
    its piece, so an entry or slack d_j - x_j that is 0 at the mean is 0 on
    every piece.  A solving mean so pins one side of every wedge pair, and
    the set is {A x = q, 0 <= x <= upper, the pins}; a failing one has both
    sides of a pair positive, each at some piece point, and those two points
    fail at their midpoint.  Points are summed as integer numerators.
    """
    points = [piece.point for piece in pieces]
    den = lcm(*(x.denominator for point in points for x in point))
    nums = [int_row(point, den) for point in points]
    if not nums or solves_numerators(inst, [sum(col) for col in zip(*nums)], den * len(nums)):
        return None
    for (a, u), (b, v) in combinations(zip(points, nums), 2):
        if not solves_numerators(inst, [x + y for x, y in zip(u, v)], 2 * den):
            return a, b
    raise InvariantError("the mean of the piece points fails, but no midpoint does")


def _convexity_violations(spec: GenSpec, index: int, t: MatrixTuple, salt: int) -> list:
    """One violation, carrying the instance and the nonconvex_pair, when
    the solution set is not convex.  The instance is drawn at
    subseed(seed, salt + index) when t has column ND-W, and is otherwise
    two_solutions of the definition decider's ND-W witness, the integer
    vector over its scale that t.witnesses keeps for its pattern."""
    if check_column_ndw_det(t).holds:
        inst = gen_instance(t, subseed(spec.seed, salt + index), spec.entry_range)
    else:
        ndw = check_column_ndw_def(t)
        if ndw.holds:
            raise InvariantError("definition ND-W holds on a tuple with a singular representative")
        x, scale = t.witnesses[tuple(chain.from_iterable(ndw.witness["pattern"]))]
        inst, _, _ = two_solutions(t, tuple(Fraction(v, scale) for v in x))
    pair = nonconvex_pair(inst, solve_all(inst))
    if pair is None:
        return []
    return [_violation(spec, index, t, "midpoint of two solutions is not a solution",
                       instance=instance_to_json(inst),
                       points=[vec_to_json(x) for x in pair])]


def _normalized(t: MatrixTuple) -> Optional[tuple]:
    """(s, (M_1, ..., M_k)), ints s > 0 and M_i = s C_0^{-1} C_i, or None
    when C_0 is singular: rational._echelon on the first n columns of
    t.int_stacked leaves last times [I | -C_0^{-1} C_1 | ...], and s =
    |last|.  Scaling the normalized tuple by s > 0 multiplies each
    representative determinant by s^n and keeps every off-diagonal sign,
    so its column W and Z verdicts are the normalized tuple's."""
    n = t.n
    rows = list(t.int_stacked)
    pivots, last, _ = _echelon(rows, n)
    if len(pivots) < n:
        return None
    sign = -1 if last > 0 else 1
    return abs(last), tuple(tuple(tuple(sign * v for v in row[i : i + n]) for row in rows)
                            for i in range(n, (t.k + 1) * n, n))


def _z_normalized(t: MatrixTuple) -> bool:
    """Hypothesis of T4.4 and C4.1: C_0 is invertible and every
    C_0^{-1} C_i is a Z-matrix, tested on _normalized's s C_0^{-1} C_i."""
    normalized = _normalized(t)
    return normalized is not None and all(is_z(m).holds for m in normalized[1])


def _check_t21(spec, index, t) -> list:
    """Column W agrees with column W of the normalized tuple, and each
    column W tuple has one solution for three seeded (d, q).  The
    normalized tuple is checked as _normalized's (s I, M_1, ..., M_k).

    The theorem's clause det(sum C_i D_i) != 0, for nonnegative diagonal
    D_i with a positive entry in each column, is column W itself, so it is
    not sampled: det is multilinear in columns, so det(sum C_i D_i) is the
    sum over selectors s of prod_r d_{s_r,r} det R_s.  Under column W every
    term has one strict sign and one is nonzero; otherwise a zero det R_s,
    or a sign change between selectors one position apart, gives a D with
    determinant 0."""
    out = []
    w = check_column_w(t).holds
    normalized_w = False
    if (normalized := _normalized(t)) is not None:
        s, blocks = normalized
        s_identity = tuple(tuple(s * (i == j) for j in range(t.n)) for i in range(t.n))
        normalized_w = check_column_w(MatrixTuple(t.n, t.k, (s_identity, *blocks))).holds
    if w != normalized_w:
        out.append(_violation(spec, index, t, "W-property disagrees with the normalized tuple"))
    if w:
        for trial in range(3):
            inst = gen_instance(t, subseed(spec.seed, 1000 + 10 * index + trial), spec.entry_range)
            pieces = solve_all(inst)
            if (len(pieces) != 1 or pieces[0].piece_dimension != 0
                    or not is_solution(inst, pieces[0].point)):
                out.append(_violation(spec, index, t, "W tuple without a unique solution",
                                      instance=instance_to_json(inst)))
    return out


def _check_t22(spec, index, t) -> list:
    out = []
    if not check_column_ndw_det(t).holds:
        return out
    for trial in range(3):
        inst = gen_instance(t, subseed(spec.seed, 2000 + 10 * index + trial), spec.entry_range)
        for piece in solve_all(inst):
            if piece.piece_dimension != 0:
                out.append(
                    _violation(spec, index, t, "positive-dimensional piece under ND-W",
                               instance=instance_to_json(inst))
                )
    return out


def _check_t31(spec, index, t) -> list:
    if not check_csw(t).holds:
        return []
    return _convexity_violations(spec, index, t, 3000)


def _m_matrix(rng: SplitMix64, n: int, b: int) -> Mat:
    nonneg = [[rng.randint(0, b) for _ in range(n)] for _ in range(n)]
    s = 1 + max(sum(row) for row in nonneg)
    return tuple(tuple(s - nonneg[i][j] if i == j else -nonneg[i][j] for j in range(n))
                 for i in range(n))


def _check_t32(spec, index, t_ignored) -> list:
    """The suite's own tuple, drawn from its own stream: C_0 an M-matrix and
    C_i = C_0 D_i, so the tuple is certified column W (hence cS-W), and q
    strictly positive.  The one piece must be the point with blocks 1..k
    zero: C_0 is invertible, so that point has x_0 = C_0^{-1} q > 0, and it
    solves because every wedge pair has a zero side."""
    n, k, b = spec.n, spec.k, spec.entry_range
    rng = SplitMix64(subseed(spec.seed, 999_983))
    c0 = _m_matrix(rng, n, b)
    t = _column_scaled_tuple(rng, c0, k, b)
    out = []
    if not is_m(t.mats[0]).holds or not check_csw(t).holds:
        out.append(_violation(spec, index, t, "constructed tuple fails its certificates"))
        return out
    d = tuple(
        tuple(Fraction(rng.randint(1, b)) for _ in range(n)) for _ in range(k - 1)
    )
    q = tuple(Fraction(rng.randint(1, b)) for _ in range(n))
    inst = EhlcpInstance(t, d, q)
    pieces = solve_all(inst)
    if (
        len(pieces) != 1
        or pieces[0].piece_dimension != 0
        or any(pieces[0].point[n:])
        or not is_solution(inst, pieces[0].point)
    ):
        out.append(_violation(spec, index, t, "solution not unique under M + cS-W + q > 0",
                              instance=instance_to_json(inst)))
    return out


def _check_p31(spec, index, t) -> list:
    if not check_csw(t).holds:
        return []
    return [_violation(spec, index, t,
                       f"pair (C_{i}, C_{i+1}) fails X-column-sufficiency under cS-W")
            for i, verdict in enumerate(check_x_column_pairs(t)) if not verdict.holds]


def _check_t41(spec, index, t) -> list:
    if check_column_ndw_def(t).holds != check_column_ndw_det(t).holds:
        return [_violation(spec, index, t, "definition and determinant ND-W deciders disagree")]
    return []


def _check_t42(spec, index, t) -> list:
    out = []
    w = check_column_w(t).holds
    w0 = check_column_w0(t).holds
    nd = check_column_ndw_det(t).holds
    csw._require_within_cap(t)
    # check_csw's fast paths assume this theorem, so it is tested against
    # the pattern enumeration; below the column W fast path check_csw has
    # already enumerated, and its witness is the enumeration's verdict
    verdict = check_csw(t)
    if verdict.decided_by == "fast_path_column_w":
        cs = csw._first_violation(t, "csw") is None
    else:
        cs = verdict.witness is None
    if verdict.holds != cs:
        out.append(_violation(spec, index, t, "cS-W fast path disagrees with enumeration"))
    if w != (cs and nd):
        out.append(_violation(spec, index, t, "W <=> (cS-W and ND-W) violated"))
    if w != (w0 and nd):
        out.append(_violation(spec, index, t, "W <=> (W0 and ND-W) violated"))
    return out


def _check_t43(spec, index, t) -> list:
    if check_csw(t).holds and not check_column_w0(t).holds:
        return [_violation(spec, index, t, "cS-W tuple without the W0-property")]
    return []


def _check_t44(spec, index, t) -> list:
    if not _z_normalized(t):
        return []
    if check_cone_csw(t).holds != check_csw(t).holds:
        return [_violation(spec, index, t, "cone cS-W and cS-W disagree on Z-structure")]
    return []


def _check_c41(spec, index, t) -> list:
    if not _z_normalized(t) or not check_cone_csw(t).holds:
        return []
    return _convexity_violations(spec, index, t, 4000)


_SUITES: dict = {
    "T2.1-equiv": (_check_t21, None),
    "T2.2-finite": (_check_t22, None),
    "T3.1-convex": (_check_t31, None),
    "T3.2-unique": (_check_t32, None),
    "P3.1-pairs": (_check_p31, None),
    "T4.1-ndw": (_check_t41, None),
    "T4.2-equiv": (_check_t42, None),
    "T4.3-chain": (_check_t43, None),
    "T4.4-cone": (_check_t44, "z_structured"),
    "C4.1-zconvex": (_check_c41, "z_structured"),
}

THEOREM_IDS = tuple(sorted(_SUITES))

# golden cases appended to every randomized suite; T3.2 reads only their
# n and k, and checks an M-matrix tuple it builds of those sizes
_INJECTED = (paper_example_tuple, w0_not_csw_tuple, skew_pair_tuple)


def verify_theorem(theorem_id: str, trials: int, spec: GenSpec) -> list:
    """Run one theorem's invariant suite over generated tuples plus the
    injected golden tuples; return its violations, each payload replayable.
    Trial i runs at subseed(seed, i), golden tuple o at subseed(seed, 900_000 + o)."""
    if theorem_id not in _SUITES:
        raise InputError(f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}")
    if trials < 0:
        raise InputError(f"trials must be nonnegative, got {trials}")
    check, default_family = _SUITES[theorem_id]
    if default_family is not None and spec.family == "generic":
        spec = replace(spec, family=default_family)
    violations = []
    cases = chain(zip(range(trials), repeat(None)), zip(count(900_000), _INJECTED))
    for index, (offset, golden) in enumerate(cases):
        seed = subseed(spec.seed, offset)
        if golden is None:
            sub = GenSpec(spec.n, spec.k, spec.family, spec.entry_range, seed)
            # T3.2 builds its own tuple from sub's n and k, so none is drawn
            t = None if check is _check_t32 else gen_tuple(sub)
        else:
            t = golden()
            sub = GenSpec(t.n, t.k, spec.family, spec.entry_range, seed)
        violations.extend(check(sub, index, t))
    return violations
