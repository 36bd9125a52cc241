"""Metamorphic invariance of the deciders and the solver.

Three maps of a tuple keep every property: an invertible rational row map
C_i -> P C_i, which leaves ker A unchanged and multiplies every
representative determinant by det P; a common permutation of the positions;
and positive column scales C_i[:, r] -> lambda_{i,r} C_i[:, r], which keep
the signs of kernel vectors and of determinants.  The row map with q -> P q
leaves the solution set itself unchanged, and the solver's pieces with it:
each leaf's RREF is unique, and each phase-1 problem is the same rational
problem times one factor.
"""

from fractions import Fraction

from ehlcp.csw import check_column_ndw_def, check_cone_csw, check_csw
from ehlcp.harness import FAMILIES, GenSpec, SplitMix64, gen_instance, gen_tuple, subseed
from ehlcp.io import piece_to_json
from ehlcp.rational import det, mat_vec
from ehlcp.representatives import (
    check_column_ndw_det,
    check_column_w,
    check_column_w0,
    make_tuple,
)
from ehlcp.solver import EhlcpInstance, solve_all
from reference import mat_mul

DECIDERS = (check_column_w, check_column_w0, check_column_ndw_det,
            check_column_ndw_def, check_csw, check_cone_csw)

SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3))


def verdicts(t) -> list:
    return [decide(t).holds for decide in DECIDERS]


def ratio(rng, lo, hi, den) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def row_map(rng, n):
    """An invertible n x n matrix with entries in [-3, 3] / [1, 4]."""
    while True:
        p = [[ratio(rng, -3, 3, 4) for _ in range(n)] for _ in range(n)]
        if det(p):
            return p


def mapped_tuples(rng, t) -> list:
    """t under a row map, a permutation of positions and positive column
    scales, each drawn from rng; the row map comes first, with its P."""
    n = t.n
    p = row_map(rng, n)
    perm = list(range(n))
    for r in range(n - 1, 0, -1):
        j = rng.randint(0, r)
        perm[r], perm[j] = perm[j], perm[r]
    scales = [[ratio(rng, 1, 5, 3) for _ in range(n)] for _ in t.mats]
    return [
        (make_tuple([mat_mul(p, m) for m in t.mats]), p),
        (make_tuple([[[row[perm[r]] for r in range(n)] for row in m] for m in t.mats]), None),
        (make_tuple([[[v * s for v, s in zip(row, lam)] for row in m]
                     for m, lam in zip(t.mats, scales)]), None),
    ]


class TestMetamorphicInvariance:
    def test_maps_keep_every_verdict_and_a_row_map_keeps_the_pieces(self):
        rng = SplitMix64(71)
        held = set()
        for family in FAMILIES:
            for n, k in SHAPES:
                for seed in range(8):
                    t = gen_tuple(GenSpec(n, k, family, 2, subseed(72, 100 * n + 10 * k + seed)))
                    expected = verdicts(t)
                    held.update(enumerate(expected))
                    inst = gen_instance(t, subseed(73, seed))
                    pieces = [piece_to_json(piece) for piece in solve_all(inst)]
                    for u, p in mapped_tuples(rng, t):
                        assert verdicts(u) == expected, (t, u)
                        if p is not None:
                            moved = EhlcpInstance(u, inst.d, mat_vec(p, inst.q))
                            assert [piece_to_json(x) for x in solve_all(moved)] == pieces, (t, p)
        # every decider both holds and fails somewhere in the sweep
        assert held == {(i, h) for i in range(len(DECIDERS)) for h in (True, False)}
