"""The one fraction-free pivot step against Fraction references.

The references are reference.ref_rref, the tests' one Fraction
Gauss-Jordan RREF, reference.det, its one Fraction determinant, the
forward-only Bareiss determinant below, which the integer step replaced,
and reference.ref_nonneg_solution, the phase 1 of the tests' one
reference simplex.  The RREF is canonical: it is _echelon's
rows divided by the last pivot, and for square nonsingular a the right
block of [a | b] is a^{-1} b.  The integer tableau is the rational one
times a positive scale, so pivots, determinants, phase-1 points and pivot
counts must agree exactly.
"""

import random
from fractions import Fraction
from itertools import chain
from math import lcm, prod

import pytest

from ehlcp import linprog
from ehlcp.linprog import nonneg_solution
from ehlcp.rational import _echelon, int_row
from reference import det, ref_nonneg_solution, ref_rref


def ref_det(m):
    """Forward-only Bareiss elimination on rows scaled to integers."""
    n = len(m)
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


def rand_rational(rng):
    """Mostly non-integer rationals, with zeros so that pivots are skipped."""
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 6, 7)))


def combination(rng, rows):
    """A random rational combination of rows: a dependent row."""
    coeffs = [rand_rational(rng) for _ in rows]
    return [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0]))]


def rand_matrix(rng, n_rows, n_cols, rank_deficient):
    rows = [[rand_rational(rng) for _ in range(n_cols)] for _ in range(n_rows)]
    if rank_deficient and n_rows > 1:
        for i in rng.sample(range(n_rows), rng.randint(1, n_rows - 1)):
            others = [row for j, row in enumerate(rows) if j != i]
            rows[i] = combination(rng, rng.sample(others, rng.randint(1, len(others))))
    return rows


def matrix_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 7)
        rows = rand_matrix(rng, n_rows, n_cols, rng.random() < 0.5)
        pivot_cols = rng.choice((None, n_cols, rng.randint(0, n_cols)))
        yield rows, pivot_cols


def echelon_rref(rows, pivot_cols=None):
    """_echelon on the rows scaled to integers, divided by its last pivot:
    the RREF in place, as ref_rref computes it; returns the pivot columns."""
    if pivot_cols is None:
        pivot_cols = len(rows[0]) if rows else 0
    a = [int_row(row) for row in rows]
    pivots, last, _ = _echelon(a, pivot_cols)
    rows[:] = [[Fraction(x, last) for x in row] for row in a]
    return pivots


class TestRref:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_fraction_reference(self, seed):
        for rows, pivot_cols in matrix_cases(seed, 150):
            ours = [row[:] for row in rows]
            ref = [row[:] for row in rows]
            pivots = echelon_rref(ours, pivot_cols)
            assert pivots == ref_rref(ref, pivot_cols)
            rank = len(pivots)
            assert ours[:rank] == ref[:rank]
            assert [any(row) for row in ours[rank:]] == [any(row) for row in ref[rank:]]

    def test_augmented_rows_below_the_rank_keep_their_zero_status(self):
        # [A | b] with a dependent row of A: the row below the rank is zero
        # exactly when b is consistent
        for rhs, consistent in ((Fraction(3), True), (Fraction(5, 2), False)):
            rows = [[Fraction(1, 2), Fraction(1, 3), Fraction(1)],
                    [Fraction(3, 2), Fraction(1), rhs]]
            assert echelon_rref(rows, 2) == [0]
            assert (not any(rows[1])) is consistent

    def test_empty_rows(self):
        rows = []
        assert echelon_rref(rows) == []
        assert rows == []


def square_cases(seed, count):
    """(a, b): square a of order 1..6, singular about half the time, and b
    of 1..7 columns, with integer or rational entries."""
    rng = random.Random(seed)
    for _ in range(count):
        n, width = rng.randint(1, 6), rng.randint(1, 7)
        a = rand_matrix(rng, n, n, rng.random() < 0.5)
        b = [[rand_rational(rng) for _ in range(width)] for _ in range(n)]
        if rng.random() < 0.5:  # integer entries; row scaling keeps the rank
            a, b = ([[x * lcm(*(y.denominator for y in row)) for x in row] for row in m]
                    for m in (a, b))
        yield a, b


class TestLeftDivide:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_right_block_of_the_fraction_reference(self, seed):
        # a^{-1} b is the right block of _echelon([a | b], n) over its last
        # pivot, the reading of classes.is_m and harness._normalized
        singular = 0
        for a, b in square_cases(seed, 150):
            n = len(a)
            ours = [ra + rb for ra, rb in zip(a, b)]
            ref = [row[:] for row in ours]
            rank = len(echelon_rref(ours, n))
            assert rank == len(ref_rref(ref, n))
            if rank < n:
                singular += 1
            else:
                assert [row[n:] for row in ours] == [row[n:] for row in ref]
        assert 30 <= singular <= 120  # both branches are exercised


class TestDet:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_bareiss_reference(self, seed):
        # _echelon of the rows scaled to integers ends on sign * det times
        # the scales, the reading of the determinant tree; the Fraction
        # elimination and the forward-only Bareiss one must agree with it
        rng = random.Random(100 + seed)
        singular = 0
        for _ in range(150):
            n = rng.randint(1, 6)
            m = tuple(map(tuple, rand_matrix(rng, n, n, rng.random() < 0.3)))
            mults = [lcm(*(x.denominator for x in row)) for row in m]
            pivots, last, sign = _echelon([int_row(row, k) for row, k in zip(m, mults)], n)
            ours = Fraction(sign * last, prod(mults)) if len(pivots) == n else 0
            assert ours == det(m) == ref_det(m)
            singular += not ours
        assert 20 <= singular <= 130


def rand_system(rng):
    """a . z = b with a right-hand side that is feasible by construction,
    random, or zero; some get redundant rows (combinations of [a | b]) and
    zero rows, whose b entry may be nonzero."""
    n_rows, n_cols = rng.randint(1, 5), rng.randint(0, 6)
    a = [[rand_rational(rng) for _ in range(n_cols)] for _ in range(n_rows)]
    kind = rng.choice(("feasible", "random", "zero"))
    if kind == "feasible":
        z = [abs(rand_rational(rng)) for _ in range(n_cols)]
        b = [sum(x * y for x, y in zip(row, z)) for row in a]
    else:
        b = [rand_rational(rng) if kind == "random" else Fraction(0) for _ in a]
    rows = [row + [rhs] for row, rhs in zip(a, b)]
    if rng.random() < 0.4:
        rows += [combination(rng, rows) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.3:
        rows.append([Fraction(0)] * n_cols + [rng.choice((Fraction(0), rand_rational(rng)))])
    rng.shuffle(rows)
    return [row[:-1] for row in rows], [row[-1] for row in rows]


class TestNonnegSolution:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_fraction_phase_1(self, seed, monkeypatch):
        pivots = []
        original = linprog._pivot

        def counting_pivot(tab, basis, row, col, prev):
            pivots.append(tab[row][col] < 0)
            return original(tab, basis, row, col, prev)

        monkeypatch.setattr(linprog, "_pivot", counting_pivot)
        rng = random.Random(300 + seed)
        feasible = set()
        for i in range(300):
            a, b = rand_system(rng)
            before = len(pivots)
            # the rows times a positive multiple of their lcm: any one
            # common factor gives the same z in the same pivots
            mult = lcm(*(x.denominator for x in chain(b, *a))) * (1 + i % 3)
            found = nonneg_solution([int_row([*row, rhs], mult) for row, rhs in zip(a, b)])
            z = None if found is None else tuple(Fraction(x, found[1]) for x in found[0])
            ref_z, ref_pivots = ref_nonneg_solution(a, b)
            assert z == ref_z
            assert len(pivots) - before == ref_pivots
            if z is not None:
                assert all(v >= 0 for v in z)
                assert [sum(x * y for x, y in zip(row, z)) for row in a] == list(b)
            feasible.add(z is not None)
        assert feasible == {True, False}
        # phase 1 pivots only on positive entries, so its scale stays positive
        assert pivots and not any(pivots)
