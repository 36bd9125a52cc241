"""Exact linear algebra layer: parsing, and the tests' references.  TestDet,
TestInverse and TestSolveLinear check the tests' reference determinant,
inverse and solve, which other tests compare the package's eliminations
and determinant tree against."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehlcp.errors import DimensionError, InputError
from ehlcp.rational import (
    identity,
    mat,
    rat,
    rat_str,
    require_square,
    vec,
)
from reference import det, inverse, mat_mul, mat_vec, solve_linear


def cofactor_det(m):
    """Independent determinant oracle by cofactor expansion along row 0."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for i, row in enumerate(m) if i > 0]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


class TestRat:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            (3, Fraction(3)),
            (Fraction(2, 7), Fraction(2, 7)),
            ("5/4", Fraction(5, 4)),
            ("-7", Fraction(-7)),
            ("0.25", Fraction(1, 4)),
            (0.5, Fraction(1, 2)),
            ("1e1000", Fraction(10**1000)),
        ],
    )
    def test_parses(self, raw, expected):
        assert rat(raw) == expected

    def test_decimal_float_reads_shortest_repr(self):
        # 0.1 is not representable in binary; the decimal reading is exact
        assert rat(0.1) == Fraction(1, 10)

    @pytest.mark.parametrize(
        "raw",
        [
            "abc", "1/0", True, None, [1], float("inf"), float("-inf"), float("nan"),
            "1e100000000", "-2.5E-1001",
        ],
    )
    def test_rejects_garbage(self, raw):
        with pytest.raises(InputError):
            rat(raw)

    def test_round_trip_through_strings(self):
        for value in (Fraction(3), Fraction(-5, 9), Fraction(0)):
            assert rat(rat_str(value)) == value


class TestDet:
    def test_identity(self):
        assert det(identity(2)) == 1

    def test_singular_rank_one(self):
        assert det(mat([[1, 1], [0, 0]])) == 0

    def test_hand_cofactor(self):
        assert det(mat([[2, -1], [-1, 2]])) == 3

    def test_matches_cofactor_oracle_exhaustive_2x2(self):
        entries = range(-2, 3)
        for a, b, c, d in product(entries, repeat=4):
            m = mat([[a, b], [c, d]])
            assert det(m) == cofactor_det(m)

    def test_matches_cofactor_oracle_sampled_3x3(self):
        # deterministic low-discrepancy sample of 1000 integer matrices
        state = 1
        for _ in range(1000):
            flat = []
            for _ in range(9):
                state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
                flat.append(state % 5 - 2)
            m = mat([flat[0:3], flat[3:6], flat[6:9]])
            assert det(m) == cofactor_det(m)

    def test_fractional_entries(self):
        m = mat([["1/2", "1/3"], ["1/4", "1/5"]])
        assert det(m) == Fraction(1, 10) - Fraction(1, 12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            det(mat([[1, 2, 3], [4, 5, 6]]))


class TestRequireSquare:
    def test_order(self):
        assert require_square(identity(3)) == 3

    def test_every_row_is_checked(self):
        # the first row has the right length; a later row is short
        with pytest.raises(DimensionError):
            require_square(((Fraction(1), Fraction(2)), (Fraction(3),)))
        with pytest.raises(DimensionError):
            det(((Fraction(1), Fraction(2)), (Fraction(3),)))


class TestInverse:
    def test_identity(self):
        assert inverse(identity(2)) == identity(2)

    def test_hand_adjugate(self):
        inv = inverse(mat([[2, -1], [-1, 2]]))
        assert inv == mat([["2/3", "1/3"], ["1/3", "2/3"]])

    def test_singular_returns_none(self):
        assert inverse(mat([[1, 1], [0, 0]])) is None

    @given(
        st.lists(
            st.lists(st.fractions(min_value=-3, max_value=3), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=100)
    def test_inverse_times_matrix_is_identity(self, rows):
        m = mat(rows) if any(any(x for x in r) for r in rows) else identity(3)
        inv = inverse(m)
        if inv is not None:
            assert mat_mul(inv, m) == identity(len(m))


class TestSolveLinear:
    def test_unique_identity(self):
        res = solve_linear(identity(2), vec([3, 4]))
        assert res.kind == "unique"
        assert res.particular == vec([3, 4])
        assert res.kernel_basis == ()

    def test_affine_rank_one(self):
        res = solve_linear(mat([[1, 1], [0, 0]]), vec([1, 0]))
        assert res.kind == "affine"
        assert res.particular == vec([1, 0])
        assert len(res.kernel_basis) == 1
        direction = res.kernel_basis[0]
        assert direction[0] == -direction[1] != 0

    def test_inconsistent(self):
        res = solve_linear(mat([[1, 1], [0, 0]]), (Fraction(0), Fraction(1)))
        assert res.kind == "inconsistent"
        assert res.particular is None

    @given(
        st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
            min_size=2,
            max_size=4,
        ),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    )
    @settings(max_examples=100)
    def test_residual_is_zero_on_whole_solution_set(self, rows, rhs):
        a = mat(rows)
        b = vec(rhs[: len(rows)])
        res = solve_linear(a, b)
        if res.kind == "inconsistent":
            return
        assert mat_vec(a, res.particular) == b
        for direction in res.kernel_basis:
            shifted = tuple(p + 2 * d for p, d in zip(res.particular, direction))
            assert mat_vec(a, shifted) == b

    def test_kernel_dimension_matches_rank_deficiency(self):
        res = solve_linear(mat([[1, 2, 3], [2, 4, 6]]), vec([1, 2]))
        assert res.kind == "affine"
        assert len(res.kernel_basis) == 2


class TestMatHygiene:
    def test_ragged_rows_rejected(self):
        with pytest.raises(InputError):
            mat([[1, 2], [3]])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            mat([])

    def test_canonical_form_preserved(self):
        # Fraction keeps gcd-reduced canonical form through arithmetic
        m = mat([["2/4", "6/9"], ["10/4", "-8/6"]])
        for row in m:
            for x in row:
                from math import gcd

                assert gcd(x.numerator, x.denominator) == 1
        d = det(m)
        from math import gcd

        assert gcd(d.numerator, d.denominator) == 1
