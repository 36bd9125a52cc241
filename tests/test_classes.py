"""Single-matrix class oracles: Z, M, P, nondegenerate, column sufficient."""

from fractions import Fraction
from itertools import combinations

import pytest

from ehlcp import classes
from ehlcp.classes import (
    MINOR_CAP,
    is_column_sufficient,
    is_m,
    is_nondegenerate,
    is_p,
    is_z,
)
from ehlcp.errors import CapExceeded, DimensionError
from ehlcp.harness import SplitMix64
from ehlcp.rational import det, identity, inverse, mat, mat_vec, rat_str
from ehlcp.representatives import check_column_w, check_column_w0, make_tuple

SKEW = [[0, 1], [-1, 0]]
TRIDIAG = [[2, -1], [-1, 2]]


class TestZ:
    def test_identity(self):
        assert is_z(identity(2)).holds

    def test_tridiagonal(self):
        assert is_z(mat(TRIDIAG)).holds

    def test_skew_fails_at_positive_offdiagonal(self):
        verdict = is_z(mat(SKEW))
        assert not verdict.holds
        assert verdict.witness == {"row": 1, "col": 2, "value": "1"}

    def test_non_square(self):
        with pytest.raises(DimensionError):
            is_z(mat([[1, 2]]))


class TestM:
    def test_identity(self):
        assert is_m(identity(2)).holds

    def test_tridiagonal_has_nonnegative_inverse(self):
        assert is_m(mat(TRIDIAG)).holds

    def test_dominated_diagonal_fails(self):
        verdict = is_m(mat([[1, -2], [-2, 1]]))
        assert not verdict.holds
        assert "inverse" in verdict.certificate

    def test_singular_z_fails(self):
        verdict = is_m(mat([[1, -1], [-1, 1]]))
        assert not verdict.holds
        assert verdict.witness == {"singular": True}

    def test_not_z_fails_before_inversion(self):
        assert not is_m(mat(SKEW)).holds

    def test_inverse_maps_positive_to_positive(self):
        # on sampled M-matrices, q > 0 implies inverse(m) q > 0
        rng = SplitMix64(3)
        for _ in range(50):
            nonneg = [[rng.randint(0, 2) for _ in range(2)] for _ in range(2)]
            s = 1 + max(sum(row) for row in nonneg)
            m = mat(
                [
                    [s - nonneg[i][j] if i == j else -nonneg[i][j] for j in range(2)]
                    for i in range(2)
                ]
            )
            assert is_m(m).holds
            q = (Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3)))
            assert all(v > 0 for v in mat_vec(inverse(m), q))


def principal_minors(m):
    """Reference: all 2^n - 1 principal minors as (index_set, value), index
    sets 1-based, by size and then lexicographically."""
    n = len(m)
    if n > MINOR_CAP:
        raise CapExceeded(f"principal minor enumeration capped at n <= {MINOR_CAP}")
    out = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            sub = tuple(tuple(m[i][j] for j in subset) for i in subset)
            out.append((tuple(i + 1 for i in subset), det(sub)))
    return out


class TestPrincipalMinors:
    def test_identity(self):
        assert principal_minors(identity(2)) == [
            ((1,), Fraction(1)),
            ((2,), Fraction(1)),
            ((1, 2), Fraction(1)),
        ]

    def test_tridiagonal(self):
        values = [v for _, v in principal_minors(mat(TRIDIAG))]
        assert values == [2, 2, 3]

    def test_skew(self):
        values = [v for _, v in principal_minors(mat(SKEW))]
        assert values == [0, 0, 1]

    def test_count_is_two_to_n_minus_one(self):
        assert len(principal_minors(identity(3))) == 7

    def test_cap(self):
        # MINOR_CAP is 16: a 17 x 17 matrix would need 2^17 - 1 minors
        with pytest.raises(CapExceeded):
            principal_minors(identity(17))


class TestMinorScan:
    @staticmethod
    def matrices():
        """Seeded n x n matrices, n = 1..6, entries in -2..2; every other one
        has a zero diagonal entry."""
        rng = SplitMix64(41)
        for n in range(1, 7):
            for trial in range(40):
                rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                if trial % 2:
                    r = rng.randint(0, n - 1)
                    rows[r][r] = 0
                yield mat(rows)
            yield identity(n)

    @pytest.mark.parametrize("oracle, bad", [
        (is_p, lambda v: v <= 0),
        (is_nondegenerate, lambda v: v == 0),
    ])
    def test_witness_is_the_first_bad_minor_of_the_reference(self, oracle, bad):
        outcomes = {True: 0, False: 0}
        for m in self.matrices():
            first = next(((s, v) for s, v in principal_minors(m) if bad(v)), None)
            verdict = oracle(m)
            assert verdict.holds == (first is None)
            if first is None:
                assert verdict.witness is None
            else:
                assert verdict.witness == {"index_set": list(first[0]), "minor": rat_str(first[1])}
            outcomes[verdict.holds] += 1
        assert outcomes[True] > 5 and outcomes[False] > 5

    def test_stops_at_the_first_bad_minor(self, monkeypatch):
        calls = []

        def counting_det(m):
            calls.append(len(m))
            return det(m)

        monkeypatch.setattr(classes, "det", counting_det)
        m = [[1] * 6 for _ in range(6)]
        m[0][0] = 0
        verdict = is_p(mat(m))
        assert verdict.witness == {"index_set": [1], "minor": "0"}
        assert calls == [1]

    @pytest.mark.parametrize("oracle", [is_p, is_nondegenerate])
    def test_cap(self, oracle):
        with pytest.raises(CapExceeded):
            oracle(identity(MINOR_CAP + 1))


class TestPAndNondegenerate:
    def test_tridiagonal_is_p_and_nondegenerate(self):
        assert is_p(mat(TRIDIAG)).holds
        assert is_nondegenerate(mat(TRIDIAG)).holds

    def test_skew_fails_both(self):
        assert not is_p(mat(SKEW)).holds
        assert not is_nondegenerate(mat(SKEW)).holds

    def test_negated_identity_nondegenerate_but_not_p(self):
        m = mat([[-1, 0], [0, -1]])
        assert not is_p(m).holds
        assert is_nondegenerate(m).holds

    def test_p_witness_names_the_offending_minor(self):
        verdict = is_p(mat(SKEW))
        assert verdict.witness == {"index_set": [1], "minor": "0"}


class TestColumnSufficient:
    def test_identity(self):
        assert is_column_sufficient(identity(2)).holds

    def test_skew_holds(self):
        assert is_column_sufficient(mat(SKEW)).holds

    def test_shear_fails_with_witness(self):
        verdict = is_column_sufficient(mat([[0, 0], [1, 0]]))
        assert not verdict.holds
        assert verdict.witness is not None

    def test_chain_to_w0_on_random_matrices(self):
        # P implies column sufficiency implies (I, m) has column W0
        rng = SplitMix64(9)
        for _ in range(200):
            m = mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            p = is_p(m).holds
            cs = is_column_sufficient(m).holds
            if p:
                assert cs
            if cs:
                assert check_column_w0(make_tuple([identity(2), m])).holds

    def test_p_matches_pair_column_w(self):
        # principal minors of m are the representative determinants of (I, m)
        rng = SplitMix64(10)
        for _ in range(200):
            m = mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            assert is_p(m).holds == check_column_w(make_tuple([identity(2), m])).holds

    def test_m_implies_p_on_sampled_m_matrices(self):
        rng = SplitMix64(11)
        for _ in range(50):
            nonneg = [[rng.randint(0, 2) for _ in range(2)] for _ in range(2)]
            s = 1 + max(sum(row) for row in nonneg)
            m = mat(
                [
                    [s - nonneg[i][j] if i == j else -nonneg[i][j] for j in range(2)]
                    for i in range(2)
                ]
            )
            assert is_m(m).holds
            assert is_p(m).holds
