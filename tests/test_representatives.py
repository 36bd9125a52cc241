"""Column representative enumeration and determinant-sign properties."""

from fractions import Fraction

import pytest

from ehlcp.errors import DimensionError, InputError
from ehlcp.harness import GenSpec, gen_tuple, subseed
from ehlcp.rational import det, identity, mat
from ehlcp.representatives import (
    check_column_ndw_det,
    check_column_w,
    check_column_w0,
    make_tuple,
    representative_matrix,
    selector_count,
    selectors,
    unstack,
)


class TestSelectors:
    @pytest.mark.parametrize("n, k, expected", [(1, 1, 2), (2, 2, 9), (3, 1, 8)])
    def test_count(self, n, k, expected):
        assert selector_count(n, k) == expected

    def test_enumeration_visits_each_selector_once(self):
        seen = list(selectors(2, 2))
        assert len(seen) == 9
        assert len(set(seen)) == 9

    def test_lexicographic_order_first_column_most_significant(self):
        assert list(selectors(2, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_invalid_sizes(self):
        with pytest.raises(InputError):
            selector_count(0, 1)


class TestRepresentativeMatrix:
    def test_identical_matrices(self):
        t = make_tuple([identity(2), identity(2)])
        for sel in selectors(2, 1):
            assert representative_matrix(t, sel) == identity(2)

    def test_worked_triple_splice(self, worked_triple):
        rep = representative_matrix(worked_triple, (0, 1))
        assert rep == mat([[1, 1], [0, 0]])
        assert det(rep) == 0

    def test_diagonal_splice(self):
        t = make_tuple([identity(2), [[2, 0], [0, 3]]])
        assert representative_matrix(t, (1, 0)) == mat([[2, 0], [0, 1]])

    def test_selector_out_of_range(self):
        t = make_tuple([identity(2), identity(2)])
        with pytest.raises(InputError):
            representative_matrix(t, (0, 5))
        with pytest.raises(DimensionError):
            representative_matrix(t, (0,))


class TestColumnW:
    def test_identity_pair_holds(self):
        assert check_column_w(make_tuple([identity(2), identity(2)])).holds

    def test_worked_triple_fails_with_zero_det_witness(self, worked_triple):
        verdict = check_column_w(worked_triple)
        assert not verdict.holds
        violation = verdict.witness["violations"][0]
        assert violation["determinant"] == "0"
        sel = tuple(violation["selector"])
        assert det(representative_matrix(worked_triple, sel)) == 0

    def test_positive_diagonal_pair_holds(self):
        t = make_tuple([identity(2), [[2, 0], [0, 3]]])
        verdict = check_column_w(t)
        assert verdict.holds
        dets = sorted(det(representative_matrix(t, s)) for s in selectors(2, 1))
        assert dets == [1, 2, 3, 6]

    def test_mixed_signs_fail(self):
        verdict = check_column_w(make_tuple([identity(2), [[-1, 0], [0, -1]]]))
        assert not verdict.holds

    def test_exhaustive_reports_every_violation(self, worked_triple):
        verdict = check_column_w(worked_triple, exhaustive=True)
        zero_selectors = [
            v["selector"] for v in verdict.witness["violations"]
            if v.get("determinant") == "0"
        ]
        expected = [
            list(s)
            for s in selectors(2, 2)
            if det(representative_matrix(worked_triple, s)) == 0
        ]
        assert zero_selectors == expected


class TestColumnW0:
    def test_opposite_signs_fail(self):
        verdict = check_column_w0(make_tuple([identity(2), [[-1, 0], [0, -1]]]))
        assert not verdict.holds
        assert verdict.witness["positive"] and verdict.witness["negative"]

    def test_worked_triple_holds(self, worked_triple):
        assert check_column_w0(worked_triple).holds

    def test_zero_padded_identity_holds(self, zero_padded_identity):
        assert check_column_w0(zero_padded_identity).holds

    def test_all_zero_determinants_fail(self):
        z = [[0, 0], [0, 0]]
        verdict = check_column_w0(make_tuple([z, z]))
        assert not verdict.holds
        assert verdict.witness == {"all_determinants_zero": True}


class TestColumnNdwDet:
    def test_sign_flip_pair_holds(self):
        assert check_column_ndw_det(make_tuple([identity(2), [[-1, 0], [0, -1]]])).holds

    def test_worked_triple_fails(self, worked_triple):
        verdict = check_column_ndw_det(worked_triple)
        assert not verdict.holds
        sel = tuple(verdict.witness["selector"])
        assert det(representative_matrix(worked_triple, sel)) == 0

    def test_identity_pair_holds(self):
        assert check_column_ndw_det(make_tuple([identity(2), identity(2)])).holds


class TestImplications:
    def test_w_implies_ndw_and_w0_on_generated_tuples(self):
        for i in range(60):
            k = 1 + i % 2
            t = gen_tuple(GenSpec(2, k, "generic", 2, subseed(11, i)))
            if check_column_w(t).holds:
                assert check_column_ndw_det(t).holds
                assert check_column_w0(t).holds

    def test_normalized_tuple_equivalence(self):
        # W holds iff C_0 invertible and the C_0^{-1}-normalized tuple has W
        from ehlcp.rational import inverse, mat_mul

        for i in range(40):
            t = gen_tuple(GenSpec(2, 1, "generic", 2, subseed(13, i)))
            w = check_column_w(t).holds
            inv = inverse(t.mats[0])
            if inv is None:
                assert not w
                continue
            normalized = make_tuple(
                [identity(t.n)] + [mat_mul(inv, m) for m in t.mats[1:]]
            )
            assert w == check_column_w(normalized).holds

    def test_nonnegative_diagonal_combinations_nonsingular_under_w(self):
        # under W, sum C_i D_i with nonnegative diagonals and positive total
        # diagonal stays nonsingular
        t = make_tuple([identity(2), [[2, 0], [0, 3]]])
        assert check_column_w(t).holds
        rng_state = [0]

        def nxt(bound):
            rng_state[0] = (rng_state[0] * 48271 + 11) % (2**31 - 1)
            return rng_state[0] % (bound + 1)

        for _ in range(100):
            diags = [[nxt(2) for _ in range(2)] for _ in range(2)]
            for r in range(2):
                if all(diags[i][r] == 0 for i in range(2)):
                    diags[0][r] = 1
            combined = mat(
                [
                    [
                        sum(t.mats[i][row][col] * diags[i][col] for i in range(2))
                        for col in range(2)
                    ]
                    for row in range(2)
                ]
            )
            assert det(combined) != 0

    def test_witness_determinant_revalidates(self):
        for i in range(40):
            t = gen_tuple(GenSpec(2, 2, "generic", 2, subseed(17, i)))
            verdict = check_column_ndw_det(t)
            if not verdict.holds:
                sel = tuple(verdict.witness["selector"])
                assert det(representative_matrix(t, sel)) == Fraction(0)


class TestTupleValidation:
    def test_needs_k_plus_one_matrices(self):
        with pytest.raises(InputError):
            make_tuple([identity(2)])

    def test_all_matrices_square_same_size(self):
        with pytest.raises(DimensionError):
            make_tuple([identity(2), [[1, 2, 3], [4, 5, 6], [7, 8, 9]]])


class TestStacked:
    def test_stacked_is_the_signed_block_row(self):
        for k in (1, 2, 3):
            for n in (1, 2, 3):
                t = gen_tuple(GenSpec(n, k, "generic", 3, subseed(71, 10 * n + k)))
                expected = [[None] * ((k + 1) * n) for _ in range(n)]
                for i in range(k + 1):
                    for row in range(n):
                        for r in range(n):
                            value = t.mats[i][row][r]
                            expected[row][i * n + r] = value if i == 0 else -value
                twin = gen_tuple(GenSpec(n, k, "generic", 3, subseed(71, 10 * n + k)))
                assert t == twin and hash(t) == hash(twin)
                assert t.stacked == tuple(tuple(row) for row in expected)
                assert t.stacked is t.stacked  # computed once per tuple
                # the cached attribute is not a field: equality and hash ignore it
                assert t == twin and hash(t) == hash(twin)
                assert "stacked" in vars(t) and "stacked" not in vars(twin)

    def test_unstack_splits_into_blocks(self):
        flat = tuple(Fraction(v) for v in range(6))
        assert unstack(flat, 2) == ((0, 1), (2, 3), (4, 5))
        assert unstack(flat, 3) == ((0, 1, 2), (3, 4, 5))
        assert unstack(flat, 6) == (flat,)
