"""Sign-pattern decision procedures for the column sufficient-W family."""

from fractions import Fraction
from itertools import product

import pytest

from ehlcp.csw import (
    _violating_patterns,
    check_column_ndw_def,
    check_cone_csw,
    check_csw,
    check_x_column_sufficiency,
    pattern_cap,
    pattern_realizable,
)
from ehlcp.errors import UndecidedSize
from ehlcp.harness import GenSpec, gen_tuple, subseed
from ehlcp.rational import identity, mat_vec, pointwise
from ehlcp.representatives import check_column_ndw_det, make_tuple


def identity_pair():
    return make_tuple([identity(2), identity(2)])


def assert_witness_valid(t, witness, conclusion):
    """The JSON witness must solve the homogeneous system exactly, match its
    pattern, and violate the stated conclusion."""
    pattern = witness["pattern"]
    xs = [tuple(Fraction(v) for v in x) for x in witness["x"]]
    lhs = mat_vec(t.mats[0], xs[0])
    rhs = [
        sum(mat_vec(t.mats[i], xs[i])[r] for i in range(1, t.k + 1))
        for r in range(t.n)
    ]
    assert list(lhs) == rhs
    for i in range(t.k + 1):
        for r in range(t.n):
            s = pattern[i][r]
            v = xs[i][r]
            assert (s == 0 and v == 0) or (s > 0 and v > 0) or (s < 0 and v < 0)
    if conclusion == "consecutive":
        assert any(
            any(v != 0 for v in pointwise(xs[s], xs[s + 1])) for s in range(t.k)
        )
    else:
        assert any(v != 0 for x in xs for v in x)


class TestPatternRealizable:
    def test_all_zero_pattern_is_the_zero_tuple(self):
        t = identity_pair()
        p = ((0, 0), (0, 0))
        xs = pattern_realizable(t, p)
        assert xs == (
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0)),
        )

    def test_forced_equality_contradiction(self):
        t = identity_pair()
        p = ((1, 0), (0, 0))
        assert pattern_realizable(t, p) is None

    def test_zero_column_matrices_leave_later_vectors_free(self, zero_padded_identity):
        p = ((0, 0), (1, 0), (1, 0))
        xs = pattern_realizable(zero_padded_identity, p)
        assert xs is not None
        assert xs[0] == (Fraction(0), Fraction(0))
        assert xs[1][0] > 0 and xs[2][0] > 0

    def test_strictness_is_exact_not_epsilon(self):
        # any realizing vector has every signed component at magnitude >= 1
        t = make_tuple([identity(2), [[0, 1], [-1, 0]]])
        p = ((0, 1), (-1, 0))
        xs = pattern_realizable(t, p)
        assert xs is not None
        assert xs[0][1] >= 1 and xs[1][0] <= -1


class TestCheckCsw:
    def test_worked_triple_holds_via_enumeration(self, worked_triple):
        verdict = check_csw(worked_triple)
        assert verdict.holds
        assert verdict.decided_by == "pattern_enumeration"

    def test_zero_padded_identity_fails(self, zero_padded_identity):
        verdict = check_csw(zero_padded_identity)
        assert not verdict.holds
        assert_witness_valid(zero_padded_identity, verdict.witness, "consecutive")

    def test_identity_pair_fast_path(self):
        verdict = check_csw(identity_pair())
        assert verdict.holds
        assert verdict.decided_by == "fast_path_column_w"

    def test_fast_paths_agree_with_enumeration(self):
        for i in range(40):
            k = 1 + i % 2
            t = gen_tuple(GenSpec(2, k, "generic", 2, subseed(23, i)))
            fast = check_csw(t)
            slow = check_csw(t, use_fast_paths=False)
            assert fast.holds == slow.holds

    def test_ndw_not_w_fast_path_failure_has_witness(self):
        # diag(1,-1) against I: nondegenerate but mixed determinant signs
        t = make_tuple([identity(2), [[1, 0], [0, -1]]])
        verdict = check_csw(t)
        assert not verdict.holds
        assert verdict.decided_by == "fast_path_ndw_not_w"
        assert_witness_valid(t, verdict.witness, "consecutive")

    def test_cap_raises_undecided(self, worked_triple):
        with pytest.raises(UndecidedSize):
            check_csw(worked_triple, cap=5, use_fast_paths=False)

    def test_env_cap_override(self, worked_triple, monkeypatch):
        monkeypatch.setenv("EHLCP_MAX_PATTERN_COMPONENTS", "5")
        assert pattern_cap() == 5
        with pytest.raises(UndecidedSize):
            check_csw(worked_triple, use_fast_paths=False)


class TestConeCsw:
    def test_identity_pair_fast_path(self):
        assert check_cone_csw(identity_pair()).holds

    def test_zero_padded_identity_fails_with_nonnegative_witness(
        self, zero_padded_identity
    ):
        verdict = check_cone_csw(zero_padded_identity)
        assert not verdict.holds
        assert_witness_valid(zero_padded_identity, verdict.witness, "consecutive")
        assert all(Fraction(v) >= 0 for x in verdict.witness["x"][1:] for v in x)

    def test_csw_implies_cone_csw(self):
        for i in range(30):
            t = gen_tuple(GenSpec(2, 2, "generic", 2, subseed(29, i)))
            if check_csw(t).holds:
                assert check_cone_csw(t).holds


class TestNdwDef:
    def test_identity_pair_holds(self):
        assert check_column_ndw_def(identity_pair()).holds

    def test_worked_triple_fails(self, worked_triple):
        verdict = check_column_ndw_def(worked_triple)
        assert not verdict.holds
        assert verdict.witness["pattern"] is not None

    def test_sign_flip_pair_holds(self):
        assert check_column_ndw_def(make_tuple([identity(2), [[-1, 0], [0, -1]]])).holds

    def test_agrees_with_determinant_route(self):
        for i in range(40):
            k = 1 + i % 2
            t = gen_tuple(GenSpec(2, k, "generic", 2, subseed(31, i)))
            assert check_column_ndw_def(t).holds == check_column_ndw_det(t).holds


class TestXColumnSufficiency:
    def test_identity_pair(self):
        assert check_x_column_sufficiency(identity(2), identity(2)).holds

    def test_skew_pair(self):
        assert check_x_column_sufficiency(identity(2), ((0, 1), (-1, 0))).holds

    def test_shear_pair_fails(self):
        verdict = check_x_column_sufficiency(identity(2), ((0, 0), (1, 0)))
        assert not verdict.holds
        assert verdict.witness is not None


class TestPruningSoundness:
    def unpruned_verdict(self, t):
        """Re-decide cS-W by enumerating every pattern and filtering with the
        definition directly, bypassing the generator's pruning rules."""
        k, n = t.k, t.n
        for flat in product((-1, 0, 1), repeat=(k + 1) * n):
            signs = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(k + 1))
            if any(
                signs[i][r] * signs[j][r] < 0
                for i in range(1, k + 1)
                for j in range(i + 1, k + 1)
                for r in range(n)
            ):
                continue
            if any(
                signs[0][r] * signs[i][r] > 0
                for i in range(1, k + 1)
                for r in range(n)
            ):
                continue
            if not any(
                signs[s][r] != 0 and signs[s + 1][r] != 0
                for s in range(k)
                for r in range(n)
            ):
                continue
            if pattern_realizable(t, signs) is not None:
                return False
        return True

    def test_matches_pruned_enumeration_on_small_tuples(self):
        for i in range(12):
            t = gen_tuple(GenSpec(1, 2, "generic", 2, subseed(37, i)))
            assert check_csw(t, use_fast_paths=False).holds == self.unpruned_verdict(t)
        for i in range(12):
            t = gen_tuple(GenSpec(2, 1, "generic", 2, subseed(41, i)))
            assert check_csw(t, use_fast_paths=False).holds == self.unpruned_verdict(t)

    def test_canonical_pattern_order_is_row_major(self):
        t = make_tuple([[[1]], [[1]]])
        first = next(iter(_violating_patterns(t, "csw")))
        # first hypothesis-satisfying violating pattern under (-, 0, +) order
        assert first == ((-1,), (1,))
