"""Column representative enumeration and determinant-sign properties."""

import json
import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest

import ehlcp.representatives as representatives
from ehlcp.errors import CapExceeded, DimensionError, InputError
from ehlcp.harness import FAMILIES, GenSpec, gen_tuple, subseed
from ehlcp.rational import det, identity, int_row, mat
from ehlcp.representatives import (
    MatrixTuple,
    PropertyVerdict,
    check_column_ndw_det,
    check_column_w,
    check_column_w0,
    make_tuple,
    selector_count,
    selectors,
    unstack,
)
from reference import representative_matrix, stacked_matrix, walk_dets


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
        from ehlcp.rational import inverse
        from reference import mat_mul

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
        for mats in ([identity(2)], []):
            with pytest.raises(InputError, match="k >= 1"):
                make_tuple(mats)

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
                assert stacked_matrix(t) == tuple(tuple(row) for row in expected)
                assert t.int_stacked == tuple(tuple(t.int_scale * v for v in row)
                                              for row in expected)
                assert t.int_stacked is t.int_stacked  # computed once per tuple
                # the cached attribute is not a field: equality and hash ignore it
                assert t == twin and hash(t) == hash(twin)
                assert "int_stacked" in vars(t) and "int_stacked" not in vars(twin)
                assert not hasattr(t, "stacked")  # A is kept only in integers

    def test_int_stacked_is_stacked_over_one_common_factor(self):
        for k in (1, 2):
            for n in (1, 2, 3):
                t = gen_tuple(GenSpec(n, k, "generic", 3, subseed(79, 10 * n + k)))
                rational = make_tuple([[[v / (r + 2 + i) for v in row] for r, row in enumerate(m)]
                                       for i, m in enumerate(t.mats)])
                for u in (t, rational):
                    a = stacked_matrix(u)
                    mult = lcm(*(x.denominator for row in a for x in row))
                    assert u.int_scale == mult
                    assert u.int_stacked == tuple(tuple(int_row(row, mult)) for row in a)
                    assert all(type(v) is int for row in u.int_stacked for v in row)
                    assert u.int_stacked is u.int_stacked
        assert make_tuple([[["1/2"]], [["-1/3"]]]).int_stacked == ((3, 2),)

    def test_unstack_splits_into_blocks(self):
        flat = tuple(Fraction(v) for v in range(6))
        assert unstack(flat, 2) == ((0, 1), (2, 3), (4, 5))
        assert unstack(flat, 3) == ((0, 1, 2), (3, 4, 5))
        assert unstack(flat, 6) == (flat,)


def _per_selector_dets(t):
    """Reference route: a full determinant of every representative."""
    return [(sel, det(representative_matrix(t, sel))) for sel in selectors(t.n, t.k)]


def _tuple_of_kind(kind, n, k, rng):
    """A random tuple of n x n matrices; kind picks the structure that
    exercises one branch of the elimination tree."""
    def ints(low, high):
        return [[[rng.randint(low, high) for _ in range(n)] for _ in range(n)]
                for _ in range(k + 1)]

    if kind == "integer":
        mats = ints(-3, 3)
    elif kind == "rational":
        # one base denominator per (matrix, row), varied per entry, so rows
        # differ in their denominators and int_scale is more than most rows need
        mats = [
            [[Fraction(rng.randint(-5, 5), base * rng.choice((1, 2, 3))) for _ in range(n)]
             for base in (rng.randint(1, 7) for _ in range(n))]
            for _ in range(k + 1)
        ]
    elif kind == "zero_columns":
        # sparse entries, so pivots often sit below the first unused row,
        # plus whole candidate columns that are zero
        mats = ints(-1, 1)
        for _ in range(1 + n // 2):
            m, col = rng.randrange(k + 1), rng.randrange(n)
            for row in mats[m]:
                row[col] = 0
    elif kind == "dependent":
        # column j of C_s is a combination of earlier columns of other
        # matrices: singular exactly when the prefix picks those columns
        mats = ints(-3, 3)
        for j in range(1, n):
            s = rng.randrange(k + 1)
            picks = [(rng.randrange(k + 1), rng.randrange(j)) for _ in range(rng.randint(1, 2))]
            coeffs = [rng.choice((-2, -1, 1, 2)) for _ in picks]
            for r in range(n):
                mats[s][r][j] = sum(c * mats[m][r][col] for c, (m, col) in zip(coeffs, picks))
    elif kind == "all_zero":
        # every matrix zero, or all but one
        mats = [[[0] * n for _ in range(n)] for _ in range(k + 1)]
        if rng.random() < 0.5:
            mats[rng.randrange(k + 1)] = ints(-2, 2)[0]
    else:
        raise ValueError(kind)
    return make_tuple(mats)


_TREE_KINDS = ("integer", "rational", "zero_columns", "dependent", "all_zero")


class TestEliminationTree:
    @pytest.mark.parametrize("kind", _TREE_KINDS)
    def test_matches_the_per_selector_determinants(self, kind):
        tested = 0
        for n in range(1, 7):
            for k in range(1, 4):
                repeats = 4 if (k + 1) ** n <= 256 else 1
                for i in range(repeats):
                    rng = random.Random(f"{kind}-{n}-{k}-{i}")
                    t = _tuple_of_kind(kind, n, k, rng)
                    assert list(walk_dets(t)) == _per_selector_dets(t), (n, k, i)
                    tested += 1
        assert tested == 63  # 315 tuples over the five kinds

    def test_worked_triple(self, worked_triple):
        assert list(walk_dets(worked_triple)) == _per_selector_dets(worked_triple)

    def test_cap_is_checked_before_any_selector(self, monkeypatch):
        t = make_tuple([identity(2), identity(2)])
        monkeypatch.setattr(representatives, "SELECTOR_CAP", 3)
        with pytest.raises(CapExceeded):
            next(walk_dets(t))


def _count_pivots(monkeypatch):
    calls = []
    pivot_step = representatives.pivot_step

    def counted(*args):
        calls.append(args[1:3])
        return pivot_step(*args)

    monkeypatch.setattr(representatives, "pivot_step", counted)
    return calls


class TestLeafLevels:
    """The last three tree levels are read as 3 x 3 Laplace expansions of
    the three rows left, with no pivot_step: a generic walk pivots only at
    depths 0..n-4, and at n = 3 not at all."""

    @pytest.mark.parametrize("n, k", [(8, 1), (5, 2), (3, 2)])
    def test_walk_pivots_above_the_last_three_levels_only(self, monkeypatch, n, k):
        rng = random.Random(f"leaf-levels-{n}-{k}")
        # entries 1..9 with a random sign: no candidate column is zero
        t = make_tuple([[[rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n)]
                         for _ in range(n)] for _ in range(k + 1)])
        expected = _per_selector_dets(t)
        calls = _count_pivots(monkeypatch)
        assert list(walk_dets(t)) == expected
        bound = sum((k + 1) ** j for j in range(1, n - 2))
        assert len(calls) <= bound and (len(calls) > 0) == (bound > 0)


class TestTreeIsLazy:
    n = 19  # 2^19 selectors, inside SELECTOR_CAP

    def _mats(self, seed):
        rng = random.Random(seed)
        return [[[rng.randint(-3, 3) for _ in range(self.n)] for _ in range(self.n)]
                for _ in range(2)]

    def test_first_determinant_takes_at_most_n_pivots(self, monkeypatch):
        mats = self._mats(19)
        t = make_tuple(mats)
        calls = _count_pivots(monkeypatch)
        sel, d = next(walk_dets(t))
        assert sel == (0,) * self.n
        assert len(calls) <= self.n
        assert d == det(t.mats[0])

    def test_column_w_stops_at_a_singular_first_selector(self, monkeypatch):
        mats = self._mats(20)
        # the last column of C_0 is the sum of its others: the zero shows
        # only at the deepest level of the first path
        for row in mats[0]:
            row[-1] = sum(row[:-1])
        t = make_tuple(mats)
        calls = _count_pivots(monkeypatch)
        verdict = check_column_w(t)
        assert not verdict.holds
        assert verdict.witness["violations"] == [{"selector": [0] * self.n, "determinant": "0"}]
        assert len(calls) <= self.n


# Reference verdicts: the determinant checks as they were before the shared
# scan, each a loop over a walk of its own.
def _reference_column_w(t, exhaustive=False):
    sign = 0
    first_sel = None
    violations = []
    for sel, d in walk_dets(t):
        if d == 0:
            violations.append({"selector": list(sel), "determinant": "0"})
        elif sign == 0:
            sign = 1 if d > 0 else -1
            first_sel = {"selector": list(sel), "determinant": str(d)}
        elif (d > 0) != (sign > 0):
            violations.append(
                {"conflict_with": first_sel, "selector": list(sel), "determinant": str(d)}
            )
        if violations and not exhaustive:
            break
    if violations:
        return PropertyVerdict(
            "column_w", False, {"violations": violations},
            "a representative determinant is zero or two have opposite signs",
        )
    return PropertyVerdict(
        "column_w", True, None,
        f"all {selector_count(t.n, t.k)} representative determinants are "
        f"strictly {'positive' if sign >= 0 else 'negative'}",
    )


def _reference_column_w0(t):
    pos = neg = None
    for sel, d in walk_dets(t):
        if d > 0 and pos is None:
            pos = {"selector": list(sel), "determinant": str(d)}
        elif d < 0 and neg is None:
            neg = {"selector": list(sel), "determinant": str(d)}
        if pos is not None and neg is not None:
            return PropertyVerdict(
                "column_w0", False, {"positive": pos, "negative": neg},
                "representative determinants of both strict signs exist",
            )
    if pos is None and neg is None:
        return PropertyVerdict(
            "column_w0", False, {"all_determinants_zero": True},
            "every representative determinant is zero",
        )
    return PropertyVerdict(
        "column_w0", True, None,
        "all representative determinants share a weak sign and one is strict",
    )


def _reference_column_ndw_det(t):
    for sel, d in walk_dets(t):
        if d == 0:
            return PropertyVerdict(
                "column_ndw", False, {"selector": list(sel), "determinant": "0"},
                "a singular column representative exists",
            )
    return PropertyVerdict(
        "column_ndw", True, None,
        f"all {selector_count(t.n, t.k)} representative determinants are nonzero",
    )


_CHECKS = {
    "column_w": (lambda t, ex: check_column_w(t, exhaustive=ex), _reference_column_w),
    "column_w0": (lambda t, ex: check_column_w0(t), lambda t, ex: _reference_column_w0(t)),
    "column_ndw": (lambda t, ex: check_column_ndw_det(t),
                   lambda t, ex: _reference_column_ndw_det(t)),
}
_SCAN_KINDS = ("integer", "rational", "zero_columns", "dependent", "all_zero")


def _scan_tuples(kind):
    """Seeded tuples of one kind, plus column-W-constructive ones, on which
    column W holds."""
    for n in range(1, 5):
        for k in (1, 2):
            for i in range(3):
                yield _tuple_of_kind(kind, n, k, random.Random(f"scan-{kind}-{n}-{k}-{i}"))
            yield gen_tuple(GenSpec(n, k, "column_w_constructive", 2, subseed(29, 10 * n + k)))


def _fresh(t):
    """An equal tuple with nothing cached."""
    return MatrixTuple(t.n, t.k, t.mats)


def _run(t, order, exhaustive):
    return {name: _CHECKS[name][0](t, exhaustive) for name in order}


class TestSharedScan:
    @pytest.mark.parametrize("exhaustive", [False, True])
    @pytest.mark.parametrize("kind", _SCAN_KINDS)
    def test_every_call_order_gives_the_reference_verdicts(self, kind, exhaustive):
        outcomes = set()
        printed = ""
        for t in _scan_tuples(kind):
            expected = {name: ref(t, exhaustive) for name, (_, ref) in _CHECKS.items()}
            outcomes.add(tuple(v.holds for v in expected.values()))
            printed += json.dumps([v.witness for v in expected.values()])
            for order in permutations(_CHECKS):
                fresh = _fresh(t)
                assert _run(fresh, order, exhaustive) == expected, (t, order)
                # a second round reads the scan the first round left
                assert _run(fresh, order, exhaustive) == expected, (t, order)
                assert len(fresh.det_scan.first) <= 3
        # column W holds on the constructive tuples and fails on the others
        assert (True, True, True) in outcomes and len(outcomes) >= 2, outcomes
        if kind == "rational":
            # witnesses print determinants reduced over int_scale ** n as "p/q"
            assert "/" in printed

    def test_w_violation_is_the_earlier_of_zero_and_sign_conflict(self):
        # determinants in walk order (0,0), (0,1), (1,0), (1,1):
        # 1, 0, -1, 0 here, so column W0 walks past the first zero ...
        zero_first = make_tuple([identity(2), [[-1, 0], [0, 0]]])
        # ... and 1, -1, 0, 0 here, so column ND-W walks past the conflict
        conflict_first = make_tuple([identity(2), [[0, 0], [0, -1]]])
        for t, walk_past, expected in (
            (zero_first, check_column_w0, {"selector": [0, 1], "determinant": "0"}),
            (conflict_first, check_column_ndw_det,
             {"selector": [0, 1], "determinant": "-1",
              "conflict_with": {"selector": [0, 0], "determinant": "1"}}),
        ):
            walk_past(t)
            assert check_column_w(t).witness == {"violations": [expected]}
            assert check_column_w(t) == _reference_column_w(_fresh(t))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_lazy_violation_is_the_first_exhaustive_one(self, family):
        # the shapes of the solver's selector-tree tests, entry ranges 1 and
        # 2, so that zeros and sign conflicts both come first somewhere
        kinds = set()
        for n, k in [(n, k) for k in (1, 2, 3) for n in range(1, 7) if (k + 1) ** n <= 81]:
            for entry_range in (1, 2):
                for seed in range(3):
                    spec = GenSpec(n, k, family, entry_range, subseed(71, 100 * seed + 10 * n + k))
                    lazy = check_column_w(gen_tuple(spec))
                    full = check_column_w(gen_tuple(spec), exhaustive=True)
                    assert lazy.holds == full.holds, spec
                    if not lazy.holds:
                        first = full.witness["violations"][0]
                        assert lazy.witness == {"violations": [first]}, spec
                        kinds.add("conflict_with" in first)
        if family != "column_w_constructive":
            assert kinds == {False, True}, kinds

    def test_three_checks_cost_no_more_than_the_costliest(self, monkeypatch):
        calls = _count_pivots(monkeypatch)

        def cost(run, *args):
            before = len(calls)
            run(*args)
            return len(calls) - before

        for kind in _SCAN_KINDS:
            for t in _scan_tuples(kind):
                for exhaustive in (False, True):
                    # today's cost: each reference loop walks as far as it needs
                    alone = {name: cost(ref, _fresh(t), exhaustive)
                             for name, (_, ref) in _CHECKS.items()}
                    for name in _CHECKS:
                        assert cost(_run, _fresh(t), [name], exhaustive) == alone[name]
                    for order in permutations(_CHECKS):
                        together = cost(_run, _fresh(t), order, exhaustive)
                        if exhaustive and order[0] != "column_w":
                            # the exhaustive walk cannot start where the
                            # scan stopped: it costs what three walks did
                            assert together <= sum(alone.values()), (t, order)
                        else:
                            assert together <= max(alone.values()), (t, order, exhaustive)

    def test_cap_exceeded_on_every_call(self, monkeypatch):
        t = make_tuple([identity(2), identity(2)])
        monkeypatch.setattr(representatives, "SELECTOR_CAP", 3)
        for _ in range(2):
            for name in _CHECKS:
                for exhaustive in (False, True):
                    with pytest.raises(CapExceeded):
                        _CHECKS[name][0](t, exhaustive)
        assert "det_scan" not in vars(t)

    def test_cached_walks_are_not_fields(self):
        t = make_tuple([identity(2), [[0, 1], [-1, 0]]])
        twin = make_tuple([identity(2), [[0, 1], [-1, 0]]])
        check_column_w(t)
        assert t.det_scan is t.det_scan and t.cocircuits is t.cocircuits
        assert t == twin and hash(t) == hash(twin)
        assert "det_scan" in vars(t) and "det_scan" not in vars(twin)
