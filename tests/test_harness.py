"""Seeded generation, golden suites, and theorem verification plumbing."""

from fractions import Fraction
from itertools import combinations, product

import pytest

from ehlcp.classes import is_z
from ehlcp import harness
from ehlcp.errors import InputError, InvariantError
from ehlcp.harness import (
    FAMILIES,
    THEOREM_IDS,
    GenSpec,
    SplitMix64,
    _normalized,
    gen_instance,
    gen_tuple,
    nonconvex_pair,
    paper_example_tuple,
    subseed,
    two_solutions,
    verify_theorem,
)
from ehlcp.io import parse_instance
from ehlcp.rational import det, identity, inverse, mat, mat_vec, vec, zeros
from ehlcp.representatives import (
    MatrixTuple,
    PropertyVerdict,
    check_column_ndw_det,
    check_column_w,
    make_tuple,
)
from ehlcp.solver import is_solution, solve_all
from reference import (
    combine,
    mat_mul,
    midpoints_solve,
    ndw_two_solutions,
    representative_matrix,
    solution_points,
    stacked_matrix,
)


class TestSplitMix64:
    def test_known_stream(self):
        # reference values for seed 1234567: published SplitMix64 outputs
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973

    def test_seed_zero_stream(self):
        rng = SplitMix64(0)
        assert rng.next_u64() == 16294208416658607535

    def test_randint_bounds(self):
        rng = SplitMix64(99)
        values = [rng.randint(-2, 2) for _ in range(200)]
        assert all(-2 <= v <= 2 for v in values)
        assert len(set(values)) == 5

    def test_randint_rejects_empty_range(self):
        with pytest.raises(InputError):
            SplitMix64(0).randint(3, 2)

    def test_subseed_is_deterministic_and_spread(self):
        a = [subseed(5, i) for i in range(10)]
        b = [subseed(5, i) for i in range(10)]
        assert a == b
        assert len(set(a)) == 10


class TestGenerators:
    def test_same_seed_same_tuple(self):
        spec = GenSpec(2, 2, "generic", 2, 77)
        assert gen_tuple(spec) == gen_tuple(spec)

    def test_constructive_family_certified_column_w(self):
        t = gen_tuple(GenSpec(2, 1, "column_w_constructive", 2, 7))
        assert check_column_w(t).holds

    def test_z_structured_family_shape(self):
        t = gen_tuple(GenSpec(2, 2, "z_structured", 2, 3))
        assert t.mats[0] == identity(2)
        assert all(is_z(m).holds for m in t.mats[1:])

    def test_degenerate_family_fails_ndw(self):
        t = gen_tuple(GenSpec(2, 1, "degenerate", 2, 5))
        assert not check_column_ndw_det(t).holds

    def test_unknown_family_rejected(self):
        with pytest.raises(InputError):
            GenSpec(2, 1, "exotic", 2, 0)

    def test_instance_is_deterministic_with_positive_d(self):
        t = gen_tuple(GenSpec(2, 2, "generic", 2, 1))
        a = gen_instance(t, 42)
        b = gen_instance(t, 42)
        assert a.d == b.d and a.q == b.q
        assert all(x > 0 for dj in a.d for x in dj)


class TestNormalized:
    def test_matches_the_inverse_times_each_matrix(self):
        # (s, M) with s > 0 an int and M_i == s * inverse(C_0) * C_i exactly,
        # in ints, or None when C_0 is singular
        singular = 0
        for family in ("generic", "degenerate"):
            for n in (1, 2, 3):
                for k in (1, 2, 3):
                    for seed in range(3):
                        t = gen_tuple(GenSpec(n, k, family, 2, subseed(59, 100 * n + 10 * k + seed)))
                        # rational entries, so the RREF must clear denominators
                        scaled = make_tuple([[[Fraction(v, i + 2) for v in row] for row in m]
                                             for i, m in enumerate(t.mats)])
                        for u in (t, scaled):
                            inv = inverse(u.mats[0])
                            found = _normalized(u)
                            if inv is None:
                                assert found is None, u
                                continue
                            s, blocks = found
                            assert type(s) is int and s > 0, u
                            assert all(type(v) is int for m in blocks for row in m for v in row)
                            assert blocks == tuple(
                                tuple(tuple(s * v for v in row) for row in mat_mul(inv, m))
                                for m in u.mats[1:]), u
                        singular += inv is None
        assert singular > 0

    def test_scaled_tuple_has_the_normalized_column_w_verdict(self):
        # T2.1 checks (s I, M_1, ..., M_k) in place of the Fraction tuple
        # (I, C_0^{-1} C_1, ...): every representative determinant is s^n
        # times the normalized one, so the column W verdicts agree, on the
        # tuples sweep_instances draws and on rational copies, row r of C_i
        # divided by i + r + 2
        shapes = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3, 4) if (k + 1) ** n <= 27]
        verdicts = set()
        for family in FAMILIES:
            for n, k in shapes:
                for seed in range(4):
                    t = gen_tuple(GenSpec(n, k, family, 2, subseed(1600, seed)))
                    rational = make_tuple([[[v * Fraction(1, i + r + 2) for v in row]
                                            for r, row in enumerate(m)]
                                           for i, m in enumerate(t.mats)])
                    for u in (t, rational):
                        inv = inverse(u.mats[0])
                        if inv is None:
                            assert _normalized(u) is None
                            continue
                        exact = make_tuple([identity(n)] + [mat_mul(inv, m) for m in u.mats[1:]])
                        s, blocks = _normalized(u)
                        s_identity = tuple(tuple(s * (i == j) for j in range(n)) for i in range(n))
                        ours = MatrixTuple(n, k, (s_identity, *blocks))
                        for sel in product(range(k + 1), repeat=n):
                            assert (det(representative_matrix(ours, sel))
                                    == s ** n * det(representative_matrix(exact, sel))), u
                        w = check_column_w(exact).holds
                        assert check_column_w(ours).holds == w, u
                        verdicts.add(w)
        assert verdicts == {True, False}


def diagonal_combination(t, diags):
    """sum_i C_i D_i with D_i = diag(diags[i])."""
    return mat([[sum(m[row][r] * d[r] for m, d in zip(t.mats, diags)) for r in range(t.n)]
                for row in range(t.n)])


def singular_combination(t):
    """Diagonals D_0, ..., D_k, nonnegative with a positive entry in each
    column, whose combination is singular, for a tuple that check_column_w
    has found not column W.  From the scan's first determinants: the
    indicator of the first zero selector, or else a walk from the first
    positive selector to the first negative one, one position at a time,
    to the first zero or sign change.  Where the sign changes from delta to
    delta' at position r, column r takes 1 - lam on the block it leaves and
    lam on the block it enters, lam = delta / (delta - delta'), so the
    determinant (1 - lam) delta + lam delta' is 0 by multilinearity."""
    def indicator(sel):
        return [[Fraction(s == i) for s in sel] for i in range(t.k + 1)]

    first = t.det_scan.first
    if 0 in first:
        return indicator(first[0][0])
    sel, target = first[1][0], first[-1][0]
    delta = det(representative_matrix(t, sel))
    for r in range(t.n):
        if sel[r] == target[r]:
            continue
        nxt = sel[:r] + (target[r],) + sel[r + 1:]
        after = det(representative_matrix(t, nxt))
        if after == 0:
            return indicator(nxt)
        if (after > 0) != (delta > 0):
            lam = delta / (delta - after)
            diags = indicator(sel)
            diags[sel[r]][r], diags[nxt[r]][r] = 1 - lam, lam
            return diags
        sel, delta = nxt, after
    raise AssertionError("selectors of opposite sign without a sign change between them")


class TestDiagonalCombinations:
    """T2.1's clause on diagonal combinations is column W both ways, checked
    with rational.det, which shares no code with the determinant tree."""

    SHAPES = ((1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2))

    def test_column_w_combinations_are_nonsingular_with_the_scan_sign(self):
        tuples = [gen_tuple(GenSpec(n, k, "column_w_constructive", 2, subseed(61, 10 * n + k)))
                  for n, k in self.SHAPES]
        # a rational C, and the generic W tuples, which are not C_0 times diagonals
        tuples.append(make_tuple([[[Fraction(v, i + 2) for v in row] for row in m]
                                  for i, m in enumerate(tuples[-1].mats)]))
        generic = [gen_tuple(GenSpec(n, k, "generic", 2, subseed(64, seed)))
                   for n, k in ((2, 2), (3, 1)) for seed in range(300)]
        tuples += [t for t in generic if check_column_w(t).holds]
        assert len(tuples) == len(self.SHAPES) + 1 + 5  # 1 generic W tuple at (2,2), 4 at (3,1)
        rng = SplitMix64(62)
        for t in tuples:
            assert check_column_w(t).holds
            sign = 1 if 1 in t.det_scan.first else -1
            for _ in range(40):
                diags = [[Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(t.n)]
                         for _ in range(t.k + 1)]
                for r in range(t.n):
                    if not any(d[r] for d in diags):
                        diags[rng.randint(0, t.k)][r] = Fraction(1)
                value = det(diagonal_combination(t, diags))
                assert (value > 0) - (value < 0) == sign, (t, diags)

    def test_non_w_tuples_have_a_singular_combination(self):
        zeros_first = far_apart = 0
        for family in ("generic", "degenerate", "z_structured"):
            for n, k in self.SHAPES:
                for seed in range(8):
                    t = gen_tuple(GenSpec(n, k, family, 2, subseed(63, 100 * n + 10 * k + seed)))
                    if check_column_w(t).holds:
                        continue
                    first = t.det_scan.first
                    zeros_first += 0 in first
                    far_apart += 0 not in first and sum(
                        a != b for a, b in zip(first[1][0], first[-1][0])) >= 2
                    diags = singular_combination(t)
                    assert all(x >= 0 for d in diags for x in d)
                    assert all(any(d[r] for d in diags) for r in range(t.n))
                    assert det(diagonal_combination(t, diags)) == 0, t
        assert zeros_first > 0 and far_apart > 0, (zeros_first, far_apart)


class TestTwoSolutions:
    def test_endpoint_difference_is_in_the_kernel(self):
        t = paper_example_tuple()
        _, a, b = ndw_two_solutions(t)
        assert a != b
        assert not any(mat_vec(stacked_matrix(t), tuple(y - x for x, y in zip(a, b))))

    def test_endpoints_of_the_ndw_witness_solve(self):
        t = paper_example_tuple()
        inst, a, b = ndw_two_solutions(t)
        assert is_solution(inst, a)
        assert is_solution(inst, b)
        assert max(p.piece_dimension for p in solve_all(inst)) >= 1

    def test_ndw_tuple_has_no_witness(self):
        assert ndw_two_solutions(make_tuple([identity(2), identity(2)])) is None

    def test_end_block_bound_and_saturated_blocks(self):
        # u in block 2 of column 0 and block 1 of column 1 at k = 3, in
        # ker A since those columns of C_2 and C_1 are zero: block 1 of
        # column 0 is saturated at d = 1, and the end blocks get |u| + 1
        t = make_tuple([identity(2), [[1, 0], [0, 0]], [[0, 0], [0, 1]], identity(2)])
        u = vec([0, 0, 0, 3, -3, 0, 0, 0])
        inst, a, b = two_solutions(t, u)
        assert inst.d == ((Fraction(1), Fraction(4)), (Fraction(4), Fraction(1)))
        assert a == vec([0, 0, 1, 0, 3, 0, 0, 0])
        assert b == vec([0, 0, 1, 3, 0, 0, 0, 0])

    def test_zero_u_raises(self):
        t = paper_example_tuple()
        with pytest.raises(InvariantError, match="nonzero u"):
            two_solutions(t, zeros((t.k + 1) * t.n))

    def test_two_blocks_in_one_column_raise(self):
        # x_0 = (1, 0), x_1 = (1, 0) is in ker [I | -I], but column 0 has
        # two nonzero blocks
        t = make_tuple([identity(2), identity(2)])
        with pytest.raises(InvariantError, match="one nonzero block"):
            two_solutions(t, vec([1, 0, 1, 0]))

    def test_u_outside_the_kernel_raises(self):
        t = make_tuple([identity(2), identity(2)])
        with pytest.raises(InvariantError, match="endpoint"):
            two_solutions(t, vec([1, 0, 0, 0]))

    def test_convexity_suite_raises_when_the_ndw_deciders_disagree(self, monkeypatch):
        # a definition verdict that holds on a tuple with a singular
        # representative contradicts T4.1
        t = paper_example_tuple()
        assert not check_column_ndw_det(t).holds
        monkeypatch.setattr(harness, "check_column_ndw_def",
                            lambda t: PropertyVerdict("column_ndw_def", True))
        with pytest.raises(InvariantError, match="singular representative"):
            harness._convexity_violations(GenSpec(2, 2), 0, t, 3000)


def sweep_instances():
    """Random instances at entry ranges 1 and 2, plus the two-solution
    instance of the ND-W witness when the tuple has one, for four seeds of
    every family and every shape with (k+1)^n <= 27."""
    shapes = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3, 4) if (k + 1) ** n <= 27]
    for family in FAMILIES:
        for n, k in shapes:
            for seed in range(4):
                t = gen_tuple(GenSpec(n, k, family, 2, subseed(1600, seed)))
                for entry_range in (1, 2):
                    yield gen_instance(t, subseed(1601, seed), entry_range)
                found = ndw_two_solutions(t)
                if found is not None:
                    yield found[0]


class TestNonconvexPair:
    def test_agrees_with_the_sampled_combinations(self):
        # the sampler (piece points, half steps, weights 1/4, 1/2, 3/4) can
        # only miss a violation, and it tests every midpoint the oracle
        # does, so the two verdicts must agree; the pair must be the first
        # of the piece points, in piece order, whose midpoint fails
        half = Fraction(1, 2)
        nonconvex = 0
        for inst in sweep_instances():
            pieces = solve_all(inst)
            pair = nonconvex_pair(inst, pieces)
            assert (pair is None) == midpoints_solve(inst, solution_points(inst)), inst
            first = next((p for p in combinations([piece.point for piece in pieces], 2)
                          if not is_solution(inst, combine(*p, half))), None)
            assert pair == first, inst
            if pair is not None:
                nonconvex += 1
                a, b = pair
                assert is_solution(inst, a) and is_solution(inst, b)
                assert not is_solution(inst, combine(a, b, half))
        assert nonconvex >= 100

    def test_the_mean_point_decides_and_the_pairs_are_scanned_only_past_it(self, monkeypatch):
        # the mean of the piece points solves exactly when no pair of them
        # has a failing midpoint, and nonconvex_pair scans the pairs (one
        # combinations call) only when that mean fails
        half = Fraction(1, 2)
        scans = []
        real = harness.combinations
        monkeypatch.setattr(harness, "combinations",
                            lambda *args: scans.append(args) or real(*args))
        outcomes = set()
        for inst in sweep_instances():
            pieces = solve_all(inst)
            points = [piece.point for piece in pieces]
            if not points:
                continue
            mean = tuple(sum(column) / len(points) for column in zip(*points))
            no_pair = all(is_solution(inst, combine(a, b, half))
                          for a, b in combinations(points, 2))
            assert is_solution(inst, mean) == no_pair, inst
            scans.clear()
            assert (nonconvex_pair(inst, pieces) is None) == no_pair, inst
            assert len(scans) == (not no_pair), inst
            outcomes.add((no_pair, len(points) > 1))
        assert outcomes == {(True, False), (True, True), (False, True)}

    def test_a_failing_mean_with_no_failing_pair_is_an_invariant_error(self, monkeypatch):
        # both tests are exact, so forcing the mean to fail on a convex
        # solution set with several pieces is a contradiction the scan reports
        inst, pieces = next((inst, pieces) for inst in sweep_instances()
                            for pieces in [solve_all(inst)]
                            if len(pieces) > 2 and nonconvex_pair(inst, pieces) is None)
        real = harness.solves_numerators
        calls = []

        def mean_fails(inst, nums, den):
            calls.append(den)
            return len(calls) > 1 and real(inst, nums, den)

        monkeypatch.setattr(harness, "solves_numerators", mean_fails)
        with pytest.raises(InvariantError, match="no midpoint"):
            nonconvex_pair(inst, pieces)
        assert len(calls) == 1 + len(pieces) * (len(pieces) - 1) // 2


class TestVerifyTheorem:
    def test_all_suites_pass_at_small_trial_counts(self):
        for theorem_id in THEOREM_IDS:
            violations = verify_theorem(theorem_id, 10, GenSpec(2, 2, "generic", 2, 8))
            assert violations == [], (theorem_id, violations[:1])

    def test_unknown_id_rejected(self):
        with pytest.raises(InputError, match="unknown theorem id"):
            verify_theorem("T9.9", 1, GenSpec(2, 1, "generic", 2, 0))

    def test_violations_are_reported_not_swallowed(self, monkeypatch):
        # break one oracle on purpose; the suite must notice and report
        import ehlcp.harness as harness

        always_true = type("V", (), {"holds": True})()
        monkeypatch.setattr(
            harness, "check_column_ndw_def", lambda t: always_true
        )
        violations = verify_theorem("T4.1-ndw", 20, GenSpec(2, 2, "generic", 2, 8))
        assert violations
        assert all("seed" in v and "tuple" in v for v in violations)

    def test_t31_reports_one_nonconvex_pair_per_trial(self, monkeypatch):
        # with cS-W forced to hold, T3.1 must flag exactly the trials whose
        # solution sets the sampled combinations find non-convex, once each;
        # trial 2's tuple fails ND-W, and the two-solution instance of its
        # definition witness is non-convex
        import ehlcp.harness as harness

        always_true = type("V", (), {"holds": True})()
        monkeypatch.setattr(harness, "check_csw", lambda t: always_true)
        violations = verify_theorem("T3.1-convex", 20, GenSpec(2, 2, "generic", 2, 0))
        assert [v["trial"] for v in violations] == [0, 1, 2, 4, 7, 9, 12, 13, 14, 17, 21]
        for v in violations:
            inst = parse_instance(v["instance"])
            a, b = (vec(x) for x in v["points"])
            assert is_solution(inst, a) and is_solution(inst, b)
            assert not is_solution(inst, combine(a, b, Fraction(1, 2)))

    def test_t42_checks_the_csw_fast_paths_against_enumeration(self, monkeypatch):
        # check_csw's fast paths are T4.2 itself, so an enumeration that
        # finds a violation in every tuple must show up as violations
        import ehlcp.csw as csw

        monkeypatch.setattr(csw, "_first_violation", lambda t, mode: {"pattern": [], "x": []})
        spec = GenSpec(2, 2, "column_w_constructive", 2, 8)
        details = {v["detail"] for v in verify_theorem("T4.2-equiv", 10, spec)}
        assert "cS-W fast path disagrees with enumeration" in details
        assert "W <=> (cS-W and ND-W) violated" in details

    def test_t42_enumerates_once_below_the_column_w_fast_path(self, monkeypatch):
        # the paper example is cS-W without column W, so check_csw decides it
        # by enumeration and the suite takes that verdict instead of a rerun
        import ehlcp.csw as csw
        from ehlcp.harness import _check_t42

        calls = []
        first_violation = csw._first_violation

        def counted(t, mode):
            calls.append(mode)
            return first_violation(t, mode)

        monkeypatch.setattr(csw, "_first_violation", counted)
        spec = GenSpec(2, 2, "generic", 2, 0)
        assert _check_t42(spec, 0, paper_example_tuple()) == []
        assert calls == ["csw"]

    def test_t32_draws_no_tuple(self, monkeypatch):
        # _check_t32 builds its own tuple from the case's n and k, so its
        # trials draw none; each golden case supplies its own n and k
        import ehlcp.harness as harness

        def no_draw(spec):
            raise AssertionError(f"T3.2 drew a tuple for {spec}")

        sizes = []
        m_matrix = harness._m_matrix

        def spy(rng, n, b):
            sizes.append(n)
            return m_matrix(rng, n, b)

        monkeypatch.setattr(harness, "gen_tuple", no_draw)
        monkeypatch.setattr(harness, "_m_matrix", spy)
        assert verify_theorem("T3.2-unique", 4, GenSpec(3, 2, "generic", 2, 0)) == []
        assert sizes == [3] * 4 + [golden().n for golden in harness._INJECTED]

    def test_reports_are_seed_deterministic(self):
        spec = GenSpec(2, 1, "generic", 2, 33)
        assert verify_theorem("T4.3-chain", 15, spec) == verify_theorem("T4.3-chain", 15, spec)
