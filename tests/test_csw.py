"""Sign-pattern decision procedures for the column sufficient-W family."""

import json
import random
from fractions import Fraction
from itertools import chain, combinations, product

import pytest

from ehlcp import csw
from ehlcp.cli import main
from ehlcp.csw import (
    PATTERN_CAP,
    _violating_patterns,
    check_column_ndw_def,
    check_cone_csw,
    check_csw,
    check_x_column_sufficiency,
    pattern_realizable,
)
from ehlcp.errors import InvariantError, UndecidedSize
from ehlcp.harness import GenSpec, gen_tuple, subseed
from ehlcp.rational import identity, zeros
from ehlcp.representatives import MatrixTuple, _cocircuits, check_column_ndw_det, make_tuple
from reference import (
    det,
    mat_vec,
    ref_nonneg_solution,
    ref_rref,
    representative_matrix,
    solve_linear,
    stacked_matrix,
)


MODES = ("csw", "cone", "ndw")
# (n, k, seed) whose rational_rows tuple changes its witness under a factor per row
RATIONAL_SEEDS = [(2, 2, 23), (3, 1, 2)]


def identity_pair():
    return make_tuple([identity(2), identity(2)])


def reference_patterns(t, mode):
    """The stacked candidate patterns of a mode by their definition: every
    product over the symbol domains, filtered on its blocks, in row-major
    (-, 0, +) order."""
    k, n = t.k, t.n
    if mode == "cone":
        domains = [(-1, 0, 1) if i == 0 else (0, 1) for i in range(k + 1) for _ in range(n)]
    else:
        domains = [(-1, 0, 1)] * ((k + 1) * n)
    for flat in product(*domains):
        signs = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(k + 1))
        if mode == "ndw":
            # pairwise-disjoint supports, not identically zero
            if all(s == 0 for row in signs for s in row):
                continue
            if any(sum(signs[i][r] != 0 for i in range(k + 1)) > 1 for r in range(n)):
                continue
        else:
            # (a) x_i * x_j >= 0 componentwise for 1 <= i < j <= k
            if mode == "csw" and any(
                signs[i][r] * signs[j][r] < 0
                for i in range(1, k + 1)
                for j in range(i + 1, k + 1)
                for r in range(n)
            ):
                continue
            # (b) x_0 * x_i <= 0 componentwise
            if any(
                signs[0][r] * signs[i][r] > 0
                for i in range(1, k + 1)
                for r in range(n)
            ):
                continue
            # (c) some consecutive product nonzero
            if not any(
                signs[s][r] != 0 and signs[s + 1][r] != 0
                for s in range(k)
                for r in range(n)
            ):
                continue
        yield flat


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
            any(a * b for a, b in zip(xs[s], xs[s + 1])) for s in range(t.k)
        )
    else:
        assert any(v != 0 for x in xs for v in x)


def assert_realizes(t, signs, found):
    """found = (X, scale) holds int numerators over a positive int scale,
    and x = X / scale is a stacked kernel vector with exactly the stacked
    pattern's signs and |x_e| >= 1 on the support."""
    x, scale = found
    assert all(type(v) is int for v in (*x, scale)) and scale > 0
    assert len(x) == len(signs) and not any(mat_vec(stacked_matrix(t), [Fraction(v, scale) for v in x]))
    for v, s in zip(x, signs):
        assert (v > 0) - (v < 0) == s
        assert s == 0 or abs(v) >= scale


def rational_rows(t):
    """t with row r of every matrix divided by r + 2, so its rows have
    unequal denominators."""
    return make_tuple([[[v / (r + 2) for v in row] for r, row in enumerate(m)] for m in t.mats])


def tuple_kinds(n, k, seed):
    """Generic, rational, zero-column, rank-deficient and all-zero tuples."""
    generic = gen_tuple(GenSpec(n, k, "generic", 2, seed))
    zero_column = [
        [[0 if r == i % n else v for r, v in enumerate(row)] for row in m]
        for i, m in enumerate(generic.mats)
    ]
    yield generic
    yield rational_rows(generic)
    yield make_tuple(zero_column)
    if n > 1:
        # row n-1 repeats row 0 in every matrix, so A has rank < n
        yield make_tuple([list(m[:-1]) + [m[0]] for m in generic.mats])
    yield make_tuple([[[0] * n for _ in range(n)] for _ in range(k + 1)])


class TestPatternRealizable:
    @pytest.mark.parametrize("n, k", [(1, 1), (1, 2), (2, 1), (1, 3), (1, 4), (2, 2), (3, 1),
                                      (1, 5), (2, 3), (3, 2)])
    def test_agrees_with_the_max_t_lp_on_every_candidate(self, n, k):
        # The name is historical: the package has no max-t LP. A pattern
        # is realizable exactly when it is orthogonal to every cocircuit
        # of A (Bland & Las Vergnas 1978), so the brute-force cocircuits
        # give the verdict with no LP at all.
        # Every candidate pattern of every mode, plus the all-zero pattern;
        # the zero-column, rank-deficient and all-zero tuples up to
        # (k+1)n = 6, the generic tuple alone at 8 and 9
        tuples = list(tuple_kinds(n, k, subseed(59, 10 * n + k)))
        if (k + 1) * n > 6:
            tuples = tuples[:1]
        outcomes = {True: 0, False: 0}
        for t in tuples:
            cocircuits = reference_cocircuits(t)
            zero = ((0,) * ((k + 1) * n),)
            for signs in chain(zero, *(reference_patterns(t, mode) for mode in MODES)):
                x = pattern_realizable(t, signs)
                assert (x is not None) == orthogonal_to_all(signs, cocircuits), (t, signs)
                if x is not None:
                    assert_realizes(t, signs, x)
                outcomes[x is not None] += 1
        assert min(outcomes.values()) > 0, outcomes

    def test_all_zero_pattern_is_the_zero_tuple(self):
        t = identity_pair()
        assert pattern_realizable(t, (0, 0, 0, 0)) == ((0,) * 4, 1)

    def test_forced_equality_contradiction(self):
        t = identity_pair()
        assert pattern_realizable(t, (1, 0, 0, 0)) is None

    def test_zero_column_matrices_leave_later_vectors_free(self, zero_padded_identity):
        found = pattern_realizable(zero_padded_identity, (0, 0, 1, 0, 1, 0))
        assert found is not None
        x, _ = found
        assert x[:2] == (0, 0)
        assert x[2] > 0 and x[4] > 0

    def test_strictness_is_exact_not_epsilon(self):
        # any realizing vector has every signed component at magnitude >= 1
        t = make_tuple([identity(2), [[0, 1], [-1, 0]]])
        found = pattern_realizable(t, (0, 1, -1, 0))
        assert found is not None
        x, scale = found
        assert x[1] >= scale and x[2] <= -scale

    @pytest.mark.parametrize("n, k, seed", RATIONAL_SEEDS)
    def test_rational_rows_give_the_fraction_reference_vector(self, n, k, seed):
        # one common factor over A keeps phase 1 on the Fraction simplex's
        # pivot path, so every realizable candidate gets that simplex's
        # sigma (1 + z); a factor per row changes the reduced-cost row, so
        # Bland's entering column and, at these seeds, the vector
        t = rational_rows(gen_tuple(GenSpec(n, k, "generic", 2, seed)))
        candidates = dict.fromkeys(chain(*(reference_patterns(t, mode) for mode in MODES)))
        realized = 0
        for signs in candidates:
            support = [e for e, s in enumerate(signs) if s]
            m = [[row[e] * signs[e] for e in support] for row in stacked_matrix(t)]
            z, _ = ref_nonneg_solution(m, [-sum(row) for row in m])
            found = pattern_realizable(t, signs)
            assert (found is None) == (z is None), signs
            if found is not None:
                x, scale = found
                expected = [Fraction(0)] * len(signs)
                for e, v in zip(support, z):
                    expected[e] = signs[e] * (1 + v)
                assert [Fraction(v, scale) for v in x] == expected, signs
                realized += 1
        assert realized > 0


def reference_cocircuits(t):
    """_cocircuits without the zero-set skip: one solve per
    (rank-1)-subset."""
    rows = list(stacked_matrix(t))
    rank = len(ref_rref(rows))
    if rank == 0:
        return []
    basis = rows[:rank]
    width = len(basis[0])
    found = {}
    for cols in combinations(range(width), rank - 1):
        system = [[b[e] for b in basis] for e in cols] or [list(zeros(rank))]
        kernel = solve_linear(system, zeros(len(system))).kernel_basis
        if len(kernel) == 1:
            values = [sum(y * b[e] for y, b in zip(kernel[0], basis)) for e in range(width)]
            pos = sum(1 << e for e, v in enumerate(values) if v > 0)
            neg = sum(1 << e for e, v in enumerate(values) if v < 0)
            lowest = (pos | neg) & -(pos | neg)
            found[(neg, pos) if neg & lowest else (pos, neg)] = None
    return list(found)


def orthogonal_to_all(flat, cocircuits):
    """Vector/covector orthogonality of a stacked pattern, component by
    component: for every cocircuit the nonzero products X_e * Y_e are
    absent or of both signs."""
    for y_pos, y_neg in cocircuits:
        products = {s * ((y_pos >> e & 1) - (y_neg >> e & 1)) for e, s in enumerate(flat)}
        if len(products - {0}) == 1:
            return False
    return True


class TestCocircuitRealizability:
    def test_agrees_with_lp_on_every_sampled_pattern(self):
        # a sampled candidate is yielded iff the LP realizes it
        rng = random.Random(43)
        outcomes = {True: 0, False: 0}
        for n in (1, 2, 3):
            for k in (1, 2):
                for t in tuple_kinds(n, k, subseed(43, 10 * n + k)):
                    for mode in MODES:
                        yielded = set(_violating_patterns(t, mode))
                        patterns = list(reference_patterns(t, mode))
                        for signs in rng.sample(patterns, min(len(patterns), 12)):
                            realizable = pattern_realizable(t, signs) is not None
                            assert (signs in yielded) == realizable, (t, mode, signs)
                            outcomes[realizable] += 1
        # both answers occur often enough for the agreement to mean something
        assert min(outcomes.values()) >= 100, outcomes

    def test_cocircuits_match_the_unskipped_reference(self):
        # (n, k, seeds): up to the pattern cap (k+1)n = 12
        shapes = [(n, k, 3) for n in (1, 2, 3) for k in (1, 2)]
        shapes += [(4, 2, 3), (3, 3, 2), (2, 5, 2), (6, 1, 1)]
        for n, k, seeds in shapes:
            for seed in range(seeds):
                tuples = list(tuple_kinds(n, k, subseed(47, seed)))
                tuples += [gen_tuple(GenSpec(n, k, family, 2, seed))
                           for family in ("generic", "degenerate", "z_structured")]
                if (n, k) == (4, 2):
                    tuples.append(gen_tuple(GenSpec(n, k, "column_w_constructive", 2, seed)))
                for t in tuples:
                    assert list(_cocircuits(t)) == reference_cocircuits(t), t
        # 1 365 subsets of 4 of the 15 columns span only 5 hyperplanes
        t = gen_tuple(GenSpec(5, 2, "column_w_constructive", 2, 0))
        assert len(_cocircuits(t)) == 5
        assert list(_cocircuits(t)) == reference_cocircuits(t)

    def test_lp_disagreement_is_an_invariant_error(
        self, zero_padded_identity, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(csw, "pattern_realizable", lambda t, signs: None)
        with pytest.raises(InvariantError):
            check_csw(zero_padded_identity)
        path = tmp_path / "instance.json"
        path.write_text(
            '{"n": 2, "k": 2, "C": [[[1, 0], [0, 1]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]],'
            ' "d": [[1, 1]], "q": [0, 0]}',
            encoding="utf-8",
        )
        assert main(["check", "--file", str(path), "--props", "csw"]) == 4
        assert "cocircuit" in capsys.readouterr().err

    @pytest.mark.parametrize("z", [0, -1])
    def test_a_wrong_lp_vector_is_an_invariant_error(
        self, z, tmp_path, capsys, monkeypatch
    ):
        # 2 x_0 = -x_1: the witness of pattern (-, +) is (-1, 2).  z = 0
        # gives (-1, 1), off the kernel; z = -1 gives (0, 0), in the kernel
        # without the pattern's signs
        path = tmp_path / "instance.json"
        path.write_text('{"n": 1, "k": 1, "C": [[[2]], [[-1]]], "q": [0]}', encoding="utf-8")
        assert main(["check", "--file", str(path), "--props", "csw"]) == 0
        witness = json.loads(capsys.readouterr().out)["verdicts"]["csw"]["witness"]
        assert witness == {"pattern": [[-1], [1]], "x": [["-1"], ["2"]]}
        # a phase 1 that ends with every unknown at z, on scale 1
        monkeypatch.setattr(csw, "nonneg_solution", lambda rows: ([z] * (len(rows[0]) - 1), 1))
        assert main(["check", "--file", str(path), "--props", "csw"]) == 4
        assert "the LP's vector does not" in capsys.readouterr().err


def from_stacked(a, n, k):
    """The tuple whose stacked matrix A = [C_0 | -C_1 | ... | -C_k] is a."""
    return make_tuple([[[v if i == 0 else -v for v in row[i * n:(i + 1) * n]] for row in a]
                       for i in range(k + 1)])


# stacked matrices whose cocircuit tree reaches each kind of leaf
LEAF_CASES = {
    # rank 1: the row is the one cocircuit
    "rank_1": ([[1, 0, -2, 3], [2, 0, -4, 6]], 2, 1),
    # rank 2: column 1 is zero, columns 2 and 3 are parallel
    "rank_2": ([[1, 0, 2, 4, 1, -3], [2, 0, 1, 2, 5, 0]], 2, 2),
    # rank 3, three rows at the root: column 1 is zero on every row, so
    # the pairs (1, d) are skipped and (0, 1) is dependent, and columns 2
    # and 4 are parallel
    "rank_3": ([[1, 0, 2, 0, 4, -1], [0, 0, 1, 1, 2, 3], [2, 0, -1, 1, -2, 1]], 3, 1),
    # rank 4: column 6 is column 5 plus column 0, so the pair (5, 6) is
    # dependent below the pivot on column 0, and more pairs below later ones
    "rank_4": ([[1, 0, 0, 0, 1, 2, 3, 0], [0, 1, 0, 0, 1, 1, 1, 0],
                [0, 0, 1, 0, 0, 1, 1, 2], [0, 0, 0, 1, 0, 2, 2, 0]], 4, 1),
}


class TestCocircuitLeaves:
    @pytest.mark.parametrize("name", sorted(LEAF_CASES))
    def test_hand_built_leaves_match_the_reference(self, name):
        t = from_stacked(*LEAF_CASES[name])
        rank = len(ref_rref(list(stacked_matrix(t))))
        assert rank == int(name[-1])
        for u in (t, rational_rows(t)):
            assert list(_cocircuits(u)) == reference_cocircuits(u)


class TestIntegerWitness:
    def test_failing_deciders_build_and_check_the_witness_in_integers(
        self, zero_padded_identity, monkeypatch
    ):
        # the witness simplex and the A x = 0 check read int_stacked: one
        # nonneg_solution call per failing verdict, on exact int rows
        calls = []

        def spy(name, real):
            def wrapper(*args):
                calls.append((name, args))
                return real(*args)
            return wrapper

        monkeypatch.setattr(csw, "nonneg_solution", spy("nonneg_solution", csw.nonneg_solution))
        rational = make_tuple([[["1/2", 0], [0, "1/3"]], [["1/2", 0], [0, "-1/3"]]])
        singular = make_tuple([[["1/2", 0], [0, "1/3"]], [[0, 0], [0, "-1/3"]]])
        verdicts = [check_csw(zero_padded_identity), check_csw(rational),
                    check_cone_csw(zero_padded_identity), check_column_ndw_def(zero_padded_identity),
                    check_column_ndw_def(singular)]
        assert [v.holds for v in verdicts] == [False] * 5
        assert [v.decided_by for v in verdicts[:3]] == [
            "pattern_enumeration", "fast_path_ndw_not_w", "pattern_enumeration"]
        assert all("pattern" in v.witness for v in verdicts)
        assert [name for name, _ in calls] == ["nonneg_solution"] * 5
        assert all(type(v) is int for _, (rows,) in calls for row in rows for v in row)
        assert_realizes(rational, (1, 1, 1, -1), pattern_realizable(rational, (1, 1, 1, -1)))


class TestWitnessMemo:
    # (2,2) generic, seed 17: column ND-W holds, and cS-W and its cone
    # variant fail at the same first pattern
    MATS = [[[2, 1], [-1, -1]], [[-1, 1], [2, 0]], [[-2, 1], [-2, -1]]]

    def test_one_lp_per_pattern_and_tuple(self, monkeypatch):
        calls = []
        real = csw.nonneg_solution
        monkeypatch.setattr(csw, "nonneg_solution", lambda rows: calls.append(rows) or real(rows))
        t = make_tuple(self.MATS)
        verdicts = [check_csw(t), check_cone_csw(t), check_column_ndw_def(t)]
        assert [v.holds for v in verdicts] == [False, False, True]
        assert verdicts[0].witness == verdicts[1].witness
        assert len(calls) == 1
        # a fresh tuple has its own memo, and builds the same witness
        assert check_cone_csw(make_tuple(self.MATS)).witness == verdicts[1].witness
        assert len(calls) == 2

    def test_a_corrupted_memo_entry_is_an_invariant_error(self, tmp_path, capsys, monkeypatch):
        t = make_tuple(self.MATS)
        check_csw(t)
        (signs, (x, scale)), = t.witnesses.items()
        # the same signs, off the kernel
        t.witnesses[signs] = ((x[0] - scale,) + x[1:], scale)
        with pytest.raises(InvariantError):
            check_cone_csw(t)
        t.witnesses[signs] = None
        with pytest.raises(InvariantError):
            check_cone_csw(t)

        class Corrupt(dict):
            """Every pattern is cached, with the zero vector."""
            def __contains__(self, signs):
                return True

            def __getitem__(self, signs):
                return (0,) * len(signs), 1

        # every tuple the CLI builds is made with the corrupt memo
        post_init = MatrixTuple.__post_init__

        def corrupt_memo(self):
            post_init(self)
            object.__setattr__(self, "witnesses", Corrupt())

        monkeypatch.setattr(MatrixTuple, "__post_init__", corrupt_memo)
        path = tmp_path / "instance.json"
        instance = {"n": 2, "k": 2, "C": self.MATS, "d": [[1, 1]], "q": [0, 0]}
        path.write_text(json.dumps(instance), encoding="utf-8")
        assert main(["check", "--file", str(path), "--props", "cone_csw"]) == 4
        assert "the LP's vector does not" in capsys.readouterr().err


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
            assert check_csw(t).holds == (csw._first_violation(t, "csw") is None)

    def test_ndw_not_w_above_the_cap_carries_the_determinant_witness(self):
        # (k+1)*n = 14: no pattern enumeration, so the witness is the pair of
        # representative determinants of opposite sign
        flip = [list(row) for row in identity(7)]
        flip[-1][-1] = -1  # diag(1, ..., 1, -1) against I
        t = make_tuple([identity(7), flip])
        assert (t.k + 1) * t.n > PATTERN_CAP
        verdict = check_csw(t)
        assert not verdict.holds
        assert verdict.decided_by == "fast_path_ndw_not_w"
        first, second = verdict.witness, verdict.witness["conflict_with"]
        signs = []
        for entry in (first, second):
            d = det(representative_matrix(t, tuple(entry["selector"])))
            assert d == Fraction(entry["determinant"])
            signs.append(d > 0)
        assert signs[0] != signs[1]
        certificate = check_x_column_sufficiency(*t.mats).certificate
        assert "opposite sign" in certificate and "x_0 * x_1" not in certificate

    def test_ndw_not_w_fast_path_failure_has_witness(self):
        # diag(1,-1) against I: nondegenerate but mixed determinant signs
        t = make_tuple([identity(2), [[1, 0], [0, -1]]])
        verdict = check_csw(t)
        assert not verdict.holds
        assert verdict.decided_by == "fast_path_ndw_not_w"
        assert_witness_valid(t, verdict.witness, "consecutive")

    def test_cap_raises_undecided(self, worked_triple, monkeypatch):
        # (k+1)*n = 6 exceeds a cap of 5 for every sign-pattern decider
        monkeypatch.setattr(csw, "PATTERN_CAP", 5)
        for decide in (check_csw, check_cone_csw, check_column_ndw_def):
            with pytest.raises(UndecidedSize, match=r"undecided: size .*= 6 exceeds pattern cap 5\)"):
                decide(worked_triple)


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
        return all(pattern_realizable(t, signs) is None for signs in reference_patterns(t, "csw"))

    def test_matches_pruned_enumeration_on_small_tuples(self):
        for i in range(12):
            t = gen_tuple(GenSpec(1, 2, "generic", 2, subseed(37, i)))
            assert (csw._first_violation(t, "csw") is None) == self.unpruned_verdict(t)
        for i in range(12):
            t = gen_tuple(GenSpec(2, 1, "generic", 2, subseed(41, i)))
            assert (csw._first_violation(t, "csw") is None) == self.unpruned_verdict(t)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5) for k in range(1, 9)
                                      if (k + 1) * n <= 9])
    def test_generator_yields_the_filtered_product_in_order(self, mode, n, k):
        # exactly the realizable candidates, in the candidates' order: the
        # whole sequence, on the identity tuple and the generic,
        # rational-row, zero-column, rank-deficient and all-zero tuples (the
        # last has no cocircuits)
        yielded = 0
        for t in (make_tuple([identity(n)] * (k + 1)),
                  *tuple_kinds(n, k, subseed(53, 10 * n + k))):
            cocircuits = reference_cocircuits(t)
            expected = [signs for signs in reference_patterns(t, mode)
                        if orthogonal_to_all(signs, cocircuits)]
            assert list(_violating_patterns(t, mode)) == expected, t
            yielded += len(expected)
        assert yielded > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_first_pattern_past_64_cocircuits(self, mode):
        # a generic 5 x 10 A: the cocircuit masks span more than one 64-bit
        # word, and some candidate before the first pattern is orthogonal to
        # the first 64 cocircuits but not to a later one
        t = gen_tuple(GenSpec(5, 1, "generic", 2, subseed(67, 0)))
        cocircuits = reference_cocircuits(t)
        assert len(cocircuits) > 64
        before = []
        for signs in reference_patterns(t, mode):
            if orthogonal_to_all(signs, cocircuits):
                break
            before.append(signs)
        else:
            signs = None
        assert next(_violating_patterns(t, mode), None) == signs
        assert any(orthogonal_to_all(b, cocircuits[:64]) for b in before)

    def test_canonical_pattern_order_is_row_major(self):
        # x_0 + x_1 = 0: the first hypothesis-satisfying violating pattern
        # under (-, 0, +) order is realizable, so it comes first
        t = make_tuple([[[1]], [[-1]]])
        assert next(_violating_patterns(t, "csw")) == (-1, 1)
        # x_0 = x_1 realizes no violating pattern: cS-W holds
        assert next(_violating_patterns(make_tuple([[[1]], [[1]]]), "csw"), None) is None
