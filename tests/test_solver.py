"""Column-selector solver: validity checks, pieces, golden output, closed form."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from ehlcp import linprog, solver
from ehlcp.errors import CapExceeded, DimensionError, InputError, InvariantError
from ehlcp.harness import (
    GenSpec,
    SplitMix64,
    gen_instance,
    gen_tuple,
    subseed,
)
from ehlcp.io import dump_json, parse_instance, piece_to_json
from ehlcp.rational import identity, vec
from ehlcp.representatives import make_tuple, selectors, unstack
from ehlcp.solver import (
    EhlcpInstance,
    branch_label,
    is_solution,
    solve_all,
)
from reference import (
    affine_piece_lp,
    det,
    mat_vec,
    ndw_two_solutions,
    over_common_denominator,
    representative_matrix,
    selector_system,
    solve_branch,
    solve_linear,
    stacked_matrix,
)


def F(x):
    return Fraction(x)


def split_instance():
    """C = (I, I), q = (1, -2): unique solution x0 = q+, x1 = q-."""
    return EhlcpInstance(make_tuple([identity(2), identity(2)]), (), (F(1), F(-2)))


def segment_instance():
    """C = (I, skew), q = (0, 1): the solution set contains a segment."""
    t = make_tuple([identity(2), [[0, 1], [-1, 0]]])
    return EhlcpInstance(t, (), (F(0), F(1)))


def chain_instance():
    t = make_tuple([identity(2), identity(2), identity(2)])
    return EhlcpInstance(t, ((F(1), F(1)),), (F(2), F(-1)))


def record_selectors(monkeypatch):
    """List that collects every selector the selector tree decides for
    solve_all, in the order it decides them."""
    decided = []
    original = solver._selector_pieces

    def spy(inst):
        for selector, piece in original(inst):
            decided.append(selector)
            yield selector, piece

    monkeypatch.setattr(solver, "_selector_pieces", spy)
    return decided


def reference_solve_all(inst):
    """solve_all written out per selector: solve_branch on every selector
    in branch-label order, keeping the first piece of each repeated
    dimension-0 point."""
    t = inst.matrix_tuple
    pieces, seen = [], set()
    for s in sorted(selectors(t.n, t.k), key=lambda s: branch_label(s, t.k)):
        piece = solve_branch(inst, s)
        if piece is None:
            continue
        if piece.piece_dimension == 0:
            if piece.point in seen:
                continue
            seen.add(piece.point)
        pieces.append(piece)
    return pieces


def assert_pieces_match_reference(inst):
    """Every (selector, piece) of the tree, None included, is the
    reference solve_branch's for that selector; returns the pairs."""
    decided = list(solver._selector_pieces(inst))
    for s, piece in decided:
        assert piece == solve_branch(inst, s), s
    return decided


def from_scratch(inst, s):
    """(kind, broken) of one selector solved on its own: kind is
    "nonsingular" when its representative matrix is, else "inconsistent"
    or "singular" by solve_linear on its system; broken tells whether the
    unique point of a nonsingular selector breaks a bound."""
    _, a, rhs, _, box = selector_system(inst, s)
    res = solve_linear(a, rhs)
    if det(representative_matrix(inst.matrix_tuple, s)):
        y = res.particular
        return "nonsingular", any(sign * y[c] < bound for c, sign, bound in box)
    return ("inconsistent" if res.kind == "inconsistent" else "singular"), False


def consistent_singular(inst):
    """The selectors, in selectors order, whose representative matrix is
    singular and whose system is consistent."""
    t = inst.matrix_tuple
    return [s for s in selectors(t.n, t.k) if from_scratch(inst, s)[0] == "singular"]


def pieces_json(pieces):
    return dump_json([piece_to_json(p) for p in pieces])


def instance_through_point(t, seed):
    """Random d and a q that makes a random selector point a solution."""
    rng = SplitMix64(seed)
    n, k = t.n, t.k
    d = tuple(tuple(F(rng.randint(1, 2)) for _ in range(n)) for _ in range(k - 1))
    xs = [[F(0)] * n for _ in range(k + 1)]
    for r in range(n):
        m = rng.randint(0, k)
        for j in range(1, m):
            xs[j][r] = d[j - 1][r]
        xs[m][r] = F(rng.randint(0, 2 if m in (0, k) else int(d[m - 1][r])))
    lhs = mat_vec(t.mats[0], xs[0])
    q = tuple(
        lhs[r] - sum(mat_vec(t.mats[i], xs[i])[r] for i in range(1, k + 1))
        for r in range(n)
    )
    return EhlcpInstance(t, d, q)


# The segment-* instances as instance_to_json documents.  Each was built
# from a degenerate tuple at subseed(107, 10 * n + k) and the kernel of its
# first singular representative, a construction the package no longer has;
# they are kept as data so that GOLDEN_DIGESTS still applies to them.
SEGMENT_INSTANCES = {
    "n1k1":
        '{"n":1,"k":1,"C":[[["-2"]],[["0"]]],"d":[],"q":["0"]}',
    "n1k2":
        '{"n":1,"k":2,"C":[[["-1"]],[["0"]],[["-2"]]],"d":[["2"]],"q":["0"]}',
    "n1k3":
        '{"n":1,"k":3,"C":[[["2"]],[["0"]],[["-2"]],[["-1"]]],"d":[["2"],["2"]],"q":["0"]}',
    "n2k1":
        '{"n":2,"k":1,"C":[[["0","0"],["-1","1"]],[["-2","0"],["0","0"]]],"d":[],"q":["0","0"]}',
    "n2k2":
        '{"n":2,"k":2,"C":[[["0","-1"],["-2","0"]],[["2","1"],["-2","-2"]],[["2","0"],["-1","0"]]],"d":[["2","2"]],"q":["-2","4"]}',
    "n2k3":
        '{"n":2,"k":3,"C":[[["-2","1"],["1","0"]],[["0","-1"],["-1","0"]],[["0","2"],["-1","2"]],[["-2","0"],["-2","0"]]],"d":[["2","2"],["2","2"]],"q":["-2","-4"]}',
    "n3k1":
        '{"n":3,"k":1,"C":[[["0","1","0"],["0","-2","0"],["0","0","1"]],[["0","0","2"],["-2","0","-1"],["-2","0","0"]]],"d":[],"q":["0","0","0"]}',
    "n3k2":
        '{"n":3,"k":2,"C":[[["2","-1","0"],["1","-1","0"],["0","2","0"]],[["-1","1","-1"],["-1","0","0"],["-2","-2","1"]],[["-2","0","0"],["1","-1","1"],["-1","2","1"]]],"d":[["2","2","2"]],"q":["0","0","0"]}',
    "n3k3":
        '{"n":3,"k":3,"C":[[["1","0","-1"],["-2","-2","1"],["1","1","2"]],[["2","1","-1"],["0","-1","-2"],["-2","2","1"]],[["-2","0","0"],["2","2","0"],["2","-1","0"]],[["-1","-2","0"],["2","0","2"],["2","-2","1"]]],"d":[["2","2","2"],["2","2","2"]],"q":["2","-2","1"]}',
}


def golden_instance(label):
    """Seeded instance named family-n<n>k<k>; see GOLDEN_DIGESTS."""
    family, shape = label.rsplit("-", 1)
    n, k = int(shape[1]), int(shape[3])
    i = 10 * n + k
    if family == "segment":
        return parse_instance(json.loads(SEGMENT_INSTANCES[shape]))
    spec_seed, q_seed = {
        "generic": (101, 102),
        "column_w_constructive": (103, 104),
        "z_structured": (105, 106),
    }[family]
    t = gen_tuple(GenSpec(n, k, family, 2, subseed(spec_seed, i)))
    return instance_through_point(t, subseed(q_seed, i))


# sha256 of dump_json([piece_to_json(p) for p in solve_all(inst)]), recorded
# with the 2^(kn) wedge-branch solver that preceded the selector solver.
# Nine were re-recorded when _affine_piece moved from slack-maximizing LPs
# to phase-1 problems, which moves the point of some positive-dimensional
# pieces: generic-n1k3, generic-n2k3, generic-n3k2, generic-n3k3,
# segment-n1k2, segment-n1k3, segment-n3k1, segment-n3k3 and
# z_structured-n3k2.  test_hulls_match_the_lp_reference keeps every
# selector, dimension and basis tied to the LP form.  generic-n3k2 was
# re-recorded again when the selector tree began to finish its singular
# leaves: its RREF now leaves free the unknowns in position order, not in
# stacked order, which halves the one direction of its dimension-1 piece
# (same point, same span).
GOLDEN_DIGESTS = {
    "generic-n1k1":
        "5bbc4d758d3cd5d520b36523805f9a07a10842c240d091a97a9a9d7917947e7c",
    "column_w_constructive-n1k1":
        "b98cb747ca3d39690fad9ec99734e084bbbf016c2b8e2c321a517723521db3c4",
    "z_structured-n1k1":
        "b1bedebf1d6ee2b45d6036ed04af69a49da68d25f6c2b1afe8553b43c63805cb",
    "segment-n1k1":
        "dce9ccf84178d4ec9fc1626044438137fc0f6fcd5849511380b80484cf631faa",
    "generic-n1k2":
        "42e4df97a7865d6bd3c854055855875c5ddc1e9bf35d186e414a751790eac21c",
    "column_w_constructive-n1k2":
        "717741f7035ed8c55243269ba295fe5d984b73537801c0aa738969893fbf8e53",
    "z_structured-n1k2":
        "95f3d3ba7294a3c4925f0172bec85914c0449c215ae3b8be4a7dbbf0535be5b4",
    "segment-n1k2":
        "c5de53e897689299be9013b2f37fec57de7dbbf4e1cf41947e4b8df8bc8702e6",
    "generic-n1k3":
        "a1c0d0fe3b6d031cb29f81b92317579f35bbf115a6c73ceae15f1499292c7b43",
    "column_w_constructive-n1k3":
        "3c914c1d6e150abc2998c876c40a2613e85bf2bf5338deed9f266ced64d710c5",
    "z_structured-n1k3":
        "01c150fd96730edd526036770c8f67f035fac5962147710f1135317f939a966d",
    "segment-n1k3":
        "0117f9d939debc955372237545f1825f745570d17bf785bae46c2253734609ee",
    "generic-n2k1":
        "b82353018751676cb626b425ca18e22525460cc77e866b00f72352d9ab7a5009",
    "column_w_constructive-n2k1":
        "668e00995a57e4e764dfd4c202732354b118ae660bc53771430fdf5d03ab8e6d",
    "z_structured-n2k1":
        "d10300fbb4ed8ea6850eb6f28a07c38ecc41bbc54c6a80ec91b83816a03f983b",
    "segment-n2k1":
        "1e532cb635bfd9b73aee3bf0cd5269931f7bc99511c195471ed77070c8ccea28",
    "generic-n2k2":
        "a2b4f451531bcf795bfb146d6a2ac351c0caaa3b2829f794e6da26d6bb44a1bf",
    "column_w_constructive-n2k2":
        "52d470f9adf67c08bbd4f44fcdcb32ddfb025b7fb9d02310a7925760cccae9f0",
    "z_structured-n2k2":
        "dd78bf15ffd49ad6af2bfcf74818604a172d4d8c9657fa7a7e45edcd461e2468",
    "segment-n2k2":
        "891601123baca4547c568163444aa575d931a992292f1637a6eadc6c6b8dac0a",
    "generic-n2k3":
        "19a539d977018eb0d06e52c945db70a2dfb18872f1e8057dddc18962d06e6254",
    "column_w_constructive-n2k3":
        "f23c72f941d5fce4ee6fdfed2a89517c03268907fa19ff14f73ee5e76529eeea",
    "z_structured-n2k3":
        "d7e16110098d36243182423d3b9a94975223e8d6774dc47c3f36843e883ea402",
    "segment-n2k3":
        "43c62eb456c4b44c584d03aecfbda35559e8ba864c59d611392277c6a662562d",
    "generic-n3k1":
        "abaae19450e77f7f3e1c84f96673f29b4598d24003194e73c044f684edf841d0",
    "column_w_constructive-n3k1":
        "fb3ab7d756665000a204c45cd69e692f5deeb00ddd486fb150cc7dbdca7e4f3f",
    "z_structured-n3k1":
        "0c6085c7a4149b9a30adb5ec3f1b14035f4710f74d531cac05681b4f832dd526",
    "segment-n3k1":
        "288fda3bf94924cbe4970b042f8f3aaf2fa34fc2abc5c9543bdb73c81d375bc8",
    "generic-n3k2":
        "38a354098f9c456c6f289e713ce9eb62431bfe06819f26b5bf1093211171b249",
    "column_w_constructive-n3k2":
        "a0f3c316bfcf7b7efd6dbe7fd8960617ff8b641578e7f5dbf9c3f38bdb90bca7",
    "z_structured-n3k2":
        "ea7b0c32c04f33532770c605a8ce9617ef0c2cc4ef31cced1ce6e05e98f5eefe",
    "segment-n3k2":
        "b8449f343925e1738730fac99260f6ee13d517cbd326c2e347dfd5d44e81d58b",
    "generic-n3k3":
        "fec999b480eb983be66d59981140429ff5ed93a99f5d4e80d179732029dc3a9f",
    "column_w_constructive-n3k3":
        "d82168e388320d1b76515dbdb0e35311236174201b71884d241996d8677bad89",
    "z_structured-n3k3":
        "d942305edf0f59c98a09d0803e745d7030ff27daa25889dbde81eed9e18e3d91",
    "segment-n3k3":
        "1c7af31efd8b7271e30933995a1c14aec8592b8817844248a1195ca86889f5fe",
}


class TestInstanceValidation:
    def test_d_length(self):
        t = make_tuple([identity(2), identity(2)])
        with pytest.raises(InputError):
            EhlcpInstance(t, ((F(1), F(1)),), (F(0), F(0)))

    def test_d_positivity(self):
        t = make_tuple([identity(2), identity(2), identity(2)])
        with pytest.raises(InputError, match="strictly positive"):
            EhlcpInstance(t, ((F(1), F(0)),), (F(0), F(0)))

    def test_q_dimension(self):
        t = make_tuple([identity(2), identity(2)])
        with pytest.raises(DimensionError):
            EhlcpInstance(t, (), (F(0),))


class TestUpper:
    def test_upper_is_the_stacked_bound_vector(self):
        for k in (1, 2, 3):
            for n in (1, 2, 3):
                t = gen_tuple(GenSpec(n, k, "generic", 2, subseed(73, 10 * n + k)))
                inst = gen_instance(t, subseed(74, 10 * n + k), 3)
                twin = gen_instance(t, subseed(74, 10 * n + k), 3)
                expected = [None] * ((k + 1) * n)
                for j in range(1, k):
                    for r in range(n):
                        expected[j * n + r] = inst.d[j - 1][r]
                assert inst.upper == tuple(expected)
                # a field made with the instance, which equality and hash ignore
                assert "upper" in vars(twin)
                object.__setattr__(twin, "upper", ())
                assert inst == twin and hash(inst) == hash(twin)


class TestIsSolution:
    def test_split_solution(self):
        x = vec([1, 0, 0, 2])
        assert is_solution(split_instance(), x)

    def test_violated_complementarity(self):
        x = vec([1, 0, 1, 2])
        assert not is_solution(split_instance(), x)

    def test_chain_solution(self):
        x = vec([2, 0, 0, 1, 0, 0])
        assert is_solution(chain_instance(), x)

    def test_negative_component_rejected(self):
        inst = split_instance()
        x = vec([0, -2, -1, 0])
        assert not is_solution(inst, x)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            is_solution(split_instance(), vec([1, 0]))

    @staticmethod
    def per_matrix_reference(inst, x):
        """is_solution before the stacked matrix: C_0 x_0 against
        q + sum C_i x_i, matrix by matrix, then the wedge conditions on the
        blocks of x."""
        t = inst.matrix_tuple
        xs = unstack(x, t.n)
        lhs = mat_vec(t.mats[0], xs[0])
        rhs = list(inst.q)
        for i in range(1, t.k + 1):
            rhs = [a + b for a, b in zip(rhs, mat_vec(t.mats[i], xs[i]))]
        if any(a != b for a, b in zip(lhs, rhs)):
            return False

        def wedge(u, v):
            return all(a >= 0 for a in u + v) and not any(a * b for a, b in zip(u, v))

        if not wedge(xs[0], xs[1]):
            return False
        return all(
            wedge(tuple(dj - xj for dj, xj in zip(inst.d[j - 1], xs[j])), xs[j + 1])
            for j in range(1, t.k)
        )

    @staticmethod
    def column_point(n, k, d, m, value):
        """Stacked x whose column 0 follows selector entry m (x_{0,0} = 0
        for m > 0, x_{j,0} = d_{j,0} for 0 < j < m) with x_{m,0} = value and
        every other entry 0, so every wedge product is zero."""
        x = [F(0)] * ((k + 1) * n)
        for j in range(1, m):
            x[j * n] = d[j - 1][0]
        x[m * n] = value
        return x

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_points_breaking_one_condition(self, k):
        n = 2
        half = Fraction(1, 2)
        t = gen_tuple(GenSpec(n, k, "generic", 2, subseed(53, k)))
        d = tuple((F(j + 1), F(j + 2)) for j in range(1, k))

        def verdict(x):
            # q = A x, so the equation holds and bounds and wedges decide
            x = tuple(x)
            inst = EhlcpInstance(t, d, mat_vec(stacked_matrix(t), x))
            assert is_solution(inst, x) == self.per_matrix_reference(inst, x)
            return is_solution(inst, x)

        for m in range(k + 1):
            assert verdict(self.column_point(n, k, d, m, half))
            # a negative entry in block m
            assert not verdict(self.column_point(n, k, d, m, F(-1)))
        for j in range(1, k):
            # x_{j,0} above its bound d_{j,0}
            assert not verdict(self.column_point(n, k, d, j, d[j - 1][0] + half))
        for j in range(k):
            # a nonzero product at wedge j: x_{j,0} below its bound (or x_{0,0}
            # positive) and x_{j+1,0} positive
            x = self.column_point(n, k, d, j, half)
            x[(j + 1) * n] = half
            assert not verdict(x)
        x = tuple(self.column_point(n, k, d, 0, half))
        inst = EhlcpInstance(t, d, mat_vec(stacked_matrix(t), x))
        for wrong in (x[:-1], x + (F(0),)):
            with pytest.raises(DimensionError):
                is_solution(inst, wrong)

    def test_rational_data_at_and_past_each_bound(self):
        # C with denominators 2, 3 and 4, so int_stacked is A times 12, and
        # rational d and q: points exactly on each bound and one step of
        # 1/12 past it, wedge violations, and A x = q off by one unit
        t = make_tuple([[["1/2", "-1/3"], ["1/4", 1]], [["2/3", "1/4"], ["-1/2", "1/3"]],
                        [[1, "3/4"], ["-2/3", "1/2"]]])
        assert t.int_scale == 12
        d = ((Fraction(3, 2), Fraction(5, 3)),)
        step, third, fifth = Fraction(1, 12), Fraction(1, 3), Fraction(2, 5)
        # x = (x_{0,0}, x_{0,1}, x_{1,0}, x_{1,1}, x_{2,0}, x_{2,1}), d_1 = (3/2, 5/3)
        cases = [
            ((0, third, 0, 0, 0, 0), True),  # x_{1,0} = x_{2,0} = 0 on their lower bounds
            ((-step, third, 0, 0, 0, 0), False),
            ((0, third, -step, 0, 0, 0), False),
            ((0, 0, d[0][0], d[0][1], fifth, step), True),  # x_1 = d_1, x_2 > 0
            ((0, 0, d[0][0] + step, 0, 0, 0), False),
            ((0, 0, d[0][0], d[0][1] + step, 0, 0), False),
            ((0, 0, d[0][0], d[0][1], fifth, -step), False),
            ((0, 0, d[0][0] - step, 0, 0, 0), True),  # inside the box, x_{2,0} = 0
            ((0, 0, d[0][0] - step, 0, fifth, 0), False),  # slack and x_{2,0} positive
            ((0, 0, 0, d[0][1] - step, 0, step), False),
            ((step, third, step, 0, 0, 0), False),  # x_{0,0} x_{1,0} > 0
        ]
        for x, expected in cases:
            x = tuple(map(Fraction, x))
            q = mat_vec(stacked_matrix(t), x)
            inst = EhlcpInstance(t, d, q)
            assert is_solution(inst, x) == self.per_matrix_reference(inst, x) == expected, x
            for i in range(2):
                # one unit of q_i's last place off, on either side
                for unit in (Fraction(1, q[i].denominator), -Fraction(1, q[i].denominator)):
                    off = EhlcpInstance(t, d, tuple(v + unit * (j == i) for j, v in enumerate(q)))
                    assert not is_solution(off, x) and not self.per_matrix_reference(off, x)
            for wrong in (x[:-1], x + (F(0),)):
                with pytest.raises(DimensionError):
                    is_solution(inst, wrong)

    def test_agrees_with_the_per_matrix_equation(self):
        # solution points and perturbed points; q given as a list or a tuple
        rng = SplitMix64(29)
        verdicts = {True: 0, False: 0}
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                for trial in range(4):
                    t = gen_tuple(GenSpec(n, k, "generic", 2, subseed(29, 100 * n + 10 * k + trial)))
                    inst = instance_through_point(t, subseed(31, 100 * n + 10 * k + trial))
                    if trial % 2:
                        inst = EhlcpInstance(t, inst.d, list(inst.q))
                    for piece in solve_all(inst):
                        candidates = [piece.point]
                        for _ in range(3):
                            i, r = rng.randint(0, k), rng.randint(0, n - 1)
                            x = list(piece.point)
                            x[i * n + r] += F(rng.randint(-2, 2)) / 2
                            candidates.append(tuple(x))
                        for x in candidates:
                            expected = self.per_matrix_reference(inst, x)
                            assert is_solution(inst, x) == expected
                            verdicts[expected] += 1
        assert verdicts[True] > 50 and verdicts[False] > 50


class TestSelectorOrder:
    @pytest.mark.parametrize("n, k, expected", [(1, 1, 2), (2, 1, 4), (2, 2, 9)])
    def test_counts(self, n, k, expected, monkeypatch):
        # q = 0: every selector with entries 0 and 1 gives the zero point
        # and one with a 2 is infeasible, so the piece kept is that of the
        # first of them in label order, (1, ..., 1)
        decided = record_selectors(monkeypatch)
        t = make_tuple([identity(n)] * (k + 1))
        d = tuple((F(1),) * n for _ in range(k - 1))
        pieces = solve_all(EhlcpInstance(t, d, (F(0),) * n))
        assert len(decided) == expected
        assert set(decided) == set(selectors(n, k))
        assert [p.selector for p in pieces] == [(1,) * n]

    def test_label_visit_order(self, monkeypatch):
        # the tree decides selectors in lex order, and solve_all takes
        # their pieces in branch-label order
        decided = record_selectors(monkeypatch)
        t = make_tuple([identity(1)] * 3)
        kept = {}
        for q in (0, -1):
            # q = 0: (1,) and (0,) give the zero point, (2,) is infeasible;
            # q = -1: (2,) and (1,) both give x_1 = 1, (0,) is infeasible
            pieces = solve_all(EhlcpInstance(t, ((F(1),),), (F(q),)))
            kept[q] = [p.selector for p in pieces]
        assert decided == [(0,), (1,), (2,)] * 2
        assert kept == {0: [(1,)], -1: [(2,)]}
        assert [branch_label(s, 2) for s in [(2,), (1,), (0,)]] == [
            [["left"], ["left"]],
            [["left"], ["right"]],
            [["right"], ["right"]],
        ]
        # four distinct points: label order is the reverse of lex order
        t = make_tuple([identity(2), [[-1, 0], [0, -1]]])
        pieces = solve_all(EhlcpInstance(t, (), (F(1), F(1))))
        assert [p.selector for p in pieces] == [(1, 1), (1, 0), (0, 1), (0, 0)]

    def test_cap_checked_before_any_work(self, monkeypatch):
        # 3^13 = 1 594 323 selectors exceed the cap of 10^6
        def fail(*args):
            raise AssertionError("selector work ran above the cap")

        monkeypatch.setattr(solver, "_selector_pieces", fail)
        monkeypatch.setattr(solver, "_affine_piece", fail)
        t = make_tuple([identity(13)] * 3)
        inst = EhlcpInstance(t, ((F(1),) * 13,), (F(0),) * 13)
        with pytest.raises(CapExceeded, match="selector cap"):
            solve_all(inst)


class TestSolveBranch:
    def test_unique_branch(self):
        piece = solve_branch(split_instance(), (0, 1))
        assert piece is not None
        assert piece.piece_dimension == 0
        assert piece.point == vec([1, 0, 0, 2])

    def test_infeasible_branch(self):
        # pinning x0 = 0 forces x1 = -q with a negative component
        assert solve_branch(split_instance(), (1, 1)) is None

    def test_affine_branch_yields_dimension_one_piece(self):
        piece = solve_branch(segment_instance(), (1, 0))
        assert piece is not None
        assert piece.piece_dimension == 1
        assert len(piece.kernel_basis) == 1
        # piece is {((0, b), (1-b, 0)) : 0 <= b <= 1}; the reported point is
        # the relative-interior midpoint
        assert piece.point == vec([0, "1/2", "1/2", 0])

    def test_affine_branch_solves_one_lp_per_bound_row(self, monkeypatch):
        # one phase-1 problem finds a point, then one per row not yet seen
        # slack; an empty polytope stops at the first
        calls = []
        real = solver.nonneg_solution
        monkeypatch.setattr(solver, "nonneg_solution",
                            lambda rows: calls.append((rows, real(rows))) or calls[-1][1])
        assert solve_branch(segment_instance(), (1, 0)) is not None
        rows, (z, _) = calls[0]
        surplus = z[len(rows[0]) - 1 - len(rows):]  # one surplus per bound row
        assert 1 < len(calls) <= 1 + sum(1 for v in surplus if v == 0)
        calls.clear()
        empty = EhlcpInstance(segment_instance().matrix_tuple, (), (F(0), F(-1)))
        assert solve_branch(empty, (1, 0)) is None
        assert len(calls) == 1

    @pytest.mark.parametrize("selector", [(0,), (0, 2), (0, -1)])
    def test_invalid_selector_rejected(self, selector):
        with pytest.raises(InputError):
            solve_branch(split_instance(), selector)


def underdetermined_systems():
    """(particular, kernel, box) of the consistent singular selectors of
    generated degenerate and two-solution instances (k = 1 gives unbounded
    pieces), then of random underdetermined systems with a right-hand side
    through a random point that may break its bounds."""
    for n, k in TREE_SHAPES:
        for seed in range(2):
            i = 100 * seed + 10 * n + k
            t = gen_tuple(GenSpec(n, k, "degenerate", 2, subseed(71, i)))
            for inst in (gen_instance(t, subseed(72, i), 2),
                         instance_through_point(t, subseed(73, i)),
                         ndw_two_solutions(t)[0]):
                for s in consistent_singular(inst):
                    _, a, rhs, _, box = selector_system(inst, s)
                    res = solve_linear(a, rhs)
                    yield res.particular, res.kernel_basis, box
    rng = random.Random(74)
    for _ in range(300):
        width = rng.randint(2, 5)
        height = rng.randint(1, width - 1)
        a = [[F(rng.randint(-2, 2)) for _ in range(width)] for _ in range(height)]
        y = [Fraction(rng.randint(-1, 2), rng.randint(1, 2)) for _ in range(width)]
        res = solve_linear(a, mat_vec(a, y))
        if not res.kernel_basis:
            continue
        box = [(c, 1, F(0)) for c in range(width)] + [
            (c, -1, F(-rng.randint(1, 2))) for c in range(width) if rng.random() < 0.5
        ]
        yield res.particular, res.kernel_basis, box


def strict_rows(y, box):
    return [sign * y[c] > bound for c, sign, bound in box]


class TestAffinePiece:
    """_affine_piece, one phase-1 problem per row, against affine_piece_lp,
    the slack-maximizing LPs it replaced: the same emptiness and hull, and a
    point in the polytope strict on exactly the reference point's strict
    rows, so relative-interior like it."""

    def test_matches_the_lp_reference(self):
        seen = Counter()
        for i, (particular, kernel, box) in enumerate(underdetermined_systems()):
            particular, kernel, last = over_common_denominator(particular, kernel)
            if i % 2:  # the tree's last pivot may be negative
                particular, kernel, last = ([-x for x in particular],
                                            [[-x for x in v] for v in kernel], -last)
            got = solver._affine_piece(particular, kernel, last, box)
            ref = affine_piece_lp(particular, kernel, last, box)
            assert (got is None) == (ref is None)
            if ref is None:
                seen["empty"] += 1
                continue
            (point, basis), (ref_point, ref_basis) = got, ref
            assert basis == ref_basis
            assert all(sign * point[c] >= bound for c, sign, bound in box)
            assert strict_rows(point, box) == strict_rows(ref_point, box)
            seen["point" if not basis else "piece"] += 1
            seen["moved"] += point != ref_point
            # unbounded along a basis direction, as k = 1 pieces can be
            seen["unbounded"] += any(all(e * sign * v[c] >= 0 for c, sign, _ in box)
                                     for v in basis for e in (1, -1))
        # every kind occurs: empty, a single point of a positive-dimensional
        # kernel, positive-dimensional and unbounded pieces, and points
        # that differ
        assert all(seen[kind] >= 5 for kind in ("empty", "point", "piece", "moved", "unbounded"))

    def test_single_point_in_alpha(self):
        # y = alpha * (1, -1) >= 0 pins alpha = 0
        box = [(0, 1, F(0)), (1, 1, F(0))]
        assert solver._affine_piece([0, 0], [[1, -1]], 1, box) == (vec([0, 0]), ())

    def test_no_row_with_a_gradient_is_an_invariant_error(self):
        with pytest.raises(InvariantError):
            solver._affine_piece([0, 0], [[0, 0]], 1, [(0, 1, F(0)), (1, 1, F(0))])


class TestSolveAll:
    def test_split_unique(self):
        pieces = solve_all(split_instance())
        assert len(pieces) == 1
        assert pieces[0].point == vec([1, 0, 0, 2])

    def test_chain_unique(self):
        pieces = solve_all(chain_instance())
        assert len(pieces) == 1
        assert pieces[0].point == vec([2, 0, 0, 1, 0, 0])

    def test_segment_recovered(self):
        pieces = solve_all(segment_instance())
        dims = sorted(p.piece_dimension for p in pieces)
        assert dims == [0, 0, 1]
        endpoints = {p.point for p in pieces if p.piece_dimension == 0}
        assert endpoints == {vec([0, 0, 1, 0]), vec([0, 1, 0, 0])}

    def test_every_piece_point_is_a_solution(self):
        for i in range(30):
            k = 1 + i % 2
            t = gen_tuple(GenSpec(2, k, "generic", 2, subseed(43, i)))
            inst = gen_instance(t, subseed(44, i))
            for piece in solve_all(inst):
                assert is_solution(inst, piece.point)
                assert piece.piece_dimension == len(piece.kernel_basis)

    def test_solutions_satisfy_full_disjointness(self):
        # every solution has x0 complementary to every x_j, not just x1
        for i in range(30):
            t = gen_tuple(GenSpec(2, 2, "generic", 2, subseed(47, i)))
            inst = gen_instance(t, subseed(48, i))
            for piece in solve_all(inst):
                x0 = piece.point[: t.n]
                for j in range(1, t.k + 1):
                    xj = piece.point[j * t.n : (j + 1) * t.n]
                    assert not any(a * b for a, b in zip(x0, xj))

    def test_duplicate_points_deduplicated(self):
        # q = 0 makes the zero tuple appear in every feasible branch
        t = make_tuple([identity(2), identity(2)])
        inst = EhlcpInstance(t, (), (F(0), F(0)))
        pieces = solve_all(inst)
        assert len(pieces) == 1
        assert pieces[0].point == vec([0, 0, 0, 0])


# every (n, k) with (k+1)^n <= 81, k <= 3
TREE_SHAPES = [(n, k) for k in (1, 2, 3) for n in range(1, 7) if (k + 1) ** n <= 81]


class TestSelectorTree:
    """solve_all, which reads nonsingular selectors off one elimination
    tree, against reference_solve_all, which solves every selector on its
    own: the same pieces in the same order, byte for byte."""

    @pytest.mark.parametrize("entry_range", [1, 5])
    @pytest.mark.parametrize("family", ["generic", "column_w_constructive",
                                        "z_structured", "degenerate"])
    def test_matches_per_selector_reference(self, family, entry_range):
        found = 0
        for n, k in TREE_SHAPES:
            for seed in range(3):
                i = 100 * seed + 10 * n + k
                t = gen_tuple(GenSpec(n, k, family, entry_range, subseed(61, i)))
                for inst in (gen_instance(t, subseed(62, i), entry_range),
                             instance_through_point(t, subseed(63, i))):
                    pieces = solve_all(inst)
                    assert pieces_json(pieces) == pieces_json(reference_solve_all(inst))
                    found += len(pieces)
        assert found >= len(TREE_SHAPES)

    def test_segment_instances(self):
        dims = set()
        for n, k in TREE_SHAPES:
            for seed in range(2):
                t = gen_tuple(GenSpec(n, k, "degenerate", 2, subseed(65, 10 * n + k + seed)))
                inst = ndw_two_solutions(t)[0]
                pieces = solve_all(inst)
                assert pieces_json(pieces) == pieces_json(reference_solve_all(inst))
                dims.update(p.piece_dimension for p in pieces)
        assert max(dims) >= 1

    @pytest.mark.parametrize("n, k", [(2, 2), (3, 2), (4, 1), (3, 3)])
    def test_zero_column_subtree(self, n, k):
        # C_1 with a zero last column: every selector ending in 1 is
        # singular, and the tree gives every selector the reference's piece
        t = gen_tuple(GenSpec(n, k, "generic", 2, subseed(67, 10 * n + k)))
        c1 = [list(row[:-1]) + [F(0)] for row in t.mats[1]]
        t = make_tuple([t.mats[0], c1, *t.mats[2:]])
        inst = instance_through_point(t, subseed(68, 10 * n + k))
        assert pieces_json(solve_all(inst)) == pieces_json(reference_solve_all(inst))
        assert all(from_scratch(inst, s)[0] != "nonsingular"
                   for s in selectors(n, k) if s[-1] == 1)
        assert_pieces_match_reference(inst)

    @pytest.mark.parametrize("family, zeroed", [("degenerate", None), ("z_structured", None),
                                                ("generic", 0), ("generic", -1)],
                             ids=["degenerate", "z_structured", "zero-C0", "zero-Ck"])
    def test_inconsistent_leaves_agree_with_a_scratch_solve(self, family, zeroed):
        # every selector's piece, or None, is the reference's; a None is a
        # from-scratch system that is inconsistent, singular with an empty
        # polytope, or whose unique point breaks a bound; zeroed names C_0
        # or C_k, of which one column is set to zero
        kinds = Counter()
        for n, k in TREE_SHAPES:
            for seed in range(2):
                i = 100 * seed + 10 * n + k
                t = gen_tuple(GenSpec(n, k, family, 2, subseed(73, i)))
                if zeroed is not None:
                    mats = list(t.mats)
                    mats[zeroed] = [[F(0) if c == seed % n else x for c, x in enumerate(row)]
                                    for row in mats[zeroed]]
                    t = make_tuple(mats)
                for inst in (gen_instance(t, subseed(74, i), 2),
                             instance_through_point(t, subseed(75, i))):
                    for s, piece in assert_pieces_match_reference(inst):
                        kind, broken = from_scratch(inst, s)
                        kinds[kind, piece is None] += 1
                        if kind == "inconsistent":
                            assert piece is None
                        elif kind == "nonsingular":
                            assert (piece is None) == broken
        assert kinds["inconsistent", True] > 0
        assert kinds["singular", False] > 0

    def test_rational_data(self):
        # non-integer C entries, d and q: each root row is scaled by its own lcm
        fractional = 0
        for n, k in TREE_SHAPES:
            i = 10 * n + k
            t = gen_tuple(GenSpec(n, k, "generic", 3, subseed(69, i)))
            t = make_tuple([[[x / (j + 2) for x in row] for row in m]
                            for j, m in enumerate(t.mats)])
            rng = SplitMix64(subseed(70, i))
            d = tuple(tuple(Fraction(rng.randint(1, 7), rng.randint(2, 3)) for _ in range(n))
                      for _ in range(k - 1))
            x = [F(0)] * ((k + 1) * n)
            for r in range(n):
                m = rng.randint(0, k)
                for j in range(1, m):
                    x[j * n + r] = d[j - 1][r]
                x[m * n + r] = (d[m - 1][r] if 0 < m < k else Fraction(5, 2)) * Fraction(rng.randint(0, 3), 3)
            inst = EhlcpInstance(t, d, mat_vec(stacked_matrix(t), tuple(x)))
            fractional += any(v.denominator > 1 for v in inst.q + sum(d, ()))
            pieces = solve_all(inst)
            assert pieces
            assert pieces_json(pieces) == pieces_json(reference_solve_all(inst))
        assert fractional >= len(TREE_SHAPES) - 2

    def test_nonsingular_tuple_needs_no_linear_solve(self, monkeypatch):
        # column W: every representative is nonsingular, so every piece is
        # read off the tree, with no polytope to decide
        t = gen_tuple(GenSpec(3, 2, "column_w_constructive", 2, 71))
        inst = instance_through_point(t, 72)
        expected = reference_solve_all(inst)
        assert_pieces_match_reference(inst)
        calls = []
        for name in ("_echelon", "_affine_piece"):
            real = getattr(solver, name)
            monkeypatch.setattr(solver, name,
                                lambda *a, name=name, real=real: calls.append(name) or real(*a))
        pieces = solve_all(inst)
        assert calls == []
        assert pieces and pieces_json(pieces) == pieces_json(expected)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("q", [(0, 0), (1, -1)], ids=["q=0", "q!=0"])
    def test_rank_zero_leaf(self, k, q):
        # C_1 = 0: selector (1, 1) chooses two zero columns, so its leaf has
        # no pivot at all; q = 0 leaves both unknowns free, q != 0 is
        # inconsistent
        t = make_tuple([identity(2), [[0, 0], [0, 0]], *[identity(2)] * (k - 1)])
        d = ((F(1), F(1)),) * (k - 1)
        inst = EhlcpInstance(t, d, vec(q))
        decided = dict(assert_pieces_match_reference(inst))
        assert pieces_json(solve_all(inst)) == pieces_json(reference_solve_all(inst))
        piece = decided[(1, 1)]
        if any(q):
            assert piece is None
        else:
            assert piece.piece_dimension == 2
            assert {v.index(1) for v in piece.kernel_basis} == {2, 3}  # x_{1,0}, x_{1,1}

    @pytest.mark.parametrize("p", [3, -3])
    def test_free_position_before_a_pivot(self, p, monkeypatch):
        # C_0 column 1 is twice column 0, so selector (0, 0, 0) pivots at
        # position 0, leaves position 1 free with its column nonzero on the
        # pivoted row, and pivots at position 2 on p: the carried column is
        # reduced by that pivot, and the last pivot has p's sign
        t = make_tuple([[[1, 2, 0], [0, 0, p], [1, 2, 1]], identity(3)])
        inst = EhlcpInstance(t, (), mat_vec(t.mats[0], vec([1, 1, 1])))
        pivots = []
        real = solver.pivot_step

        def spy(a, r, c, prev):
            real(a, r, c, prev)
            pivots.append(a[r][c])

        monkeypatch.setattr(solver, "pivot_step", spy)
        decided = dict(assert_pieces_match_reference(inst))
        assert pivots[:2] == [1, p]  # the two pivots on the way to the first leaf
        piece = decided[(0, 0, 0)]
        # y_0 + 2 y_1 = 3 with y_2 = 1: a segment along (-2, 1, 0)
        assert piece.piece_dimension == 1
        assert piece.kernel_basis == (vec([-2, 1, 0, 0, 0, 0]),)
        assert pieces_json(solve_all(inst)) == pieces_json(reference_solve_all(inst))


class TestLastLevel:
    """At depth n - 1 a node with no free position has one unpivoted row,
    and each selector below it is decided in integers with no pivot_step.
    The instances are n = 2, k = 2 with C_2 = I; each names the selector
    whose leaf it tests."""

    @pytest.mark.parametrize("n, seed", [(3, 71), (4, 75)])
    def test_pivots_above_the_last_level_only(self, n, seed, monkeypatch):
        # every representative of a column W tuple is nonsingular, so every
        # node above the last level pivots once per child, and no leaf does
        k = 2
        t = gen_tuple(GenSpec(n, k, "column_w_constructive", 2, seed))
        inst = instance_through_point(t, seed + 1)
        expected = reference_solve_all(inst)
        calls = []
        real = solver.pivot_step
        monkeypatch.setattr(solver, "pivot_step", lambda *a: calls.append(a[1]) or real(*a))
        pieces = solve_all(inst)
        assert len(calls) == sum((k + 1) ** d for d in range(1, n))
        assert pieces and pieces_json(pieces) == pieces_json(expected)

    @staticmethod
    def decide(c0, c1, d, y, sel):
        """Piece of sel for the instance (c0, c1, I) with bound d and q
        chosen so that sel's unknowns y solve its system; checks every
        selector, and solve_all, against the reference."""
        t = make_tuple([c0, c1, identity(2)])
        x = [F(0)] * 6
        for r, m in enumerate(sel):
            for j in range(1, m):
                x[j * 2 + r] = d[r]
            x[m * 2 + r] = y[r]
        inst = EhlcpInstance(t, (d,), mat_vec(stacked_matrix(t), tuple(x)))
        decided = dict(assert_pieces_match_reference(inst))
        assert pieces_json(solve_all(inst)) == pieces_json(reference_solve_all(inst))
        return decided[sel]

    @pytest.mark.parametrize("y", [(0, 1), (1, 0), (0, 0)])
    def test_zero_numerator_is_kept(self, y):
        # y on its lower bound, on the pivoted position, the last one or both
        piece = self.decide([[2, 1], [1, 1]], identity(2), vec([1, 1]), vec(y), (0, 0))
        assert piece is not None and piece.point[:2] == vec(y)

    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("excess", [0, 1])
    def test_cap(self, r, excess):
        # selector (1, 1) caps both unknowns x_{1,r} by d_r; y_r = d_r + excess
        d = vec(["3/2", "5/3"])
        y = [F(1), F(1)]
        y[r] = d[r] + excess
        piece = self.decide(identity(2), [[2, 1], [1, 1]], d, tuple(y), (1, 1))
        if excess:
            assert piece is None
        else:
            assert piece.point[2:4] == tuple(y)

    @pytest.mark.parametrize("y1", ["3/2", "-3/2"])
    def test_negative_pivot(self, y1):
        # selector (0, 0) pivots on 1, then takes -2 as its last pivot
        y = vec([1, y1])
        piece = self.decide([[1, 0], [1, -2]], identity(2), vec([1, 1]), y, (0, 0))
        if y[1] < 0:
            assert piece is None
        else:
            assert piece.point[:2] == y

    @pytest.mark.parametrize("q", [(3, 3), (3, 4)], ids=["consistent", "inconsistent"])
    def test_zero_pivot_at_rank_n_minus_1(self, q):
        # C_0 column 1 is twice column 0: selector (0, 0) pivots at position
        # 0 and finds a zero pivot at position 1, which is left free
        t = make_tuple([[[1, 2], [1, 2]], identity(2), identity(2)])
        inst = EhlcpInstance(t, (vec([1, 1]),), vec(q))
        piece = dict(assert_pieces_match_reference(inst))[(0, 0)]
        assert pieces_json(solve_all(inst)) == pieces_json(reference_solve_all(inst))
        if q == (3, 3):
            # y_0 + 2 y_1 = 3: a segment along (-2, 1)
            assert piece.piece_dimension == 1
            assert piece.kernel_basis == (vec([-2, 1, 0, 0, 0, 0]),)
        else:
            assert piece is None


class TestGoldenOutput:
    @pytest.mark.parametrize("label", sorted(GOLDEN_DIGESTS))
    def test_solve_all_bytes(self, label):
        pieces = solve_all(golden_instance(label))
        text = dump_json([piece_to_json(p) for p in pieces])
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[label]

    @pytest.mark.parametrize("label", sorted(GOLDEN_DIGESTS))
    def test_hulls_match_the_lp_reference(self, label, monkeypatch):
        # a re-recorded digest may move points only, never a hull
        inst = golden_instance(label)
        pieces = solve_all(inst)
        monkeypatch.setattr(solver, "_affine_piece", affine_piece_lp)
        assert [(p.selector, p.piece_dimension, p.kernel_basis) for p in pieces] == [
            (p.selector, p.piece_dimension, p.kernel_basis) for p in solve_all(inst)
        ]


class TestIntegerHull:
    @pytest.mark.parametrize("label", [x for x in sorted(GOLDEN_DIGESTS) if x.startswith("segment")])
    def test_hull_lps_take_the_trees_integers(self, label, monkeypatch):
        # every piece's LP rows are built as exact ints from the tree's
        # rows, and linprog scales no rational row to integers itself
        rows_seen = []
        real = solver.nonneg_solution

        def spy(*args):
            rows_seen.extend(args[0])
            return real(*args)

        def fail(*args):
            raise AssertionError("linprog scaled rational rows with int_row")

        monkeypatch.setattr(solver, "nonneg_solution", spy)
        monkeypatch.setattr(linprog, "int_row", fail, raising=False)
        text = pieces_json(solve_all(golden_instance(label)))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[label]
        assert rows_seen and all(type(x) is int for row in rows_seen for x in row)

    def test_one_factor_for_every_row(self):
        # a per-row factor on either LP's rows changes the reduced-cost row,
        # so Bland's entering columns: under it the dimension-2 piece of
        # selector (1, 1, 0, 0), whose system has two zero rows, ends on
        # another point of its polytope
        doc = {"n": 4, "k": 2,
               "C": [[[1, 2, -2, 2], [1, 2, -1, -1], [1, -1, 0, 0], [2, 1, 0, 0]],
                     [[1, 0, 1, 0], [2, 1, 1, 0], [0, 0, 1, 2], [0, 0, 1, 2]],
                     [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]],
               "d": [["4/3", "7", "1/2", "5/3"]], "q": ["-1/3", "-7/6", "0", "0"]}
        pieces = {p.selector: p for p in solve_all(parse_instance(doc))}
        piece = pieces[(1, 1, 0, 0)]
        assert piece.piece_dimension == 2
        assert piece.point == vec([0, 0, "4/69", "3/46", "8/23", "8/23", 0, 0, 0, 0, 0, 0])


class TestClosedFormSolution:
    """C_0 an M-matrix and q > 0 on a cS-W tuple: the only solution is
    (C_0^{-1} q, 0, ..., 0)."""

    def test_tridiagonal_closed_form(self):
        t = make_tuple([[[2, -1], [-1, 2]], [[0, 1], [-1, 0]]])
        pieces = solve_all(EhlcpInstance(t, (), (F(1), F(1))))
        assert [(p.piece_dimension, p.point) for p in pieces] == [(0, vec([1, 1, 0, 0]))]

    def test_identity_k2(self):
        t = make_tuple([identity(2), identity(2), identity(2)])
        pieces = solve_all(EhlcpInstance(t, ((F(1), F(1)),), (F(3), F(4))))
        assert [(p.piece_dimension, p.point) for p in pieces] == [
            (0, vec([3, 4, 0, 0, 0, 0]))
        ]
