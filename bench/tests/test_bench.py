"""Tests of the benchmark's tracer, checker and generator.

    python3 -m pytest -q bench/tests
"""

import sys
from fractions import Fraction

import pytest

import check
import gen
import workloads
from tracer import Tracer

F = Fraction


def _inst(mats, d=(), q=None):
    n = len(mats[0])
    mats = [[[F(x) for x in row] for row in m] for m in mats]
    q = [F(0)] * n if q is None else [F(x) for x in q]
    return gen.instance(mats, [[F(x) for x in dj] for dj in d], q)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return float(next(self.ticks))


class TestTracer:
    def test_self_time_subtracts_children(self):
        tracer = Tracer(clock=FakeClock([0, 1, 3, 4, 7, 10]))
        inner = tracer.wrap(lambda: None, "m.inner")
        outer = tracer.wrap(lambda: (inner(), inner(), 1)[-1], "m.outer")
        assert outer() == 1
        summary = tracer.summary()
        assert summary["m.outer"] == {"calls": 1, "none": 0, "self_s": 5.0}
        assert summary["m.inner"] == {"calls": 2, "none": 2, "self_s": 5.0}
        assert list(tracer.parent) == [-1, 0, 0]

    def test_summary_of_a_later_range_ignores_earlier_spans(self):
        tracer = Tracer(clock=FakeClock(range(100)))
        leaf = tracer.wrap(lambda: 0, "m.leaf")
        leaf()
        first = len(tracer)
        leaf()
        assert tracer.summary(first)["m.leaf"]["calls"] == 1

    @pytest.fixture
    def fresh_ehlcp(self):
        def purge():
            for key in [k for k in sys.modules if k == "ehlcp" or k.startswith("ehlcp.")]:
                del sys.modules[key]

        purge()
        import ehlcp.representatives

        yield ehlcp
        purge()

    def test_rebinding_reaches_from_imported_names(self, fresh_ehlcp):
        rational = sys.modules["ehlcp.rational"]
        representatives = sys.modules["ehlcp.representatives"]
        original = rational.det
        assert representatives.det is original  # bound by "from .rational import det"
        tracer = Tracer()
        tracer.install(traced=(("rational", "det"), ("rational", "no_such_function")))
        assert representatives.det is not original
        assert representatives.det is rational.det
        assert tracer.absent == ["rational.no_such_function"]
        t = representatives.make_tuple([[[1, 0], [0, 1]], [[2, 0], [0, 3]]])
        assert representatives.check_column_w(t).holds
        assert tracer.summary()["rational.det"]["calls"] == 4  # (k+1)^n selectors


class TestChecker:
    # (I, 0, 0): cS-W fails with x_1 = x_2 = e_1, x_0 = 0
    ZERO_PAD = _inst([[[1, 0], [0, 1]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]], d=[[1, 1]])

    def _report(self, x, pattern):
        return {"verdicts": {"csw": {"holds": False, "decided_by": "pattern_enumeration",
                                     "witness": {"pattern": pattern, "x": x}}}}

    def test_valid_csw_witness_passes(self):
        doc = self._report([["0", "0"], ["1", "0"], ["1", "0"]], [[0, 0], [1, 0], [1, 0]])
        assert check.check_report(self.ZERO_PAD, doc) == []

    def test_tampered_csw_witness_is_rejected(self):
        off_kernel = self._report([["1", "0"], ["1", "0"], ["1", "0"]], [[1, 0], [1, 0], [1, 0]])
        assert any("C_0 x_0" in p for p in check.check_report(self.ZERO_PAD, off_kernel))
        wrong_sign = self._report([["0", "0"], ["1", "0"], ["-1", "0"]], [[0, 0], [1, 0], [1, 0]])
        assert check.check_report(self.ZERO_PAD, wrong_sign)

    def test_tampered_determinant_is_rejected(self):
        doc = {"verdicts": {"column_ndw": {"holds": False, "witness": {
            "selector": [0, 0], "determinant": "0"}}}}
        assert check.check_report(self.ZERO_PAD, doc)
        doc["verdicts"]["column_ndw"]["witness"]["selector"] = [1, 0]
        assert check.check_report(self.ZERO_PAD, doc) == []

    def test_identity_violation_is_rejected(self):
        doc = {"verdicts": {
            "column_ndw": {"holds": True, "witness": None},
            "column_ndw_def": {"holds": False, "witness": {
                "pattern": [[0, 0], [1, 0], [0, 0]], "x": [["0", "0"], ["1", "0"], ["0", "0"]]}},
        }}
        assert "T4.1: column_ndw != column_ndw_def" in check.check_report(self.ZERO_PAD, doc)

    def test_non_solution_point_is_rejected(self):
        # x_0 - x_1 = (1, 1) with x_0 ^ x_1 = 0 has the one solution x_0 = (1, 1)
        inst = _inst([[[1, 0], [0, 1]], [[1, 0], [0, 1]]], q=[1, 1])
        good = {"pieces": [{"point": [["1", "1"], ["0", "0"]], "dimension": 0,
                            "kernel_basis": []}]}
        assert check.check_solve(inst, good) == []
        bad = {"pieces": [{"point": [["1", "0"], ["0", "0"]], "dimension": 0,
                           "kernel_basis": []}]}
        assert check.check_solve(inst, bad)
        twice = {"pieces": good["pieces"] * 2}
        assert check.check_solve(inst, twice)

    def test_basis_vector_leaving_the_solution_set_is_rejected(self):
        inst = _inst([[[1, 0], [0, 1]], [[1, 0], [0, 1]]], q=[1, 1])
        doc = {"pieces": [{"point": [["1", "1"], ["0", "0"]], "dimension": 1,
                           "kernel_basis": [["0", "0", "1", "0"]]}]}
        assert any("basis vector" in p for p in check.check_solve(inst, doc))


class TestGenerator:
    @pytest.mark.parametrize("name", workloads.WORKLOADS)
    def test_deterministic_per_seed_and_different_across_seeds(self, name):
        a, b, c = workloads.build(name, 5), workloads.build(name, 5), workloads.build(name, 6)
        assert a == b
        assert a != c
        assert len(a) == len(c) > 10

    def test_segment_instances_have_two_solutions(self):
        # segment_instance raises if its constructed endpoints do not solve
        for i in range(5):
            inst = gen.segment_instance(3, 2, gen.Rng(1, i))
            assert inst["n"] == 3 and inst["k"] == 2

    @staticmethod
    def _dets(inst):
        n, k = inst["n"], inst["k"]
        sels = [()]
        for _ in range(n):
            sels = [s + (i,) for s in sels for i in range(k + 1)]
        return [check.det(check.representative(inst, s)) for s in sels]

    def test_row_permutation_keeps_solutions_and_scales_determinants(self):
        base = workloads._base("segment", 3, 2, 1)
        moved = gen.permute_rows(base, gen.Rng(9))
        assert moved["C"] != base["C"]
        ratios = {b / m for b, m in zip(self._dets(base), self._dets(moved)) if m}
        assert ratios in ({F(1)}, {F(-1)})
        # q is moved with the rows: a tuple solving C_0 x_0 = q + sum C_i x_i
        # for the base solves it for the moved instance
        xs = [[F(1), F(0), F(2)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
        zero_q = gen.instance(base["C"], base["d"], [F(0)] * 3)
        fitted = gen.instance(base["C"], base["d"], check.kernel_residual(zero_q, xs))
        assert check.kernel_residual(gen.permute_rows(fitted, gen.Rng(9)), xs) == [0] * 3

    def test_similarities_keep_determinants_and_minors(self):
        base = workloads._base("z", 3, 1, 3)
        for move in (gen.diagonal_similarity, gen.signature_similarity):
            moved = move(base, gen.Rng(4))
            assert self._dets(moved) == self._dets(base)
            for m0, m1 in zip(base["C"], moved["C"]):
                assert [m0[i][i] for i in range(3)] == [m1[i][i] for i in range(3)]
        z = gen.diagonal_similarity(base, gen.Rng(4))
        assert z["C"][0] == base["C"][0]
        assert all(z["C"][1][i][j] <= 0 for i in range(3) for j in range(3) if i != j)
