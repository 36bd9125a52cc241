"""Acceptance gate: end-to-end checks of every advertised guarantee.

Each test prints one PASS/FAIL line.  All comparisons are exact rational
equality; there are no tolerances anywhere in this file.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from ehlcp.classes import is_m
from ehlcp.csw import (
    _first_violation,
    check_column_ndw_def,
    check_cone_csw,
    check_csw,
    check_x_column_sufficiency,
)
from ehlcp.harness import (
    GenSpec,
    gen_instance,
    gen_tuple,
    nonconvex_pair,
    paper_example_tuple,
    skew_pair_tuple,
    subseed,
    w0_not_csw_tuple,
)
from ehlcp.rational import identity, inverse, mat, mat_vec, zeros
from ehlcp.representatives import (
    check_column_ndw_det,
    check_column_w,
    check_column_w0,
    make_tuple,
)
from ehlcp.solver import EhlcpInstance, is_solution, solve_all
from reference import (
    mat_mul,
    midpoints_solve,
    ndw_two_solutions,
    representative_matrix,
    solution_points,
)

SAMPLE_SEED = 2024
SAMPLE_SIZE = 500


def segment_instance():
    """HLCP instance whose solution set contains a whole segment."""
    return EhlcpInstance(skew_pair_tuple(), (), (Fraction(0), Fraction(1)))


def report(criterion, ok):
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def generic_sample():
    """500 seeded generic tuples (n=2, k in {1,2}, entries in -2..2) with all
    five tuple verdicts, and cS-W by pattern enumeration alone, precomputed;
    shared across criteria 2, 3, 4, 6, 9."""
    records = []
    for i in range(SAMPLE_SIZE):
        k = 1 + i % 2
        t = gen_tuple(GenSpec(2, k, "generic", 2, subseed(SAMPLE_SEED, i)))
        records.append(
            {
                "index": i,
                "tuple": t,
                "w": check_column_w(t).holds,
                "w0": check_column_w0(t).holds,
                "ndw_det": check_column_ndw_det(t).holds,
                "ndw_def": check_column_ndw_def(t).holds,
                "csw": check_csw(t).holds,
                "csw_enumerated": _first_violation(t, "csw") is None,
            }
        )
    return records


class TestCriterion01:
    def test_worked_example_golden(self):
        t = paper_example_tuple()
        csw = check_csw(t)
        w = check_column_w(t)
        ok = csw.holds and not w.holds
        violation = w.witness["violations"][0]
        ok = ok and violation["determinant"] == "0"
        sel = tuple(violation["selector"])
        from ehlcp.rational import det

        ok = ok and det(representative_matrix(t, sel)) == 0
        ok = ok and not check_column_ndw_det(t).holds
        ok = ok and check_column_w0(t).holds
        report(1, ok)


class TestCriterion02:
    def test_ndw_definition_matches_determinants(self, generic_sample):
        disagreements = [
            r["index"] for r in generic_sample if r["ndw_def"] != r["ndw_det"]
        ]
        report(2, not disagreements)


class TestCriterion03:
    def test_w_equivalences(self, generic_sample):
        extra = []
        for t in (paper_example_tuple(), w0_not_csw_tuple()):
            extra.append(
                {
                    "w": check_column_w(t).holds,
                    "w0": check_column_w0(t).holds,
                    "ndw_det": check_column_ndw_det(t).holds,
                    "csw": check_csw(t).holds,
                }
            )
        ok = True
        # check_csw's fast paths are the first equivalence, so it is tested
        # on the enumeration, and check_csw is held to agree with that
        for r in generic_sample:
            ok = ok and r["w"] == (r["csw_enumerated"] and r["ndw_det"])
            ok = ok and r["csw"] == r["csw_enumerated"]
        for r in list(generic_sample) + extra:
            ok = ok and r["w"] == (r["csw"] and r["ndw_det"])
            ok = ok and r["w"] == (r["w0"] and r["ndw_det"])
        # the injected cases exercise both failure directions
        ok = ok and extra[0]["csw"] and not extra[0]["ndw_det"]
        ok = ok and extra[1]["w0"] and not extra[1]["csw"]
        report(3, ok)


class TestCriterion04:
    def test_chain_and_strictness(self, generic_sample):
        ok = all(r["w0"] for r in generic_sample if r["csw"])
        strict_a = paper_example_tuple()
        ok = ok and check_csw(strict_a).holds and not check_column_w(strict_a).holds
        strict_b = w0_not_csw_tuple()
        ok = ok and check_column_w0(strict_b).holds and not check_csw(strict_b).holds
        report(4, ok)


class TestCriterion05:
    def test_column_w_uniqueness(self):
        sizes = [(2, 1), (2, 2), (3, 1), (3, 2)]
        ok = True
        for i in range(20):
            n, k = sizes[i % len(sizes)]
            t = gen_tuple(
                GenSpec(n, k, "column_w_constructive", 2, subseed(500, i))
            )
            for s in range(50):
                inst = gen_instance(t, subseed(1000 * (i + 1), s))
                pieces = solve_all(inst)
                ok = ok and len(pieces) == 1
                ok = ok and pieces[0].piece_dimension == 0
                ok = ok and is_solution(inst, pieces[0].point)
                if not ok:
                    break
            if not ok:
                break
        report(5, ok)


class TestCriterion06:
    def test_ndw_finiteness(self, generic_sample):
        ok = True
        for r in generic_sample:
            if not r["ndw_det"]:
                continue
            inst = gen_instance(r["tuple"], subseed(600, r["index"]))
            ok = ok and all(p.piece_dimension == 0 for p in solve_all(inst))
            if not ok:
                break
        report(6, ok)


class TestCriterion07:
    def test_segment_golden(self):
        inst = segment_instance()
        pieces = solve_all(inst)
        ok = any(p.piece_dimension == 1 for p in pieces)
        points = solution_points(inst)
        ok = ok and len(points) >= 3
        ok = ok and midpoints_solve(inst, points[:3])
        ok = ok and nonconvex_pair(inst, pieces) is None
        report(7, ok)

    def test_random_convexity(self):
        found = 0
        ok = True
        for i in range(3000):
            if found >= 100:
                break
            k = 1 + i % 2
            t = gen_tuple(GenSpec(2, k, "generic", 2, subseed(700, i)))
            if check_column_ndw_det(t).holds or not check_csw(t).holds:
                continue
            inst, _, _ = ndw_two_solutions(t)
            points = solution_points(inst)
            if len(points) < 2:
                continue
            found += 1
            ok = ok and midpoints_solve(inst, points)
            ok = ok and nonconvex_pair(inst, solve_all(inst)) is None
            if not ok:
                break
        report(7, ok and found >= 100)


class TestCriterion08:
    def build_m_instance(self, seed, n, k):
        from ehlcp.harness import SplitMix64

        rng = SplitMix64(seed)
        nonneg = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        s = 1 + max(sum(row) for row in nonneg)
        c0 = mat(
            [
                [s - nonneg[i][j] if i == j else -nonneg[i][j] for j in range(n)]
                for i in range(n)
            ]
        )
        mats = [c0]
        for _ in range(k):
            diag = tuple(
                tuple(Fraction(rng.randint(1, 2) if i == j else 0) for j in range(n))
                for i in range(n)
            )
            mats.append(mat_mul(c0, diag))
        t = make_tuple(mats)
        d = tuple(
            tuple(Fraction(rng.randint(1, 2)) for _ in range(n)) for _ in range(k - 1)
        )
        q = tuple(Fraction(rng.randint(1, 2)) for _ in range(n))
        return EhlcpInstance(t, d, q)

    def test_m_matrix_unique_solution(self):
        ok = True
        for i in range(20):
            inst = self.build_m_instance(subseed(800, i), 2, 1 + i % 2)
            t = inst.matrix_tuple
            ok = ok and is_m(t.mats[0]).holds
            ok = ok and check_csw(t).holds
            ok = ok and all(v > 0 for v in inst.q)
            expected = mat_vec(inverse(t.mats[0]), inst.q) + zeros(t.k * t.n)
            pieces = solve_all(inst)
            ok = ok and len(pieces) == 1
            ok = ok and pieces[0].piece_dimension == 0
            ok = ok and pieces[0].point == expected
            if not ok:
                break
        report(8, ok)


class TestCriterion09:
    def test_consecutive_pairs_under_csw(self, generic_sample):
        ok = True
        for r in generic_sample:
            if not r["csw"]:
                continue
            t = r["tuple"]
            for i in range(t.k):
                ok = ok and check_x_column_sufficiency(t.mats[i], t.mats[i + 1]).holds
            if not ok:
                break
        report(9, ok)


class TestCriterion10:
    def test_cone_equivalence_and_convexity(self):
        ok = True
        for i in range(200):
            k = 1 + i % 2
            t = gen_tuple(GenSpec(2, k, "z_structured", 2, subseed(1010, i)))
            cone = check_cone_csw(t).holds
            csw = check_csw(t).holds
            ok = ok and cone == csw
            if not ok:
                break
            if not cone:
                continue
            if check_column_ndw_det(t).holds:
                inst = gen_instance(t, subseed(1020, i))
            else:
                inst, _, _ = ndw_two_solutions(t)
            points = solution_points(inst)
            ok = ok and midpoints_solve(inst, points)
            ok = ok and nonconvex_pair(inst, solve_all(inst)) is None
            if not ok:
                break
        report(10, ok)


def brute_force_lcp(c1, q):
    """Independent dimension-0 solution enumerator for x0 = q + C1 x1 with
    x0 wedge x1 = 0, by complementary index sets over sympy linear algebra.

    For each index set S: pin x1_i = 0 for i outside S and x0_i = 0 for i in
    S, solve, and keep solutions whose feasible set is a single point.
    """
    n = 2
    syms = sympy.symbols("u0 u1")

    def to_frac(expr):
        r = sympy.Rational(expr)
        return Fraction(r.p, r.q)

    points = set()
    for mask in range(2**n):
        s_set = [i for i in range(n) if mask >> i & 1]
        eqs = []
        for i in range(n):
            if i in s_set:
                eqs.append(
                    sum(
                        sympy.Rational(c1[i][j].numerator, c1[i][j].denominator)
                        * syms[j]
                        for j in range(n)
                    )
                    + sympy.Rational(q[i].numerator, q[i].denominator)
                )
            else:
                eqs.append(syms[i])
        sol = sympy.linsolve(eqs, syms)
        if not sol:
            continue
        (expr,) = sol
        params = sorted(expr.free_symbols, key=str)
        if len(params) == 0:
            x1 = tuple(to_frac(e) for e in expr)
            x0 = tuple(
                sum(c1[i][j] * x1[j] for j in range(n)) + q[i] for i in range(n)
            )
            if all(v >= 0 for v in x1) and all(v >= 0 for v in x0):
                points.add((x0, x1))
        elif len(params) == 1:
            # one-parameter family: keep it only when the feasibility
            # interval degenerates to a single point
            t = params[0]
            base = [to_frac(e.subs(t, 0)) for e in expr]
            step = [to_frac(e.coeff(t)) for e in expr]
            constraints = []  # a + b * t >= 0
            for i in range(n):
                constraints.append((base[i], step[i]))
            for i in range(n):
                a = sum(c1[i][j] * base[j] for j in range(n)) + q[i]
                b = sum(c1[i][j] * step[j] for j in range(n))
                constraints.append((a, b))
            lo, hi, feasible = None, None, True
            for a, b in constraints:
                if b == 0:
                    if a < 0:
                        feasible = False
                        break
                elif b > 0:
                    bound = -a / b
                    lo = bound if lo is None else max(lo, bound)
                else:
                    bound = -a / b
                    hi = bound if hi is None else min(hi, bound)
            if not feasible or lo is None or hi is None or lo != hi:
                continue
            x1 = tuple(base[j] + lo * step[j] for j in range(n))
            x0 = tuple(
                sum(c1[i][j] * x1[j] for j in range(n)) + q[i] for i in range(n)
            )
            points.add((x0, x1))
        else:
            # rank-zero system: the feasible set is a full quadrant (or
            # empty), never a single point
            continue
    return points


class TestCriterion11:
    def test_solver_matches_brute_force(self):
        from ehlcp.harness import SplitMix64

        ok = True
        for i in range(200):
            rng = SplitMix64(subseed(1100, i))
            c1 = mat([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            q = tuple(Fraction(rng.randint(-2, 2)) for _ in range(2))
            inst = EhlcpInstance(make_tuple([identity(2), c1]), (), q)
            solver_points = {
                (p.point[:2], p.point[2:])
                for p in solve_all(inst)
                if p.piece_dimension == 0
            }
            oracle_points = brute_force_lcp(c1, q)
            ok = ok and solver_points == oracle_points
            if not ok:
                break
        report(11, ok)


class TestCriterion12:
    def run_twice(self, args):
        a = subprocess.run(args, capture_output=True)
        b = subprocess.run(args, capture_output=True)
        return a, b

    def test_verify_byte_identical(self):
        args = [
            sys.executable, "-m", "ehlcp", "verify",
            "--theorem", "T4.3-chain", "--trials", "10", "--seed", "6",
        ]
        a, b = self.run_twice(args)
        ok = a.returncode == 0 and a.stdout == b.stdout and bool(a.stdout)
        doc = json.loads(a.stdout)
        report(12, ok and "timing_seconds" not in doc)

    def test_gen_byte_identical(self):
        args = [
            sys.executable, "-m", "ehlcp", "gen",
            "--family", "z_structured", "--n", "2", "--k", "2", "--seed", "11",
        ]
        a, b = self.run_twice(args)
        report(12, a.returncode == 0 and a.stdout == b.stdout and bool(a.stdout))
