"""The tests' one reference simplex, reference.lp_solve, a two-phase LP on
a Fraction tableau that shares no code with ehlcp.linprog: statuses,
optimal points, constraint satisfaction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehlcp.errors import DimensionError
from ehlcp.linprog import nonneg_solution
from reference import lp_solve


F = Fraction


class TestStatuses:
    def test_scaled_feasibility_problem(self):
        # vars (x, t): maximize t subject to x >= t and -x >= -1
        res = lp_solve(
            (F(0), F(1)),
            ineq=[((F(1), F(-1)), F(0)), ((F(-1), F(0)), F(-1))],
        )
        assert res.status == "optimal"
        assert res.objective_value == 1

    def test_infeasible(self):
        res = lp_solve(
            (F(0),),
            ineq=[((F(1),), F(1)), ((F(-1),), F(0))],
        )
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = lp_solve((F(1),))
        assert res.status == "unbounded"

    def test_equality_only(self):
        res = lp_solve(
            (F(1), F(0)),
            eq=[((F(1), F(1)), F(2)), ((F(1), F(-1)), F(0))],
        )
        assert res.status == "optimal"
        assert res.point == (F(1), F(1))


class TestExactness:
    def test_optimal_point_attains_objective(self):
        res = lp_solve(
            (F(2), F(3)),
            ineq=[
                ((F(-1), F(0)), F(-5)),
                ((F(0), F(-1)), F(-7)),
                ((F(1), F(0)), F(0)),
                ((F(0), F(1)), F(0)),
            ],
        )
        assert res.status == "optimal"
        assert res.point == (F(5), F(7))
        assert res.objective_value == 2 * 5 + 3 * 7

    def test_fractional_vertex(self):
        # maximize x + y on x + 2y <= 1, 2x + y <= 1, x,y >= 0
        res = lp_solve(
            (F(1), F(1)),
            ineq=[
                ((F(-1), F(-2)), F(-1)),
                ((F(-2), F(-1)), F(-1)),
                ((F(1), F(0)), F(0)),
                ((F(0), F(1)), F(0)),
            ],
        )
        assert res.status == "optimal"
        assert res.point == (Fraction(1, 3), Fraction(1, 3))
        assert res.objective_value == Fraction(2, 3)

    def test_free_variables_allowed_negative(self):
        res = lp_solve((F(-1),), ineq=[((F(1),), F(-4))])
        assert res.status == "optimal"
        assert res.point == (F(-4),)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=-3, max_value=3),
            ),
            min_size=1,
            max_size=6,
        ),
        st.tuples(
            st.integers(min_value=-2, max_value=2),
            st.integers(min_value=-2, max_value=2),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_optimal_points_satisfy_all_constraints(self, raw_ineqs, raw_obj):
        # bound the feasible region so "optimal" is a common outcome
        box = [
            ((F(-1), F(0)), F(-5)),
            ((F(0), F(-1)), F(-5)),
            ((F(1), F(0)), F(-5)),
            ((F(0), F(1)), F(-5)),
        ]
        ineqs = box + [((F(a), F(b)), F(c)) for a, b, c in raw_ineqs]
        res = lp_solve(tuple(map(F, raw_obj)), ineq=ineqs)
        assert res.status in ("optimal", "infeasible")
        if res.status == "optimal":
            x, y = res.point
            for (a, b), rhs in ineqs:
                assert a * x + b * y >= rhs
            assert res.objective_value == raw_obj[0] * x + raw_obj[1] * y

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            lp_solve((F(1),), ineq=[((F(1), F(2)), F(0))])


class TestDegenerate:
    def test_redundant_equalities(self):
        res = lp_solve(
            (F(1),),
            eq=[((F(1),), F(2)), ((F(2),), F(4))],
        )
        assert res.status == "optimal"
        assert res.point == (F(2),)

    def test_contradictory_equalities(self):
        res = lp_solve(
            (F(1),),
            eq=[((F(1),), F(2)), ((F(1),), F(3))],
        )
        assert res.status == "infeasible"

    def test_zero_objective_feasibility_check(self):
        res = lp_solve(
            (F(0), F(0)),
            ineq=[((F(1), F(1)), F(1)), ((F(-1), F(-1)), F(-1))],
        )
        assert res.status == "optimal"
        x, y = res.point
        assert x + y == 1

    def test_ties_break_to_the_least_basic_index(self):
        # phase 1 meets tied ratios: Bland's rule ends on (2/3, -1/3), a
        # largest-index tie-break on (1/2, -1/2), and linprog's integer
        # phase 1 on the same point of the standard form [A | -A | -I] z = b
        rows = [((F(1), F(-1)), F(1)), ((F(-1), F(-2)), F(0)),
                ((F(1), F(1)), F(0)), ((F(0), F(-1)), F(0))]
        res = lp_solve((F(0), F(0)), ineq=rows)
        assert res.point == (F(2, 3), F(-1, 3))
        int_rows = [[*map(int, r), *(-int(x) for x in r), *(-(s == i) for s in range(4)), int(b)]
                    for i, (r, b) in enumerate(rows)]
        z, scale = nonneg_solution(int_rows)
        assert (F(z[0] - z[2], scale), F(z[1] - z[3], scale)) == res.point
