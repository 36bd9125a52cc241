"""Exact rational linear programming by dense two-phase simplex.

Variables are free; constraints are equalities (row . x = rhs) and
inequalities (row . x >= rhs); the objective is maximized.  Bland's
least-index rule guarantees termination.  Everything is exact, which is
what makes the downstream sign-pattern decisions trustworthy: the tableau,
with the reduced-cost row as its last row, is held in integers as the
rational tableau times a positive scale, and each pivot is
rational.pivot_step, so every sign test, ratio and tie-break is the
rational tableau's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import DimensionError
from .rational import Vec, int_row, pivot_step, rat

Constraint = tuple  # (row: Vec, rhs: Fraction)


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    point: Optional[Vec] = None
    objective_value: Optional[Fraction] = None


def _pivot(tab: list[list[int]], basis: list[int], row: int, col: int, prev: int) -> int:
    """One simplex pivot on the integer tableau tab = prev * (rational
    tableau); returns the new scale, kept positive so that every sign test
    reads the rational tableau's sign."""
    pivot_step(tab, row, col, prev)
    basis[row] = col
    piv = tab[row][col]
    if piv < 0:
        tab[:] = [[-x for x in r] for r in tab]
    return abs(piv)


def _run_simplex(tab: list[list[int]], basis: list[int], cost: list,
                 prev: int) -> tuple[str, int]:
    """Maximize cost over the tableau rows [A | b] with Bland's rule; returns
    the status and the tableau's new scale.  The reduced-cost row, scaled to
    integers, is pivoted as the tableau's last row during the run."""
    cost_int = int_row(cost, lcm(*(c.denominator for c in cost))) + [0]
    tab.append([
        cost_int[j] * prev - sum(cost_int[b] * row[j] for b, row in zip(basis, tab) if row[j])
        for j in range(len(cost_int))
    ])
    m = len(basis)
    while True:
        enter = next((j for j in range(len(cost)) if tab[-1][j] > 0), -1)
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            # Bland: least ratio tab[i][-1] / tab[i][enter], then least basic index
            a = tab[i][enter]
            if a > 0 and (leave < 0 or (tab[i][-1] * tab[leave][enter], basis[i])
                          < (tab[leave][-1] * a, basis[leave])):
                leave = i
        if leave < 0:
            break
        prev = _pivot(tab, basis, leave, enter, prev)
    tab.pop()
    return ("optimal" if enter < 0 else "unbounded"), prev


def lp_solve(
    objective: Vec,
    eq: Sequence[Constraint] = (),
    ineq: Sequence[Constraint] = (),
) -> LpResult:
    """Maximize objective . x subject to eq rows (= rhs) and ineq rows (>= rhs)."""
    dim, n_eq, n_ineq = len(objective), len(eq), len(ineq)
    # standard form: x = u - v with u, v >= 0, plus one surplus per inequality,
    # each row negated where needed so that its right-hand side is >= 0
    n_std = 2 * dim + n_ineq
    rows = []
    for idx, (row, rhs) in enumerate([*eq, *ineq]):
        if len(row) != dim:
            raise DimensionError("constraint row dimension mismatch")
        x = [rat(v) for v in row]
        std = x + [-v for v in x] + [-int(s == idx - n_eq) for s in range(n_ineq)] + [rat(rhs)]
        rows.append(std if std[-1] >= 0 else [-v for v in std])

    m = len(rows)
    # phase 1: artificial basis, maximize -(sum of artificials).  One common
    # integer scale over [A | b] and an unscaled artificial identity keep the
    # phase-1 objective a positive multiple of the rational one.
    mult = lcm(*(v.denominator for row in rows for v in row))
    tab = [int_row(row[:-1], mult) + [int(j == i) for j in range(m)] + int_row(row[-1:], mult)
           for i, row in enumerate(rows)]
    basis = [n_std + i for i in range(m)]
    cost1 = [0] * n_std + [-1] * m
    _, prev = _run_simplex(tab, basis, cost1, 1)
    if sum(tab[i][-1] for i in range(m) if basis[i] >= n_std) != 0:
        return LpResult("infeasible")
    # drive the remaining (zero-valued) artificials out of the basis; a row
    # with no nonzero original column is redundant and is dropped
    for i in range(m):
        if basis[i] >= n_std:
            col = next((j for j in range(n_std) if tab[i][j]), None)
            if col is not None:
                prev = _pivot(tab, basis, i, col, prev)
    keep = [i for i in range(m) if basis[i] < n_std]

    # phase 2 on the original columns
    tab = [tab[i][:n_std] + tab[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]
    obj = [rat(x) for x in objective]
    cost2 = obj + [-x for x in obj] + [0] * n_ineq
    status, prev = _run_simplex(tab, basis, cost2, prev)
    if status == "unbounded":
        return LpResult("unbounded")
    values = [Fraction(0)] * n_std
    for i, b in enumerate(basis):
        values[b] = Fraction(tab[i][-1], prev)
    point = tuple(values[j] - values[dim + j] for j in range(dim))
    value = sum(o * p for o, p in zip(obj, point))
    return LpResult("optimal", point, value)
