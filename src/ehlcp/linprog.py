"""Exact rational linear programming by dense simplex with Bland's rule.

lp_solve maximizes over free variables subject to equalities (row . x =
rhs) and inequalities (row . x >= rhs) by two phases; nonneg_solution, some
z >= 0 with a . z = b, is the same phase 1 alone.  The tableau, with the
reduced-cost row as its last row, is held in integers as the rational
tableau times a positive scale, and each pivot is rational.pivot_step, so
every sign test, ratio and tie-break is the rational tableau's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
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
    cost_int = int_row(cost) + [0]
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


def _phase1(rows: list[list[int]], n: int) -> Optional[tuple]:
    """Tableau, basis and scale of a basic z >= 0 with A z = b, A the first
    n columns of the integer rows [A | b], or None if there is none: rows
    with b_i < 0 negated, an unscaled artificial identity as first basis,
    and minus the artificials' sum maximized, a positive multiple of the
    rational one when [A | b] has one common scale."""
    m = len(rows)
    tab = [[v if row[-1] >= 0 else -v for v in row[:-1]] + [int(j == i) for j in range(m)]
           + [abs(row[-1])] for i, row in enumerate(rows)]
    basis = [n + i for i in range(m)]
    _, prev = _run_simplex(tab, basis, [0] * n + [-1] * m, 1)
    return None if any(tab[i][-1] for i in range(m) if basis[i] >= n) else (tab, basis, prev)


def _basic_point(tab: list[list[int]], basis: list[int], prev: int, n: int) -> list:
    """The first n coordinates of the tableau's basic solution."""
    point = [Fraction(0)] * n
    for row, col in zip(tab, basis):
        if col < n:
            point[col] = Fraction(row[-1], prev)
    return point


def nonneg_solution(a: Sequence[Vec], b: Vec) -> Optional[Vec]:
    """Some z >= 0 with a . z = b, exactly, or None if there is none: phase 1
    alone, on the (nonempty) rows of a scaled with b to integers by one
    common factor, and z the basic solution it ends on."""
    mult = lcm(*(v.denominator for v in chain(b, *a)))
    found = _phase1([int_row([*row, rhs], mult) for row, rhs in zip(a, b)], len(a[0]))
    return None if found is None else tuple(_basic_point(*found, len(a[0])))


def lp_solve(
    objective: Vec,
    eq: Sequence[Constraint] = (),
    ineq: Sequence[Constraint] = (),
) -> LpResult:
    """Maximize objective . x subject to eq rows (= rhs) and ineq rows (>= rhs)."""
    dim, n_eq, n_ineq = len(objective), len(eq), len(ineq)
    rows = [[*map(rat, row), rat(rhs)] for row, rhs in [*eq, *ineq]]
    if any(len(row) != dim + 1 for row in rows):
        raise DimensionError("constraint row dimension mismatch")
    # standard form in integers, over one common scale of [A | b]: x = u - v
    # with u, v >= 0, plus one surplus per inequality
    n_std = 2 * dim + n_ineq
    mult = lcm(*(v.denominator for row in rows for v in row))
    rows = [x[:-1] + [-v for v in x[:-1]] + [-mult * (s == i - n_eq) for s in range(n_ineq)]
            + x[-1:] for i, x in enumerate(int_row(row, mult) for row in rows)]
    found = _phase1(rows, n_std)
    if found is None:
        return LpResult("infeasible")
    tab, basis, prev = found
    # drive the remaining (zero-valued) artificials out of the basis; a row
    # with no nonzero original column is redundant and is dropped
    for i in range(len(rows)):
        if basis[i] >= n_std:
            col = next((j for j in range(n_std) if tab[i][j]), None)
            if col is not None:
                prev = _pivot(tab, basis, i, col, prev)
    keep = [i for i in range(len(rows)) if basis[i] < n_std]

    # phase 2 on the original columns
    tab, basis = [tab[i][:n_std] + tab[i][-1:] for i in keep], [basis[i] for i in keep]
    obj = [rat(x) for x in objective]
    cost2 = obj + [-x for x in obj] + [0] * n_ineq
    status, prev = _run_simplex(tab, basis, cost2, prev)
    if status == "unbounded":
        return LpResult("unbounded")
    values = _basic_point(tab, basis, prev, n_std)
    point = tuple(values[j] - values[dim + j] for j in range(dim))
    return LpResult("optimal", point, sum(o * p for o, p in zip(obj, point)))
