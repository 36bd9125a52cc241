"""Exact rational feasibility by the phase-1 simplex with Bland's rule.

nonneg_solution finds some z >= 0 with a . z = b, or shows there is none,
by phase 1 alone; no caller optimizes, so there is no phase 2.  The
tableau, with the reduced-cost row as its last row, is held in integers as
the rational tableau times a positive scale, and each pivot is
rational.pivot_step, so every sign test, ratio and tie-break is the
rational tableau's.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Optional, Sequence

from .rational import Vec, int_row, pivot_step


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


def _run_simplex(tab: list[list[int]], basis: list[int], cost: list, prev: int) -> int:
    """Maximize cost over the tableau rows [A | b] with Bland's rule, for a
    cost bounded above on {z >= 0 : A z = b}, as phase 1's is, so that every
    entering column has a leaving row; returns the tableau's new scale.  The
    reduced-cost row, scaled to integers, is pivoted as the tableau's last
    row during the run."""
    cost_int = int_row(cost) + [0]
    tab.append([
        cost_int[j] * prev - sum(cost_int[b] * row[j] for b, row in zip(basis, tab) if row[j])
        for j in range(len(cost_int))
    ])
    m = len(basis)
    while (enter := next((j for j in range(len(cost)) if tab[-1][j] > 0), -1)) >= 0:
        leave = -1
        for i in range(m):
            # Bland: least ratio tab[i][-1] / tab[i][enter], then least basic index
            a = tab[i][enter]
            if a > 0 and (leave < 0 or (tab[i][-1] * tab[leave][enter], basis[i])
                          < (tab[leave][-1] * a, basis[leave])):
                leave = i
        prev = _pivot(tab, basis, leave, enter, prev)
    tab.pop()
    return prev


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
    prev = _run_simplex(tab, basis, [0] * n + [-1] * m, 1)
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
