"""Exact rational feasibility by the phase-1 simplex with Bland's rule.

nonneg_solution finds some z >= 0 with A z = b, or shows there is none,
by phase 1 alone; no caller optimizes, so there is no phase 2.  Its
callers hand it the integer rows [A | b] of a rational system times one
positive factor, and it returns z as integer numerators over one positive
scale.  The tableau, with the reduced-cost row as its last row, is held in
integers as the rational tableau times a positive scale, and each pivot is
rational.pivot_step, so every sign test, ratio and tie-break is the
rational tableau's.
"""

from __future__ import annotations

from typing import Optional

from .rational import pivot_step


def _pivot(tab: list[list[int]], basis: list[int], row: int, col: int, prev: int) -> int:
    """One simplex pivot on the integer tableau tab = prev * (rational
    tableau); returns the new scale, the pivot entry.  Phase 1 pivots only
    on positive entries, so the scale stays positive and every sign test
    reads the rational tableau's sign."""
    pivot_step(tab, row, col, prev)
    basis[row] = col
    return tab[row][col]


def _phase1(rows: list[list[int]], n: int) -> Optional[tuple]:
    """Tableau, basis and scale of a basic z >= 0 with A z = b, A the first
    n columns of the integer rows [A | b], or None if there is none: rows
    with b_i < 0 negated, an unscaled artificial identity as first basis,
    and minus the artificials' sum maximized with Bland's rule.  That cost
    is bounded above by 0, so every entering column has a leaving row, and
    it is a positive multiple of the rational one when [A | b] has one
    common scale.  With every artificial basic, its reduced-cost row is
    the column sums of [A | b], and 0 on the artificials; the row is
    pivoted as the tableau's last row during the run.  Nothing drives
    artificials out afterwards.  nonneg_solution and
    csw.pattern_realizable call it, the latter on rows of
    MatrixTuple.int_stacked, and each reads z = b_i / scale off the basic
    rows."""
    m = len(rows)
    tab = [[v if row[-1] >= 0 else -v for v in row[:-1]] + [int(j == i) for j in range(m)]
           + [abs(row[-1])] for i, row in enumerate(rows)]
    basis = [n + i for i in range(m)]
    tab.append([sum(row[j] for row in tab) for j in range(n)] + [0] * m
               + [sum(row[-1] for row in tab)])
    prev = 1
    while (enter := next((j for j in range(n + m) if tab[-1][j] > 0), -1)) >= 0:
        leave = -1
        for i in range(m):
            # Bland: least ratio tab[i][-1] / tab[i][enter], then least basic index
            a = tab[i][enter]
            if a > 0 and (leave < 0 or (tab[i][-1] * tab[leave][enter], basis[i])
                          < (tab[leave][-1] * a, basis[leave])):
                leave = i
        prev = _pivot(tab, basis, leave, enter, prev)
    tab.pop()
    return None if any(tab[i][-1] for i in range(m) if basis[i] >= n) else (tab, basis, prev)


def nonneg_solution(rows: list[list[int]]) -> Optional[tuple]:
    """(Z, scale) with z = Z / scale some z >= 0 with A z = b, exactly, or
    None if there is none: phase 1 alone on the (nonempty) integer rows
    [A | b], which must be the rational rows times one positive factor, and
    z the basic solution it ends on.  Any such factor gives the same z in
    the same pivots; the tests' Fraction phase 1 reaches it too."""
    n = len(rows[0]) - 1
    found = _phase1(rows, n)
    if found is None:
        return None
    tab, basis, scale = found
    z = [0] * n
    for row, col in zip(tab, basis):
        if col < n:
            z[col] = row[-1]
    return z, scale
