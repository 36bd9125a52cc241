"""Exact rational feasibility by the phase-1 simplex with Bland's rule.

nonneg_solution finds some z >= 0 with A z = b, or shows there is none,
by phase 1 alone; no caller optimizes, so there is no phase 2.  Every LP
in the package is one call to it: solver._affine_piece's hull problems and
csw.pattern_realizable's witness problem.  Its callers hand it the integer
rows [A | b] of a rational system times one positive factor, and it
returns z as integer numerators over one positive scale.  The tableau,
with the reduced-cost row as its last row, is held in integers as the
rational tableau times a positive scale, and each pivot is
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


def nonneg_solution(rows: list[list[int]]) -> Optional[tuple]:
    """(Z, scale) with z = Z / scale some z >= 0 with A z = b, exactly, or
    None if there is none, A the first n columns of the (nonempty) integer
    rows [A | b], which must be the rational rows times one positive factor.

    Phase 1 alone: rows with b_i < 0 negated, an unscaled artificial
    identity as first basis, and minus the artificials' sum maximized with
    Bland's rule.  That cost is bounded above by 0, so every entering
    column has a leaving row, and it is a positive multiple of the rational
    one because [A | b] has one common factor.  With every artificial
    basic, its reduced-cost row is the column sums of [A | b], and 0 on the
    artificials; the row is pivoted as the tableau's last row during the
    run.  Nothing drives artificials out afterwards: z is the basic
    solution the run ends on, z = b_i / scale on the basic rows.  Any
    common factor gives the same z in the same pivots; the tests' Fraction
    phase 1 reaches it too."""
    m, n = len(rows), len(rows[0]) - 1
    tab = [[v if row[-1] >= 0 else -v for v in row[:-1]] + [int(j == i) for j in range(m)]
           + [abs(row[-1])] for i, row in enumerate(rows)]
    basis = [n + i for i in range(m)]
    tab.append([sum(row[j] for row in tab) for j in range(n)] + [0] * m
               + [sum(row[-1] for row in tab)])
    scale = 1
    while (enter := next((j for j in range(n + m) if tab[-1][j] > 0), -1)) >= 0:
        leave = -1
        for i in range(m):
            # Bland: least ratio tab[i][-1] / tab[i][enter], then least basic index
            a = tab[i][enter]
            if a > 0 and (leave < 0 or (tab[i][-1] * tab[leave][enter], basis[i])
                          < (tab[leave][-1] * a, basis[leave])):
                leave = i
        scale = _pivot(tab, basis, leave, enter, scale)
    z = [0] * n
    for i, col in enumerate(basis):
        if col < n:
            z[col] = tab[i][-1]
        elif tab[i][-1]:
            return None
    return z, scale
