"""Single-matrix class oracles: Z, M, P, nondegenerate, column sufficient.

P and nondegenerate read m's principal minors as the representative
determinants of the tuple (I, m); column sufficiency is decided on it too."""

from __future__ import annotations

from itertools import chain, combinations

from .csw import check_csw
from .rational import Mat, _echelon, identity, int_row, rat_str, ratio_str, require_square
from .representatives import (
    MatrixTuple,
    PropertyVerdict,
    _det_numerators,
    check_selector_cap,
    make_tuple,
)


def is_z(m: Mat) -> PropertyVerdict:
    """Z-matrix: all off-diagonal entries nonpositive."""
    n = require_square(m)
    for i in range(n):
        for j in range(n):
            if i != j and m[i][j] > 0:
                return PropertyVerdict(
                    "z", False,
                    {"row": i + 1, "col": j + 1, "value": rat_str(m[i][j])},
                    "a positive off-diagonal entry exists",
                )
    return PropertyVerdict("z", True, None, "all off-diagonal entries are nonpositive")


def is_m(m: Mat) -> PropertyVerdict:
    """M-matrix: Z-matrix with a nonnegative inverse.  The inverse is read
    off _echelon of [m | I] in integers: fewer than n pivots means singular,
    and row i of the inverse is row i's right block over the last pivot.
    The witness is the first negative entry in row-major order."""
    z = is_z(m)
    if not z.holds:
        return PropertyVerdict("m", False, z.witness, "not a Z-matrix")
    n = len(m)
    rows = [int_row([*row, *unit]) for row, unit in zip(m, identity(n))]
    pivots, last, _ = _echelon(rows, n)
    if len(pivots) < n:
        return PropertyVerdict("m", False, {"singular": True}, "matrix is singular")
    for i, row in enumerate(rows):
        for j, v in enumerate(row[n:]):
            if v * last < 0:
                return PropertyVerdict(
                    "m", False,
                    {"inverse_row": i + 1, "inverse_col": j + 1,
                     "value": ratio_str(-abs(v), abs(last))},
                    "the inverse has a negative entry",
                )
    return PropertyVerdict("m", True, None, "Z-matrix with nonnegative inverse")


def _minor_verdict(m: Mat, name: str, bad, good_word: str, bad_word: str) -> PropertyVerdict:
    """Report the first bad principal minor by size, then by 1-based index
    set; more than SELECTOR_CAP index sets are refused before any minor.
    Sizes 1 and 2 are read off m.  Only if none is bad and n > 2 is (I, m)
    walked, in full: det m_aa is its representative that takes column j of
    m for j in a, and the least bad (size, index set) is kept."""
    n = require_square(m)
    check_selector_cap(n, 1)
    small = chain(((m[i][i], (i,)) for i in range(n)),
                  ((m[i][i] * m[j][j] - m[i][j] * m[j][i], (i, j))
                   for i, j in combinations(range(n), 2)))
    found = next(((rat_str(v), subset) for v, subset in small if bad(v)), None)
    if found is None and n > 2:
        denom, walk = _det_numerators(MatrixTuple(n, 1, (identity(n), m)))
        least = min(((sum(sel), [j for j, s in enumerate(sel) if s], num)
                     for sel, num in walk if bad(num)), default=None)
        if least is not None:
            found = ratio_str(least[2], denom), least[1]
    if found is None:
        return PropertyVerdict(name, True, None, f"all principal minors are {good_word}")
    minor, subset = found
    return PropertyVerdict(name, False, {"index_set": [i + 1 for i in subset], "minor": minor},
                           f"a {bad_word} principal minor exists")


def is_p(m: Mat) -> PropertyVerdict:
    """P-matrix: every principal minor strictly positive."""
    return _minor_verdict(m, "p", lambda v: v <= 0, "positive", "nonpositive")


def is_nondegenerate(m: Mat) -> PropertyVerdict:
    """Nondegenerate matrix: every principal minor nonzero."""
    return _minor_verdict(m, "nondegenerate", lambda v: v == 0, "nonzero", "zero")


def is_column_sufficient(m: Mat) -> PropertyVerdict:
    """Column sufficiency of a single matrix, decided through the pair
    oracle on the tuple (I, m): x * (m x) <= 0 must force x * (m x) = 0."""
    verdict = check_csw(make_tuple([identity(require_square(m)), m]))
    return PropertyVerdict(
        "column_sufficient", verdict.holds, verdict.witness,
        "decided via the tuple (I, C); " + verdict.decided_by,
    )
