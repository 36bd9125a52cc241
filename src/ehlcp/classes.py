"""Single-matrix class oracles: Z, M, P, nondegenerate, column sufficient."""

from __future__ import annotations

from itertools import combinations

from .csw import check_csw
from .errors import CapExceeded
from .rational import Mat, det, identity, inverse, rat_str, require_square
from .representatives import PropertyVerdict, make_tuple

MINOR_CAP = 16


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
    """M-matrix: Z-matrix with a nonnegative inverse."""
    z = is_z(m)
    if not z.holds:
        return PropertyVerdict("m", False, z.witness, "not a Z-matrix")
    inv = inverse(m)
    if inv is None:
        return PropertyVerdict("m", False, {"singular": True}, "matrix is singular")
    for i, row in enumerate(inv):
        for j, v in enumerate(row):
            if v < 0:
                return PropertyVerdict(
                    "m", False,
                    {"inverse_row": i + 1, "inverse_col": j + 1, "value": rat_str(v)},
                    "the inverse has a negative entry",
                )
    return PropertyVerdict("m", True, None, "Z-matrix with nonnegative inverse")


def _minor_verdict(m: Mat, name: str, bad, certificate_ok: str, certificate_bad: str) -> PropertyVerdict:
    """Scan the principal minors by size, then lexicographically by 1-based
    index set, and report the first one that is bad."""
    n = require_square(m)
    if n > MINOR_CAP:
        raise CapExceeded(f"principal minor enumeration capped at n <= {MINOR_CAP}")
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            value = det(tuple(tuple(m[i][j] for j in subset) for i in subset))
            if bad(value):
                return PropertyVerdict(
                    name, False,
                    {"index_set": [i + 1 for i in subset], "minor": rat_str(value)},
                    certificate_bad,
                )
    return PropertyVerdict(name, True, None, certificate_ok)


def is_p(m: Mat) -> PropertyVerdict:
    """P-matrix: every principal minor strictly positive."""
    return _minor_verdict(
        m, "p", lambda v: v <= 0,
        "all principal minors are positive",
        "a nonpositive principal minor exists",
    )


def is_nondegenerate(m: Mat) -> PropertyVerdict:
    """Nondegenerate matrix: every principal minor nonzero."""
    return _minor_verdict(
        m, "nondegenerate", lambda v: v == 0,
        "all principal minors are nonzero",
        "a zero principal minor exists",
    )


def is_column_sufficient(m: Mat) -> PropertyVerdict:
    """Column sufficiency of a single matrix, decided through the pair
    oracle on the tuple (I, m): x * (m x) <= 0 must force x * (m x) = 0."""
    verdict = check_csw(make_tuple([identity(require_square(m)), m]))
    return PropertyVerdict(
        "column_sufficient", verdict.holds, verdict.witness,
        "decided via the tuple (I, C); " + verdict.decided_by,
    )
