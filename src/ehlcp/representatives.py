"""Column representative enumeration and determinant-sign tuple properties.

A tuple (C_0, ..., C_k) of n x n matrices has (k+1)^n column representative
matrices; their determinant signs decide the column W, column W0 and the
determinant form of the column ND-W property.

representative_dets computes every determinant in one elimination tree over
the selectors.  Row i of every C_s is scaled to integers by one L_i.  A
node at depth j holds the unused rows times the k+1 candidate columns of
each position j..n-1; choosing s_j pivots (rational.pivot_step) on the
first unused row nonzero in candidate column s_j, then drops that row and
position j's columns.  Siblings share their parent's elimination, so each
selector costs its path's pivots below the shared prefix, not a full n x n
determinant.  A candidate column that is zero on every unused row makes
every completion of the prefix singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Iterator, Optional

from .errors import CapExceeded, DimensionError, InputError
from .rational import Mat, int_row, mat, pivot_step, rat_str

SELECTOR_CAP = 10**6


@dataclass(frozen=True)
class MatrixTuple:
    """Ordered tuple (C_0, ..., C_k) of square rational matrices, all n x n."""

    n: int
    k: int
    mats: tuple

    def __post_init__(self):
        if self.k < 1:
            raise InputError("matrix tuple needs k >= 1")
        if len(self.mats) != self.k + 1:
            raise InputError("matrix tuple needs k + 1 matrices")
        for m in self.mats:
            if len(m) != self.n or any(len(row) != self.n for row in m):
                raise DimensionError("all matrices must be n x n")

    @cached_property
    def stacked(self) -> Mat:
        """A = [C_0 | -C_1 | ... | -C_k], so the EHLCP equation is A x = q for
        the stacked vector x = (x_0, ..., x_k): column i*n + r of A belongs to
        component (i, r).  Built once per tuple; not a dataclass field, so
        == and hash ignore it."""
        return tuple(
            tuple(c if i == 0 else -c for i, m in enumerate(self.mats) for c in m[row])
            for row in range(self.n)
        )


def unstack(flat, n: int) -> tuple:
    """The blocks (x_0, ..., x_k) of a stacked vector of length (k+1)n."""
    return tuple(tuple(flat[i : i + n]) for i in range(0, len(flat), n))


def make_tuple(mats) -> MatrixTuple:
    ms = tuple(mat(m) for m in mats)
    return MatrixTuple(n=len(ms[0]), k=len(ms) - 1, mats=ms)


@dataclass(frozen=True)
class PropertyVerdict:
    """Decision of a named property with a re-checkable, JSON-ready witness
    on failure.  decided_by names the rule that decided a sign-pattern
    property (csw, cone_csw); other oracles explain themselves in
    certificate."""

    property_name: str
    holds: bool
    witness: Optional[dict] = None
    certificate: str = ""
    decided_by: Optional[str] = None


def selector_count(n: int, k: int) -> int:
    if n < 1 or k < 1:
        raise InputError("selector_count needs n >= 1 and k >= 1")
    return (k + 1) ** n


def selectors(n: int, k: int) -> Iterator[tuple]:
    """All column selectors in mixed-radix lexicographic order.

    Column 1 is the most significant digit, so witnesses are deterministic.
    """
    yield from product(range(k + 1), repeat=n)


def representative_matrix(t: MatrixTuple, selector: tuple) -> Mat:
    """Matrix whose column j is column j of C_{selector[j]}."""
    if len(selector) != t.n:
        raise DimensionError("selector length must equal n")
    if any(not 0 <= s <= t.k for s in selector):
        raise InputError("selector entry out of range")
    return tuple(
        tuple(t.mats[selector[j]][i][j] for j in range(t.n)) for i in range(t.n)
    )


def check_selector_cap(t: MatrixTuple) -> None:
    """Refuse, before any selector is visited, a tuple with more than
    SELECTOR_CAP column selectors; the cap has no override."""
    count = selector_count(t.n, t.k)
    if count > SELECTOR_CAP:
        raise CapExceeded(f"(k+1)^n = {count} exceeds the selector cap {SELECTOR_CAP}")


def representative_dets(t: MatrixTuple) -> Iterator[tuple]:
    """Yield (selector, determinant) over all representatives, in selectors
    order, lazily: the first determinant costs at most n pivots.

    The determinant of a representative is sign * last_pivot / prod(L_i),
    with sign the parity of the order in which its rows were pivoted."""
    check_selector_cap(t)
    n, width = t.n, t.k + 1
    scales = [lcm(*(m[i][j].denominator for m in t.mats for j in range(n)))
              for i in range(n)]
    # column j * width + s of the root holds column j of C_s
    root = [int_row([m[i][j] for j in range(n) for m in t.mats], scale)
            for i, scale in enumerate(scales)]
    denom = prod(scales)

    def subtree(rows, prefix, prev, sign):
        """Determinants of the completions of prefix, given rows: the
        unused rows over the candidate columns of positions
        len(prefix)..n-1, after fraction-free pivots whose last pivot is
        prev and whose row order has the given sign."""
        last = len(prefix) == n - 1
        for s in range(width):
            sel = prefix + (s,)
            p = next((i for i, row in enumerate(rows) if row[s]), None)
            if p is None:
                for rest in product(range(width), repeat=n - len(sel)):
                    yield sel + rest, Fraction(0)
            elif last:
                yield sel, Fraction(sign * rows[p][s], denom)
            else:
                a = list(rows)
                pivot_step(a, p, s, prev)
                pivot = a.pop(p)[s]
                yield from subtree([row[width:] for row in a], sel, pivot,
                                   -sign if p % 2 else sign)

    yield from subtree(root, (), 1, 1)


def check_column_w(t: MatrixTuple, exhaustive: bool = False) -> PropertyVerdict:
    """Column W-property: every representative determinant strictly positive,
    or every one strictly negative."""
    name = "column_w"
    sign = 0
    first_sel = None
    violations = []
    for sel, d in representative_dets(t):
        if d == 0:
            violations.append({"selector": list(sel), "determinant": "0"})
        elif sign == 0:
            sign = 1 if d > 0 else -1
            first_sel = {"selector": list(sel), "determinant": rat_str(d)}
        elif (d > 0) != (sign > 0):
            violations.append(
                {"conflict_with": first_sel, "selector": list(sel),
                 "determinant": rat_str(d)}
            )
        if violations and not exhaustive:
            break
    if violations:
        return PropertyVerdict(
            name, False, {"violations": violations},
            "a representative determinant is zero or two have opposite signs",
        )
    return PropertyVerdict(
        name, True, None,
        f"all {selector_count(t.n, t.k)} representative determinants are "
        f"strictly {'positive' if sign >= 0 else 'negative'}",
    )


def check_column_w0(t: MatrixTuple) -> PropertyVerdict:
    """Column W0-property: determinants all >= 0 with one > 0, or all <= 0
    with one < 0."""
    name = "column_w0"
    pos = neg = None
    for sel, d in representative_dets(t):
        if d > 0 and pos is None:
            pos = {"selector": list(sel), "determinant": rat_str(d)}
        elif d < 0 and neg is None:
            neg = {"selector": list(sel), "determinant": rat_str(d)}
        if pos is not None and neg is not None:
            return PropertyVerdict(
                name, False, {"positive": pos, "negative": neg},
                "representative determinants of both strict signs exist",
            )
    if pos is None and neg is None:
        return PropertyVerdict(
            name, False, {"all_determinants_zero": True},
            "every representative determinant is zero",
        )
    return PropertyVerdict(
        name, True, None,
        "all representative determinants share a weak sign and one is strict",
    )


def check_column_ndw_det(t: MatrixTuple) -> PropertyVerdict:
    """Determinant form of the column ND-W property: no representative is
    singular."""
    name = "column_ndw"
    for sel, d in representative_dets(t):
        if d == 0:
            return PropertyVerdict(
                name, False, {"selector": list(sel), "determinant": "0"},
                "a singular column representative exists",
            )
    return PropertyVerdict(
        name, True, None,
        f"all {selector_count(t.n, t.k)} representative determinants are nonzero",
    )
