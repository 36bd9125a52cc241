"""Column representative enumeration and determinant-sign tuple properties.

A tuple (C_0, ..., C_k) of n x n matrices has (k+1)^n column representative
matrices; their determinant signs decide the column W, column W0 and the
determinant form of the column ND-W property.

_det_numerators computes every determinant in one elimination tree over
the selectors.  Its root is MatrixTuple.int_stacked, A = [C_0 | -C_1 |
... | -C_k] times one common factor int_scale, with the blocks of C_1..C_k
negated back.  A node at depth j holds the unused rows times the k+1
candidate columns of each position j..n-1; choosing s_j pivots
(rational.pivot_step) on the first unused row nonzero in candidate column
s_j, then drops that row and position j's columns.  At depth n-3 three
rows are left, and each leaf below is their 3 x 3 minor over the last
pivot squared (Sylvester's identity, as Bareiss 1968 states it), expanded
along position n-3 with the 2 x 2 minors of the last two positions
computed once per node: three products per leaf, no pivot_step and no
sub-rows.  Siblings share their parent's elimination, so each selector
costs its path's pivots below the shared prefix, not a full n x n
determinant.  A candidate column that is zero on every unused row makes
every completion of the prefix singular.

The walk yields each determinant as a signed integer numerator over the
common positive denominator int_scale ** n, so every sign and zero test
is an integer test.  A determinant a report prints is formatted from its
integers (_det_json, rational.ratio_str), with no Fraction.

Each tuple walks that tree at most once for its non-exhaustive verdicts.
MatrixTuple.det_scan is a resumable walk that keeps only the first
(selector, numerator) of each sign -, 0, +, so its extra memory does not
grow with (k+1)^n.  Because selectors compare in walk order, column W,
column W0 and the determinant form of column ND-W are functions of those
three first occurrences, and each verdict advances the walk only as far as
it needs.  An exhaustive column W check keeps its own full walk, in one
integer pass (_w_violations) that lists every violation and records the
first determinant of each sign into the scan.

MatrixTuple.cocircuits holds the cocircuits of A that every sign-pattern
decision in csw reads, computed once per tuple by _cocircuits in a second
tree, over the column subsets of size rank(A) - 1, whose last two columns
are read off 3 x 3 Laplace expansions with no pivot;
MatrixTuple.cocircuit_bits holds them transposed, as the bitmasks
that csw's pattern walk reads, and MatrixTuple.witnesses keeps csw's
witness vector per sign pattern, so each is built once per tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product
from math import lcm
from typing import Iterator, Optional

from .errors import CapExceeded, DimensionError, InputError
from .rational import _echelon, int_row, mat, pivot_step, ratio_str

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
    def int_scale(self) -> int:
        """The lcm of every denominator in mats; int_stacked is A times it."""
        return lcm(*(x.denominator for m in self.mats for row in m for x in row))

    @cached_property
    def int_stacked(self) -> tuple:
        """A = [C_0 | -C_1 | ... | -C_k] times int_scale, as rows of ints, so
        the EHLCP equation is A x = q for the stacked vector x = (x_0, ...,
        x_k): column i*n + r of A belongs to component (i, r).  The one form
        of A the package reads, built once per tuple; not a dataclass field,
        so == and hash ignore it."""
        return tuple(
            tuple(v if i == 0 else -v
                  for i, m in enumerate(self.mats) for v in int_row(m[row], self.int_scale))
            for row in range(self.n)
        )

    @cached_property
    def det_scan(self) -> "DetScan":
        """The shared walk of _det_numerators; CapExceeded on every access
        while the tuple is over SELECTOR_CAP."""
        return DetScan(self)

    @cached_property
    def cocircuits(self) -> tuple:
        """Cocircuits of A, as _cocircuits computes them; once per tuple."""
        return _cocircuits(self)

    @cached_property
    def cocircuit_bits(self) -> tuple:
        """cocircuits transposed: (plus, minus, close), each holding for
        every component e a bitmask over cocircuit indices j, of the Y_j
        with Y_j[e] = +, with Y_j[e] = -, and whose support ends at e."""
        size = (self.k + 1) * self.n
        plus, minus, close = [0] * size, [0] * size, [0] * size
        for j, (pos, neg) in enumerate(self.cocircuits):
            bit = 1 << j
            close[(pos | neg).bit_length() - 1] |= bit
            for e in range(size):
                if pos >> e & 1:
                    plus[e] |= bit
                elif neg >> e & 1:
                    minus[e] |= bit
        return tuple(plus), tuple(minus), tuple(close)

    @cached_property
    def witnesses(self) -> dict:
        """csw's witness memo: csw.pattern_realizable's result per stacked
        sign pattern, so each pattern's LP runs once per tuple."""
        return {}


def unstack(flat, n: int) -> tuple:
    """The blocks (x_0, ..., x_k) of a stacked vector of length (k+1)n."""
    return tuple(tuple(flat[i : i + n]) for i in range(0, len(flat), n))


def make_tuple(mats) -> MatrixTuple:
    ms = tuple(mat(m) for m in mats)
    # no matrices: k = -1, which MatrixTuple refuses as it refuses one matrix
    return MatrixTuple(n=len(ms[0]) if ms else 0, k=len(ms) - 1, mats=ms)


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


def check_selector_cap(t: MatrixTuple) -> None:
    """Refuse, before any selector is visited, a tuple with more than
    SELECTOR_CAP column selectors; the cap has no override."""
    count = selector_count(t.n, t.k)
    if count > SELECTOR_CAP:
        raise CapExceeded(f"(k+1)^n = {count} exceeds the selector cap {SELECTOR_CAP}")


def _det_numerators(t: MatrixTuple) -> tuple:
    """(int_scale ** n, walk): walk iterates (selector, numerator) over
    all representatives, in selectors order, lazily; the determinant is the
    numerator over int_scale ** n.  The call itself checks the selector
    cap, before any selector.

    The numerator is sign * last_pivot, with sign the parity of the order
    in which the rows were pivoted; below depth n-4 last_pivot is read as
    a 3 x 3 minor over the pivot above it squared, with no pivot_step."""
    check_selector_cap(t)
    n, width = t.n, t.k + 1
    # column j * width + s of the root holds column j of C_s, times int_scale:
    # int_stacked's blocks s >= 1 negated back
    root = [[-row[s * n + j] if s else row[j] for j in range(n) for s in range(width)]
            for row in t.int_stacked]
    mid, last = range(width, 2 * width), range(2 * width, 3 * width)

    def subtree(rows, prefix, prev, sign):
        """Numerators of the completions of prefix, given rows: the unused
        rows over the candidate columns of positions len(prefix)..n-1,
        after fraction-free pivots whose last pivot is prev and whose row
        order has the given sign."""
        if len(prefix) == n - 3:
            # three rows left: the leaf (s, u, v) is their 3 x 3 minor on
            # candidate columns s, u, v over prev^2, expanded along column s
            # with the 2 x 2 minors M12, M02, M01 shared by every s; the
            # sign is folded into column s
            r0, r1, r2 = rows
            m12 = [r1[a] * r2[b] - r2[a] * r1[b] for a in mid for b in last]
            m02 = [r0[a] * r2[b] - r2[a] * r0[b] for a in mid for b in last]
            m01 = [r0[a] * r1[b] - r1[a] * r0[b] for a in mid for b in last]
            leaves = list(zip(product(range(width), repeat=2), m12, m02, m01))
            div = prev * prev
            for s in range(width):
                sel, x, y, z = prefix + (s,), sign * r0[s], -sign * r1[s], sign * r2[s]
                for tail, a, b, c in leaves:
                    yield sel + tail, (x * a + y * b + z * c) // div
            return
        if len(prefix) == n - 2:  # n = 2: each leaf is a 2 x 2 minor of the root
            r0, r1 = rows
            for s in range(width):
                sel, x, y = prefix + (s,), r0[s], r1[s]
                for u in range(width):
                    yield sel + (u,), sign * ((x * r1[width + u] - y * r0[width + u]) // prev)
            return
        if len(prefix) == n - 1:  # n = 1: the root's one row holds the leaves
            for s, x in enumerate(rows[0]):
                yield prefix + (s,), sign * x
            return
        for s in range(width):
            sel = prefix + (s,)
            p = next((i for i, row in enumerate(rows) if row[s]), None)
            if p is None:
                for rest in product(range(width), repeat=n - len(sel)):
                    yield sel + rest, 0
            else:
                a = list(rows)
                pivot_step(a, p, s, prev)
                pivot = a.pop(p)[s]
                yield from subtree([row[width:] for row in a], sel, pivot,
                                   -sign if p % 2 else sign)

    return t.int_scale ** n, subtree(root, (), 1, 1)


class DetScan:
    """A resumable walk of _det_numerators(t) that keeps only the first
    (selector, numerator) of each determinant sign in walk order: first
    maps -1, 0 and 1 to it once it has been seen.  Determinants are the
    numerators over denom."""

    def __init__(self, t: MatrixTuple):
        # the cap is checked here, not inside the walk: a generator that
        # raised CapExceeded would be closed, and the next reader would
        # take the empty walk for one without a violation
        self.denom, self._dets = _det_numerators(t)
        self.first: dict = {}

    def advance(self, enough) -> dict:
        """Walk on until enough(first) is true or every selector has been
        seen; return first."""
        first = self.first
        if not enough(first):
            for sel, num in self._dets:
                first.setdefault((num > 0) - (num < 0), (sel, num))
                if enough(first):
                    break
        return first

    def finish(self) -> None:
        """Mark every selector as recorded by dropping the walk."""
        self._dets = iter(())


def _det_json(sel: tuple, num: int, denom: int) -> dict:
    """Report entry of the determinant num / denom, formatted from the
    integers."""
    return {"selector": list(sel), "determinant": ratio_str(num, denom)}


def _w_violations(dets, denom: int, first: dict) -> Iterator[dict]:
    """The column W violations among (selector, numerator) pairs over denom,
    in their order: each zero, and each determinant whose sign differs
    from the first nonzero one's.  first keeps the first (selector,
    numerator) of each sign -1, 0, 1 seen, as DetScan.first does."""
    conflict = None
    for sel, num in dets:
        first.setdefault((num > 0) - (num < 0), (sel, num))
        if not num:
            yield _det_json(sel, num, denom)
        elif conflict is None:
            conflict, positive = _det_json(sel, num, denom), num > 0
        elif (num > 0) != positive:
            yield {"conflict_with": conflict, "selector": list(sel),
                   "determinant": ratio_str(num, denom)}


def check_column_w(t: MatrixTuple, exhaustive: bool = False) -> PropertyVerdict:
    """Column W-property: every representative determinant strictly positive,
    or every one strictly negative.

    exhaustive reports every violation, from a full walk of its own that
    records the first determinant of each sign into the shared scan.
    Otherwise the first violation is found among the scan's first
    determinant of each sign, in walk order: the earlier of the first zero
    and the first determinant of the second sign."""
    name = "column_w"
    scan = t.det_scan
    if exhaustive:
        denom, walk = _det_numerators(t)
        violations = list(_w_violations(walk, denom, scan.first))
        scan.finish()
    else:
        first = scan.advance(lambda f: 0 in f or (1 in f and -1 in f))
        violations = list(islice(_w_violations(sorted(first.values()), scan.denom, {}), 1))
    if violations:
        return PropertyVerdict(
            name, False, {"violations": violations},
            "a representative determinant is zero or two have opposite signs",
        )
    return PropertyVerdict(
        name, True, None,
        f"all {selector_count(t.n, t.k)} representative determinants are "
        f"strictly {'negative' if -1 in scan.first else 'positive'}",
    )


def check_column_w0(t: MatrixTuple) -> PropertyVerdict:
    """Column W0-property: determinants all >= 0 with one > 0, or all <= 0
    with one < 0."""
    name = "column_w0"
    scan = t.det_scan
    first = scan.advance(lambda f: 1 in f and -1 in f)
    if 1 in first and -1 in first:
        return PropertyVerdict(
            name, False,
            {"positive": _det_json(*first[1], scan.denom),
             "negative": _det_json(*first[-1], scan.denom)},
            "representative determinants of both strict signs exist",
        )
    if 1 not in first and -1 not in first:
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
    scan = t.det_scan
    first = scan.advance(lambda f: 0 in f)
    if 0 in first:
        return PropertyVerdict(
            name, False, _det_json(*first[0], scan.denom),
            "a singular column representative exists",
        )
    return PropertyVerdict(
        name, True, None,
        f"all {selector_count(t.n, t.k)} representative determinants are nonzero",
    )


def _cocircuits(t: MatrixTuple) -> tuple:
    """Cocircuits of A as (pos, neg) bitmasks, bit i*n + r for component
    (i, r), one of each pair +-Y, in order of first appearance.

    B is an integer row basis of A, eliminated from a copy of
    t.int_stacked (_echelon works in place).  Each subset S of rank(A) - 1
    columns, in combinations order, that is independent in B gives the
    cocircuit e -> det[B_S | B_e], up to a common factor; the factor may
    be negative, but (pos, neg) keeps one of +-Y, so no leaf divides.  A
    tree over S pivots (rational.pivot_step) at each node on the first
    unused row nonzero in its column and drops that row while more than
    three rows are left; a column zero on every unused row is dependent on
    S and ends its branch.  With three rows r0, r1, r2 left, each pair
    c < d of later columns is a leaf, expanded by Laplace along e: with
    m0, m1, m2 the 2 x 2 minors on (c, d) of the row pairs (1, 2), (0, 2)
    and (0, 1), Y = m0 r0 - m1 r1 + m2 r2, and a pair whose three minors
    are zero is dependent.  At rank 2 each column c not zero on both rows
    gives r1[c] r0 - r0[c] r1, and at rank 1 the row is the one cocircuit.
    """
    a = [list(row) for row in t.int_stacked]
    width = len(a[0])
    rank = len(_echelon(a, width)[0])
    bits = [1 << e for e in range(width)]
    found = {}

    def leaf(values):
        pos = neg = 0
        for bit, v in zip(bits, values):
            if v > 0:
                pos |= bit
            elif v < 0:
                neg |= bit
        lowest = (pos | neg) & -(pos | neg)
        found[(neg, pos) if neg & lowest else (pos, neg)] = None

    def subtree(rows, start, prev):
        if len(rows) == 3:
            cols = list(zip(*rows))
            for c in range(start, width - 1):
                x0, x1, x2 = cols[c]
                if not (x0 or x1 or x2):
                    continue
                for y0, y1, y2 in cols[c + 1:]:
                    m0, m1, m2 = x1 * y2 - x2 * y1, x0 * y2 - x2 * y0, x0 * y1 - x1 * y0
                    if m0 or m1 or m2:
                        leaf([m0 * v0 - m1 * v1 + m2 * v2 for v0, v1, v2 in cols])
            return
        for c in range(start, width - len(rows) + 2):  # leave room for the rest of S
            p = next((i for i, row in enumerate(rows) if row[c]), None)
            if p is not None:
                b = list(rows)
                pivot_step(b, p, c, prev)
                subtree(b, c + 1, b.pop(p)[c])

    if rank == 1:
        leaf(a[0])
    elif rank == 2:
        r0, r1 = a[:2]
        for x0, x1 in zip(r0, r1):
            if x0 or x1:
                leaf([x1 * v0 - x0 * v1 for v0, v1 in zip(r0, r1)])
    elif rank:
        subtree(a[:rank], 0, 1)
    return tuple(found)
