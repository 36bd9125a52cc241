"""Sign-pattern decision procedures for the column sufficient-W family.

Each candidate violation of a property is a {-, 0, +} pattern over the
components (i, r) of (x_0, ..., x_k).  It is realizable when it is the sign
vector of some x in ker A, A = [C_0 | -C_1 | ... | -C_k].  By the
vector/covector orthogonality of oriented matroids (Bland & Las Vergnas
1978; Björner et al., Oriented Matroids, section 3.4) that holds iff the
pattern is orthogonal to every cocircuit of A, the minimal-support sign
vectors of its row space.  The cocircuits are computed exactly once per
tuple, as the signs of maximal minors (MatrixTuple.cocircuits), and
transposed into one bitmask over cocircuit indices per component and sign
(MatrixTuple.cocircuit_bits).  The pattern generator walks each property's
move table over column states, and at each component tests every
cocircuit whose support ends there by one bitmask operation, so it yields
only realizable patterns, and the first goes to pattern_realizable, which
builds the witness vector by one linprog.nonneg_solution call, the
package's one phase-1 simplex.  That vector is built once per pattern and
tuple (MatrixTuple.witnesses), so properties of one tuple that fail at the
same pattern share it; each verdict still checks it by the definition.
Both read A in integers, as MatrixTuple.int_stacked, and the witness stays
an integer vector over a positive scale until the report prints it.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import InvariantError, UndecidedSize
from .linprog import nonneg_solution
from .rational import Mat, ratio_str
from .representatives import (
    MatrixTuple,
    PropertyVerdict,
    check_column_ndw_det,
    check_column_w,
    make_tuple,
    unstack,
)

PATTERN_CAP = 12  # largest (k+1)*n the sign-pattern deciders accept; no override

SYMBOLS = (-1, 0, 1)  # canonical symbol order (-, 0, +)


def _require_within_cap(t: MatrixTuple) -> None:
    size = (t.k + 1) * t.n
    if size > PATTERN_CAP:
        raise UndecidedSize(
            f"undecided: size ((k+1)*n = {size} exceeds pattern cap {PATTERN_CAP})"
        )


def pattern_realizable(t: MatrixTuple, signs: tuple) -> Optional[tuple]:
    """(X, scale): a stacked integer vector X with X / scale realizing the
    stacked sign pattern exactly, scale > 0, or None.

    Entry i*n + r of signs is the sign of x_{i,r} over {-1, 0, 1}, S its
    support and sigma its signs there.  Since ker A is a cone, a realizing
    x scales to |x_e| >= 1, so one exists iff some z >= 0 has A_S
    diag(sigma) (1 + z) = 0: one linprog.nonneg_solution call over the |S|
    unknowns z, on the integer rows [A_S diag(sigma) | -A_S sigma] of
    t.int_stacked.  It gives z = Z / scale, and X_S = sigma (scale + Z).
    The deciders call it once per pattern and tuple, to build the witness.
    """
    support = [e for e, s in enumerate(signs) if s != 0]
    cols = [[row[e] if signs[e] > 0 else -row[e] for e in support] for row in t.int_stacked]
    found = nonneg_solution([m + [-sum(m)] for m in cols])
    if found is None:
        return None
    z, scale = found
    x = [0] * len(signs)
    for e, v in zip(support, z):
        x[e] = signs[e] * (scale + v)
    return tuple(x), scale


def _move_table(later: tuple, disjoint: bool) -> tuple:
    """A mode's column hypotheses as data: for each column state, the
    allowed (symbol, next state, violates) moves in (-, 0, +) order.

    State 0 is a column before block 0; the others stand for (signs, last),
    the nonzero symbols its next block may take and whether its last block
    is nonzero.  Blocks i >= 1 take their nonzero symbols from later, with
    x_0 * x_i <= 0.  With disjoint (ndw) a column has at most one nonzero
    block, and any nonzero violates the conclusion (not identically zero);
    otherwise (csw, cone) the nonzero blocks i >= 1 share a sign, and a
    nonzero right below another violates it (a consecutive product)."""
    order = [None]  # states by number, appended to as they are reached
    number = {None: 0}
    rows = []
    for state in order:
        if state is None:
            moves = [(s, (() if disjoint and s else tuple(x for x in later if x * s <= 0),
                          s != 0), disjoint and s != 0) for s in SYMBOLS]
        else:
            signs, last = state
            moves = [(s, (signs, False), False) if s == 0
                     else (s, (() if disjoint else (s,), True), disjoint or last)
                     for s in SYMBOLS if s == 0 or s in signs]
        for _, after, _ in moves:
            if after not in number:
                number[after] = len(order)
                order.append(after)
        rows.append(tuple((s, number[after], hit) for s, after, hit in moves))
    return tuple(rows)


_MOVES = {
    "csw": _move_table((-1, 1), False),  # (a) x_i * x_j >= 0, (b) x_0 * x_i <= 0
    "cone": _move_table((1,), False),  # (b), and x_i >= 0 for i >= 1
    "ndw": _move_table((-1, 1), True),  # pairwise-disjoint supports
}


def _violating_patterns(t: MatrixTuple, mode: str) -> Iterator[tuple]:
    """Realizable hypothesis-satisfying, conclusion-violating stacked
    patterns in canonical order.

    Components e = i*n + r are placed one at a time, row-major, with symbol
    order (-, 0, +), so the first realizable pattern is schedule-independent.
    A component takes the moves its column's state allows in the mode's
    table, _MOVES.  They keep the hypotheses with the blocks above: (a)
    x_i * x_j >= 0 for 1 <= i < j (csw), (b) x_0 * x_i <= 0 (csw, cone;
    cone blocks i >= 1 take only 0 and +), pairwise-disjoint supports (ndw).
    They also flag the conclusion's violation, which a complete pattern
    must carry: (c) some consecutive product x_s * x_{s+1} nonzero (csw,
    cone), or not identically zero (ndw).

    The prefix must be orthogonal to each cocircuit Y whose support ends at
    e: its products X_e * Y_e take both signs or none.  hp and hn are the
    cocircuits with a positive and with a negative product so far, as
    bitmasks over cocircuit indices (MatrixTuple.cocircuit_bits); a nonzero
    symbol ORs e's masks into them, and (hp ^ hn) & close[e] == 0 tests
    every such Y at once.
    """
    n = t.n
    size = (t.k + 1) * n
    plus, minus, close = t.cocircuit_bits
    moves = _MOVES[mode]
    columns = [0] * n  # each column's state
    flat = []

    def extend(e: int, hp: int, hn: int, hit: bool) -> Iterator[tuple]:
        if e == size:
            if hit:
                yield tuple(flat)
            return
        r = e % n
        state = columns[r]
        for s, after, violates in moves[state]:
            if s > 0:
                p, q = hp | plus[e], hn | minus[e]
            elif s < 0:
                p, q = hp | minus[e], hn | plus[e]
            else:
                p, q = hp, hn
            if not (p ^ q) & close[e]:
                columns[r] = after
                flat.append(s)
                yield from extend(e + 1, p, q, hit or violates)
                flat.pop()
        columns[r] = state

    yield from extend(0, 0, 0, False)


def _first_violation(t: MatrixTuple, mode: str) -> Optional[dict]:
    """JSON-ready witness {"pattern", "x"} of the first realizable pattern.

    The cocircuit test inside _violating_patterns decides; the LP only
    builds the vector, once per pattern and tuple (MatrixTuple.witnesses
    keeps it for the tuple's other properties).  Every verdict, memoized or
    not, checks the vector by the definition in integers (int_stacked X =
    0, with the pattern's signs): an LP that disagrees is a bug, never a
    verdict.  Pattern and vector are stacked until the witness splits
    them, and x_e = X_e / scale is printed from integers."""
    signs = next(_violating_patterns(t, mode), None)
    if signs is None:
        return None
    memo = t.witnesses
    if signs not in memo:
        memo[signs] = pattern_realizable(t, signs)
    # no vector reads as the empty one, which has no pattern's signs
    x, scale = memo[signs] or ((), 1)
    if (tuple((v > 0) - (v < 0) for v in x) != signs
            or any(sum(a * v for a, v in zip(row, x)) for row in t.int_stacked)):
        raise InvariantError(f"cocircuit test passes {signs}; the LP's vector does not")
    return {
        "pattern": [list(row) for row in unstack(signs, t.n)],
        "x": [[ratio_str(v, scale) for v in row] for row in unstack(x, t.n)],
    }


def check_csw(t: MatrixTuple) -> PropertyVerdict:
    """Column sufficient-W property of the tuple.

    Fast path 1: the column W-property implies cS-W.  Fast path 2: all
    representative determinants nonzero but not column W implies not cS-W;
    the witness is located by pattern enumeration within the size cap, and
    above it is the column W violation, two determinants of opposite sign.
    decided_by names the rule that decided.
    """
    column_w = check_column_w(t)
    if column_w.holds:
        return PropertyVerdict("csw", True, decided_by="fast_path_column_w")
    if check_column_ndw_det(t).holds:
        witness = column_w.witness["violations"][0]
        if (t.k + 1) * t.n <= PATTERN_CAP:
            witness = _first_violation(t, "csw")
        return PropertyVerdict("csw", False, witness, decided_by="fast_path_ndw_not_w")
    _require_within_cap(t)
    witness = _first_violation(t, "csw")
    return PropertyVerdict("csw", witness is None, witness, decided_by="pattern_enumeration")


def check_cone_csw(t: MatrixTuple) -> PropertyVerdict:
    """Cone variant: quantified x_1, ..., x_k restricted to the nonnegative
    orthant.  Only the column W fast path is sound here; failing cS-W does
    not in general fail the cone property."""
    if check_column_w(t).holds:
        return PropertyVerdict("cone_csw", True, decided_by="fast_path_column_w")
    _require_within_cap(t)
    witness = _first_violation(t, "cone")
    return PropertyVerdict(
        "cone_csw", witness is None, witness, decided_by="pattern_enumeration"
    )


def check_column_ndw_def(t: MatrixTuple) -> PropertyVerdict:
    """Definition-based column ND-W decision via disjoint-support patterns.

    Exists to cross-validate the determinant route; the two must agree.
    """
    _require_within_cap(t)
    witness = _first_violation(t, "ndw")
    certificate = (
        "no nonzero disjoint-support kernel pattern is realizable" if witness is None
        else "a nonzero disjoint-support kernel tuple exists"
    )
    return PropertyVerdict("column_ndw_def", witness is None, witness, certificate)


def check_x_column_sufficiency(a: Mat, b: Mat) -> PropertyVerdict:
    """X-column-sufficiency of the pair (a, b): C_0 x_0 - C_1 x_1 = 0 and
    x_0 * x_1 <= 0 force x_0 * x_1 = 0.  This is the k = 1 specialization of
    the cS-W decision."""
    return check_x_column_pairs(make_tuple([a, b]))[0]


def check_x_column_pairs(t: MatrixTuple) -> list:
    """check_x_column_sufficiency of each pair (C_i, C_{i+1}), i < k, on
    t's validated matrices: at k = 1 the pair is t itself, whose cocircuits
    and witness LPs check_csw(t) shares."""
    verdicts = []
    for i in range(t.k):
        verdict = check_csw(t if t.k == 1 else MatrixTuple(t.n, 1, t.mats[i:i + 2]))
        certificate = "decided by " + verdict.decided_by
        if not verdict.holds:
            certificate += ("; witness violates x_0 * x_1 = 0" if "pattern" in verdict.witness
                            else "; witness: two representative determinants of opposite sign")
        verdicts.append(PropertyVerdict("x_column_sufficiency", verdict.holds, verdict.witness,
                                        certificate))
    return verdicts
