"""Independent checker for ehlcp CLI reports.

Imports nothing from ehlcp: every determinant, kernel identity and EHLCP
solution is recomputed here with plain Fraction Gaussian elimination, so a
bug in the program's deciders cannot also hide in the check.

An instance is a dict {"n", "k", "C": [k+1 matrices], "d": [k-1 vectors],
"q": vector} with Fraction entries.  Each check function returns a list of
problem strings; an empty list means the report passed.
"""

from __future__ import annotations

import json
from fractions import Fraction

# At most this many determinant witnesses per verdict are recomputed, first
# and last halves.  An exhaustive column-W report at (k+1)^n = 2187 lists
# about a thousand selectors; recomputing all of them would take longer than
# the op being checked.
DET_SAMPLE = 16


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def det(m) -> Fraction:
    """Determinant by Gaussian elimination with row swaps over Fractions."""
    a = [[frac(x) for x in row] for row in m]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            result = -result
        piv = a[c][c]
        result *= piv
        for r in range(c + 1, n):
            f = a[r][c] / piv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return result


def mat_vec(m, v) -> list:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in m]


def representative(inst: dict, selector) -> list:
    """Matrix whose column j is column j of C_{selector[j]}."""
    n = inst["n"]
    return [[inst["C"][selector[j]][i][j] for j in range(n)] for i in range(n)]


def kernel_residual(inst: dict, xs) -> list:
    """C_0 x_0 - q - sum_{i>=1} C_i x_i, componentwise."""
    res = [a - b for a, b in zip(mat_vec(inst["C"][0], xs[0]), inst["q"])]
    for i in range(1, inst["k"] + 1):
        res = [a - b for a, b in zip(res, mat_vec(inst["C"][i], xs[i]))]
    return res


def is_solution(inst: dict, xs) -> bool:
    """Exact EHLCP membership of the tuple xs = (x_0, ..., x_k)."""
    n, k = inst["n"], inst["k"]
    if len(xs) != k + 1 or any(len(x) != n for x in xs):
        return False
    if any(r != 0 for r in kernel_residual(inst, xs)):
        return False
    pairs = [(xs[0], xs[1])]
    for j in range(1, k):
        pairs.append(([inst["d"][j - 1][r] - xs[j][r] for r in range(n)], xs[j + 1]))
    return all(
        u[r] >= 0 and v[r] >= 0 and u[r] * v[r] == 0
        for u, v in pairs
        for r in range(n)
    )


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


# --- check ------------------------------------------------------------------

def _pattern_witness(inst: dict, witness, mode: str) -> list:
    """A cS-W ("csw"), cone ("cone") or ND-W definition ("ndw") witness:
    the homogeneous kernel identity, the exact claimed signs, the
    hypotheses, and the violated conclusion."""
    if not isinstance(witness, dict):
        return [f"{mode}: missing witness"]
    n, k = inst["n"], inst["k"]
    xs = [[Fraction(v) for v in x] for x in witness["x"]]
    pattern = witness["pattern"]
    homogeneous = dict(inst, q=[Fraction(0)] * n)
    out = []
    if any(r != 0 for r in kernel_residual(homogeneous, xs)):
        out.append(f"{mode}: witness violates C_0 x_0 = sum C_i x_i")
    if [[_sign(v) for v in x] for x in xs] != pattern:
        out.append(f"{mode}: witness signs differ from its pattern")
    cols = range(n)
    if mode == "ndw":
        if all(v == 0 for x in xs for v in x):
            out.append("ndw: witness is zero")
        if any(sum(xs[i][r] != 0 for i in range(k + 1)) > 1 for r in cols):
            out.append("ndw: witness supports overlap")
        return out
    if mode == "csw":
        hyp_a = all(
            xs[i][r] * xs[j][r] >= 0
            for i in range(1, k + 1) for j in range(i + 1, k + 1) for r in cols
        )
    else:
        hyp_a = all(xs[i][r] >= 0 for i in range(1, k + 1) for r in cols)
    hyp_b = all(xs[0][r] * xs[i][r] <= 0 for i in range(1, k + 1) for r in cols)
    violated = any(xs[s][r] * xs[s + 1][r] != 0 for s in range(k) for r in cols)
    if not (hyp_a and hyp_b):
        out.append(f"{mode}: witness fails the hypotheses")
    if not violated:
        out.append(f"{mode}: witness does not violate the conclusion")
    return out


def _sample(items: list) -> list:
    if len(items) <= DET_SAMPLE:
        return items
    half = DET_SAMPLE // 2
    return items[:half] + items[-half:]


def _det_entry(inst: dict, entry: dict) -> list:
    claimed = Fraction(entry["determinant"])
    actual = det(representative(inst, entry["selector"]))
    if actual != claimed:
        return [f"selector {entry['selector']}: determinant {actual}, report says {claimed}"]
    return []


def _column_w_witness(inst: dict, witness) -> list:
    out = []
    for v in _sample(witness["violations"]):
        out += _det_entry(inst, v)
        if "conflict_with" in v:
            first = Fraction(v["conflict_with"]["determinant"])
            if _sign(first) * _sign(Fraction(v["determinant"])) != -1:
                out.append("column_w: conflicting determinants share a sign")
            out += _det_entry(inst, v["conflict_with"])
        elif Fraction(v["determinant"]) != 0:
            out.append("column_w: violation is neither zero nor a sign conflict")
    return out


def _column_w0_witness(inst: dict, witness) -> list:
    if witness.get("all_determinants_zero"):
        return []
    out = _det_entry(inst, witness["positive"]) + _det_entry(inst, witness["negative"])
    if Fraction(witness["positive"]["determinant"]) <= 0 or Fraction(
        witness["negative"]["determinant"]
    ) >= 0:
        out.append("column_w0: witness determinants do not have both signs")
    return out


def _column_ndw_witness(inst: dict, witness) -> list:
    out = _det_entry(inst, witness)
    if Fraction(witness["determinant"]) != 0:
        out.append("column_ndw: witness determinant is not zero")
    return out


def _minor_witness(inst: dict, index: int, prop: str, witness) -> list:
    idx = [i - 1 for i in witness["index_set"]]
    m = inst["C"][index]
    actual = det([[m[i][j] for j in idx] for i in idx])
    claimed = Fraction(witness["minor"])
    out = []
    if actual != claimed:
        out.append(f"{prop} C{index}: minor {actual}, report says {claimed}")
    if (prop == "p" and claimed > 0) or (prop == "nondegenerate" and claimed != 0):
        out.append(f"{prop} C{index}: witness minor does not violate the property")
    return out


_TUPLE_WITNESS = {
    "csw": lambda inst, w: _pattern_witness(inst, w, "csw"),
    "cone_csw": lambda inst, w: _pattern_witness(inst, w, "cone"),
    "column_ndw_def": lambda inst, w: _pattern_witness(inst, w, "ndw"),
    "column_w": _column_w_witness,
    "column_w0": _column_w0_witness,
    "column_ndw": _column_ndw_witness,
}


def check_report(inst: dict, doc: dict) -> list:
    """Witnesses of every verdict, plus the paper's identities between the
    tuple verdicts that are present (T4.1, T4.2, T4.3 and cS-W => cone)."""
    out = []
    verdicts = doc["verdicts"]
    for prop, v in verdicts.items():
        if prop in _TUPLE_WITNESS:
            if v["holds"] and v["witness"] is not None:
                out.append(f"{prop}: holds but carries a witness")
            if not v["holds"]:
                out += _TUPLE_WITNESS[prop](inst, v["witness"])
        elif prop in ("p", "nondegenerate"):
            for name, mv in v.items():
                if not mv["holds"]:
                    out += _minor_witness(inst, int(name[1:]), prop, mv["witness"])
    holds = {p: v["holds"] for p, v in verdicts.items() if p in _TUPLE_WITNESS}
    if {"column_ndw", "column_ndw_def"} <= holds.keys():
        if holds["column_ndw"] != holds["column_ndw_def"]:
            out.append("T4.1: column_ndw != column_ndw_def")
    if {"column_w", "csw", "column_ndw"} <= holds.keys():
        if holds["column_w"] != (holds["csw"] and holds["column_ndw"]):
            out.append("T4.2: column_w != (csw and column_ndw)")
    if {"csw", "column_w0"} <= holds.keys() and holds["csw"] and not holds["column_w0"]:
        out.append("T4.3: csw holds without column_w0")
    if {"csw", "cone_csw"} <= holds.keys() and holds["csw"] and not holds["cone_csw"]:
        out.append("csw holds without cone_csw")
    if {"column_w", "column_w0", "column_ndw"} <= holds.keys() and holds["column_w"]:
        if not (holds["column_w0"] and holds["column_ndw"]):
            out.append("column_w holds without column_w0 and column_ndw")
    for name, pv in verdicts.get("p", {}).items():
        if pv["holds"] and not verdicts.get("nondegenerate", {}).get(name, {"holds": True})["holds"]:
            out.append(f"{name}: P-matrix reported degenerate")
    return out


# --- solve ------------------------------------------------------------------

def _stepped(inst: dict, xs, direction):
    """xs plus half the largest step along the stacked direction that keeps
    every bound x >= 0 and x_j <= d_j; None when no positive step exists."""
    n, k = inst["n"], inst["k"]
    limit = None
    for idx, dv in enumerate(direction):
        if dv == 0:
            continue
        i, r = divmod(idx, n)
        v = xs[i][r]
        if dv < 0:
            room = v / -dv
        elif 1 <= i <= k - 1:
            room = (inst["d"][i - 1][r] - v) / dv
        else:
            continue
        limit = room if limit is None else min(limit, room)
    step = Fraction(1) if limit is None else limit / 2
    if step <= 0:
        return None
    return [
        [xs[i][r] + step * direction[i * n + r] for r in range(n)]
        for i in range(k + 1)
    ]


def check_solve(inst: dict, doc: dict) -> list:
    """Every piece point solves the instance, a step along each basis
    vector stays a solution, and dimension-0 points are distinct."""
    out = []
    seen = set()
    for idx, piece in enumerate(doc["pieces"]):
        xs = [[Fraction(v) for v in x] for x in piece["point"]]
        if not is_solution(inst, xs):
            out.append(f"piece {idx}: point is not a solution")
            continue
        basis = [[Fraction(v) for v in b] for b in piece["kernel_basis"]]
        if piece["dimension"] != len(basis):
            out.append(f"piece {idx}: dimension {piece['dimension']} with {len(basis)} basis vectors")
        if piece["dimension"] == 0:
            key = tuple(tuple(x) for x in xs)
            if key in seen:
                out.append(f"piece {idx}: repeated dimension-0 point")
            seen.add(key)
        for b in basis:
            moved = _stepped(inst, xs, b)
            if moved is None or not is_solution(inst, moved):
                out.append(f"piece {idx}: a step along a basis vector leaves the solution set")
    return out


# --- verify -----------------------------------------------------------------

def check_verify(doc: dict, trials: int) -> list:
    out = []
    if doc.get("passed") is not True or doc.get("violations"):
        out.append(f"verify {doc.get('theorem')}: passed is not true")
    if doc.get("trials") != trials:
        out.append("verify: trial count differs from the request")
    return out


# --- verdict summaries and output fingerprints ------------------------------

def verdict_summary(command: str, doc: dict):
    """The part of a report that must not change between versions: holds
    flags for check, piece dimensions for solve, passed for verify."""
    if command == "check":
        return {
            p: v["holds"] if "holds" in v else {m: mv["holds"] for m, mv in v.items()}
            for p, v in doc["verdicts"].items()
        }
    if command == "solve":
        return [p["dimension"] for p in doc["pieces"]]
    return {"passed": doc["passed"], "violations": len(doc["violations"])}


def canonical(doc: dict) -> str:
    """Report text without timing_seconds, for byte comparisons."""
    return json.dumps(
        {k: v for k, v in doc.items() if k != "timing_seconds"},
        indent=2, sort_keys=True,
    )
