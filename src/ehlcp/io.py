"""Instance-file parsing and exact JSON serialization.

One schema serves check and solve: {"n", "k", "C", "d", "q"} with rational
entries written as integers, decimal strings or "p/q" strings.  Rationals
are serialized back as exact strings, never floats: the one float a report
holds is timing_seconds.  dump_json writes only ehlcp's own documents.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .errors import InputError
from .rational import Mat, Vec, rat, rat_str, zeros
from .representatives import MatrixTuple, PropertyVerdict, make_tuple, unstack
from .solver import EhlcpInstance, SolutionPiece, branch_label


def _parse_matrix(obj: Any, n: int) -> list:
    if not isinstance(obj, list):
        raise InputError("matrix must be an array")
    if obj and isinstance(obj[0], list):
        rows = obj
    else:
        if len(obj) != n * n:
            raise InputError("flat matrix must have n*n entries")
        rows = [obj[i * n : (i + 1) * n] for i in range(n)]
    if len(rows) != n or any(not isinstance(r, list) or len(r) != n for r in rows):
        raise InputError("matrix must be n x n")
    return rows


def _parse_int(doc: dict, key: str) -> int:
    try:
        value = rat(doc[key])
    except (KeyError, InputError) as exc:
        raise InputError("instance document needs integer fields n and k") from exc
    if value.denominator != 1:
        raise InputError(f"{key} must be an integer, got {value}")
    return int(value)


def _parse_vector(obj: Any, n: int, name: str) -> Vec:
    if not isinstance(obj, list) or len(obj) != n:
        raise InputError(f"{name} must be an array of dimension n")
    return tuple(rat(x) for x in obj)


def parse_instance(doc: Any) -> EhlcpInstance:
    """Validate and convert a parsed JSON document to an exact instance."""
    if not isinstance(doc, dict):
        raise InputError("instance document must be a JSON object")
    n = _parse_int(doc, "n")
    k = _parse_int(doc, "k")
    if n < 1 or k < 1:
        raise InputError("n and k must be positive")
    mats = doc.get("C")
    if not isinstance(mats, list) or len(mats) != k + 1:
        raise InputError("C must be an array of k + 1 matrices")
    t = make_tuple([_parse_matrix(m, n) for m in mats])
    d_raw = doc.get("d", [])
    if d_raw is None:
        d_raw = []
    if not isinstance(d_raw, list):
        raise InputError("d must contain exactly k - 1 vectors")
    d = tuple(_parse_vector(dj, n, "each d_j") for dj in d_raw)
    q_raw = doc.get("q")
    q = zeros(n) if q_raw is None else _parse_vector(q_raw, n, "q")
    return EhlcpInstance(t, d, q)


def _int_literal(text: str) -> Fraction:
    """An integer literal of an instance file; one past Python's int digit
    limit is an InputError, as it is through rat."""
    try:
        return Fraction(int(text))
    except ValueError as exc:
        raise InputError(f"cannot parse rational {text[:40]!r}") from exc


def load_instance(path: str) -> EhlcpInstance:
    """Read and validate an instance file.  Integer literals become
    Fractions directly; decimal and exponent literals go through rat, so
    they meet the same guards as numbers written as strings."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=rat, parse_int=_int_literal)
    except OSError as exc:
        raise InputError(f"cannot read instance file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"invalid JSON in instance file: {exc}") from exc
    except RecursionError as exc:
        raise InputError("instance file nests arrays or objects too deeply to parse") from exc
    return parse_instance(doc)


def vec_to_json(v: Vec) -> list:
    return [rat_str(x) for x in v]


def mat_to_json(m: Mat) -> list:
    return [vec_to_json(row) for row in m]


def tuple_to_json(t: MatrixTuple) -> dict:
    return {"n": t.n, "k": t.k, "C": [mat_to_json(m) for m in t.mats]}


def instance_to_json(inst: EhlcpInstance) -> dict:
    return {
        **tuple_to_json(inst.matrix_tuple),
        "d": [vec_to_json(dj) for dj in inst.d],
        "q": vec_to_json(inst.q),
    }


def solution_to_json(x: Vec, n: int) -> list:
    """The blocks (x_0, ..., x_k) of a stacked vector, each as exact strings."""
    return [vec_to_json(v) for v in unstack(x, n)]


def piece_to_json(piece: SolutionPiece) -> dict:
    n = len(piece.selector)
    return {
        "branch": branch_label(piece.selector, len(piece.point) // n - 1),
        "point": solution_to_json(piece.point, n),
        "dimension": piece.piece_dimension,
        "kernel_basis": [vec_to_json(v) for v in piece.kernel_basis],
    }


def verdict_to_json(v: PropertyVerdict) -> dict:
    """Report entry of a verdict: the rule that decided it when it names one,
    its certificate otherwise."""
    doc = {"property": v.property_name, "holds": v.holds, "witness": v.witness}
    if v.decided_by is None:
        doc["certificate"] = v.certificate
    else:
        doc["decided_by"] = v.decided_by
    return doc


def dump_json(doc: Any) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline end.

    doc is a dict, list or tuple of str-keyed dicts, lists, tuples and
    scalars of an exact type in _SCALARS; any other key or scalar is a
    TypeError.  Its bytes are exactly json.dumps(doc, indent=2,
    sort_keys=True) + "\n", built in one recursive pass: with an indent,
    json.dumps runs its pure-Python encoder.  A dict's text depends only on
    the dict and its indent, so the pass keeps one slot per indent holding
    the last dict encoded there and its text, and a dict that is that very
    object (is, not ==) reuses the text: a report's violations share one
    conflict_with dict, encoded once.  One slot, not a memo of every
    container, keeps the pass's memory flat."""
    return _encode(doc, "\n", {}) + "\n"


# JSON text of a scalar by its exact type: str, int, bool, None, and the
# finite float of timing_seconds; a subclass (IntEnum, say) has no entry
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: lambda o: "true" if o else "false",
    type(None): lambda o: "null",
}


def _encode(o: Any, newline: str, last: dict) -> str:
    """JSON text of the list, tuple or dict o; newline is "\n" plus the
    indent of the line o starts on, and last maps each newline to the
    (dict, text) encoded there last."""
    get = _SCALARS.get
    inner = newline + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [scalar(v) if (scalar := get(type(v))) else _encode(v, inner, last) for v in o]
        sep = "," + inner
        return f"[{inner}{sep.join(items)}{newline}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        seen = last.get(newline)
        if seen is not None and seen[0] is o:
            return seen[1]
        # a value's text is joined as it is, not copied into a "key: value"
        # string, so the text its slot keeps costs no second copy
        parts = ["{"]
        for k, v in sorted(o.items()):
            parts += (inner, encode_basestring_ascii(k), ": ",
                      scalar(v) if (scalar := get(type(v))) else _encode(v, inner, last), ",")
        parts[-1] = newline + "}"
        text = "".join(parts)
        last[newline] = (o, text)
        return text
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
