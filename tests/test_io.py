"""Instance parsing and exact JSON serialization round-trips."""

import json
import sys
from collections import OrderedDict, namedtuple
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehlcp.errors import InputError
from ehlcp.io import (
    dump_json,
    instance_to_json,
    load_instance,
    parse_instance,
    piece_to_json,
    solution_to_json,
    tuple_to_json,
)
from ehlcp.rational import rat
from ehlcp.solver import solve_all

INT_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def sample_doc():
    return {
        "n": 2,
        "k": 2,
        "C": [
            [[1, 0], [0, 1]],
            [["1/2", "-3"], ["0.25", 0]],
            [[1, 1], [0, 1]],
        ],
        "d": [["1", "2"]],
        "q": ["-1/3", 2],
    }


class TestParseInstance:
    def test_rational_entries(self):
        inst = parse_instance(sample_doc())
        assert inst.matrix_tuple.mats[1][0][0] == Fraction(1, 2)
        assert inst.matrix_tuple.mats[1][1][0] == Fraction(1, 4)
        assert inst.q == (Fraction(-1, 3), Fraction(2))
        assert inst.d == ((Fraction(1), Fraction(2)),)

    def test_flat_matrices_accepted(self):
        doc = sample_doc()
        doc["C"][0] = [1, 0, 0, 1]
        inst = parse_instance(doc)
        assert inst.matrix_tuple.mats[0][0] == (Fraction(1), Fraction(0))

    def test_missing_q_defaults_to_zero(self):
        doc = sample_doc()
        del doc["q"]
        inst = parse_instance(doc)
        assert inst.q == (Fraction(0), Fraction(0))

    def test_k1_omits_d(self):
        doc = {"n": 1, "k": 1, "C": [[[1]], [[1]]], "q": [1]}
        inst = parse_instance(doc)
        assert inst.d == ()

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("n"), "integer fields"),
            (lambda d: d.update(C=d["C"][:2]), "k [+] 1"),
            (lambda d: d.update(d=[["0", "2"]]), "strictly positive"),
            (lambda d: d.update(q=[1]), "dimension"),
            (lambda d: d.update(d=[]), "k - 1"),
        ],
    )
    def test_malformed_documents(self, mutate, message):
        doc = sample_doc()
        mutate(doc)
        with pytest.raises(InputError, match=message):
            parse_instance(doc)


def _load_with_q0(tmp_path, literal: str):
    """load_instance on sample_doc with q[0] written as the bare literal."""
    text = json.dumps(sample_doc()).replace('"q": ["-1/3", 2]', f'"q": [{literal}, 2]')
    path = tmp_path / "instance.json"
    path.write_text(text, encoding="utf-8")
    return load_instance(str(path))


class TestNumberLiterals:
    # integer literals skip rat; decimal and exponent literals still take it
    @pytest.mark.parametrize("literal", [
        "0", "-0", "7", "-12", "10" * 20, "0.25", "-1e-3", "2E2", "-0.0",
        pytest.param("7" * INT_STR_DIGITS, id="max-digits",
                     marks=pytest.mark.skipif(INT_STR_DIGITS == 0, reason="no digit limit")),
    ])
    def test_literal_loads_as_rat_would(self, tmp_path, literal):
        q0 = _load_with_q0(tmp_path, literal).q[0]
        assert type(q0) is Fraction and q0 == rat(literal)


class TestRoundTrip:
    def test_instance_serialization_round_trips_exactly(self):
        inst = parse_instance(sample_doc())
        doc = json.loads(dump_json(instance_to_json(inst)))
        again = parse_instance(doc)
        assert again.matrix_tuple == inst.matrix_tuple
        assert again.d == inst.d
        assert again.q == inst.q

    def test_rationals_serialized_as_strings_never_floats(self):
        inst = parse_instance(sample_doc())
        text = dump_json(instance_to_json(inst))
        doc = json.loads(text)
        for m in doc["C"]:
            for row in m:
                assert all(isinstance(x, str) for x in row)
        assert doc["q"] == ["-1/3", "2"]

    def test_tuple_document_shape(self):
        inst = parse_instance(sample_doc())
        doc = tuple_to_json(inst.matrix_tuple)
        assert doc["n"] == 2 and doc["k"] == 2 and len(doc["C"]) == 3

    def test_solution_and_piece_documents(self):
        inst = parse_instance(
            {"n": 2, "k": 1, "C": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], "q": [1, -2]}
        )
        pieces = solve_all(inst)
        doc = piece_to_json(pieces[0])
        assert doc["point"] == [["1", "0"], ["0", "2"]]
        assert doc["dimension"] == 0
        assert solution_to_json(pieces[0].point, 2) == doc["point"]

    def test_dump_json_is_canonical(self):
        text = dump_json({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'


# Documents over the domain dump_json writes, wider than what reports hold
# in content: str keys and strings with non-ASCII, control and lone
# surrogate characters, big ints, finite floats, empty containers, and
# tuples beside lists; the top level is a container, as a report is
_text = st.text(st.characters(exclude_categories=()))
_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=False, allow_infinity=False) | _text,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_text, children, max_size=4)
    ),
    max_leaves=24,
)
_docs = (st.lists(_values, max_size=4) | st.lists(_values, max_size=4).map(tuple)
         | st.dictionaries(_text, _values, max_size=4))


class _Tone(IntEnum):
    LOW = 1
    HIGH = 2


class _Text(str):
    def __str__(self):
        return "not this"


class _Int(int):
    def __repr__(self):
        return "not this"


class _Float(float):
    def __repr__(self):
        return "not this"


_Pair = namedtuple("_Pair", "a b")

# one dict object reused across a document, as a report's violations share
# their conflict_with dict
_SHARED = {"selector": [0, 1], "determinant": "-3/2"}
_NESTING = {"inner": _SHARED, "list": [_SHARED]}


class TestDumpJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(_docs)
    def test_bytes_equal_json_dumps(self, doc):
        assert dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [
        [True, False, None, 0, 1, "1", 1.0, [True, [False]], {"a": True}],
        {"b": [False, 1], "a": (True, None)},
        [_Pair(1, "x"), OrderedDict(b=1, a=_Pair(True, 2.5))],
    ], ids=["bools-in-lists", "bools-in-tuples", "tuple-and-dict-subclasses"])
    def test_scalar_subclasses_match_json_dumps(self, doc):
        # bool is an int subclass, found by its exact type; containers are
        # found by isinstance, so namedtuple and OrderedDict encode as json's
        assert dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [
        [_SHARED, _SHARED, _SHARED],
        {"violations": [{"conflict_with": _SHARED, "selector": [s]} for s in range(3)]},
        [_SHARED, {"other": 1}, _SHARED, {"selector": [0]}, _SHARED],
        {"a": _SHARED, "b": [_SHARED, {"c": _SHARED}], "d": _SHARED},
        [{"value": _SHARED}, [_SHARED], {"value": _SHARED}],
        [_NESTING, _SHARED, _NESTING],
        [{"a": 1}, {"a": True}, {"a": 1.0}],
    ], ids=["consecutive", "conflict-witnesses", "dict-in-between", "two-indents",
            "list-item-and-dict-value", "nested", "equal-not-identical"])
    def test_shared_dicts_match_json_dumps(self, doc):
        assert dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(_text, _docs, min_size=1, max_size=3),
           st.lists(st.integers(min_value=0, max_value=3), max_size=6))
    def test_one_dict_at_drawn_depths_matches_json_dumps(self, shared, depths):
        def wrap(depth):
            return shared if depth == 0 else [{"x": wrap(depth - 1)}]
        doc = [wrap(depth) for depth in depths]
        assert dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_no_text_is_kept_between_calls(self):
        shared = {"a": 1}
        doc = [shared, shared]
        dump_json(doc)
        shared["a"] = 2
        assert dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [
        {"a": Fraction(1, 2)}, [object()], {"a": {1, 2}}, b"bytes", {(1, 2): 0},
        # json.dumps writes the rest, but no ehlcp document holds them: a
        # scalar subclass, a key that is not a str, or a bare scalar
        pytest.param({"a": _Tone.LOW, "b": [_Tone.HIGH, 2], "c": {"d": _Tone.HIGH}},
                     id="intenum-values"),
        pytest.param({_Tone.HIGH: "high", _Tone.LOW: "low"}, id="intenum-keys"),
        pytest.param({"b": _Text("x"), "a": [_Text("\u00e9\n")]}, id="str-subclass"),
        pytest.param({"a": 1, "b": [_Int(0), _Int(10**30)]}, id="int-subclass"),
        pytest.param({"a": [_Float(0.1), _Float(-0.0)]}, id="float-subclass"),
        pytest.param({3: 4, 1: 2}, id="int-keys"),
        pytest.param({_Float(2.5): 1, 1.5: 2}, id="float-subclass-keys"),
        pytest.param({True: [1], False: None}, id="bool-keys"),
        pytest.param({None: 1}, id="none-key"),
        pytest.param([{"a": 1, 2: "b"}], id="mixed-keys"),
        pytest.param(7, id="bare-scalar"),
    ])
    def test_unsupported_types_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            dump_json(doc)
