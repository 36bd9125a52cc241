"""Instance parsing and exact JSON serialization round-trips."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehlcp.errors import InputError
from ehlcp.io import (
    dump_json,
    instance_to_json,
    parse_instance,
    piece_to_json,
    solution_to_json,
    tuple_to_json,
)
from ehlcp.solver import solve_all


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


# Documents beyond what reports hold: strings with non-ASCII, control and
# lone surrogate characters, big ints, floats with inf and nan, empty
# containers, tuples beside lists, and non-str keys (one key kind per dict,
# so that sort_keys can order it)
_text = st.text(st.characters(exclude_categories=()))
_docs = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats() | _text,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_text, children, max_size=4)
        | st.dictionaries(st.integers() | st.floats(allow_nan=False) | st.booleans(),
                          children, max_size=4)
        | st.dictionaries(st.none(), children, max_size=1)
    ),
    max_leaves=24,
)


class TestDumpJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(_docs)
    def test_bytes_equal_json_dumps(self, doc):
        assert dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [
        {"a": Fraction(1, 2)}, [object()], {"a": {1, 2}}, b"bytes", {(1, 2): 0},
    ])
    def test_unsupported_types_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dump_json(doc)
