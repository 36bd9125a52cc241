"""Command-line front end: exit codes, report documents, determinism."""

import hashlib
import json
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehlcp import cli, csw, harness, representatives
from ehlcp.cli import main


def write_doc(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def worked_triple_doc():
    return {
        "n": 2,
        "k": 2,
        "C": [
            [[1, 0], [0, 1]],
            [[0, 1], [-1, 0]],
            [[1, 0], [0, 1]],
        ],
        "d": [[1, 1]],
        "q": [0, 0],
    }


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# Python's int-to-string digit limit (3.11+ and late 3.10 releases), 0 if none
INT_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestCheck:
    def test_worked_triple_verdicts(self, tmp_path, capsys):
        path = write_doc(tmp_path, worked_triple_doc())
        code, out, _ = run_main(
            ["check", "--file", path, "--props", "csw,column_w"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"]["csw"]["holds"] is True
        assert doc["verdicts"]["column_w"]["holds"] is False

    def test_identity_tuple_column_w(self, tmp_path, capsys):
        doc = {"n": 2, "k": 1, "C": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], "q": [0, 0]}
        path = write_doc(tmp_path, doc)
        code, out, _ = run_main(["check", "--file", path, "--props", "column_w"], capsys)
        assert code == 0
        assert json.loads(out)["verdicts"]["column_w"]["holds"] is True

    def test_malformed_d_exits_2(self, tmp_path, capsys):
        doc = worked_triple_doc()
        doc["d"] = [[1, 0]]
        path = write_doc(tmp_path, doc)
        code, _, err = run_main(["check", "--file", path, "--props", "csw"], capsys)
        assert code == 2
        assert "d must be strictly positive" in err

    def test_unknown_property_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, worked_triple_doc())
        code, _, err = run_main(["check", "--file", path, "--props", "bogus"], capsys)
        assert code == 2

    @pytest.mark.parametrize("props", ["", ",", " , "])
    def test_empty_property_list_exits_2(self, tmp_path, capsys, props):
        path = write_doc(tmp_path, worked_triple_doc())
        code, out, err = run_main(["check", "--file", path, "--props", props], capsys)
        assert (code, out) == (2, "")
        assert "names no property" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_main(
            ["check", "--file", "/nonexistent.json", "--props", "csw"], capsys
        )
        assert code == 2

    def test_matrix_class_props_reported_per_matrix(self, tmp_path, capsys):
        path = write_doc(tmp_path, worked_triple_doc())
        code, out, _ = run_main(["check", "--file", path, "--props", "z"], capsys)
        doc = json.loads(out)["verdicts"]["z"]
        assert doc["C0"]["holds"] is True
        assert doc["C1"]["holds"] is False

    def test_recheck_agrees(self, tmp_path, capsys):
        path = write_doc(tmp_path, worked_triple_doc())
        code, out, _ = run_main(
            ["check", "--file", path, "--props", "csw", "--recheck"], capsys
        )
        assert code == 0
        assert json.loads(out)["recheck"] == "ok"

    def test_recheck_recomputes_the_cached_tuple_work(self, tmp_path, capsys, monkeypatch):
        # the second pass loads the instance again, so it walks the
        # representative determinants and computes the cocircuits anew
        # instead of reading back the first pass's cached results; the
        # determinant checks walk the integer numerators, so those walks
        # are what is counted
        counts = {"_det_numerators": 0, "_cocircuits": 0}
        for name in counts:
            def counted(t, real=getattr(representatives, name), name=name):
                counts[name] += 1
                return real(t)

            monkeypatch.setattr(representatives, name, counted)
        path = write_doc(tmp_path, worked_triple_doc())
        props = "column_w,column_w0,column_ndw,csw,cone_csw,column_ndw_def"
        assert run_main(["check", "--file", path, "--props", props], capsys)[0] == 0
        assert counts == {"_det_numerators": 1, "_cocircuits": 1}
        code, out, _ = run_main(["check", "--file", path, "--props", props, "--recheck"], capsys)
        assert code == 0 and json.loads(out)["recheck"] == "ok"
        assert counts == {"_det_numerators": 3, "_cocircuits": 3}

    def test_x_col_suff_at_k1_decides_the_tuple_itself(self, tmp_path, capsys, monkeypatch):
        # at k = 1 the pair (C_0, C_1) is the tuple, so x_col_suff reads the
        # cocircuits and the witness LP that csw computed for it; the digest
        # is the report of the code that decided the pair on a new tuple
        counts = {"_cocircuits": 0, "nonneg_solution": 0}
        for module, name in ((representatives, "_cocircuits"), (csw, "nonneg_solution")):
            def counted(arg, real=getattr(module, name), name=name):
                counts[name] += 1
                return real(arg)

            monkeypatch.setattr(module, name, counted)
        doc = {"n": 3, "k": 1, "q": [-2, 2, -2],
               "C": [[[-2, 2, -2], [-2, -1, 1], [-2, 1, -2]],
                     [[-2, 0, -2], [2, 0, -1], [2, -2, -1]]]}
        path = write_doc(tmp_path, doc)
        code, out, _ = run_main(["check", "--file", path, "--props", "csw,x_col_suff"], capsys)
        assert code == 0 and counts == {"_cocircuits": 1, "nonneg_solution": 1}
        verdicts = json.loads(out)["verdicts"]
        assert verdicts["x_col_suff"]["pair_0_1"]["witness"] == verdicts["csw"]["witness"]
        text = "".join(line for line in out.splitlines(True) if '"timing_seconds"' not in line)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "dad7536caa55ddb42348319c2f34a9ab2bdb1846fbd30cb997a07df86056fd38")

    def test_cap_exceeded_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(csw, "PATTERN_CAP", 3)
        doc = worked_triple_doc()
        # degenerate C0 disables both fast paths, forcing enumeration
        doc["C"][0] = [[1, 0], [0, 0]]
        path = write_doc(tmp_path, doc)
        code, _, err = run_main(["check", "--file", path, "--props", "csw"], capsys)
        assert code == 3
        assert "undecided: size" in err

    @pytest.mark.parametrize("k, code", [(11, 0), (12, 3)])
    def test_shipped_pattern_cap_is_12(self, tmp_path, capsys, k, code):
        # C_0 = [[0]] fails column W and ND-W, so csw enumerates patterns
        # at (k+1)*n = k + 1 components, up to and then past the cap
        doc = {"n": 1, "k": k, "C": [[[0]]] + [[[1]]] * k, "d": [[1]] * (k - 1), "q": [0]}
        path = write_doc(tmp_path, doc)
        got, out, err = run_main(["check", "--file", path, "--props", "csw"], capsys)
        assert got == code
        if code == 0:
            assert json.loads(out)["verdicts"]["csw"]["decided_by"] == "pattern_enumeration"
        else:
            assert "undecided: size ((k+1)*n = 13 exceeds pattern cap 12)" in err

    def test_result_over_int_str_digit_limit_exits_3(self, tmp_path, capsys):
        # every entry is 901 digits, but each representative determinant is
        # (10**900)**5, 4501 digits long
        n = 5

        def diagonal(entry):
            return [[entry if i == j else "0" for j in range(n)] for i in range(n)]

        doc = {"n": n, "k": 1, "C": [diagonal("1e900"), diagonal("-1e900")]}
        path = write_doc(tmp_path, doc)
        for argv in (["check", "--file", path, "--props", "column_w"],
                     ["check", "--exhaustive", "--file", path, "--props", "column_w,column_w0"]):
            code, out, err = run_main(argv, capsys)
            if 0 < INT_STR_DIGITS < 4501:
                assert code == 3 and out == "", argv
                assert f"int-to-string limit of {INT_STR_DIGITS} digits" in err, argv
            else:
                assert code == 0, argv

    def test_check_selector_cap_exits_3(self, tmp_path, capsys):
        # 2^20 = 1 048 576 representatives exceed the same cap solve uses
        n = 20
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        doc = {"n": n, "k": 1, "C": [eye, eye], "q": [0] * n}
        path = write_doc(tmp_path, doc)
        code, out, err = run_main(["check", "--file", path, "--props", "column_w"], capsys)
        assert code == 3 and out == ""
        assert "selector cap" in err
        assert "--force" not in err


class TestParserReuse:
    def test_later_calls_behave_as_first_calls(self, tmp_path, capsys):
        # build_parser is built once per process; a call parsed by the
        # shared parser gives the bytes and exit code it gives when it is
        # the process's first call
        path = write_doc(tmp_path, worked_triple_doc())
        calls = (
            ["check", "--exhaustive", "--file", path, "--props", "column_w,column_w0"],
            ["check", "--file", path, "--props", "column_w,column_w0"],
            ["check", "--file", path, "--props", "column_w", "--exhaustive=yes"],
        )

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            # the one field that differs between two runs of the same call
            return code, re.sub(r'"timing_seconds": [0-9.e+-]+', "", out.out), out.err

        first = []
        for argv in calls:
            cli.build_parser.cache_clear()
            first.append(run(argv))
        assert [run(argv) for argv in calls] == first
        assert cli.build_parser() is cli.build_parser()
        assert [code for code, _, _ in first] == [0, 0, 2]
        # the flag changes the report, so a flag kept from an earlier parse shows
        assert first[0][1] != first[1][1]


class TestSolve:
    def test_split_instance(self, tmp_path, capsys):
        doc = {"n": 2, "k": 1, "C": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], "q": [1, -2]}
        path = write_doc(tmp_path, doc)
        code, out, _ = run_main(["solve", "--file", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["path"] == "enumeration"
        assert len(report["pieces"]) == 1
        assert report["pieces"][0]["point"] == [["1", "0"], ["0", "2"]]

    def test_segment_instance_reports_dimension_one(self, tmp_path, capsys):
        doc = {"n": 2, "k": 1, "C": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], "q": [0, 1]}
        path = write_doc(tmp_path, doc)
        code, out, _ = run_main(["solve", "--file", path], capsys)
        assert code == 0
        dims = [p["dimension"] for p in json.loads(out)["pieces"]]
        assert 1 in dims

    def test_m_matrix_without_csw_has_four_points(self, tmp_path, capsys):
        # C_0 = I is an M-matrix and q > 0, but (I, -I) is not cS-W, so the
        # closed form (q, 0) is one of four solutions
        doc = {"n": 2, "k": 1, "C": [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]], "q": [1, 1]}
        path = write_doc(tmp_path, doc)
        code, out, _ = run_main(["solve", "--file", path], capsys)
        assert code == 0
        pieces = json.loads(out)["pieces"]
        assert [p["dimension"] for p in pieces] == [0, 0, 0, 0]
        assert sorted(p["point"] for p in pieces) == [
            [["0", "0"], ["1", "1"]],
            [["0", "1"], ["1", "0"]],
            [["1", "0"], ["0", "1"]],
            [["1", "1"], ["0", "0"]],
        ]

    def test_out_file(self, tmp_path, capsys):
        doc = {"n": 1, "k": 1, "C": [[[1]], [[1]]], "q": [1]}
        path = write_doc(tmp_path, doc)
        out_path = tmp_path / "report.json"
        code, out, _ = run_main(
            ["solve", "--file", path, "--out", str(out_path)], capsys
        )
        assert code == 0 and out == ""
        report = json.loads(out_path.read_text())
        assert report["command"] == "solve"

    def test_selector_cap_exits_3(self, tmp_path, capsys):
        # (k+1)^n = 3^13 exceeds the selector cap of 10^6
        n = 13
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        doc = {"n": n, "k": 2, "C": [eye, eye, eye], "d": [[1] * n], "q": [0] * n}
        path = write_doc(tmp_path, doc)
        code, out, err = run_main(["solve", "--file", path], capsys)
        assert code == 3 and out == ""
        assert "selector cap" in err
        assert "--force" not in err

    def test_recheck_checks_points_by_definition(self, tmp_path, capsys, monkeypatch):
        from fractions import Fraction

        from ehlcp.solver import SolutionPiece

        # x = (2, 0) meets the bounds and the wedge but not x_0 - x_1 = q = 1
        bad = SolutionPiece((0,), (Fraction(2), Fraction(0)), 0)
        monkeypatch.setattr(cli, "solve_all", lambda inst: [bad])
        path = write_doc(tmp_path, {"n": 1, "k": 1, "C": [[[1]], [[1]]], "q": [1]})
        code, out, _ = run_main(["solve", "--file", path], capsys)
        assert code == 0 and json.loads(out)["pieces"][0]["point"] == [["2"], ["0"]]
        code, out, err = run_main(["solve", "--file", path, "--recheck"], capsys)
        assert code == 4 and out == ""
        assert "selector [0] is not a solution" in err

    @pytest.mark.parametrize("direction", [(0, -1, 2, 0), (1, -1, 1, 0)])
    def test_recheck_steps_along_each_direction(self, tmp_path, capsys, monkeypatch, direction):
        from fractions import Fraction

        from ehlcp.solver import SolutionPiece

        # the piece of selector (1, 0) is the segment x_{0,2} + x_{1,1} = 1
        # along (0, -1, 1, 0); from (0, 1/4, 3/4, 0) the box allows a step
        # of 1/4 both ways.  The first corrupt direction leaves A x = q, the
        # second moves x_{0,1}, which sits at 0
        doc = {"n": 2, "k": 1, "C": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], "q": [0, 1]}
        path = write_doc(tmp_path, doc)
        point = (Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(0))
        real = SolutionPiece((1, 0), point, 1, (tuple(map(Fraction, (0, -1, 1, 0))),))
        bad = SolutionPiece((1, 0), point, 1, (tuple(map(Fraction, direction)),))
        monkeypatch.setattr(cli, "solve_all", lambda inst: [real])
        assert run_main(["solve", "--file", path, "--recheck"], capsys)[0] == 0
        monkeypatch.setattr(cli, "solve_all", lambda inst: [bad])
        code, out, err = run_main(["solve", "--file", path, "--recheck"], capsys)
        assert code == 4 and out == ""
        assert "a direction of selector [1, 0] leaves the solution set" in err

    def test_recheck_passes_real_pieces(self, tmp_path, capsys):
        doc = {"n": 2, "k": 1, "C": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], "q": [0, 1]}
        path = write_doc(tmp_path, doc)
        code, out, _ = run_main(["solve", "--file", path, "--recheck"], capsys)
        plain = run_main(["solve", "--file", path], capsys)[1]
        report = json.loads(out)
        assert code == 0 and report.pop("recheck") == "ok"
        assert report["pieces"] == json.loads(plain)["pieces"]

    def test_invariant_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        from ehlcp import cli
        from ehlcp.errors import InvariantError

        def broken(inst):
            raise InvariantError("simulated")

        monkeypatch.setattr(cli, "solve_all", broken)
        doc = {"n": 1, "k": 1, "C": [[[1]], [[1]]], "q": [1]}
        code, _, err = run_main(["solve", "--file", write_doc(tmp_path, doc)], capsys)
        assert code == 4
        assert "simulated" in err


class TestMalformedInput:
    def test_fractional_n_exits_2(self, tmp_path, capsys):
        doc = {"n": 2.5, "k": 1, "C": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], "q": [1, 1]}
        code, _, err = run_main(["solve", "--file", write_doc(tmp_path, doc)], capsys)
        assert code == 2
        assert "n must be an integer" in err

    def test_scalar_d_entry_exits_2(self, tmp_path, capsys):
        doc = worked_triple_doc()
        doc["d"] = [5]
        code, _, err = run_main(["solve", "--file", write_doc(tmp_path, doc)], capsys)
        assert code == 2
        assert "d_j" in err

    def test_scalar_q_exits_2(self, tmp_path, capsys):
        doc = worked_triple_doc()
        doc["q"] = 7
        code, _, err = run_main(["solve", "--file", write_doc(tmp_path, doc)], capsys)
        assert code == 2
        assert "q must be an array" in err

    @pytest.mark.parametrize("command", [["check", "--props", "csw"], ["solve"]],
                             ids=["check", "solve"])
    @pytest.mark.parametrize("text", [
        "[" * 200000,
        '{"n": 1, "k": 1, "C": ' + "[" * 100000 + "]" * 100000 + "}",
    ], ids=["open_arrays", "nested_C"])
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, command, text):
        # the JSON parser recurses per nesting level and gives up with a
        # RecursionError, which must not surface as a traceback and exit 1
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        code, _, err = run_main([command[0], "--file", str(path), *command[1:]], capsys)
        assert code == 2
        assert err.startswith("input error:") and "too deeply" in err

    def test_ragged_matrix_row_exits_2(self, tmp_path, capsys):
        doc = worked_triple_doc()
        doc["C"][1] = [[0, 1], 3]
        code, _, err = run_main(["solve", "--file", write_doc(tmp_path, doc)], capsys)
        assert code == 2

    def test_huge_decimal_exponent_exits_2_quickly(self, tmp_path, capsys):
        doc = worked_triple_doc()
        doc["C"][1][0][0] = "1e100000000"
        path = write_doc(tmp_path, doc)
        started = time.perf_counter()
        code, out, err = run_main(["check", "--file", path, "--props", "column_w"], capsys)
        assert time.perf_counter() - started < 1
        assert code == 2 and out == ""
        assert "decimal exponent" in err

    @pytest.mark.parametrize("literal", ["1e1001", "1e1000000"])
    def test_exponent_number_literal_exits_2(self, tmp_path, capsys, literal):
        # a number literal meets the same exponent guard as a string
        text = json.dumps(worked_triple_doc()).replace('"q": [0, 0]', f'"q": [{literal}, 0]')
        path = tmp_path / "instance.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_main(["solve", "--file", str(path)], capsys)
        assert code == 2 and out == ""
        assert "decimal exponent" in err

    @pytest.mark.skipif(INT_STR_DIGITS == 0, reason="no int-to-string digit limit")
    def test_integer_literal_over_digit_limit_exits_2(self, tmp_path, capsys):
        digits = "7" * (INT_STR_DIGITS + 1)
        text = json.dumps(worked_triple_doc()).replace('"q": [0, 0]', f'"q": [{digits}, 0]')
        path = tmp_path / "instance.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_main(["solve", "--file", str(path)], capsys)
        assert code == 2 and out == ""
        assert "input error" in err

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run_main(["solve", "--file", str(path)], capsys)
        assert code == 2 and out == ""
        assert "invalid JSON" in err

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, literal):
        # Python's json module accepts these three literals as floats
        text = json.dumps(worked_triple_doc()).replace('"q": [0, 0]', f'"q": [{literal}, 0]')
        path = tmp_path / "instance.json"
        path.write_text(text, encoding="utf-8")
        for args in (["solve", "--file", str(path)],
                     ["check", "--file", str(path), "--props", "column_w"]):
            code, out, err = run_main(args, capsys)
            assert code == 2 and out == ""
            assert "input error" in err


def json_values():
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)
    )
    return st.recursive(
        leaves,
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=2), inner, max_size=3)),
        max_leaves=10,
    )


@st.composite
def near_instances(draw):
    """A well-shaped instance (n <= 3) with arbitrary scalar entries, then
    possibly one field dropped, replaced by any JSON value, or misstated."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    scalar = st.one_of(
        st.integers(-3, 3), st.floats(),
        st.sampled_from(["1/2", "-0.25", "1/0", "x", "", True, None]),
    )
    vector = st.lists(scalar, min_size=n, max_size=n)
    doc = {
        "n": n,
        "k": k,
        "C": draw(st.lists(st.lists(vector, min_size=n, max_size=n),
                           min_size=k + 1, max_size=k + 1)),
        "d": draw(st.lists(vector, min_size=k - 1, max_size=k - 1)),
        "q": draw(vector),
    }
    key = draw(st.sampled_from(sorted(doc)))
    change = draw(st.sampled_from(["keep", "drop", "replace", "misstate"]))
    if change == "drop":
        del doc[key]
    elif change == "replace":
        doc[key] = draw(json_values())
    elif change == "misstate":
        wrong = draw(st.sampled_from([0, -1, 4, 2.5, "2", 1e300]))
        doc[draw(st.sampled_from(["n", "k"]))] = wrong
    return doc


class TestExitCodesFuzz:
    @settings(max_examples=150, deadline=None)
    @given(doc=st.one_of(json_values(), near_instances()))
    def test_any_json_document_gets_a_documented_exit_code(self, tmp_path_factory, doc):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = str(tmp_path / "report.json")
        for args in (["solve", "--file", str(path), "--out", out],
                     ["check", "--file", str(path), "--props", "column_w", "--out", out]):
            assert main(args) in (0, 1, 2, 3, 4)


class TestUnwritableOut:
    @pytest.mark.parametrize("command", ["check", "verify", "gen"])
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_out_exits_2(self, tmp_path, command, target):
        out = tmp_path / "missing" / "report.json" if target == "missing_dir" else tmp_path
        args = {
            "check": ["check", "--file", write_doc(tmp_path, worked_triple_doc()),
                      "--props", "column_w"],
            "verify": ["verify", "--theorem", "T4.3-chain", "--trials", "1"],
            "gen": ["gen", "--family", "generic", "--n", "2", "--k", "1", "--seed", "0"],
        }[command]
        res = subprocess.run([sys.executable, "-m", "ehlcp", *args, "--out", str(out)],
                             capture_output=True, text=True)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("input error: cannot write report file")


class TestVerify:
    def test_pass_exits_0(self, tmp_path, capsys):
        code, out, _ = run_main(
            ["verify", "--theorem", "T4.3-chain", "--trials", "5", "--seed", "1"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert "timing_seconds" not in report

    def test_violation_exits_1(self, monkeypatch, capsys):
        # a broken definition decider makes T4.1 disagree on every
        # tuple with a singular representative
        always_true = type("V", (), {"holds": True})()
        monkeypatch.setattr(harness, "check_column_ndw_def", lambda t: always_true)
        code, out, _ = run_main(
            ["verify", "--theorem", "T4.1-ndw", "--trials", "20", "--seed", "8"], capsys,
        )
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["theorem"] == "T4.1-ndw" and report["trials"] == 20
        expected = harness.verify_theorem("T4.1-ndw", 20, harness.GenSpec(2, 2, seed=8))
        assert expected and report["violations"] == expected

    def test_unknown_theorem_exits_2(self, capsys):
        code, _, err = run_main(["verify", "--theorem", "T0.0", "--trials", "1"], capsys)
        assert code == 2

    def test_negative_trials_exits_2(self, capsys):
        code, out, err = run_main(["verify", "--theorem", "T4.3-chain", "--trials", "-3"], capsys)
        assert code == 2 and out == ""
        assert "trials" in err

    def test_same_seed_byte_identical(self, tmp_path):
        args = [
            sys.executable, "-m", "ehlcp", "verify",
            "--theorem", "T4.1-ndw", "--trials", "5", "--seed", "3",
        ]
        a = subprocess.run(args, capture_output=True, text=True)
        b = subprocess.run(args, capture_output=True, text=True)
        assert a.returncode == 0
        assert a.stdout == b.stdout


class TestGen:
    def test_gen_writes_valid_instance(self, tmp_path, capsys):
        out_path = tmp_path / "f.json"
        code, _, _ = run_main(
            [
                "gen", "--family", "column_w_constructive",
                "--n", "2", "--k", "2", "--seed", "9", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["family"] == "column_w_constructive"
        code, out, _ = run_main(
            ["check", "--file", str(out_path), "--props", "column_w"], capsys
        )
        assert code == 0
        assert json.loads(out)["verdicts"]["column_w"]["holds"] is True

    def test_gen_is_byte_deterministic(self, capsys):
        args = ["gen", "--family", "generic", "--n", "2", "--k", "1", "--seed", "4"]
        _, a, _ = run_main(args, capsys)
        _, b, _ = run_main(args, capsys)
        assert a == b

    def test_unknown_family_exits_2(self, capsys):
        code, _, _ = run_main(
            ["gen", "--family", "weird", "--n", "2", "--k", "1", "--seed", "0"], capsys
        )
        assert code == 2

    def test_no_invertible_c0_within_the_draw_cap_exits_3(self, capsys, monkeypatch):
        # every draw singular: the constructive family stops at its cap
        # instead of escaping as an uncaught error (exit 1)
        monkeypatch.setattr(harness, "_echelon", lambda a, pivot_cols: ([], 0, 1))
        code, out, err = run_main(
            ["gen", "--family", "column_w_constructive", "--n", "2", "--k", "1", "--seed", "0"],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert "1000 draws" in err


def _stdlib_text(text):
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestReportsAreStdlibJson:
    """Every command's stdout is the stdlib encoder's text of the document
    it holds, on reports with timings, shared witness dicts, pieces and
    violation payloads."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        paths = {}
        for family, seed in (("generic", 5), ("degenerate", 2)):
            paths[family] = str(tmp_path / f"{family}.json")
            code, _, _ = run_main(["gen", "--family", family, "--n", "3", "--k", "2",
                                   "--seed", str(seed), "--out", paths[family]], capsys)
            assert code == 0
        return paths

    @pytest.mark.parametrize("flags", [[], ["--exhaustive"]], ids=["first", "exhaustive"])
    def test_check_of_every_property(self, files, capsys, flags):
        code, out, _ = run_main(
            ["check", *flags, "--file", files["generic"], "--props", ",".join(cli.PROPERTIES)],
            capsys,
        )
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        assert len(verdicts) == 12
        if flags:  # the exhaustive column W violations share one conflict_with dict
            violations = verdicts["column_w"]["witness"]["violations"]
            assert sum("conflict_with" in v for v in violations) > 1
        assert out == _stdlib_text(out)

    def test_solve_with_a_positive_dimensional_piece(self, files, capsys):
        code, out, _ = run_main(["solve", "--file", files["degenerate"]], capsys)
        assert code == 0
        assert any(piece["dimension"] > 0 for piece in json.loads(out)["pieces"])
        assert out == _stdlib_text(out)

    def test_verify_with_a_violation(self, monkeypatch, capsys):
        # every solution set reads as non-convex, so each trial with a piece
        # reports the instance and a pair of points
        monkeypatch.setattr(harness, "nonconvex_pair",
                            lambda inst, pieces: (pieces[0].point, pieces[-1].point)
                            if pieces else None)
        code, out, _ = run_main(
            ["verify", "--theorem", "T3.1-convex", "--trials", "5", "--seed", "3"], capsys,
        )
        assert code == 1
        violations = json.loads(out)["violations"]
        assert violations and all({"instance", "points"} <= set(v) for v in violations)
        assert out == _stdlib_text(out)

    def test_gen(self, capsys):
        code, out, _ = run_main(["gen", "--family", "generic", "--n", "3", "--k", "2",
                                 "--seed", "5"], capsys)
        assert code == 0
        assert out == _stdlib_text(out)
