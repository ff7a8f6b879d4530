"""Command line behavior: outputs, exit codes, and error JSON."""

import dataclasses
import json
import sys
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockginv import cli, generators, theorems
from blockginv.cli import (InputError, OutputError, main, matrix_from_rows,
                           matrix_to_rows)
from blockginv.generators import GenerationExhausted, GenSpec, gen_pair
from blockginv.ginverse import NotGroupInvertible
from blockginv.matrices import Matrix, ShapeMismatch
from blockginv.scalars import parse_scalar
from blockginv.theorems import (THEOREM_IDS, HypothesisViolated,
                                block_group_inverse)
from conftest import (DIGIT_LIMIT_TEMPLATES, REJECTED_SCALARS,
                      TOO_MANY_DIGITS, mat, rect_matrices, rows_of, scalars)

# Ten digits past the int-to-str limit, so a small factor keeps it past.
_HUGE = 10 ** (sys.get_int_max_str_digits() + 10)
_blanks = st.text(" \t", max_size=2)
_signs = st.sampled_from(["", "-"])


def _rational_texts():
    """["-"] digits ["/" digits] as written: "4/6", "0/5", "-6/3"."""
    return st.builds(
        lambda sign, num, den: sign + str(num) + (f"/{den}" if den else ""),
        _signs, st.integers(0, 12), st.none() | st.integers(1, 12))


def _scalar_texts():
    """Strings of the scalar grammar, blanks around terms and the sign."""
    imaginary = _rational_texts().map(lambda r: r + "i") | _signs.map(
        lambda sign: sign + "i")
    joined = st.builds(
        lambda re, b1, sign, b2, im: re + b1 + sign + b2 + im,
        _rational_texts(), _blanks, st.sampled_from("+-"), _blanks, imaginary)
    return st.builds(lambda b1, text, b2: b1 + text + b2, _blanks,
                     _rational_texts() | imaginary | joined, _blanks)


def _entry_grids():
    """1..3 x 1..3 grids of scalar strings and JSON integers."""
    entries = _scalar_texts() | st.integers(-50, 50)
    return st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda dims: st.lists(
            st.lists(entries, min_size=dims[1], max_size=dims[1]),
            min_size=dims[0], max_size=dims[0]))


def write_matrix(path, rows):
    path.write_text(json.dumps({"rows": rows}))
    return str(path)


@pytest.fixture
def worked_files(tmp_path):
    e = write_matrix(tmp_path / "E.json", [["1", "2"], ["0", "-1"]])
    f = write_matrix(tmp_path / "F.json", [["i", "i"], ["0", "0"]])
    return e, f


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDrazinCommand:
    def test_output(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", [["1/2", "0"], ["0", "0"]])
        code, out, err = run_cli(capsys, ["drazin", path])
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "drazin": [["2", "0"], ["0", "0"]],
            "index": 1,
            "pi": [["0", "0"], ["0", "1"]],
        }

    def test_integer_entries_accepted(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", [[1, 0], [0, 2]])
        code, out, _ = run_cli(capsys, ["drazin", path])
        assert code == 0
        assert json.loads(out)["index"] == 0

    def test_non_square_exits_one(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", [["1", "2"]])
        code, out, err = run_cli(capsys, ["drazin", path])
        assert code == 1
        assert json.loads(err)["error"] == "ShapeMismatch"


class TestGroupinvCommand:
    def test_success(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", [["1/2", "0"], ["0", "0"]])
        code, out, _ = run_cli(capsys, ["groupinv", path])
        assert code == 0
        assert json.loads(out) == {"group_inverse": [["2", "0"], ["0", "0"]]}

    def test_refusal_exits_two(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", [["0", "1"], ["0", "0"]])
        code, out, err = run_cli(capsys, ["groupinv", path])
        assert code == 2
        assert json.loads(err)["error"] == "NotGroupInvertible"
        assert out == ""


class TestBlockCommand:
    def test_worked_example(self, worked_files, capsys):
        e, f = worked_files
        code, out, _ = run_cli(capsys, [
            "block", "--theorem", "thm3.1", "--E", e, "--F", f,
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["theorem"] == "thm3.1"
        assert payload["shape"] == "EF_F0"
        assert payload["gamma"] == [["0", "1"], ["0", "-1"]]
        assert payload["lambda"] == [["-i", "-i"], ["0", "0"]]
        assert payload["assembled"][0] == ["0", "1", "-i", "-i"]
        names = [c["name"] for c in payload["conditions"]]
        assert names == ["FEF^pi=0", "F group-invertible", "EE^pi F^pi=0"]
        assert all(c["holds"] for c in payload["conditions"])

    def test_output_round_trips(self, worked_files, tmp_path, capsys):
        # groupinv applied to the block formula's output must undo it:
        # the group inverse of M^# is M itself.
        e, f = worked_files
        code, out, _ = run_cli(capsys, [
            "block", "--theorem", "thm3.1", "--E", e, "--F", f,
        ])
        assert code == 0
        rows = json.loads(out)["assembled"]
        reparsed = Matrix.from_rows([[parse_scalar(x) for x in row]
                                     for row in rows])
        assert reparsed.shape == (4, 4)
        path = write_matrix(tmp_path / "back.json", rows)
        code, out, _ = run_cli(capsys, ["groupinv", path])
        assert code == 0
        original = [
            ["1", "2", "i", "i"],
            ["0", "-1", "0", "0"],
            ["i", "i", "0", "0"],
            ["0", "0", "0", "0"],
        ]
        assert json.loads(out)["group_inverse"] == original

    def test_hypothesis_violation_exits_two(self, tmp_path, capsys):
        e = write_matrix(tmp_path / "e.json", [["0", "1"], ["0", "0"]])
        f = write_matrix(tmp_path / "f.json", [["1", "0"], ["0", "0"]])
        code, _, err = run_cli(capsys, [
            "block", "--theorem", "thm2.1", "--E", e, "--F", f,
        ])
        assert code == 2
        assert json.loads(err)["error"] == "HypothesisViolated"

    def test_nonexistence_exits_two(self, tmp_path, capsys):
        e = write_matrix(tmp_path / "e.json", [["0"]])
        f = write_matrix(tmp_path / "f.json", [["0"]])
        code, _, err = run_cli(capsys, [
            "block", "--theorem", "thm2.1", "--E", e, "--F", f,
        ])
        assert code == 2
        assert json.loads(err)["error"] == "NotGroupInvertible"


class TestCheckCommand:
    def test_reports_without_failing(self, tmp_path, capsys):
        e = write_matrix(tmp_path / "e.json", [["0", "1"], ["0", "0"]])
        f = write_matrix(tmp_path / "f.json", [["1/2", "0"], ["0", "0"]])
        code, out, _ = run_cli(capsys, [
            "check", "--theorem", "thm2.1", "--E", e, "--F", f,
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["satisfied"] is False
        failing = [c for c in payload["conditions"] if not c["holds"]]
        assert failing

    @staticmethod
    def _law(tmp_path, capsys, f_rows):
        e = write_matrix(tmp_path / "e.json", [["0", "1"], ["0", "0"]])
        f = write_matrix(tmp_path / "f.json", f_rows)
        code, out, _ = run_cli(capsys, [
            "check", "--theorem", "cor2.5", "--E", e, "--F", f,
        ])
        assert code == 0
        law = next(c for c in json.loads(out)["conditions"]
                   if c["name"] == "EF=lambda FE")
        assert law["holds"] is True
        return law

    def test_reports_lambda(self, tmp_path, capsys):
        assert self._law(tmp_path, capsys,
                         [["2", "0"], ["0", "3"]])["lambda"] == "3/2"

    def test_reports_a_complex_fractional_lambda(self, tmp_path, capsys):
        assert self._law(tmp_path, capsys,
                         [["2", "0"], ["0", "-1+3i"]])["lambda"] == "-1/2+3/2i"

    def test_reports_lambda_zero_when_only_ef_vanishes(self, tmp_path,
                                                        capsys):
        # EF = 0 while FE = [[0, 1], [0, 0]].
        law = self._law(tmp_path, capsys, [["1", "0"], ["0", "0"]])
        assert law["lambda"] == "0"
        assert law["residual"] == [["0", "0"], ["0", "0"]]


class TestVerifyCommand:
    def test_positive_run(self, capsys):
        code, out, _ = run_cli(capsys, [
            "verify", "--theorem", "cor2.2", "--trials", "5",
            "--max-n", "4", "--seed", "6",
        ])
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 6
        assert all(line["verdict"] == "AgreeExists" for line in lines[:-1])
        summary = lines[-1]
        assert summary["summary"] is True
        assert summary["agree_exists"] == 5
        assert summary["mismatch"] == 0

    def test_negative_run(self, capsys):
        code, out, _ = run_cli(capsys, [
            "verify", "--theorem", "cor3.2", "--trials", "4",
            "--max-n", "5", "--seed", "2", "--negative",
        ])
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["agree_not_exists"] == 4

    def test_jobs_do_not_change_output(self, capsys):
        # A refusal's report holds residuals formed only when read; a
        # worker's report must still cross back to the parent process.
        for negative in ([], ["--negative"]):
            args = ["verify", "--theorem", "thm2.1", "--trials", "4",
                    "--max-n", "4", "--seed", "5", *negative]
            code1, out1, _ = run_cli(capsys, args)
            code2, out2, _ = run_cli(capsys, args + ["--jobs", "2"])
            assert code1 == code2 == 0
            assert out1 == out2

    def test_impossible_negatives_exit_one(self, capsys):
        code, _, err = run_cli(capsys, [
            "verify", "--theorem", "cor3.3", "--trials", "2", "--negative",
        ])
        assert code == 1
        assert json.loads(err)["error"] == "GenerationExhausted"

    def test_bad_trials_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, [
            "verify", "--theorem", "thm2.1", "--trials", "0",
        ])
        assert code == 1
        assert json.loads(err)["error"] == "Usage"

    @pytest.mark.parametrize("flag", ["--max-n", "--jobs"])
    def test_zero_max_n_or_jobs_is_usage_error(self, flag, capsys):
        code, out, err = run_cli(capsys, [
            "verify", "--theorem", "thm2.1", flag, "0",
        ])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "Usage",
                                   "message": f"{flag} must be at least 1"}

    def test_first_bad_count_is_the_one_reported(self, capsys):
        code, out, err = run_cli(capsys, [
            "verify", "--theorem", "thm2.1", "--trials", "0", "--jobs", "0",
        ])
        assert (code, out) == (1, "")
        assert err == ('{"error": "Usage", '
                       '"message": "--trials must be at least 1"}\n')

    def test_mismatch_lines(self, monkeypatch, capsys):
        # thm2.1's kernel off by one in gamma's first entry: every trial
        # differs from the oracle there and only there, and its line
        # carries the pair that was drawn.
        rule = theorems.RULES["thm2.1"]

        def off_by_one(*inputs):
            gamma, delta, lam, xi = rule.kernel(*inputs)
            n = gamma.rows
            bump = Matrix(n, n, [1] + [0] * (n * n - 1))
            return gamma + bump, delta, lam, xi

        monkeypatch.setitem(theorems.RULES, "thm2.1",
                            dataclasses.replace(rule, kernel=off_by_one))
        code, out, _ = run_cli(capsys, [
            "verify", "--theorem", "thm2.1", "--trials", "3",
            "--max-n", "3", "--seed", "4",
        ])
        assert code == 3
        *lines, summary = map(json.loads, out.strip().splitlines())
        assert (summary["mismatch"], summary["agree_exists"]) == (3, 0)
        for line in lines:
            assert line["verdict"] == "MISMATCH"
            assert line["mismatch_positions"] == [[0, 0]]
            assert "error" not in line
            e, f = gen_pair(GenSpec("thm2.1", line["n"], line["rank_f"],
                                    True, line["seed"]))
            assert (line["E"], line["F"]) == (matrix_to_rows(e),
                                              matrix_to_rows(f))

    def test_refusal_mismatch_lines_carry_the_error(self, monkeypatch,
                                                    capsys):
        # A closed form that refuses where the oracle finds an index <= 1.
        def refusing(theorem, e, f):
            error = NotGroupInvertible("no group inverse: stub")
            error.report = theorems.check_conditions(e, f, theorem)
            raise error

        monkeypatch.setattr(generators, "block_group_inverse", refusing)
        code, out, _ = run_cli(capsys, [
            "verify", "--theorem", "cor2.2", "--trials", "2",
            "--max-n", "3", "--seed", "1",
        ])
        assert code == 3
        *lines, summary = map(json.loads, out.strip().splitlines())
        assert summary["mismatch"] == 2
        for line in lines:
            assert line["verdict"] == "MISMATCH"
            assert line["mismatch_positions"] == []
            assert line["error"] == "no group inverse: stub"
            assert {"E", "F"} <= line.keys()


class TestExitTable:
    # README's exit codes: 1 for bad input or an impossible generation
    # request, 2 for a refusal; the JSON kind is the exception's class.
    @pytest.mark.parametrize("error, kind, code", [
        (InputError("bad file"), "InputError", 1),
        (ShapeMismatch("mul", (1, 2), (3, 4)), "ShapeMismatch", 1),
        (OutputError("too many digits"), "OutputError", 1),
        (GenerationExhausted("no draw"), "GenerationExhausted", 1),
        (NotGroupInvertible("index 2", index=2), "NotGroupInvertible", 2),
        (HypothesisViolated("FEF^pi=0"), "HypothesisViolated", 2),
    ])
    def test_exception_exit_codes(self, error, kind, code, monkeypatch,
                                  capsys):
        def stub(args):
            raise error

        monkeypatch.setattr(cli, "_cmd_example", stub)
        got, out, err = run_cli(capsys, ["example-3.5"])
        assert (got, out) == (code, "")
        assert json.loads(err) == {"error": kind, "message": str(error)}


class TestExampleCommand:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["example-3.5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "PASS"
        payload = json.loads(lines[0])
        assert payload["match"] is True
        assert payload["computed"] == payload["expected"]


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["drazin", "/nonexistent/m.json"])
        assert code == 1
        assert json.loads(err)["error"] == "InputError"

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        code, _, err = run_cli(capsys, ["drazin", str(path)])
        assert code == 1
        assert json.loads(err)["error"] == "InputError"

    def test_missing_rows_key(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": [["1"]]}))
        code, _, err = run_cli(capsys, ["drazin", str(path)])
        assert code == 1
        assert "rows" in json.loads(err)["message"]

    def test_ragged_rows(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", [["1", "2"], ["3"]])
        code, _, err = run_cli(capsys, ["drazin", path])
        assert code == 1
        assert json.loads(err)["error"] == "InputError"

    def test_bad_scalar_reports_position(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", [["1//2"]])
        code, _, err = run_cli(capsys, ["drazin", path])
        assert code == 1
        message = json.loads(err)["message"]
        assert "(0, 0)" in message
        assert "offset 2" in message

    @pytest.mark.parametrize("digit", ["\u0663", "\u00b2"])
    def test_non_ascii_digit_is_input_error(self, digit, tmp_path, capsys):
        e = write_matrix(tmp_path / "E.json", [[digit, "0"], ["0", "1"]])
        f = write_matrix(tmp_path / "F.json", [["1", "0"], ["0", "0"]])
        code, out, err = run_cli(
            capsys, ["block", "--theorem", "thm3.1", "--E", e, "--F", f]
        )
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "InputError"
        assert "offset 0" in payload["message"]

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"rows": [["\xff"]]}')
        code, out, err = run_cli(capsys, ["drazin", str(path)])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "InputError"

    def test_json_integer_past_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"rows": [[%s]]}' % TOO_MANY_DIGITS)
        code, out, err = run_cli(capsys, ["drazin", str(path)])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "InputError"

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        depth = 100000
        path.write_text('{"rows": ' + "[" * depth + "]" * depth + "}")
        code, out, err = run_cli(capsys, ["drazin", str(path)])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "InputError"

    def test_scalar_string_past_the_digit_limit(self, tmp_path, capsys):
        # matrix_from_rows reports a bad entry as an InputError that names
        # the entry and the parser's offset.
        path = write_matrix(tmp_path / "m.json", [["1/" + TOO_MANY_DIGITS]])
        code, out, err = run_cli(capsys, ["drazin", path])
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "InputError"
        assert "too many digits (offset 2)" in payload["message"]

    def test_result_past_the_digit_limit(self, tmp_path, capsys):
        # The input is under the limit, but entries of its inverse are not.
        path = write_matrix(tmp_path / "m.json", [["7" * 2200, "3" * 2199],
                                                  ["3" * 2199, "1"]])
        code, out, err = run_cli(capsys, ["groupinv", path])
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "OutputError"
        assert f"{sys.get_int_max_str_digits()} digits" in payload["message"]

    @pytest.mark.parametrize("command", ["check", "block"])
    def test_lambda_past_the_digit_limit(self, command, tmp_path, capsys):
        # EF = lambda FE with lambda = 10^(2k): every input entry has at
        # most k + 1 digits, under the limit, but lambda has 2k + 1, over it.
        k = sys.get_int_max_str_digits() // 2 + 1
        e = write_matrix(tmp_path / "E.json", [["0", "1"], ["0", "0"]])
        f = write_matrix(tmp_path / "F.json", [["1/1" + "0" * k, "0"],
                                               ["0", "1" + "0" * k]])
        code, out, err = run_cli(capsys, [command, "--theorem", "cor2.5",
                                          "--E", e, "--F", f])
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "OutputError"
        assert f"{sys.get_int_max_str_digits()} digits" in payload["message"]

    @pytest.mark.parametrize("rows, message", [
        ([], '"rows" must be a non-empty list'),
        ([[]], "row 0 must be a non-empty list"),
        ([1], "row 0 must be a non-empty list"),
    ])
    def test_empty_or_non_list_rows(self, rows, message, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", rows)
        code, out, err = run_cli(capsys, ["drazin", path])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "InputError",
                                   "message": f"{path}: {message}"}

    @pytest.mark.parametrize("entry", [1.5, True, None, ["1"]])
    def test_non_scalar_entries_rejected(self, entry, tmp_path, capsys):
        path = write_matrix(tmp_path / "m.json", [[entry]])
        code, _, err = run_cli(capsys, ["drazin", path])
        assert code == 1
        assert json.loads(err)["error"] == "InputError"


class TestMatrixFromRows:
    @settings(max_examples=200)
    @given(_entry_grids())
    def test_matches_parse_scalar_and_is_canonical(self, rows):
        m = matrix_from_rows(rows)
        assert m == mat(rows)  # parse_scalar on strings, as written
        assert m._den > 0
        assert gcd(m._den, *m._re, *m._im) == 1

    @pytest.mark.parametrize("text, offset", REJECTED_SCALARS)
    def test_rejects_with_the_parser_offset(self, text, offset):
        with pytest.raises(InputError) as info:
            matrix_from_rows([["0", text]])
        assert str(info.value).startswith("matrix: entry (0, 1): ")
        assert str(info.value).endswith(f"(offset {offset})")

    @pytest.mark.parametrize("template, offset", DIGIT_LIMIT_TEMPLATES)
    def test_rejects_digit_runs_past_the_int_limit(self, template, offset):
        with pytest.raises(InputError) as info:
            matrix_from_rows([[template.format(TOO_MANY_DIGITS)]])
        assert str(info.value).endswith(f"too many digits (offset {offset})")


class TestBlockOutput:
    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_assembled_and_held_residuals(self, theorem, tmp_path, capsys):
        # block prints assembled from the four blocks' texts, and a zero
        # residual without formatting its entries; both must print as the
        # entry-by-entry formatting of the same matrices.
        for n in (1, 2, 3):
            for seed in (0, 1, 2):
                e, f = gen_pair(GenSpec(theorem, n, seed % (n + 1), True,
                                        seed))
                e_path = write_matrix(tmp_path / "E.json", matrix_to_rows(e))
                f_path = write_matrix(tmp_path / "F.json", matrix_to_rows(f))
                code, out, _ = run_cli(capsys, [
                    "block", "--theorem", theorem, "--E", e_path,
                    "--F", f_path,
                ])
                assert code == 0
                payload = json.loads(out)
                result = block_group_inverse(theorem, e, f)
                assert payload["assembled"] == matrix_to_rows(
                    result.assembled)
                for condition in payload["conditions"]:
                    if condition["holds"]:
                        assert {x for row in condition["residual"]
                                for x in row} == {"0"}


class TestMatrixToRows:
    @given(rect_matrices(), st.lists(scalars(), max_size=3))
    def test_matches_each_entry_str(self, m, factors):
        for c in factors:  # spreads entries over larger shared denominators
            m = c * m + m
        assert matrix_to_rows(m) == [[str(x) for x in row]
                                     for row in rows_of(m)]

    @given(rect_matrices(), st.lists(scalars(), max_size=2),
           st.sampled_from([None, (_HUGE, 1, 0, 1), (0, 1, -_HUGE, 1),
                            (1, _HUGE, 0, 1), (0, 1, 1, _HUGE)]))
    def test_str_joins_the_same_texts(self, m, factors, huge):
        # huge adds an entry part with more digits than Python prints.
        for c in factors:
            m = c * m + m
        if huge:
            m = m + Matrix.from_parts(m.rows, m.cols, [huge] + [(0, 1, 0, 1)]
                                      * (m.rows * m.cols - 1))
        try:
            rows = matrix_to_rows(m)
        except OutputError:
            assert huge
            with pytest.raises(ValueError):
                str(m)
        else:
            assert not huge
            assert str(m) == "[" + "; ".join(", ".join(r) for r in rows) + "]"

    def test_zero_matrices(self):
        for rows in (1, 2, 3):
            for cols in (1, 2, 3):
                assert matrix_to_rows(Matrix.zeros(rows, cols)) == [
                    ["0"] * cols for _ in range(rows)]

    def test_fixed_entries(self):
        rows = [["0", "i", "-i", "1/2i"], ["-2/3+i", "3-i", "-1/6-5/4i", "7"]]
        assert matrix_to_rows(mat(rows)) == rows


class TestUsage:
    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "Usage"

    def test_unknown_theorem(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--theorem", "thm9.9"])
        assert info.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "Usage"

    def test_block_takes_no_layout(self, worked_files, capsys):
        # The rule fixes the layout, so even the rule's own one is refused.
        e, f = worked_files
        with pytest.raises(SystemExit) as info:
            main(["block", "--theorem", "thm3.1", "--E", e, "--F", f,
                  "--shape", "EF_F0"])
        assert info.value.code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "Usage"
