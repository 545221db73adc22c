"""recdet CLI: golden outputs, exit-code contract, bench CSV."""

import inspect
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import recdet
from recdet import cli, errors, hessenberg
from recdet.cli import main
from recdet.ring import COUNTER, parse_value
from recdet.specfiles import spec_path

NATURALS_JSON = (
    '{"size":3,"ring":"rational",'
    '"entries":[["1","1","1"],["-1","1","0"],["0","-1","1"]]}'
)


# the most digits str() writes of an int; 0 (or no limit at all) is none
_INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("RECDET_COLOR", "0")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_fibonacci_file_prints_terms_up_to_13(self, capsys):
        code, out, _ = run(capsys, "eval", str(spec_path("fibonacci-num")), "--n", "7")
        assert code == 0
        assert out.splitlines() == [
            "1: 1", "2: 1", "3: 2", "4: 3", "5: 5", "6: 8", "7: 13",
        ]

    def test_n_equals_one_prints_the_initial_only(self, capsys):
        code, out, _ = run(capsys, "eval", str(spec_path("naturals")), "--n", "1")
        assert code == 0
        assert out == "1: 1\n"

    def test_ode_sixth_term(self, capsys):
        code, out, _ = run(capsys, "eval", str(spec_path("ode-example")), "--n", "6")
        assert code == 0
        assert out.splitlines()[-1] == "6: -1/10"

    def test_family_name_fallback(self, capsys):
        code, out, _ = run(capsys, "eval", "fibonacci-num", "--n", "7")
        assert code == 0
        assert out.splitlines()[-1] == "7: 13"


class TestMatrix:
    def test_naturals_size_three_json_golden(self, capsys):
        code, out, _ = run(capsys, "matrix", "naturals", "--k", "3", "--format", "json")
        assert code == 0
        assert out.strip() == NATURALS_JSON

    def test_size_one_matrix_is_the_initial_coefficient(self, capsys):
        code, out, _ = run(capsys, "matrix", "naturals", "--k", "1")
        assert code == 0
        assert out.strip() == "[ 1 ]"

    def test_fibonacci_latex_band(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "fibonacci-num", "--k", "4", "--format", "latex"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "\\begin{vmatrix}"
        assert lines[1] == "1 & 1 & 0 & 0 \\\\"
        assert lines[2] == "-1 & 1 & 1 & 0 \\\\"
        assert lines[4] == "0 & 0 & -1 & 1 \\\\"

    def test_fixed_order_file_uses_the_banded_embedding(self, capsys):
        code, out, _ = run(
            capsys, "matrix", str(spec_path("naturals")), "--k", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["entries"] == [
            ["1", "2", "0"], ["-1", "0", "-1"], ["0", "-1", "2"],
        ]


class TestVerify:
    def test_hermite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", str(spec_path("hermite")), "--max-n", "10")
        assert code == 0
        assert "result: pass (10 checks)" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", str(spec_path("legendre")), "--max-n", "12",
            "--method", "bareiss", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["checks"]) == 12

    def test_corrupted_entry_exits_three_and_reports_first_failure(self, capsys):
        code, out, _ = run(
            capsys, "verify", "naturals", "--max-n", "8", "--corrupt", "1,2"
        )
        assert code == 3
        assert "FAIL at k = 2" in out

    def test_corrupting_an_entry_above_the_band_is_still_seen(self, capsys):
        # ode-example has order 3, band 2: entry (1, 8) lies above the band
        code, out, _ = run(
            capsys, "verify", str(spec_path("ode-example")),
            "--max-n", "8", "--corrupt", "1,8", "--format", "json",
        )
        assert code == 3
        checks = json.loads(out)["checks"]
        assert [c["k"] for c in checks if not c["ok"]] == [8]

    def test_laplace_is_refused_past_its_size_limit(self, capsys):
        code, _, err = run(
            capsys, "verify", "naturals", "--max-n", "9", "--method", "laplace"
        )
        assert code == 2
        assert "up to 8" in err

    def test_every_shipped_spec_verifies(self, capsys):
        from recdet.specfiles import available

        for name in available():
            code, _, err = run(
                capsys, "verify", str(spec_path(name)), "--max-n", "10"
            )
            assert code == 0, f"{name}: {err}"


class TestFamily:
    def test_chebyshev_t_golden_line(self, capsys):
        code, out, _ = run(capsys, "family", "chebyshev-t", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["1: x", "2: 2*x^2 - 1", "3: 4*x^3 - 3*x"]

    def test_naturals_prints_one_through_five(self, capsys):
        code, out, _ = run(capsys, "family", "naturals", "--n", "5")
        assert code == 0
        assert out.splitlines() == ["1: 1", "2: 2", "3: 3", "4: 4", "5: 5"]

    def test_continuant_with_params(self, capsys):
        code, out, _ = run(
            capsys, "family", "continuant", "--params", "1,2,3", "--n", "3"
        )
        assert code == 0
        assert out.splitlines()[-1] == "3: 10"

    def test_list_names_all_families(self, capsys):
        code, out, _ = run(capsys, "family", "--list")
        assert code == 0
        names = out.split()
        assert len(names) == 13
        assert "laguerre" in names

    def test_unknown_family_exits_one_with_the_valid_names(self, capsys):
        code, _, err = run(capsys, "family", "smith", "--n", "3")
        assert code == 1
        assert "chebyshev-t" in err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "family", "legendre", "--n", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["values"][1] == {"n": 2, "value": "3/2*x^2 - 1/2"}

    @pytest.mark.parametrize("argv", [
        ("legendre", "--n", "1"),
        ("laguerre", "--n", "40"),
        ("fibonacci-num", "--n", "30"),
        ("continuant", "--params", "1,-2,1/3,4", "--n", "4"),
    ])
    def test_json_is_the_compact_dump_of_the_text_values(self, capsys, argv):
        code, text, _ = run(capsys, "family", *argv)
        assert code == 0
        values = [
            {"n": int(k), "value": v}
            for k, v in (line.split(": ", 1) for line in text.splitlines())
        ]
        payload = {"family": argv[0], "values": values}
        want = json.dumps(payload, separators=(",", ":")) + "\n"
        assert run(capsys, "family", *argv, "--format", "json") == (0, want, "")

    @pytest.mark.skipif(not _INT_DIGIT_LIMIT, reason="str() writes ints of any length")
    def test_json_prints_nothing_past_the_int_digit_limit(self, capsys):
        # F(k) has about 0.209k digits: past 640 from k of about 3,070 on
        limit = 640
        sys.set_int_max_str_digits(limit)
        try:
            code, out, err = run(
                capsys, "family", "fibonacci-num", "--n", "3100", "--no-check", "--format", "json"
            )
        finally:
            sys.set_int_max_str_digits(_INT_DIGIT_LIMIT)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: a value has an integer of more than {limit} digits")

    def test_missing_params_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "family", "horner", "--n", "3")
        assert code == 1
        assert "coefficient list" in err

    def test_oracle_mismatch_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "family_oracles", lambda fid, n, params: (0,) * n)
        code, out, err = run(capsys, "family", "naturals", "--n", "3")
        assert code == 3
        assert out == ""
        assert err == "error: family 'naturals': determinant 1 != oracle 0 at n = 1\n"

    def test_params_shorter_than_n_is_an_evaluation_error(self, capsys):
        code, _, err = run(
            capsys, "family", "continuant", "--params", "1,2", "--n", "4"
        )
        assert code == 2


class TestExitCodes:
    def test_bad_syntax_file_exits_one(self, capsys):
        code, _, err = run(
            capsys, "eval", str(spec_path("bad-syntax", negative=True)), "--n", "3"
        )
        assert code == 1
        assert "line 5" in err

    def test_bad_semantic_file_exits_one(self, capsys):
        code, _, err = run(
            capsys, "eval", str(spec_path("bad-semantic", negative=True)), "--n", "3"
        )
        assert code == 1
        assert "full-history" in err

    def test_bad_eval_file_exits_two_past_the_singularity(self, capsys):
        path = str(spec_path("bad-eval", negative=True))
        code, out, _ = run(capsys, "eval", path, "--n", "8")
        assert code == 0
        code, _, err = run(capsys, "eval", path, "--n", "12")
        assert code == 2
        assert "k = 9" in err

    def test_unknown_spec_token_exits_one(self, capsys):
        code, _, err = run(capsys, "eval", "no-such-thing", "--n", "3")
        assert code == 1
        assert "families:" in err

    def test_missing_subcommand_exits_one(self, capsys):
        assert run(capsys)[0] == 1

    def test_nonpositive_n_exits_one(self, capsys):
        assert run(capsys, "eval", "naturals", "--n", "0")[0] == 1

    def test_unknown_flag_exits_one(self, capsys):
        assert run(capsys, "eval", "naturals", "--n", "3", "--frobnicate")[0] == 1

    def test_a_spec_file_that_is_not_utf8_exits_one(self, capsys, tmp_path):
        path = tmp_path / "latin1.rec"
        path.write_bytes("mode = fixed-order\n# caf\u00e9\n".encode("latin-1"))
        for command in (("eval", str(path), "--n", "3"), ("verify", str(path), "--max-n", "3")):
            code, out, err = run(capsys, *command)
            assert (code, out) == (1, "")
            assert err == (
                f"error: {path} is not UTF-8 text (invalid continuation byte at byte 24)\n"
            )

    @pytest.mark.skipif(not _INT_DIGIT_LIMIT, reason="str() writes ints of any length")
    def test_values_past_the_int_digit_limit_exit_two(self, capsys):
        # at the lowest limit Python takes, so that the values are cheap;
        # a(k) = 2^(k - 2) of powers-of-two has more digits than the limit
        # from k = 2 + ceil(limit / log10(2)) on (about 2,128 at 640)
        limit = 640
        past = 2 + math.ceil(limit / math.log10(2))
        error = (
            f"error: a value has an integer of more than {limit} digits, "
            "the most this Python writes out (sys.set_int_max_str_digits)\n"
        )
        path = str(spec_path("powers-of-two"))
        sys.set_int_max_str_digits(limit)
        try:
            for n, fmt in ((past - 1, "text"), (past + 3, "json")):
                assert run(capsys, "verify", path, "--max-n", str(n), "--format", fmt) == (2, "", error)
            assert run(capsys, "verify", path, "--max-n", str(past - 10))[0] == 0
            code, out, err = run(capsys, "eval", path, "--n", str(past + 3))
            assert (code, err) == (2, error)
            # eval prints the terms before the first that is too long
            assert out.splitlines()[-1].startswith(f"{past - 1}: ")
        finally:
            sys.set_int_max_str_digits(_INT_DIGIT_LIMIT)


_FIXED = "mode = fixed-order\n"
_FULL = "mode = full-history\n"

# (document, the error line eval prints for it); every one exits 1
SPEC_REFUSALS = [
    ("mode = banana\n",
     "line 1: mode must be one of fixed-order, full-history, got 'banana'"),
    (_FIXED + "ring = complex\n",
     "line 2: ring must be one of rational, poly, got 'complex'"),
    (_FIXED + "order = 1\ninitial = [1]\ncoeff q(k) = 1\n",
     "line 4: coefficient must be named p (full-history) or p1..pm, got 'q'"),
    (_FIXED + "order = 1\ninitial = [1]\ncoeff p1(n) = 1\n",
     "line 4: coefficient parameters must be k or i, got 'n'"),
    (_FIXED + "initial = [1]\ncoeff p1(k) = 1\n",
     "missing key: order (required in fixed-order mode)"),
    (_FIXED + "order = 0\ninitial = [1]\ncoeff p1(k) = 1\n",
     "line 2: order must be at least 1"),
    (_FIXED + "order = 1\ncoeff p1(k) = 1\n", "missing key: initial"),
    (_FULL + "coeff p(k, i) = 1\n", "missing key: initial"),
    (_FIXED + "order = 1\ninitial = 1\ncoeff p1(k) = 1\n",
     "line 3: fixed-order initial must be a bracketed list [a1, ..., am]"),
    (_FIXED + "order = 1\ninitial = [1]\ncoeff p1(k) = 1\ncoeff p2(k) = 1\n",
     "line 5: unexpected coefficient 'p2' for order 1"),
    (_FIXED + "order = 1\ninitial = [1]\ncoeff p1(k, i) = 1\n",
     "line 4: p1 must take exactly (k)"),
    (_FULL + "order = 1\ninitial = 1\ncoeff p(k, i) = 1\n",
     "line 2: order is not allowed in full-history mode"),
    (_FULL + "first_valid_k = 2\ninitial = 1\ncoeff p(k, i) = 1\n",
     "line 2: first_valid_k is not allowed in full-history mode"),
    (_FULL + "initial = [1]\ncoeff p(k, i) = 1\n",
     "line 2: full-history initial must be a single expression, not a list"),
    (_FULL + "initial = 1\n", "missing coefficient p(k, i)"),
    (_FULL + "initial = 1\ncoeff p(k, i) = 1\ncoeff p1(k) = 1\n",
     "line 4: full-history mode takes a single coefficient p(k, i)"),
    (_FULL + "initial = k\ncoeff p(k, i) = 1\n",
     "line 2: initial values must be constants (no k or i)"),
    (_FULL + "initial = x\ncoeff p(k, i) = 1\n", "line 2: x requires ring = poly"),
    (_FULL + "initial = 1 +\ncoeff p(k, i) = 1\n", "line 2, col 14: expected expression"),
    (_FIXED + "order = x\n", "line 2, col 9: expected an integer, found 'x'"),
]


class TestRefusals:
    """Refusals of outside input that no other test reaches, each with its
    exact error line and exit code."""

    @pytest.mark.parametrize("text, error", SPEC_REFUSALS)
    def test_a_malformed_spec_exits_one_with_its_error_line(self, capsys, tmp_path, text, error):
        path = tmp_path / "spec.rec"
        path.write_text(text, encoding="utf-8")
        assert run(capsys, "eval", str(path), "--n", "3") == (1, "", f"error: {error}\n")

    @pytest.mark.parametrize("sizes", ["0", "-3", "2,0"])
    def test_a_size_below_one_is_a_usage_error(self, capsys, sizes):
        assert run(capsys, "bench", "--sizes", sizes) == (
            1, "", "error: argument --sizes: must be at least 1\n"
        )

    @pytest.mark.parametrize("argv", [
        ("family", "fibonacci-num"),
        ("family", "legendre", "--no-check"),
        ("eval", "naturals"),
        ("eval", str(spec_path("fibonacci-num"))),
    ])
    def test_an_n_past_the_cap_exits_two_before_any_term(self, capsys, monkeypatch, argv):
        def no_terms(*args):
            raise AssertionError("a term was computed")

        for name in ("determinant_terms", "eval_full_history", "eval_fixed_order"):
            monkeypatch.setattr(cli, name, no_terms)
        assert run(capsys, *argv, "--n", str(cli.MAX_TERMS + 1)) == (
            2, "", f"error: n above the limit {cli.MAX_TERMS}, got {cli.MAX_TERMS + 1}\n"
        )

    @pytest.mark.parametrize("extra", [
        (),
        ("--method", "bareiss"),
        ("--method", "laplace", "--format", "json"),
        # the cap comes before a bad --corrupt position
        ("--corrupt", "60000,1"),
    ])
    def test_verify_past_the_cap_exits_two_before_any_term(self, capsys, monkeypatch, extra):
        def no_terms(*args, **kwargs):
            raise AssertionError("a term was computed")

        monkeypatch.setattr(cli, "verify_spec", no_terms)
        n = cli.MAX_TERMS + 1
        for spec in (str(spec_path("fibonacci-num")), "legendre"):
            assert run(capsys, "verify", spec, "--max-n", str(n), *extra) == (
                2, "", f"error: n above the limit {cli.MAX_TERMS}, got {n}\n"
            )

    def test_the_cap_comes_after_the_spec_and_params_errors(self, capsys):
        n = str(cli.MAX_TERMS + 1)
        assert run(capsys, "family", "continuant", "--n", n) == (
            1, "", "error: family 'continuant' needs a coefficient list\n"
        )
        assert run(capsys, "eval", "no-such-thing", "--n", n)[0] == 1
        assert run(capsys, "verify", "no-such-thing", "--max-n", n)[0] == 1

    @pytest.mark.parametrize("sizes", ["", ","])
    def test_sizes_with_no_integer_exit_one(self, capsys, sizes):
        assert run(capsys, "bench", "--sizes", sizes) == (
            1, "", "error: argument --sizes: expected a comma-separated integer list\n"
        )

    @pytest.mark.parametrize("call, error", [
        (lambda: hessenberg.matrix_from_json("{"),
         "invalid matrix JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        (lambda: hessenberg.matrix_from_json(
            '{"size":2,"ring":"rational","entries":[["1","2"],["3"]]}'),
         "matrix JSON entries do not form a square array"),
        (lambda: parse_value("1", "bogus"), "unknown ring 'bogus'"),
        (lambda: spec_path("no-such-spec"), "no shipped spec named 'no-such-spec'"),
    ])
    def test_library_refusals_exit_two(self, call, error):
        with pytest.raises(errors.RecdetError) as info:
            call()
        assert (str(info.value), info.value.exit_code) == (error, 2)


USAGE_ERRORS = [
    (),
    ("--frobnicate",),
    ("frobnicate",),
    ("eval", "naturals"),
    ("eval", "naturals", "--n", "0"),
    ("eval", "naturals", "--n", "three"),
    ("eval", "no-such-thing", "--n", "3"),
    ("verify", "naturals", "--max-n", "5", "--corrupt", "1"),
    ("verify", "naturals", "--max-n", "5", "--corrupt", "a,b"),
    ("verify", "naturals", "--max-n", "5", "--method", "cramer"),
    ("verify", "naturals", "--max-n", "5", "--format", "latex"),
    ("family",),
    ("family", "no-such-family"),
    ("family", "continuant", "--params", "1,x"),
    ("bench", "--sizes", "4", "--methods", "cramer"),
    ("bench", "--sizes", ""),
]


def _help(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


class TestParserBuiltOnce:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv", [("--help",), ("verify", "--help"), ("bench", "--help")])
    def test_help_is_byte_identical_on_every_call(self, argv, capsys):
        first = _help(capsys, *argv)
        assert first[0] == 0 and first[1].startswith("usage: recdet")
        assert _help(capsys, *argv) == first
        # and the same as from a parser built afresh
        cli.build_parser.cache_clear()
        assert _help(capsys, *argv) == first

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
    def test_usage_errors_are_byte_identical_on_every_call(self, argv, capsys):
        first = run(capsys, *argv)
        assert first[0] == 1 and first[1] == "" and first[2].startswith("error: ")
        assert run(capsys, *argv) == first
        cli.build_parser.cache_clear()
        assert run(capsys, *argv) == first

    def test_options_fall_back_to_their_defaults(self, capsys):
        parse = cli.build_parser().parse_args
        verify = ["verify", "naturals", "--max-n", "5"]
        assert parse(verify + ["--corrupt", "1,1"]).corrupt == (1, 1)
        assert parse(verify).corrupt is None
        family = ["family", "continuant", "--n", "3"]
        assert parse(family + ["--params", "1,2,3"]).params == (1, 2, 3)
        assert parse(family).params is None
        # and through main: a corrupted run, then a clean one
        assert run(capsys, *verify, "--corrupt", "1,1")[0] == 3
        assert run(capsys, *verify)[0] == 0
        assert run(capsys, *family, "--params", "1,2,3")[0] == 0
        code, _, err = run(capsys, *family)
        assert (code, err) == (1, "error: family 'continuant' needs a coefficient list\n")


def readme_exit_codes() -> dict[int, str]:
    """Each code of the README's exit-code table with its "raised by" cell."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| code | meaning | raised by |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        code, _meaning, raised_by = (cell.strip() for cell in line.strip("|").split("|"))
        rows[int(code)] = raised_by
    return rows


ERROR_CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.RecdetError)
] + [cli._UsageError, cli._FamilyMismatch, OSError]

# how the README names the errors private to the CLI
README_PHRASES = {cli._UsageError: "usage errors", cli._FamilyMismatch: "oracle mismatch"}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_map_matches_the_readme(cls, capsys, monkeypatch):
    rows = readme_exit_codes()
    phrase = README_PHRASES.get(cls, f"`{cls.__name__}`")
    named = [code for code, cell in rows.items() if phrase in cell]
    # a RecdetError subclass the table does not name falls under the base class
    expected = named or [code for code, cell in rows.items() if "`RecdetError`" in cell]
    assert len(expected) == 1, f"{cls.__name__} in README rows {expected}"
    if issubclass(cls, errors.RecdetError):
        assert cls.exit_code == expected[0]
    exc = cls.__new__(cls, "boom")  # skips the subclasses' own __init__

    def raise_it(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_eval", raise_it)
    assert main(["eval", "naturals", "--n", "1"]) == expected[0]
    assert capsys.readouterr().err == "error: boom\n"


class TestBench:
    def test_csv_header_records_and_crlf(self, capsys):
        code, out, err = run(
            capsys, "bench", "--sizes", "4", "--methods", "fast,bareiss,laplace",
            "--seed", "5",
        )
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "method,size,ring_ops,ms,max_bits"
        assert len(lines) == 5  # header + 3 records + trailing empty
        assert lines[1].startswith("fast,4,")
        assert "agree" in err

    def test_identical_seeds_give_identical_counts(self, capsys):
        def counts():
            _, out, _ = run(
                capsys, "bench", "--sizes", "5,9", "--methods", "fast,bareiss",
                "--seed", "123",
            )
            return [
                (r.split(",")[0], r.split(",")[1], r.split(",")[2], r.split(",")[4])
                for r in out.split("\r\n")[1:] if r
            ]

        assert counts() == counts()

    def test_poly_op_counts_and_max_bits_are_pinned(self, capsys):
        # recorded with Polynomial coefficients stored as Fractions; the
        # ms column is dropped, ring_ops and max_bits must not move
        code, out, _ = run(
            capsys, "bench", "--ring", "poly", "--sizes", "8,16",
            "--methods", "fast,bareiss,laplace", "--seed", "42",
        )
        assert code == 0
        rows = [r.split(",") for r in out.split("\r\n")[1:] if r]
        assert [(m, size, ops, bits) for m, size, ops, _, bits in rows] == [
            ("fast", "8", "120", "22"),
            ("bareiss", "8", "264", "38"),
            ("laplace", "8", "10647", "22"),
            ("fast", "16", "496", "41"),
            ("bareiss", "16", "1810", "76"),
        ]

    def test_each_method_is_timed_untracked_and_tracked_at_the_same_ring_ops(
        self, capsys, monkeypatch
    ):
        # every record comes from a timed pass with bits off, then a
        # tracked pass for max_bits; both make the record's ring_ops
        passes = []
        for name, det in list(hessenberg.DET_FUNCTIONS.items()):
            def spy(m, det=det, name=name):
                value = det(m)
                passes.append((name, m.size, COUNTER.track_bits, COUNTER.ring_ops))
                return value

            monkeypatch.setitem(hessenberg.DET_FUNCTIONS, name, spy)
        for ring_name in ("rational", "poly"):
            passes.clear()
            code, out, _ = run(
                capsys, "bench", "--ring", ring_name, "--sizes", "5,8,20",
                "--methods", "fast,bareiss,laplace", "--seed", "7",
            )
            assert code == 0
            rows = [r.split(",") for r in out.split("\r\n")[1:] if r]
            assert len(rows) == 8
            assert [tracked for _, _, tracked, _ in passes] == [False, True] * len(rows)
            for (method, size, ops, _, _), timed, tracked in zip(
                rows, passes[::2], passes[1::2]
            ):
                assert timed[:2] == tracked[:2] == (method, int(size))
                assert timed[3] == tracked[3] == int(ops) > 0

    def test_laplace_refusal_leaves_other_pairs_running(self, capsys):
        code, out, err = run(
            capsys, "bench", "--sizes", "4,10", "--methods", "laplace"
        )
        assert code == 0
        assert "refused for size 10" in err
        assert sum(1 for r in out.split("\r\n")[1:] if r) == 1

    def test_all_pairs_refused_exits_one(self, capsys):
        code, _, err = run(capsys, "bench", "--sizes", "10", "--methods", "laplace")
        assert code == 1
        assert "refused" in err

    def test_unknown_method_exits_one(self, capsys):
        assert run(capsys, "bench", "--sizes", "4", "--methods", "gauss")[0] == 1

    def test_a_disagreement_switches_bit_tracking_off(self, capsys, monkeypatch):
        monkeypatch.setitem(
            hessenberg.DET_FUNCTIONS, "bareiss", lambda m: Fraction(10**9)
        )
        code, _, err = run(capsys, "bench", "--sizes", "4", "--methods", "fast,bareiss")
        assert code == 3
        assert "disagreement" in err
        assert COUNTER.track_bits is False

    def test_a_raising_method_switches_bit_tracking_off(self, capsys, monkeypatch):
        def refuse(m):
            raise errors.SizeTooLarge("refused")

        monkeypatch.setitem(hessenberg.DET_FUNCTIONS, "bareiss", refuse)
        code, _, err = run(capsys, "bench", "--sizes", "4", "--methods", "fast,bareiss")
        assert code == 2
        assert "refused" in err
        assert COUNTER.track_bits is False

    def test_poly_ring_runs(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--sizes", "5", "--methods", "fast", "--ring", "poly"
        )
        assert code == 0
        assert out.split("\r\n")[1].startswith("fast,5,")


class TestColor:
    def test_color_env_zero_strips_ansi(self, capsys):
        _, out, _ = run(capsys, "verify", "naturals", "--max-n", "3")
        assert "\x1b[" not in out

    def test_color_env_one_forces_ansi(self, capsys, monkeypatch):
        monkeypatch.setenv("RECDET_COLOR", "1")
        _, out, _ = run(capsys, "verify", "naturals", "--max-n", "3")
        assert "\x1b[32m" in out


def test_console_script_end_to_end():
    # Bare env on purpose; pass recdet's import root, as it may run from src/,
    # and the parent's PYTHONDONTWRITEBYTECODE, so that the child writes no
    # __pycache__ into a checkout the parent keeps free of one.
    env = {"PATH": "", "RECDET_COLOR": "0",
           "PYTHONPATH": str(Path(recdet.__file__).resolve().parents[1])}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    proc = subprocess.run(
        [sys.executable, "-m", "recdet.cli", "matrix", "naturals", "--k", "3",
         "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == NATURALS_JSON


# --- start-up: a command imports only the modules it runs -----------------

# run in the child: import the module named first, run its main on the
# argv given as JSON (none: only the import), then print the exit code
# and which of the watched modules are loaded, as the last line
_IMPORTS_CHILD = """\
import importlib, json, sys
module = importlib.import_module(sys.argv[1])
argv = json.loads(sys.argv[2])
code = module.main(argv) if argv else None
print(json.dumps([code, [m for m in sys.argv[3:] if m in sys.modules]]))
"""
_WATCHED = ("recdet.cli", "recdet.dsl", "csv", "random")


def _loaded_after(*argv, module="recdet.cli", flags=()):
    """(exit code, the watched modules loaded) in a fresh interpreter that
    writes no bytecode, with recdet's import root as its PYTHONPATH."""
    env = {"PATH": "", "RECDET_COLOR": "0", "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(recdet.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _IMPORTS_CHILD, module, json.dumps(argv), *_WATCHED],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    rc, loaded = json.loads(proc.stdout.splitlines()[-1])
    return rc, set(loaded)


class TestStartUp:
    def test_import_cli_loads_neither_the_dsl_nor_csv(self):
        _, loaded = _loaded_after()
        assert "recdet.cli" in loaded
        assert not loaded & {"recdet.dsl", "csv"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("family", "legendre", "--n", "3"),
            ("verify", "legendre", "--max-n", "3"),
            ("eval", "chebyshev-t", "--n", "3"),
            ("matrix", "hermite", "--k", "3", "--format", "json"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_catalog_command_never_imports_the_dsl(self, argv):
        rc, loaded = _loaded_after(*argv)
        assert rc == 0
        assert "recdet.dsl" not in loaded

    def test_bench_imports_csv_and_not_the_dsl(self):
        rc, loaded = _loaded_after("bench", "--sizes", "3")
        assert rc == 0
        assert "csv" in loaded
        assert "recdet.dsl" not in loaded

    def test_a_spec_file_imports_the_dsl(self):
        rc, loaded = _loaded_after("verify", str(spec_path("naturals")), "--max-n", "3")
        assert rc == 0
        assert "recdet.dsl" in loaded

    def test_import_recdet_loads_no_cli_dsl_or_random(self):
        # -S: no site, whose .pth files may import random themselves
        _, loaded = _loaded_after(module="recdet", flags=("-S",))
        assert not loaded & {"recdet.cli", "recdet.dsl", "random"}
