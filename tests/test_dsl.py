"""Spec DSL: lexer, parser, validation, rendering, evaluation."""

import dataclasses
import random
import string
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from recdet import cli, dsl
from recdet.dsl import (
    BinOp,
    IntLit,
    Neg,
    Var,
    _facts,
    eval_expr,
    parse,
    render,
    render_expr,
    to_spec,
)
from recdet.errors import (
    DivisionByZero,
    RecdetError,
    SpecSemanticError,
    SpecSyntaxError,
)
from recdet.recurrence import eval_fixed_order, eval_full_history
from recdet.ring import COUNTER, Polynomial
from recdet.specfiles import available, spec_text
from tests.conftest import random_document, random_expr

# int()'s cap on the digits of a literal; 0 (or no cap at all) is no limit
_INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

FIB = """\
mode = fixed-order
ring = rational
order = 2
initial = [1, 1]
coeff p1(k) = 1
coeff p2(k) = 1
"""


class TestParsing:
    def test_fibonacci_document(self):
        doc = parse(FIB)
        assert doc.mode == "fixed-order"
        assert doc.ring == "rational"
        assert doc.order == 2
        assert doc.initials == (IntLit(1), IntLit(1))
        assert [c.name for c in doc.coeffs] == ["p1", "p2"]
        assert doc.coeffs[0].args == ("k",)
        assert doc.first_valid_k is None

    def test_blank_lines_and_comments_are_skipped(self):
        doc = parse("# header\n\n" + FIB + "\n# trailing\n")
        assert doc.order == 2

    def test_ring_defaults_to_rational(self):
        assert parse(FIB.replace("ring = rational\n", "")).ring == "rational"

    def test_subtraction_is_left_associative(self):
        doc = parse(FIB.replace("coeff p1(k) = 1", "coeff p1(k) = 1 - 2 - 3"))
        assert doc.coeffs[0].expr == BinOp("-", BinOp("-", IntLit(1), IntLit(2)), IntLit(3))

    def test_multiplication_binds_tighter_than_addition(self):
        doc = parse(FIB.replace("coeff p1(k) = 1", "coeff p1(k) = 2*k + 1/k"))
        assert doc.coeffs[0].expr == BinOp(
            "+", BinOp("*", IntLit(2), Var("k")), BinOp("/", IntLit(1), Var("k"))
        )

    def test_unary_minus_binds_tighter_than_multiplication(self):
        doc = parse(FIB.replace("coeff p1(k) = 1", "coeff p1(k) = -k*2"))
        assert doc.coeffs[0].expr == BinOp("*", Neg(Var("k")), IntLit(2))

    def test_parentheses_override_precedence(self):
        doc = parse(FIB.replace("coeff p1(k) = 1", "coeff p1(k) = (1 + k)*2"))
        assert doc.coeffs[0].expr == BinOp("*", BinOp("+", IntLit(1), Var("k")), IntLit(2))

    def test_full_history_document(self):
        doc = parse(
            "mode = full-history\ninitial = 2\ncoeff p(k, i) = k - i + 1\n"
        )
        assert doc.order is None
        assert doc.coeffs[0].args == ("k", "i")


class TestSyntaxErrors:
    def test_unclosed_parenthesis_reports_line_and_column(self):
        bad = FIB.replace("coeff p1(k) = 1", "coeff p1(k) = (k + 1")
        with pytest.raises(SpecSyntaxError) as exc:
            parse(bad)
        assert exc.value.line == 5
        assert exc.value.col == 21
        assert "expected ')'" in str(exc.value)

    def test_unexpected_character_position(self):
        with pytest.raises(SpecSyntaxError) as exc:
            parse("mode = fixed-order\norder = 2$\n")
        assert (exc.value.line, exc.value.col) == (2, 10)

    def test_unknown_key_is_a_syntax_error(self):
        with pytest.raises(SpecSyntaxError):
            parse("modus = fixed-order\n")

    def test_trailing_tokens_are_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse(FIB.replace("order = 2", "order = 2 3"))

    def test_digits_other_than_ascii_are_unexpected_characters(self):
        for old_text, new_text, col in (
            ("coeff p1(k) = 1", "coeff p1(k) = \u00b2", 15),
            ("initial = [1, 1]", "initial = [\u0663, 1]", 12),
            ("order = 2", "order = \uff12", 9),
            ("order = 2", "order = 2\u00b2", 10),
        ):
            with pytest.raises(SpecSyntaxError) as exc:
                parse(FIB.replace(old_text, new_text))
            assert exc.value.col == col
            assert f"unexpected character {new_text[col - 1]!r}" in str(exc.value)

    def test_lines_of_other_spaces_are_not_blank(self):
        # blank and comment lines are decided with the lexer's blanks
        # (space, tab, CR), so a line of other spaces fails where
        # 'order\xa0= 1' does: at its first such character
        for line, col in (("\xa0\xa0", 1), ("\u2003", 1), ("\xa0# note", 1), ("order\xa0= 1", 6)):
            with pytest.raises(SpecSyntaxError) as exc:
                parse(FIB.replace("order = 2", f"order = 2\n{line}"))
            assert (exc.value.line, exc.value.col) == (4, col)
            assert f"unexpected character {line[col - 1]!r}" in str(exc.value)

    def test_lines_of_blanks_and_comments_after_blanks_are_skipped(self):
        for line in ("\t# note", "  \r", " \t"):
            assert parse(FIB.replace("order = 2", f"order = 2\n{line}")) == parse(FIB)

    @pytest.mark.skipif(not _INT_DIGIT_LIMIT, reason="int() takes any number of digits")
    def test_literals_past_the_int_digit_limit_are_syntax_errors(self):
        digits = "9" * (_INT_DIGIT_LIMIT + 1)
        for old_text, new_text, line, col in (
            ("coeff p1(k) = 1", f"coeff p1(k) = k + {digits}", 5, 19),
            ("order = 2", f"order = {digits}", 3, 9),
            ("ring = rational", f"ring = rational\nfirst_valid_k = {digits}", 3, 17),
        ):
            with pytest.raises(SpecSyntaxError) as exc:
                parse(FIB.replace(old_text, new_text))
            assert (exc.value.line, exc.value.col) == (line, col)
            assert f"literal of {len(digits)} digits is too long" in str(exc.value)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit to lift"
    )
    def test_the_dsl_keeps_its_own_digit_limit_with_the_ints_lifted(self):
        # as on a Python with no int digit limit: 4,300 digits read, and
        # 4,301 are refused by the DSL, not by int()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            doc = parse(FIB.replace("order = 2", "order = 2\nfirst_valid_k = " + "0" * 4299 + "3"))
            assert doc.first_valid_k == 3
            with pytest.raises(SpecSyntaxError) as exc:
                parse(FIB.replace("coeff p1(k) = 1", "coeff p1(k) = k + " + "9" * 4301))
        finally:
            sys.set_int_max_str_digits(limit)
        assert dsl.MAX_LITERAL_DIGITS == 4300
        assert (exc.value.line, exc.value.col) == (5, 19)
        assert "integer literal of 4301 digits is too long" in str(exc.value)



# expressions of exactly dsl.MAX_EXPR_TOKENS = 400 tokens: a sum, nested
# parentheses and a chain of unary minuses, each worth -k
_AT_LIMIT = {
    "sum": "-k" + " + k - k" * 99 + " + 0",
    "parentheses": "(" * 199 + "-k" + ")" * 199,
    "negations": "-" * 399 + "k",
}
# one token more: the 401st is each expression's last
_PAST_LIMIT = {
    "sum": "k" + " + k" * 200,
    "parentheses": "(" * 200 + "k" + ")" * 200,
    "negations": "-" * 400 + "k",
}


def _order_one(p1, initial="1"):
    return f"mode = fixed-order\nring = rational\norder = 1\ninitial = [{initial}]\ncoeff p1(k) = {p1}\n"


class TestExpressionTokenLimit:
    def test_the_limit_is_400_tokens(self):
        assert dsl.MAX_EXPR_TOKENS == 400
        for name, expr in {**_AT_LIMIT, **_PAST_LIMIT}.items():
            want = 400 if expr in _AT_LIMIT.values() else 401
            assert len(dsl._lex_line(expr, 1)) == want, name

    @pytest.mark.parametrize("name", sorted(_AT_LIMIT))
    def test_an_expression_of_400_tokens_runs_everywhere(self, name, tmp_path, capsys):
        text = _order_one(_AT_LIMIT[name])
        doc = parse(text)
        assert parse(render(doc)) == doc
        spec = to_spec(doc)
        assert [spec.coeffs[0](k) for k in (2, 3)] == [-2, -3]
        path = tmp_path / f"{name}.rec"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["eval", str(path), "--n", "4"]) == 0
        assert capsys.readouterr().out == "1: 1\n2: -2\n3: 6\n4: -24\n"
        for method in ("fast", "bareiss"):
            assert cli.main(["verify", str(path), "--max-n", "12", "--method", method]) == 0
        capsys.readouterr()

    def test_the_limit_holds_for_each_expression_alone(self):
        # four expressions of 400 tokens, two of them on one line
        one = "(" * 199 + "-1" + ")" * 199
        doc = parse(
            f"mode = fixed-order\norder = 2\ninitial = [{one}, {one}]\n"
            f"coeff p1(k) = {_AT_LIMIT['sum']}\ncoeff p2(k) = {_AT_LIMIT['negations']}\n"
        )
        assert doc.initials == (Neg(IntLit(1)), Neg(IntLit(1)))
        assert parse(render(doc)) == doc

    @pytest.mark.parametrize("name", sorted(_PAST_LIMIT))
    def test_the_401st_token_is_refused_where_it_stands(self, name, tmp_path, capsys):
        text = _order_one(_PAST_LIMIT[name])
        line = text.splitlines()[4]
        with pytest.raises(SpecSyntaxError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.col) == (5, len(line))
        assert "expression is longer than 400 tokens" in str(exc.value)
        # and in an initial value, where the list's ']' follows
        with pytest.raises(SpecSyntaxError) as exc:
            parse(_order_one("k", initial=_PAST_LIMIT[name].replace("k", "1")))
        assert (exc.value.line, exc.value.col) == (4, len("initial = [") + len(_PAST_LIMIT[name]))
        path = tmp_path / f"{name}.rec"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["eval", str(path), "--n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 5, col {len(line)}: expression is longer than 400 tokens\n"

    def test_a_tree_built_past_the_limit_is_refused_by_its_nodes(self):
        # parse never makes such a tree, but a document built in code may
        # hold one: to_spec and render count its nodes before any walk
        # that recurses, which a chain of 1,000 ks once took past
        # Python's recursion limit
        def chain(leaves):
            e = Var("k")
            for _ in range(leaves - 1):
                e = BinOp("+", e, Var("k"))
            return e

        doc = parse(FIB)

        def with_p1(e):
            return doc._replace(coeffs=(doc.coeffs[0]._replace(expr=e), doc.coeffs[1]))

        # 1,000 and 401 nodes, in a coefficient and in an initial value
        for e in (chain(1000), Neg(Neg(chain(200)))):
            for bad in (with_p1(e), doc._replace(initials=(e, IntLit(1)))):
                for walk in (to_spec, render):
                    with pytest.raises(SpecSemanticError, match="expression has more than 400 nodes"):
                        walk(bad)
        # 400 nodes pass: k + ... + k + -k, 200 terms
        ok = with_p1(BinOp("+", chain(199), Neg(Var("k"))))
        assert to_spec(ok).coeffs[0](3) == 594
        assert parse(render(ok)) == ok


class TestNodes:
    def test_dsl_defines_no_dataclass(self):
        # a dataclass costs most of the module's import time
        own = [v for v in vars(dsl).values() if isinstance(v, type) and v.__module__ == dsl.__name__]
        assert {"IntLit", "Var", "Neg", "BinOp", "CoeffDef", "SpecDocument"} <= {c.__name__ for c in own}
        assert not [c for c in own if dataclasses.is_dataclass(c)]

    def test_nodes_compare_by_operator_and_operands(self):
        a, b = Var("k"), IntLit(2)
        assert BinOp("+", a, b) == BinOp("+", Var("k"), IntLit(2))
        assert BinOp("+", a, b) != BinOp("-", a, b)
        assert BinOp("+", a, b) != BinOp("+", b, a)
        assert Neg(a) != a
        assert parse(FIB) == parse(FIB)
        assert parse(FIB) != parse(FIB.replace("coeff p1(k) = 1", "coeff p1(k) = -1"))


def _reference_lex_line(text, line_no):
    """The lexer the regex scan replaced, a character at a time: the
    reference for dsl._lex_line's tokens and for its error's text, line
    and column."""
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            continue
        col = i + 1
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(dsl._Token("INT", text[i:j], line_no, col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(dsl._Token("IDENT", text[i:j], line_no, col))
            i = j
        elif ch in "+-*/()[],=":
            toks.append(dsl._Token(ch, ch, line_no, col))
            i += 1
        else:
            raise SpecSyntaxError(line_no, col, f"unexpected character {ch!r}")
    return toks


def _lexed(lex, text):
    try:
        return lex(text, 7)
    except SpecSyntaxError as exc:
        return str(exc), exc.line, exc.col


# printable ASCII, the blanks str.strip and str.isspace know of, NUL, and
# letters, digits and numbers outside ASCII: superscript two and Arabic-Indic
# three (isdigit), a half and Roman twelve (isnumeric), e acute and a
# titlecase digraph (isalpha), a double-struck zero (isdecimal, astral) and
# Deseret long I (isalpha, astral)
_LEX_ALPHABET = sorted(
    set(string.printable) - {"\n"} | set("\x00\xa0\u00b2\u0663\u00bd\u216b\u00e9\u01c5")
    | {"\U0001d7d8", "\U00010400"}
)


@settings(max_examples=1000, deadline=None)
@example("coeff p1(k) = k\u00b2 + 2\u00b2")
@example("\U00010400\u0663_ = \u216b")
@example("order = 2 \t\r")
@example("initial = [1,\xa01]")
@example("_\U0001d7d8 \x0b")
@given(st.text(alphabet=st.sampled_from(_LEX_ALPHABET), max_size=40))
def test_lexer_matches_the_character_scan(text):
    assert _lexed(dsl._lex_line, text) == _lexed(_reference_lex_line, text)


class TestSemanticErrors:
    def assert_semantic(self, text, fragment):
        with pytest.raises(SpecSemanticError) as exc:
            parse(text)
        assert fragment in str(exc.value)

    def test_mode_is_required(self):
        self.assert_semantic("order = 1\ninitial = [1]\ncoeff p1(k) = 1\n", "mode")

    def test_duplicate_keys(self):
        self.assert_semantic(FIB + "order = 2\n", "duplicate key")

    def test_duplicate_coefficients(self):
        self.assert_semantic(FIB + "coeff p2(k) = 5\n", "duplicate coefficient")

    def test_initial_length_must_match_order(self):
        self.assert_semantic(FIB.replace("[1, 1]", "[1, 1, 1]"), "order = 2")

    def test_missing_coefficient(self):
        self.assert_semantic(FIB.replace("coeff p2(k) = 1\n", ""), "missing coefficient p2")

    def test_i_is_rejected_in_fixed_order_mode(self):
        self.assert_semantic(
            FIB.replace("coeff p1(k) = 1", "coeff p1(k) = i"), "full-history"
        )

    def test_x_requires_the_poly_ring(self):
        self.assert_semantic(
            FIB.replace("coeff p1(k) = 1", "coeff p1(k) = x"), "ring = poly"
        )

    def test_x_in_a_denominator_is_rejected_even_over_poly(self):
        poly = FIB.replace("ring = rational", "ring = poly")
        # however deep below the right side of a / x sits
        for p1 in ("1/(x + 1)", "1/(k*(x + 1))", "k/(2 + (1/x))", "k - 2/(k*x)"):
            self.assert_semantic(
                poly.replace("coeff p1(k) = 1", f"coeff p1(k) = {p1}"), "x-free"
            )
        self.assert_semantic(poly.replace("[1, 1]", "[1, 1/(2*x)]"), "x-free")
        # x in a numerator under a / is no denominator
        doc = parse(poly.replace("coeff p1(k) = 1", "coeff p1(k) = (x + 1)/k"))
        assert doc.coeffs[0].expr == BinOp("/", BinOp("+", Var("x"), IntLit(1)), Var("k"))

    def test_first_valid_k_must_clear_the_initials(self):
        self.assert_semantic(FIB + "first_valid_k = 2\n", "at least order + 1")

    def test_full_history_takes_a_single_p_of_k_i(self):
        self.assert_semantic(
            "mode = full-history\ninitial = 1\ncoeff p(k) = 1\n", "(k, i)"
        )
        self.assert_semantic(
            "mode = full-history\ninitial = 1\ncoeff p1(k) = 1\n", "named p"
        )

    def test_probe_catches_vanishing_denominators(self):
        self.assert_semantic(
            FIB.replace("coeff p1(k) = 1", "coeff p1(k) = 1/(k - 3)"),
            "divides by zero",
        )

    def test_probe_covers_the_full_history_triangle(self):
        self.assert_semantic(
            "mode = full-history\ninitial = 1\ncoeff p(k, i) = 1/(i - 2)\n",
            "divides by zero",
        )


class TestEvaluation:
    def test_arithmetic_with_bound_variables(self):
        doc = parse(FIB.replace("coeff p1(k) = 1", "coeff p1(k) = (k + 1)/(k - 2)"))
        assert eval_expr(doc.coeffs[0].expr, k=4) == Fraction(5, 2)

    def test_x_evaluates_to_the_indeterminate(self):
        assert eval_expr(Var("x")) == Polynomial.x()
        assert eval_expr(BinOp("*", IntLit(2), Var("x"))) == Polynomial((0, 2))

    def test_unbound_variable_raises(self):
        with pytest.raises(RecdetError):
            eval_expr(Var("i"), k=3)

    def test_division_by_zero_carries_k(self):
        with pytest.raises(DivisionByZero) as exc:
            eval_expr(BinOp("/", IntLit(1), BinOp("-", Var("k"), IntLit(5))), k=5)
        assert exc.value.k == 5

    def test_a_compiled_value_that_raises_counts_nothing(self):
        # eval_expr, which raises the error, has counted the
        # denominator's ops by then
        spec = to_spec(parse(
            "mode = full-history\nring = rational\ninitial = 1\n"
            "coeff p(k, i) = 1/(k + 3*i - 22)\n"
        ))
        COUNTER.reset()
        with pytest.raises(DivisionByZero) as exc:
            spec.coeff(7, 5)
        assert exc.value.k == 7
        assert COUNTER.ring_ops == 0

    def test_a_full_history_coefficient_read_without_i_names_i(self):
        spec = to_spec(parse("mode = full-history\ninitial = 1\ncoeff p(k, i) = i/(k + 1)\n"))
        with pytest.raises(RecdetError, match="^variable 'i' is not bound$"):
            spec.coeff(3)

    @pytest.mark.parametrize(
        "ring, p1", (("rational", "(k + 1)/(k - 9)"), ("poly", "(k*x + 1)/(k - 9)"))
    )
    def test_every_coefficient_keeps_one_failure_rule(self, ring, p1):
        # a read that raises adds nothing to COUNTER while bits are not
        # tracked; tracked, it keeps what eval_expr counted before it
        # raised, with x or without
        doc = parse(
            f"mode = fixed-order\nring = {ring}\norder = 1\ninitial = [1]\n"
            f"coeff p1(k) = {p1}\n"
        )
        coeff = to_spec(doc).coeffs[0]
        try:
            for track_bits in (False, True):
                COUNTER.reset(track_bits=True)
                with pytest.raises(DivisionByZero):
                    eval_expr(doc.coeffs[0].expr, k=9)
                counted = COUNTER.adds, COUNTER.muls, COUNTER.divs
                assert counted == ((2, 0, 0) if ring == "rational" else (2, 1, 0))
                COUNTER.reset(track_bits=track_bits)
                COUNTER.adds, COUNTER.muls, COUNTER.divs = 5, 6, 7
                with pytest.raises(DivisionByZero) as exc:
                    coeff(9)
                assert exc.value.k == 9
                got = COUNTER.adds - 5, COUNTER.muls - 6, COUNTER.divs - 7
                assert got == (counted if track_bits else (0, 0, 0))
        finally:
            COUNTER.reset()

    def test_to_spec_fixed_order_evaluates(self):
        spec = to_spec(parse(FIB), name="fib")
        assert eval_fixed_order(spec, 7).terms == (1, 1, 2, 3, 5, 8, 13)

    def test_to_spec_full_history_evaluates(self):
        spec = to_spec(parse("mode = full-history\ninitial = 1\ncoeff p(k, i) = 1\n"))
        assert eval_full_history(spec, 6).terms == (1, 1, 2, 4, 8, 16)

    def test_coefficient_closures_do_not_leak_between_slots(self):
        text = FIB.replace("coeff p1(k) = 1", "coeff p1(k) = 10").replace(
            "coeff p2(k) = 1", "coeff p2(k) = k"
        )
        spec = to_spec(parse(text))
        assert spec.coeffs[0](9) == 10
        assert spec.coeffs[1](9) == 9


class TestRendering:
    def test_minimal_parentheses(self):
        assert render_expr(BinOp("-", IntLit(1), BinOp("-", IntLit(2), IntLit(3)))) == "1 - (2 - 3)"
        assert render_expr(BinOp("-", BinOp("-", IntLit(1), IntLit(2)), IntLit(3))) == "1 - 2 - 3"
        assert render_expr(BinOp("*", BinOp("+", IntLit(1), Var("k")), IntLit(2))) == "(1 + k)*2"
        assert render_expr(Neg(BinOp("+", Var("k"), IntLit(1)))) == "-(k + 1)"
        assert render_expr(BinOp("/", IntLit(1), BinOp("*", IntLit(2), IntLit(3)))) == "1/(2*3)"
        assert render_expr(BinOp("+", BinOp("*", IntLit(2), Var("x")), IntLit(1))) == "2*x + 1"

    def test_render_parse_round_trip_on_shipped_files(self):
        for name in available():
            doc = parse(spec_text(name))
            assert parse(render(doc)) == doc

    def test_render_parse_round_trip_on_random_documents(self):
        rng = random.Random(20240817)
        for _ in range(150):
            doc = random_document(rng)
            assert parse(render(doc)) == doc

    def test_negative_corpus_is_shipped(self):
        assert set(available(negative=True)) == {
            "bad-eval",
            "bad-semantic",
            "bad-syntax",
        }
        with pytest.raises(SpecSyntaxError):
            parse(spec_text("bad-syntax", negative=True))
        with pytest.raises(SpecSemanticError):
            parse(spec_text("bad-semantic", negative=True))
        # bad-eval parses; it only fails past k = 8
        spec = to_spec(parse(spec_text("bad-eval", negative=True)))
        assert eval_fixed_order(spec, 8)
        with pytest.raises(DivisionByZero):
            eval_fixed_order(spec, 9)


# --- compiled coefficients against the eval_expr reference --------------

def _outcome(fn, *args):
    """What a coefficient call gives: its value and the ring ops it counted,
    or the error it raised (type, message, k)."""
    before = (COUNTER.adds, COUNTER.muls, COUNTER.divs)
    try:
        value = fn(*args)
    except RecdetError as exc:
        return "raised", type(exc), str(exc), getattr(exc, "k", None)
    after = (COUNTER.adds, COUNTER.muls, COUNTER.divs)
    return "value", type(value), value, tuple(a - b for a, b in zip(after, before))


def _assert_compiled_matches_eval_expr(doc, ks=range(-2, 13)):
    spec = to_spec(doc)
    if doc.mode == "full-history":
        expr = doc.coeffs[0].expr
        for k in ks:
            for i in range(1, max(k, 1) + 1):
                assert _outcome(spec.coeff, k, i) == _outcome(
                    lambda: eval_expr(expr, k=k, i=i)
                ), (render(doc), k, i)
            # the vector form over i = 1..k for this k
            _assert_vector_matches_eval_expr(
                spec.coeff, expr, list(range(1, max(k, 1) + 1)),
                lambda i, k=k: eval_expr(expr, k=k, i=i),
                lambda run, k=k: spec.coeff.vector([k] * len(run), run),
            )
    else:
        ks = list(ks)
        for fn, cdef in zip(spec.coeffs, doc.coeffs):
            for k in ks:
                assert _outcome(fn, k) == _outcome(
                    lambda: eval_expr(cdef.expr, k=k)
                ), (render(doc), cdef.name, k)
            # the vector form over runs of k: the whole range, every
            # suffix of it and every single k
            for run in [ks[j:] for j in range(len(ks))] + [[k] for k in ks]:
                _assert_vector_matches_eval_expr(
                    fn, cdef.expr, run,
                    lambda k, e=cdef.expr: eval_expr(e, k=k),
                    lambda run, fn=fn: fn.vector(run, None),
                )


def _assert_vector_matches_eval_expr(fn, expr, run, reference, vector):
    """fn's vector form over run: eval_expr's value at every index, or
    None where eval_expr raises at some index; nothing counted."""
    if "x" in _facts(expr)[0]:
        assert not hasattr(fn, "vector")
        return
    before = (COUNTER.adds, COUNTER.muls, COUNTER.divs)
    got = vector(run)
    assert (COUNTER.adds, COUNTER.muls, COUNTER.divs) == before
    want = [_outcome(reference, index) for index in run]
    if any(w[0] == "raised" for w in want):
        assert got is None, (render_expr(expr), run)
        return
    assert got is not None, (render_expr(expr), run)
    nums, dens = got
    for part in (nums, dens):
        assert type(part) is int or (type(part) is list and len(part) == len(run))
    values = [
        Fraction(*(v if type(v) is int else v[j] for v in (nums, dens)))
        for j in range(len(run))
    ]
    assert values == [w[2] for w in want], (render_expr(expr), run)
    # what one value costs, as eval_expr counts it (adds, muls, divs)
    adds, muls, divs = fn.ops
    assert all(w[3] == (adds, muls, divs) for w in want)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    vanishing_at=st.one_of(st.none(), st.integers(-2, 12)),
    ring=st.sampled_from(("rational", "poly")),
)
def test_compiled_coefficients_match_eval_expr_on_random_documents(
    seed, vanishing_at, ring
):
    doc = random_document(random.Random(seed))
    assume(doc.ring == ring)
    if vanishing_at is not None:
        # divide every coefficient by k - c, which vanishes at k = c
        den = (
            BinOp("-", Var("k"), IntLit(vanishing_at))
            if vanishing_at >= 0
            else BinOp("+", Var("k"), IntLit(-vanishing_at))
        )
        doc = doc._replace(
            coeffs=tuple(c._replace(expr=BinOp("/", c.expr, den)) for c in doc.coeffs)
        )
    _assert_compiled_matches_eval_expr(doc)


def _random_separable(rng, depth=0):
    """A product or quotient, with negations, of random factors each of
    k alone or of i alone; a divisor may vanish anywhere."""
    kind = rng.randrange(2 if depth < 2 else 0, 5 if depth < 4 else 2)
    if kind < 2:
        return random_expr(rng, (("k",), ("i",))[kind])
    if kind == 2:
        return Neg(_random_separable(rng, depth + 1))
    op = "*" if kind == 3 else "/"
    return BinOp(op, _random_separable(rng, depth + 1), _random_separable(rng, depth + 1))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_the_factored_form_matches_eval_expr(seed):
    # h(k) * g(i) is eval_expr's value on the whole triangle, or the form
    # refuses exactly where eval_expr raises somewhere in it
    e = _random_separable(random.Random(seed))
    n = 12
    split = dsl._split(e)
    assert split is not None, render_expr(e)
    got = dsl._factored(*split, n)
    triangle = [(k, i) for k in range(1, n + 1) for i in range(1, k + 1)]
    want = {}
    for k, i in triangle:
        try:
            want[k, i] = eval_expr(e, k, i)
        except DivisionByZero:
            assert got is None, render_expr(e)
            return
    assert got is not None, render_expr(e)
    (hn, hd), (gn, gd) = got
    assert len(hn) == len(hd) == len(gn) == len(gd) == n
    assert min(hd) > 0 and min(gd) > 0
    for k, i in triangle:
        assert Fraction(hn[k - 1], hd[k - 1]) * Fraction(gn[i - 1], gd[i - 1]) == want[k, i]
    # to_spec gives the form to the full-history coefficient
    spec = to_spec(parse(_full(render_expr(e))))
    assert spec.coeff.factored(n) == got


@pytest.mark.parametrize(
    "p", ["k - i", "(k + i)/k", "k/(k + i)", "(k - i + 1)/(k + 2*i) - 1/3", "x*i/k"]
)
def test_coefficients_that_do_not_factor_have_no_factored_form(p):
    doc = parse(_full(p, ring="poly" if "x" in p else "rational"))
    if "x" not in p:
        assert dsl._split(doc.coeffs[0].expr) is None
    assert not hasattr(to_spec(doc).coeff, "factored")


def test_fixed_order_coefficients_have_no_factored_form():
    spec = to_spec(parse(FIB))
    assert not any(hasattr(f, "factored") for f in spec.coeffs)


def test_a_factor_under_a_divisor_refuses_its_zero_in_a_numerator():
    # (k + 1)/((i - 8)/(k + 2)) splits as (k + 1)(k + 2) * (i - 8)^-1;
    # i - 8 divides, so the form refuses at i = 8 as eval_expr does, and
    # in (k + 1)/((i + 8)/(k - 9)), k - 9 is a numerator factor of h
    # that still refuses its zero
    for p, zero in (("(k + 1)/((i - 8)/(k + 2))", 8), ("(k + 1)/((i + 8)/(k - 9))", 9)):
        doc = parse(_full(p))
        f = to_spec(doc).coeff
        assert f.factored(zero - 1) is not None
        assert f.factored(zero) is None
        with pytest.raises(DivisionByZero):
            eval_expr(doc.coeffs[0].expr, zero, zero)


def test_fibonacci_vector_runs_are_lists_of_the_run_length():
    # a constant as well: one value per index of the run, never one int
    # that the run shares
    p1 = to_spec(parse(spec_text("fibonacci-num"))).coeffs[0]
    ks = list(range(3, 21))
    assert p1.vector(ks, None) == ([1] * len(ks), [1] * len(ks))
    assert p1.vector([3], None) == ([1], [1])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_vector_runs_are_two_lists_of_the_run_length(seed):
    doc = random_document(random.Random(seed))
    spec = to_spec(doc)
    if doc.mode == "full-history":
        fns, run = (spec.coeff,), ([6] * 6, list(range(1, 7)))
    else:
        fns, run = spec.coeffs, (list(range(spec.first_valid_k, 21)), None)
    for fn in fns:
        if hasattr(fn, "vector"):
            nums, dens = fn.vector(*run)
            assert type(nums) is list and type(dens) is list
            assert len(nums) == len(dens) == len(run[0])


def test_compiled_coefficients_match_eval_expr_on_shipped_specs():
    # k from -2 also reaches the k where ode-example, partial-sums,
    # laguerre and legendre divide by zero
    for name in available():
        _assert_compiled_matches_eval_expr(parse(spec_text(name)))
    _assert_compiled_matches_eval_expr(parse(spec_text("bad-eval", negative=True)))


def test_compiled_coefficients_keep_the_error_order():
    # left to right: an unbound i and a zero denominator, in both orders
    zero = BinOp("/", IntLit(1), BinOp("-", Var("k"), Var("k")))
    doc = parse(FIB)
    for expr in (BinOp("+", Var("i"), zero), BinOp("+", zero, Var("i"))):
        bad = doc._replace(coeffs=(doc.coeffs[0]._replace(expr=expr), doc.coeffs[1]))
        _assert_compiled_matches_eval_expr(bad, ks=(3,))


def test_compiled_coefficients_defer_to_eval_expr_while_tracking_bits():
    doc = parse(spec_text("ode-example"))
    COUNTER.reset(track_bits=True)
    to_spec(doc).coeffs[0](40)
    compiled = COUNTER.max_bits, COUNTER.ring_ops
    COUNTER.reset(track_bits=True)
    eval_expr(doc.coeffs[0].expr, k=40)
    reference = COUNTER.max_bits, COUNTER.ring_ops
    COUNTER.reset()
    assert compiled == reference


# --- parse-time probes against the eval_expr reference -------------------


def _reference_probe(doc, coeffs, bound, run, hint):
    """The probe point by point by eval_expr: the reference whose errors,
    lines and counts the compiled probe must give.  It takes dsl._probe's
    arguments but finds its points from doc alone."""
    for e in doc.initials:
        try:
            eval_expr(e)
        except DivisionByZero:
            raise SpecSemanticError("initial value divides by zero") from None
    if doc.mode == "fixed-order":
        m = doc.order or 1
        fvk = doc.first_valid_k if doc.first_valid_k is not None else m + 1
        points = [(kk, None) for kk in range(fvk, fvk + 2 * m + 1)]
    else:
        points = [(kk, ii) for kk in range(1, 7) for ii in range(1, kk + 1)]
    for cdef, ln, _ in coeffs:
        for kk, ii in points:
            try:
                eval_expr(cdef.expr, k=kk, i=ii)
            except DivisionByZero:
                if ii is None:
                    message = (
                        f"{cdef.name}({kk}) divides by zero; raise first_valid_k "
                        "or fix the coefficient"
                    )
                else:
                    message = (
                        f"p({kk}, {ii}) divides by zero; full-history "
                        "coefficients must be defined for all 1 <= i <= k"
                    )
                raise SpecSemanticError(message, line=ln) from None


def _parse_outcome(text, track_bits):
    """parse's document or error (type, message, line), with the ring ops
    and max_bits COUNTER saw from before it."""
    COUNTER.reset(track_bits=track_bits)
    try:
        try:
            got = parse(text)
        except (SpecSemanticError, SpecSyntaxError) as exc:
            got = type(exc), str(exc), exc.line
        return got, (COUNTER.adds, COUNTER.muls, COUNTER.divs, COUNTER.max_bits)
    finally:
        COUNTER.reset()


def _fixed(m, coeffs, initials=None, first_valid_k=None, ring="rational"):
    lines = [
        "mode = fixed-order",
        f"ring = {ring}",
        f"order = {m}",
        f"initial = [{initials or ', '.join(['1'] * m)}]",
    ]
    if first_valid_k is not None:
        lines.append(f"first_valid_k = {first_valid_k}")
    lines += [f"coeff p{j}(k) = {c}" for j, c in enumerate(coeffs, start=1)]
    return "\n".join(lines) + "\n"


def _full(p, initial="1", ring="rational"):
    return f"mode = full-history\nring = {ring}\ninitial = {initial}\ncoeff p(k, i) = {p}\n"


def _vanishing_at(k, i):
    # zero at (k, i) alone among integer points
    return f"1/((k - {k})*(k - {k}) + (i - {i})*(i - {i}))"


PROBE_DOCUMENTS = [
    # order 2 probes k = 3..7: the first, a middle and the last
    pytest.param(_fixed(2, ["1/(k - 3)", "k"]), id="fixed-first-k"),
    pytest.param(_fixed(2, ["k", "(k + 1)/(k - 5)"]), id="fixed-middle-k"),
    pytest.param(_fixed(2, ["1/(2*k - 14)", "1"]), id="fixed-last-k"),
    # order 3 from first_valid_k = 6 probes k = 6..12
    pytest.param(_fixed(3, ["1", "k/(k - 6)", "1"], first_valid_k=6), id="fvk-first-k"),
    pytest.param(_fixed(3, ["1", "1", "-1/(12 - k)"], first_valid_k=6), id="fvk-last-k"),
    # the second coefficient fails after the first passes, and ones that
    # fail at every k
    pytest.param(_fixed(2, ["k/(k + 1)", "1/(k - 4)"]), id="second-coefficient"),
    pytest.param(_fixed(1, ["1/(k - k)"]), id="every-k"),
    pytest.param(_fixed(1, ["1/0 * 0"]), id="constant"),
    # x-bearing coefficients over poly, passing and failing
    pytest.param(
        _fixed(2, ["x*k/(k + 4)", "1/(k - 99)"], initials="x, 1", ring="poly"), id="fixed-x"
    ),
    pytest.param(
        _fixed(2, ["x/(k - 4)", "1"], initials="x, 1", ring="poly"), id="fixed-x-fails"
    ),
    pytest.param(_full("x*i/(k - i + 1)", initial="x", ring="poly"), id="full-x"),
    pytest.param(_full("x/(i - 3)", ring="poly"), id="full-x-fails"),
    # full history: p(k, i) vanishing at (1, 1), (4, 2) and (6, 6)
    pytest.param(_full(_vanishing_at(1, 1)), id="full-1-1"),
    pytest.param(_full(_vanishing_at(4, 2)), id="full-4-2"),
    pytest.param(_full(_vanishing_at(6, 6)), id="full-6-6"),
    pytest.param(_full("(k - i + 1)/(k + 2*i) - 1/3", initial="-2/3"), id="full-row-dependent"),
    # initials that divide by zero, before a coefficient that would too
    pytest.param(_fixed(2, ["1/(k - 3)", "1"], initials="1, 1/(3 - 3)"), id="fixed-initial"),
    pytest.param(_full("1/(i - 2)", initial="1/0"), id="full-initial"),
] + [pytest.param(spec_text(name), id=name) for name in available()] + [
    pytest.param(spec_text(name, negative=True), id=name)
    for name in available(negative=True)
]


@pytest.mark.parametrize("track_bits", (False, True))
@pytest.mark.parametrize("text", PROBE_DOCUMENTS)
def test_probes_match_the_eval_expr_reference(text, track_bits, monkeypatch):
    got = _parse_outcome(text, track_bits)
    with monkeypatch.context() as m:
        m.setattr(dsl, "_probe", _reference_probe)
        want = _parse_outcome(text, track_bits)
    assert got == want


def test_probes_of_x_free_coefficients_run_no_eval_expr(monkeypatch):
    # only the initials take eval_expr while bits are not tracked
    calls = []
    monkeypatch.setattr(
        dsl, "eval_expr", lambda e, k=None, i=None: calls.append((k, i)) or eval_expr(e, k, i)
    )
    for name in ("ode-example", "continuant", "partial-sums", "naturals", "powers-of-two"):
        calls.clear()
        parse(spec_text(name))
        assert calls and all(c == (None, None) for c in calls), name


_TOTALITY_EXAMPLES = [
    "coeff p1(k) = \u00b2",
    "initial = [\u0663]",
    "order = \u0661\u0662",
    "mode = fixed-order\nring = rational\norder = 1\ninitial = [1]\ncoeff p1(k) = k\u00b9",
    # far past MAX_EXPR_TOKENS: each is refused at its 401st token
    _order_one(" + ".join(["k"] * 1000)),
    _order_one("(" * 400 + "k" + ")" * 400),
    _order_one("-" * 400 + "k"),
]
if _INT_DIGIT_LIMIT:
    _LONG = "9" * max(5000, _INT_DIGIT_LIMIT + 1)
    _TOTALITY_EXAMPLES += [
        f"coeff p1(k) = 2 * {_LONG}",
        f"order = {_LONG}",
        f"first_valid_k = {_LONG}",
        f"mode = fixed-order\nring = rational\norder = 1\ninitial = [{_LONG}]\ncoeff p1(k) = 1",
    ]


def _with_examples(test):
    for text in _TOTALITY_EXAMPLES:
        test = example(text)(test)
    return test


@settings(max_examples=300, deadline=None)
@_with_examples
@given(
    st.text(
        alphabet="mode=fixdrngplcf oklixy()[]+-*/0123456789,\n#_",
        max_size=80,
    )
)
def test_parser_totality_no_unexpected_exceptions(text):
    # any input either parses or raises one of the two documented errors
    try:
        parse(text)
    except (SpecSyntaxError, SpecSemanticError):
        pass
