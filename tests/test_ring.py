"""Polynomial kernel, operation counter, and canonical rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from recdet.errors import DivisionByZero, InexactDivision, RecdetError
from recdet.ring import (
    COUNTER,
    Polynomial,
    latex_value,
    parse_value,
    render_value,
    ring_add,
    ring_exact_div,
    ring_mul,
)

fractions_st = st.fractions(
    min_value=-20, max_value=20, max_denominator=7
)
polys_st = st.lists(fractions_st, min_size=0, max_size=5).map(Polynomial)


def test_trailing_zero_coefficients_are_stripped():
    assert Polynomial((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial((0, 0)).coeffs == ()


def test_degree_of_zero_is_none():
    assert Polynomial().degree is None
    assert Polynomial((5,)).degree == 0
    assert Polynomial((0, 0, 3)).degree == 2


def test_constant_polynomial_equals_fraction_and_int():
    assert Polynomial.constant(Fraction(3, 2)) == Fraction(3, 2)
    assert Polynomial.constant(4) == 4
    assert Polynomial((0, 1)) != 1


def test_constant_polynomial_hashes_like_its_fraction():
    assert hash(Polynomial.constant(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert len({Polynomial.constant(2), Fraction(2), 2}) == 1


def test_polynomials_are_immutable():
    p = Polynomial((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (Fraction(9),)


@given(polys_st, polys_st)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys_st, polys_st, polys_st)
def test_multiplication_distributes_over_addition(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys_st, polys_st, polys_st)
def test_multiplication_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys_st)
def test_subtracting_a_polynomial_from_itself_gives_zero(p):
    assert (p - p).is_zero


@given(polys_st, fractions_st)
def test_evaluation_is_a_ring_homomorphism(p, a):
    x = Polynomial.x()
    assert (p * x).evaluate(a) == p.evaluate(a) * a
    assert (p + x).evaluate(a) == p.evaluate(a) + a


def test_long_division_recovers_quotient_and_remainder():
    # x^3 - 1 = (x - 1)(x^2 + x + 1)
    p = Polynomial((-1, 0, 0, 1))
    d = Polynomial((-1, 1))
    q, r = p.divmod(d)
    assert q == Polynomial((1, 1, 1))
    assert r.is_zero
    assert q * d + r == p


@given(polys_st, polys_st)
def test_long_division_identity_holds(p, d):
    if d.is_zero:
        return
    q, r = p.divmod(d)
    assert q * d + r == p
    assert r.is_zero or r.degree < d.degree


def test_division_by_the_zero_polynomial_raises():
    with pytest.raises(DivisionByZero):
        Polynomial((1, 1)).divmod(Polynomial())
    with pytest.raises(DivisionByZero):
        ring_exact_div(Fraction(1), Fraction(0))


def test_inexact_polynomial_division_raises():
    with pytest.raises(InexactDivision):
        ring_exact_div(Polynomial((1, 0, 1)), Polynomial((1, 1)))


def test_exact_polynomial_division_returns_the_cofactor():
    prod = Polynomial((1, 1)) * Polynomial((2, 0, 3))
    assert ring_exact_div(prod, Polynomial((1, 1))) == Polynomial((2, 0, 3))


def test_poly_eval_uses_horner_exactly():
    p = Polynomial((Fraction(1, 2), 0, 1))  # x^2 + 1/2
    assert p.evaluate(Fraction(1, 3)) == Fraction(1, 9) + Fraction(1, 2)


def test_counter_tracks_adds_muls_divs_and_bits():
    COUNTER.reset(track_bits=True)
    ring_add(Fraction(3), Fraction(4))
    ring_mul(Fraction(1 << 40), Fraction(1 << 40))
    ring_exact_div(Fraction(8), Fraction(2))
    assert (COUNTER.adds, COUNTER.muls, COUNTER.divs) == (1, 1, 1)
    assert COUNTER.ring_ops == 3
    assert COUNTER.max_bits >= 81
    COUNTER.reset()
    assert COUNTER.ring_ops == 0


class TestRendering:
    def test_fractions_render_plainly(self):
        assert render_value(Fraction(-3, 2)) == "-3/2"
        assert render_value(Fraction(7)) == "7"

    def test_polynomials_render_in_descending_degree(self):
        assert render_value(Polynomial((0, -3, 0, 4))) == "4*x^3 - 3*x"
        assert render_value(Polynomial((-1, 0, Fraction(3, 2)))) == "3/2*x^2 - 1"
        assert render_value(Polynomial((1, 1))) == "x + 1"
        assert render_value(Polynomial()) == "0"
        assert render_value(Polynomial((1, 0, -3))) == "-3*x^2 + 1"
        assert render_value(Polynomial((0, 2, 0, Fraction(-5, 2)))) == "-5/2*x^3 + 2*x"

    def test_unit_coefficients_are_omitted(self):
        assert render_value(Polynomial((0, 1))) == "x"
        assert render_value(Polynomial((0, -1))) == "-x"
        assert render_value(Polynomial((Fraction(1, 3), -1))) == "-x + 1/3"

    def test_latex_uses_frac_and_braced_exponents(self):
        assert latex_value(Fraction(-3, 2)) == "-\\frac{3}{2}"
        assert (
            latex_value(Polynomial((Fraction(-1, 2), 0, Fraction(3, 2))))
            == "\\frac{3}{2}x^{2} - \\frac{1}{2}"
        )
        assert latex_value(Polynomial((1, 0, -3))) == "-3x^{2} + 1"
        assert (
            latex_value(Polynomial((0, 2, 0, Fraction(-5, 2))))
            == "-\\frac{5}{2}x^{3} + 2x"
        )
        assert latex_value(Polynomial((1, 1))) == "x + 1"
        assert latex_value(Polynomial((Fraction(1, 3), -1))) == "-x + \\frac{1}{3}"
        assert latex_value(Polynomial()) == "0"

    def test_parse_value_inverts_render_on_examples(self):
        for v in (
            Fraction(22, 7),
            Polynomial((0, -3, 0, 4)),
            Polynomial((Fraction(-1, 2), 0, Fraction(3, 2))),
            Polynomial((1,)),
            Polynomial(),
        ):
            ring = "poly" if isinstance(v, Polynomial) else "rational"
            assert parse_value(render_value(v), ring) == v

    @given(polys_st)
    def test_parse_value_inverts_render_on_random_polynomials(self, p):
        assert parse_value(render_value(p), "poly") == p

    def test_parse_value_rejects_garbage(self):
        for bad in ("", "x^", "2**x", "/2*x", "one"):
            with pytest.raises(RecdetError):
                parse_value(bad, "poly")
