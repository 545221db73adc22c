"""Polynomial kernel, operation counter, and canonical rendering."""

import re
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, sub

import pytest
from hypothesis import example, given, settings, strategies as st

from recdet import recurrence, ring
from recdet.errors import DivisionByZero, InexactDivision, RecdetError, SizeTooLarge
from recdet.ring import (
    COUNTER,
    Polynomial,
    int_scaled,
    latex_value,
    pair_outgrew,
    pairs_scaled,
    parse_value,
    poly_scaled,
    render_pair,
    render_value,
    ring_add,
    ring_exact_div,
    ring_mul,
    runs_scaled,
    scale_outgrew,
)

from tests.conftest import coeffs

fractions_st = st.fractions(
    min_value=-20, max_value=20, max_denominator=7
)
polys_st = st.lists(fractions_st, min_size=0, max_size=5).map(Polynomial)
# about 300-bit numerators and denominators
huge_fractions_st = st.builds(
    lambda f, m, d: f * m / d,
    fractions_st,
    st.integers(2**299, 2**300),
    st.integers(1, 2**300),
)


# --- Fraction reference kernel ---------------------------------------------
# Schoolbook multiply and long division over Fraction coefficient tuples,
# constant term first.  Polynomial once ran on these; they stay here only
# as the oracle for its integer-numerator kernel.

def fraction_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def fraction_divmod(a, b):
    rem = list(a)
    dn = len(b) - 1
    if len(rem) <= dn:
        return (), tuple(rem)
    quot = [Fraction(0)] * (len(rem) - dn)
    for top in range(len(rem) - 1, dn - 1, -1):
        q = rem[top] / b[-1]
        quot[top - dn] = q
        for d in range(dn + 1):
            rem[top - dn + d] -= q * b[d]
    return tuple(quot), tuple(rem[:dn])


def assert_reduced(p):
    assert p.den > 0
    assert gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert all(type(n) is int for n in p.nums) and type(p.den) is int


def short_or_long(coeffs_st, length):
    """Coefficient lists of 1-3 (short) or 4-12 (long) coefficients."""
    lo, hi = {"short": (1, 3), "long": (4, 12)}[length]
    return st.lists(coeffs_st, min_size=lo, max_size=hi).filter(lambda cs: cs[-1] != 0)


MUL_SHAPES = [
    (size, a, b)
    for size in ("small", "huge")
    for a, b in (("short", "short"), ("short", "long"), ("long", "long"))
]


@pytest.mark.parametrize(
    "size, a_len, b_len", MUL_SHAPES, ids=["-".join(s) for s in MUL_SHAPES]
)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_product_matches_the_fraction_schoolbook(size, a_len, b_len, data):
    coeffs_st = fractions_st if size == "small" else huge_fractions_st
    a = data.draw(short_or_long(coeffs_st, a_len))
    b = data.draw(short_or_long(coeffs_st, b_len))
    p = Polynomial(a) * Polynomial(b)
    assert coeffs(p) == fraction_mul(tuple(a), tuple(b))
    assert_reduced(p)
    assert_reduced(Polynomial(a) + Polynomial(b))
    assert_reduced(Polynomial(a) - Polynomial(b))


def schoolbook_add_product(acc, a, b, sign):
    """acc + sign * a * b over int coefficient lists, by the schoolbook
    rule; acc as it is when a factor is empty."""
    if not a or not b:
        return list(acc)
    out = list(acc) + [0] * (len(a) + len(b) - 1 - len(acc))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += sign * x * y
    return out


# zeros, negatives, and ints past a machine word
int_coeffs_st = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))


@settings(max_examples=300, deadline=None)
@given(
    acc=st.lists(int_coeffs_st, max_size=12),
    a=st.lists(int_coeffs_st, max_size=6),
    b=st.lists(int_coeffs_st, max_size=6),
    as_tuples=st.booleans(),
    op=st.sampled_from([add, sub]),
)
@example(acc=[], a=[1, -2], b=[0, 3, 4], as_tuples=True, op=add)
@example(acc=[5, 5, 5, 5, 5, 5], a=[1, -2], b=[0, 3, 4], as_tuples=False, op=sub)
@example(acc=[7], a=[], b=[1, 2], as_tuples=True, op=sub)
def test_add_product_matches_the_schoolbook(acc, a, b, as_tuples, op):
    fa, fb = (tuple(a), tuple(b)) if as_tuples else (list(a), list(b))
    before = list(acc)
    got = ring._add_product(acc, fa, fb) if op is add else ring._add_product(acc, fa, fb, op)
    assert got == schoolbook_add_product(before, a, b, -1 if op is sub else 1)
    assert (list(fa), list(fb)) == (a, b)
    if not a or not b or len(before) >= len(a) + len(b) - 1:
        # in place: a running sum, as in _horner_lists, allocates no list per term
        assert got is acc
    else:
        assert acc == before


@pytest.mark.parametrize("op", [add, sub])
def test_add_product_of_a_fraction_zero_adds_nothing(op):
    # a Laplace expansion of no rows is the Fraction 0
    for a, b in (([1, 2], Fraction(0)), (Fraction(0), (3,)), ((), Fraction(0))):
        acc = [4, -1]
        assert ring._add_product(acc, a, b, op) is acc
        assert acc == [4, -1]


ints_st = st.integers(-30, 30)
int_divisors_st = st.lists(ints_st, min_size=2, max_size=6).filter(lambda cs: cs[-1] != 0)


@given(st.lists(ints_st, max_size=8), int_divisors_st)
def test_division_with_an_integral_quotient_matches_the_oracle(q, d):
    # (q * d) / d in Z[x]: every step divides without scaling
    dividend = Polynomial(q) * Polynomial(d)
    quot, rem = dividend.divmod(Polynomial(d))
    assert quot == Polynomial(q) and rem.is_zero
    oq, orem = fraction_divmod(coeffs(dividend), coeffs(Polynomial(d)))
    assert quot == Polynomial(oq) and rem == Polynomial(orem)
    assert_reduced(quot)
    assert ring_exact_div(dividend, Polynomial(d)) == Polynomial(q)


@given(
    st.lists(st.one_of(fractions_st, huge_fractions_st), max_size=10),
    st.lists(st.one_of(fractions_st, huge_fractions_st), min_size=1, max_size=6),
)
def test_division_with_a_fractional_quotient_matches_the_oracle(a, b):
    pa, pb = Polynomial(a), Polynomial(b)
    if pb.is_zero:
        return
    quot, rem = pa.divmod(pb)
    oq, orem = fraction_divmod(coeffs(pa), coeffs(pb))
    assert quot == Polynomial(oq)
    assert rem == Polynomial(orem)
    assert_reduced(quot)
    assert_reduced(rem)


@given(polys_st, polys_st)
def test_exact_division_raises_or_returns_the_oracle_quotient(p, d):
    if d.is_zero:
        with pytest.raises(DivisionByZero):
            ring_exact_div(p, d)
        return
    oq, orem = fraction_divmod(coeffs(p), coeffs(d))
    if any(orem):
        with pytest.raises(InexactDivision):
            ring_exact_div(p, d)
    else:
        q = ring_exact_div(p, d)
        assert q == Polynomial(oq)
        assert_reduced(q)


@given(polys_st, fractions_st)
def test_division_by_a_constant_rescales(p, c):
    if c == 0:
        with pytest.raises(DivisionByZero):
            ring_exact_div(p, c)
        with pytest.raises(DivisionByZero):
            ring_exact_div(p, Polynomial.constant(c))
        return
    expected = Polynomial(tuple(v / c for v in coeffs(p)))
    for divisor in (c, Polynomial.constant(c)):
        q = ring_exact_div(p, divisor)
        assert q == expected
        assert_reduced(q)


def test_trailing_zero_coefficients_are_stripped():
    assert Polynomial((1, 2, 0, 0)).nums == (1, 2)
    assert Polynomial((0, 0)).nums == ()


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
        p.nums = (9,)


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


def test_max_bits_reads_each_reduced_coefficient():
    # stored as (1, 2^50) over 2^40; the coefficients are 1/2^40 and 1024
    p = Polynomial((Fraction(1, 2**40), 2**10))
    COUNTER.reset(track_bits=True)
    ring_mul(p, Polynomial.one())
    assert COUNTER.max_bits == 41
    COUNTER.reset()


class TestIntScaled:
    def test_scales_by_the_lcm_of_the_denominators(self):
        values = [Fraction(1, 6), Fraction(0), Fraction(-3, 4), Fraction(5)]
        assert int_scaled(values) == (12, [2, 0, -9, 60])

    def test_integral_values_keep_their_numerators(self):
        assert int_scaled([Fraction(-7), Fraction(0), Fraction(2**70)]) == (
            1,
            [-7, 0, 2**70],
        )

    def test_a_polynomial_cell_refuses(self):
        assert int_scaled([Fraction(1, 2), Polynomial((1,))]) is None
        assert int_scaled([Polynomial.x()]) is None

    def test_bit_tracking_refuses(self):
        COUNTER.reset(track_bits=True)
        try:
            assert int_scaled([Fraction(1, 2), Fraction(3)]) is None
        finally:
            COUNTER.reset()
        assert int_scaled([Fraction(1, 2), Fraction(3)]) == (2, [1, 6])

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(-60, 60),
                st.integers(-12, 12).filter(bool),
            ),
            min_size=1,
            max_size=8,
        ),
        shared=st.one_of(st.none(), st.integers(-12, 12).filter(bool)),
    )
    def test_unreduced_pairs_scale_as_their_fractions(self, pairs, shared):
        # signs on either side, common factors, zero numerators; dens
        # given per pair or as one shared int
        nums = [n for n, _ in pairs]
        dens = [d for _, d in pairs] if shared is None else shared
        values = [Fraction(n, d) for n, d in zip(nums, [shared] * len(nums) if shared else dens)]
        assert pairs_scaled(nums, dens) == int_scaled(values)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(fractions_st, polys_st), min_size=1, max_size=6))
    def test_polynomials_scale_to_int_coefficient_lists(self, values):
        scale, lists = poly_scaled(values)
        dens = [v.den if isinstance(v, Polynomial) else v.denominator for v in values]
        assert scale == lcm(*dens)
        for v, nums in zip(values, lists):
            assert type(nums) is list and all(type(c) is int for c in nums)
            assert (not nums or nums[-1] != 0) and Polynomial(nums) == v * scale
        if all(isinstance(v, Fraction) for v in values):
            assert [c[0] if c else 0 for c in lists] == int_scaled(values)[1]

    def test_poly_scaled_examples(self):
        values = [Polynomial((Fraction(1, 2), 3)), Fraction(-2, 3), Fraction(0), Polynomial(())]
        assert poly_scaled(values) == (6, [[3, 18], [-4], [], []])
        assert poly_scaled([Polynomial.x(), Fraction(5)]) == (1, [[0, 1], [5]])
        assert poly_scaled([Fraction(1), 1]) is None
        COUNTER.reset(track_bits=True)
        try:
            assert poly_scaled([Polynomial.x()]) is None
        finally:
            COUNTER.reset()

    def test_a_polynomial_scale_outgrows_it_sooner(self):
        # the excess is counted beyond the value's reduced denominator
        for value in (Fraction(1, 3), Polynomial((Fraction(1, 3), 1))):
            assert not ring.scale_outgrew(3 << 2048, value)
        assert ring.scale_outgrew(3 << 2049, Polynomial((Fraction(1, 3), 1)))
        assert not ring.scale_outgrew(3 << 2049, Fraction(1, 3))
        assert not ring.scale_outgrew(3 << 8192, Fraction(1, 3))
        assert ring.scale_outgrew(3 << 8193, Fraction(1, 3))

    def test_unreduced_pair_examples(self):
        assert pairs_scaled([2, 0, -9], [-4, 7, 6]) == (2, [-1, 0, -3])
        assert pairs_scaled([4, 6, 0], 8) == (4, [2, 3, 0])
        assert pairs_scaled([4, -6], -2) == (1, [-2, 3])
        assert pairs_scaled([0, 0], 5) == (1, [0, 0])
        assert pairs_scaled((3, 5), (1, 1)) == (1, (3, 5))


def _run_st(w: int):
    """A run (nums, dens) of length w as a vector form gives it: nums a
    list or one shared int, zeros and negatives among them; dens a list
    of either sign, all 1, or one shared int."""
    nums = st.one_of(st.lists(st.integers(-60, 60), min_size=w, max_size=w), st.integers(-60, 60))
    dens = st.one_of(
        st.lists(st.integers(-12, 12).filter(bool), min_size=w, max_size=w),
        st.just([1] * w),
        st.just(1),
        st.integers(-12, 12).filter(bool),
    )
    return st.tuples(nums, dens)


def _at(v, r):
    """Row r's entry of a run's nums or dens."""
    return v[r] if type(v) is list else v


runs_st = st.integers(0, 30).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(_run_st(w), min_size=1, max_size=4))
)


class TestRunsScaled:
    """runs_scaled, the fixed-order row table's fast path, against
    pairs_scaled of each row, its slow path."""

    @settings(max_examples=300, deadline=None)
    @given(case=runs_st)
    def test_each_row_is_pairs_scaled_of_that_row(self, case):
        w, runs = case
        got = list(runs_scaled(runs, w))
        assert len(got) == w
        for r, (scale, ps) in enumerate(got):
            nums = [_at(a, r) for a, _ in runs]
            dens = [_at(d, r) for _, d in runs]
            want_scale, want = pairs_scaled(nums, dens)
            assert type(ps) is list
            assert (scale, ps) == (want_scale, list(want))

    def test_examples(self):
        # two runs of three rows: 1/2, -2/4 | 3, 0 | -2/-6, 5/3
        assert list(runs_scaled([([1, 3, -2], [2, 1, -6]), ([-2, 0, 5], [4, 1, 3])], 3)) == [
            (2, [1, -1]),
            (1, [3, 0]),
            (3, [1, 5]),
        ]
        # every den 1: scale 1, the nums as they are
        assert list(runs_scaled([(7, 1), ([1, 2], [1, 1])], 2)) == [(1, [7, 1]), (1, [7, 2])]
        # one shared negative den
        assert list(runs_scaled([([4, 6], -8)], 2)) == [(2, [-1]), (4, [-3])]


# An int kernel's pair (A, T) = (a * s, d * s): a value a / d with a
# common factor s that no reduction has taken out.  The largest s put T
# above the default _MAX_EXCESS_BITS (8,192) bits, with an excess on either
# side of the bound.
pair_st = st.builds(
    lambda a, d, s: (a * s, d * s),
    st.one_of(st.just(0), st.integers(-(2**70), 2**70)),
    st.one_of(st.just(1), st.integers(1, 2**70)),
    st.one_of(st.just(1), st.integers(1, 2**100), st.integers(2**8185, 2**8200)),
)


def _check(pair, other):
    """verify's report of one k whose direct side is the pair and whose
    determinant side is other; the report compares the pairs itself."""
    return recurrence._report("s", [pair], [other]).checks[0]


def _agree(a, t, b, u):
    return _check((a, t), (b, u)).ok


class TestPairs:
    """The helpers that render and gate an int kernel's pair (A, T),
    T > 0, and the report's compare, against the Fraction A / T."""

    @settings(max_examples=300, deadline=None)
    @given(
        pair=pair_st,
        other=pair_st,
        m=st.integers(1, 2**80),
        bound=st.sampled_from((None, 1, 8, 64)),
    )
    @example(pair=(0, 1), other=(0, 7), m=3, bound=None)
    @example(pair=(-6, 1), other=(6, 1), m=1, bound=None)
    @example(pair=(-5 << 8200, 3 << 8200), other=(-5, 3), m=2, bound=None)
    @example(pair=(7 << 8195, 1 << 8195), other=(7, 1), m=1, bound=None)
    def test_the_pair_helpers_give_the_fractions_answers(self, pair, other, m, bound):
        a, t = pair
        b, u = other
        value = Fraction(a, t)
        assert render_pair(a, t) == render_value(value)
        check = _check(pair, other)
        assert check.ok == (value == Fraction(b, u))
        assert (check.direct, check.det) == (render_value(value), render_value(Fraction(b, u)))
        # the same value over another scale, and over the same one
        assert _agree(a, t, a * m, t * m)
        assert _agree(a, t, b, t) == (a == b)
        saved = ring._MAX_EXCESS_BITS
        if bound is not None:
            ring._MAX_EXCESS_BITS = bound
        try:
            assert pair_outgrew(a, t) == scale_outgrew(t, value)
        finally:
            ring._MAX_EXCESS_BITS = saved

    def test_pair_examples(self):
        assert render_pair(-6, 4) == "-3/2" and render_pair(6, 3) == "2"
        assert render_pair(0, 5) == "0" and render_pair(-7, 1) == "-7"
        assert _agree(1, 2, 3, 6) and not _agree(1, 2, -1, 2)
        # an excess of 8,193 bits over the reduced denominator 3
        assert pair_outgrew(1 << 8193, 3 << 8193)
        assert not pair_outgrew(1 << 8192, 3 << 8192)
        # a long scale that is all denominator carries no excess
        assert not pair_outgrew(1, (1 << 9000) + 1)


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


# --- Fraction reference renderer -------------------------------------------
# The renderer once walked the coefficients as Fractions, one per term, with
# abs, == and > on Fractions; it stays here as the oracle for the walk
# over the (nums, den) int pair.

def fraction_render(v, coeff, power, star):
    if not isinstance(v, Polynomial):
        return coeff(v)
    parts = []
    cs = coeffs(v)
    for d in range(len(cs) - 1, -1, -1):
        c = cs[d]
        if c == 0:
            continue
        mag = abs(c)
        if d == 0:
            piece = coeff(mag)
        else:
            piece = power(d) if mag == 1 else f"{coeff(mag)}{star}{power(d)}"
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f" + {piece}" if c > 0 else f" - {piece}")
    return "".join(parts) or "0"


def fraction_latex(f):
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return f"{sign}\\frac{{{abs(f.numerator)}}}{{{f.denominator}}}"


def reference_render(v):
    return fraction_render(v, str, lambda d: "x" if d == 1 else f"x^{d}", "*")


def reference_latex(v):
    return fraction_render(
        v, fraction_latex, lambda d: "x" if d == 1 else f"x^{{{d}}}", ""
    )


# coefficients over one denominator that several of them share a factor
# with, units, and +-1/den
shared_den_fractions_st = st.builds(
    Fraction,
    st.sampled_from((-12, -6, -4, -3, -2, -1, 0, 1, 2, 3, 4, 6, 12, 5, -7)),
    st.sampled_from((1, 2, 3, 4, 6, 12)),
)
mixed_polys_st = st.one_of(
    polys_st,
    st.lists(shared_den_fractions_st, min_size=0, max_size=6).map(Polynomial),
)


# at least 200-bit numerators, over dens that are 1, small, or large
big_fractions_st = st.builds(
    lambda sign, num, den: Fraction(sign * num, den),
    st.sampled_from((1, -1)),
    st.integers(2**200, 2**320),
    st.sampled_from((1, 1, 2, 6, 35, 2**64, 3**50, 2**201 + 1)),
)
# a few nonzero terms up to degree 1,000, far past a fresh power table
sparse_polys_st = st.dictionaries(
    st.integers(0, 1000), fractions_st.filter(bool), min_size=1, max_size=6
).map(lambda cs: Polynomial(cs.get(d, 0) for d in range(max(cs) + 1)))
# numerators over one den built from small primes, each numerator a
# multiple of one of the den's divisors
shared_factor_polys_st = st.lists(st.sampled_from((2, 3, 5, 7)), min_size=1, max_size=4).flatmap(
    lambda primes: st.lists(
        st.builds(
            lambda k, f: Fraction(k * f, prod(primes)),
            st.integers(-40, 40),
            st.sampled_from((1, *primes, prod(primes))),
        ),
        min_size=1,
        max_size=8,
    ).map(Polynomial)
)
# +-1 and +-1/den at degrees 0, 1 and 2, and zeros
units_st = st.lists(
    st.one_of(
        st.sampled_from((0, 1, -1)),
        st.integers(2, 10**6).flatmap(
            lambda d: st.sampled_from((Fraction(1, d), Fraction(-1, d)))
        ),
    ),
    max_size=3,
).map(Polynomial)


@contextmanager
def fresh_power_texts():
    """Render from power tables holding only x^1, as in a new process."""
    saved = ring._POWER_TEXTS
    ring._POWER_TEXTS = {fmt: texts[:2] for fmt, texts in saved.items()}
    try:
        yield
    finally:
        ring._POWER_TEXTS = saved


class TestRenderingFromIntPairs:
    """render_value and latex_value on the int pair against the
    Fraction-based renderer."""

    EXAMPLES = (
        Polynomial(),
        Polynomial((5,)),
        Polynomial((Fraction(-5, 3),)),
        Polynomial((0, 1)),
        Polynomial((0, -1)),
        Polynomial((Fraction(1, 6), Fraction(-1, 6), Fraction(1, 2), Fraction(-2, 3))),
        Polynomial((Fraction(1, 4), 0, Fraction(-3, 4), Fraction(1, 2), 1)),
        Polynomial((Fraction(-1, 12), Fraction(1, 12), Fraction(5, 6), -1)),
        Polynomial((3, Fraction(-1, 3), Fraction(9, 3))),
        Polynomial((-1,)),
        Polynomial((0, 0, 1)),
        Polynomial((-1, 1, -1)),
        Polynomial((Fraction(1, 7),)),
        Polynomial((Fraction(-1, 7), Fraction(1, 7))),
        Polynomial((0, Fraction(-1, 2), Fraction(1, 2))),
        Polynomial((Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6))),
        Fraction(0),
        Fraction(-7),
        Fraction(22, 7),
        Fraction(-1, 9),
    )

    def test_examples(self):
        for v in self.EXAMPLES:
            self.assert_renders_like_the_reference(v)

    @given(mixed_polys_st)
    def test_random_polynomials(self, p):
        assert render_value(p) == reference_render(p)
        assert latex_value(p) == reference_latex(p)

    @given(st.one_of(fractions_st, huge_fractions_st, shared_den_fractions_st))
    def test_random_fractions(self, f):
        assert render_value(f) == reference_render(f) == str(f)
        assert latex_value(f) == reference_latex(f)

    @staticmethod
    def assert_renders_like_the_reference(p):
        with fresh_power_texts():
            assert render_value(p) == reference_render(p)
            assert latex_value(p) == reference_latex(p)
        assert parse_value(render_value(p), "poly") == p

    @settings(max_examples=200, deadline=None)
    @given(st.lists(big_fractions_st, min_size=1, max_size=6).map(Polynomial))
    def test_coefficients_of_200_bits_and_more(self, p):
        self.assert_renders_like_the_reference(p)

    @settings(max_examples=100, deadline=None)
    @given(sparse_polys_st)
    def test_degrees_past_the_power_tables(self, p):
        self.assert_renders_like_the_reference(p)

    @settings(max_examples=200, deadline=None)
    @given(shared_factor_polys_st)
    def test_dens_sharing_factors_with_numerators(self, p):
        self.assert_renders_like_the_reference(p)

    @given(units_st)
    def test_units_and_unit_fractions_at_low_degrees(self, p):
        self.assert_renders_like_the_reference(p)

    def test_threads_growing_the_power_texts_render_alike(self):
        """8 threads render polynomials of degree 0 to 1,200 in both
        formats from fresh tables, two of them from the top degree down,
        with the interpreter switching between them as often as it can;
        three times over."""
        sixths = {
            d: Polynomial(
                {d: 6, d - 1: -4, d // 2: -6, 1: 30, 0: 3}.get(i, 0) for i in range(d + 1)
            )
            * Fraction(1, 6)
            for d in (*range(0, 1200, 3), 1200)
        }
        expected = {d: (reference_render(p), reference_latex(p)) for d, p in sixths.items()}
        start = threading.Barrier(8)

        def work(t, got):
            start.wait(timeout=60)
            order = sorted(sixths, reverse=t % 4 == 3)
            got[t] = [(d, render_value(sixths[d]), latex_value(sixths[d])) for d in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got: dict[int, list] = {}
                with fresh_power_texts():
                    threads = [
                        threading.Thread(target=work, args=(t, got)) for t in range(8)
                    ]
                    for th in threads:
                        th.start()
                    for th in threads:
                        th.join(timeout=60)
                assert not any(th.is_alive() for th in threads)
                assert sorted(got) == list(range(8))
                for rows in got.values():
                    for d, text, latex in rows:
                        assert (text, latex) == expected[d], d
        finally:
            sys.setswitchinterval(interval)


# --- Fraction reference parser ---------------------------------------------
# The polynomial parser once built a Fraction per term and a dict of them
# before Polynomial() took the lcm; it stays here as the oracle for the
# parse straight into the (nums, den) pair.

def reference_parse_poly_text(s):
    chunks = re.split(r"\s([+-])\s", s)
    signed = [(1, chunks[0].strip())]
    for t in range(1, len(chunks), 2):
        signed.append((1 if chunks[t] == "+" else -1, chunks[t + 1].strip()))
    cs = {}
    for sign, term in signed:
        if term.startswith("-"):
            sign = -sign
            term = term[1:].strip()
        m = ring._TERM_RE.fullmatch(term)
        if not m:
            raise RecdetError(f"cannot parse polynomial term {term!r}")
        num, den, star, xpart, exp = m.groups()
        if num is None and xpart is None:
            raise RecdetError(f"cannot parse polynomial term {term!r}")
        if (exp or star) and not xpart:
            raise RecdetError(f"cannot parse polynomial term {term!r}")
        if den is not None and num is None:
            raise RecdetError(f"cannot parse polynomial term {term!r}")
        d = (ring._parse_degree(exp) if exp else 1) if xpart else 0
        try:
            c = Fraction(int(num), int(den) if den else 1) if num else Fraction(1)
        except (ValueError, ZeroDivisionError) as exc:
            raise RecdetError(f"cannot parse polynomial term {term!r}") from exc
        cs[d] = cs.get(d, Fraction(0)) + sign * c
    top = max(cs, default=0)
    return Polynomial(tuple(cs.get(d, Fraction(0)) for d in range(top + 1)))


def parse_outcome(parse, text):
    """("ok", nums, den) for a parsed polynomial, else the error's type
    and message."""
    try:
        p = parse(text)
    except RecdetError as exc:
        return type(exc), str(exc)
    assert type(p) is Polynomial
    return "ok", p.nums, p.den


# one term of a polynomial's text, well formed or not: an optional "-",
# digits, "/" and digits, "*", "x", "^" and digits, in any combination
_digits_st = st.sampled_from(("0", "1", "2", "7", "12", "007", "36"))
term_text_st = st.builds(
    lambda neg, num, den, star, x, exp, pad: pad
    + ("-" if neg else "")
    + (num or "")
    + (f"/{den}" if den is not None else "")
    + ("*" if star else "")
    + ("x" if x else "")
    + (f"^{exp}" if exp is not None else "")
    + pad,
    st.booleans(),
    st.one_of(st.none(), _digits_st),
    st.one_of(st.none(), _digits_st),
    st.booleans(),
    st.booleans(),
    st.one_of(st.none(), _digits_st),
    st.sampled_from(("", " ")),
)
poly_text_st = st.builds(
    lambda first, rest: first + "".join(f" {sign} {term}" for sign, term in rest),
    term_text_st,
    st.lists(st.tuples(st.sampled_from("+-"), term_text_st), max_size=5),
)


class TestParsingIntoThePair:
    """_parse_poly_text against the Fraction-based parser: the same
    Polynomial for every accepted text, the same error type and message
    for every refused one."""

    MALFORMED = (
        "x^", "2**x", "/2*x", "one", "2^3*x", "2*", "2^3", "x + 1/0", "1/0*x",
        "x + /3", "--x", "x +", "x - 2*", "x ^2", "1/0 + x^99999",
        "x^99999 + 1/0", "x^10001", "x + x^100000000000", "1/0*x^99999",
    )
    # past int()'s digit limit, where the Python has one
    LONG = ("x + " + "9" * 5000, "9" * 5000 + "*x", "1/" + "9" * 5000 + "*x")
    ACCEPTED = (
        "x", "-x", "*x", "x^0", "0*x", "x - x", "3/6*x^2 + 1/4*x - 2",
        "x + - x", "x^0002 - 1/2 + x^2", "2/4*x - 1/6", "x^10000",
        "0/5*x + 7", " x + 1 ", "-3*x^2 + 1",
    )

    def test_malformed_terms(self):
        for text in self.MALFORMED:
            got = parse_outcome(ring._parse_poly_text, text)
            assert got[0] != "ok", text
            assert got == parse_outcome(reference_parse_poly_text, text), text

    def test_coefficients_past_the_digit_limit(self):
        for text in self.LONG:
            got = parse_outcome(ring._parse_poly_text, text)
            assert got == parse_outcome(reference_parse_poly_text, text), text

    def test_accepted_examples(self):
        for text in self.ACCEPTED:
            got = parse_outcome(ring._parse_poly_text, text)
            assert got[0] == "ok", text
            assert got == parse_outcome(reference_parse_poly_text, text), text

    @given(mixed_polys_st)
    def test_rendered_polynomials(self, p):
        text = render_value(p)
        assert parse_outcome(ring._parse_poly_text, text) == ("ok", p.nums, p.den)
        assert parse_outcome(reference_parse_poly_text, text) == ("ok", p.nums, p.den)

    @settings(max_examples=300)
    @given(poly_text_st)
    def test_random_texts(self, text):
        assert parse_outcome(ring._parse_poly_text, text) == parse_outcome(
            reference_parse_poly_text, text
        )

    @settings(max_examples=300)
    @given(st.lists(poly_text_st, min_size=1, max_size=8))
    # a malformed text whose good terms an earlier text put in the table
    @example(["x + 1", "x + 1 + 2^3"])
    @example(["3*x^2 - 1/2", "-1/2 + 3*x^2 - 1/0"])
    # a term past the degree cap after a term in the table
    @example(["x^2 + 1", "x^2 + x^10001", "x^2 + 1"])
    @example(["x", "x - x^99999 + 1/0"])
    def test_texts_sharing_one_term_table(self, texts):
        table = {}
        for text in texts:
            got = parse_outcome(lambda s: ring._parse_poly_text(s, table), text)
            assert got == parse_outcome(reference_parse_poly_text, text), text
        # the table keeps only terms that parsed, each as it parses alone
        for chunk, term in table.items():
            assert term == ring._parse_term(chunk)

    def test_parse_value_reads_and_fills_the_table(self):
        table = {}
        assert parse_value("-3*x^2 + 1/2", "poly", table) == parse_value("-3*x^2 + 1/2", "poly")
        assert table == {"-3*x^2": (2, -3, 1), "1/2": (0, 1, 2)}
        # a table entry is what the text's term stands for, sign and all
        table["1/2"] = (1, 5, 1)
        assert parse_value("x - 1/2", "poly", table) == Polynomial([0, -4])
        # rationals take no table
        assert parse_value("1/2", "rational", table) == Fraction(1, 2)
        assert len(table) == 3


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="str() writes ints of any length"
)
def test_renderers_refuse_an_int_past_the_digit_limit():
    # SizeTooLarge names the limit, in place of int's ValueError
    long = 10 ** sys.get_int_max_str_digits()
    for render, value in (
        (ring.render_value, Fraction(long)),
        (ring.render_value, Fraction(1, long)),
        (ring.render_value, Polynomial([1, Fraction(long, 3)])),
        (ring.latex_value, Fraction(-long, 7)),
        (ring.latex_value, Polynomial([Fraction(1, long)])),
        (lambda v: ring.render_pair(*v), (3 * long, 3)),
        (lambda v: ring.render_pair(*v), (2, 4 * long)),
    ):
        with pytest.raises(SizeTooLarge, match=f"more than {sys.get_int_max_str_digits()} digits"):
            render(value)
    assert ring.render_pair(long, long) == "1"
