"""Catalog families: determinant route against the independent oracles."""

from fractions import Fraction
from math import comb, factorial

import pytest

from recdet.errors import MissingParams, OutOfRange, UnexpectedParams
from recdet.families import (
    _THREE_TERM,
    PARAM_FAMILIES,
    POLY_FAMILIES,
    FamilyId,
    family_names,
    family_oracle,
    family_oracles,
    family_ring,
    family_spec,
    ode_coefficients,
    ode_residual_check,
)
from recdet.recurrence import SequencePrefix, determinant_terms
from recdet.ring import Polynomial

from tests.conftest import coeffs

F = Fraction


def det_values(fid: FamilyId, n: int, params=None):
    """Determinant-route family values 1..n."""
    return determinant_terms(family_spec(fid, params), n)


def default_params(fid: FamilyId, n: int):
    if fid in PARAM_FAMILIES:
        return tuple(F(j) for j in range(1, n + 1))
    return None


@pytest.mark.parametrize("fid", list(FamilyId), ids=lambda f: f.value)
def test_determinant_agrees_with_oracle(fid):
    n = 8
    params = default_params(fid, n)
    values = det_values(fid, n, params)
    for k in range(1, n + 1):
        assert values[k - 1] == family_oracle(fid, k, params), f"{fid.value} at n={k}"


@pytest.mark.parametrize("fid", list(FamilyId), ids=lambda f: f.value)
def test_one_pass_oracle_is_the_per_index_oracle(fid):
    n = 25
    params = default_params(fid, n)
    prefix = family_oracles(fid, n, params)
    assert len(prefix) == n
    for k in range(1, n + 1):
        assert prefix[k - 1] == family_oracle(fid, k, params), f"{fid.value} at n={k}"


class TestSpotValues:
    def test_naturals(self):
        assert family_oracle(FamilyId.NATURALS, 3) == 3
        assert det_values(FamilyId.NATURALS, 5) == [1, 2, 3, 4, 5]

    def test_fibonacci_numbers(self):
        assert det_values(FamilyId.FIBONACCI_NUM, 4)[-1] == 5
        assert family_oracle(FamilyId.FIBONACCI_NUM, 6) == 13

    def test_fibonacci_polynomials(self):
        assert family_oracle(FamilyId.FIBONACCI_POLY, 2) == Polynomial((1, 0, 1))
        assert family_oracle(FamilyId.FIBONACCI_POLY, 3) == Polynomial((0, 2, 0, 1))

    def test_lucas_polynomials(self):
        assert family_oracle(FamilyId.LUCAS_POLY, 1) == Polynomial((0, 1))
        assert family_oracle(FamilyId.LUCAS_POLY, 2) == Polynomial((2, 0, 1))

    def test_chebyshev(self):
        assert family_oracle(FamilyId.CHEBYSHEV_T, 3) == Polynomial((0, -3, 0, 4))
        assert family_oracle(FamilyId.CHEBYSHEV_U, 2) == Polynomial((-1, 0, 4))

    def test_hermite(self):
        assert family_oracle(FamilyId.HERMITE, 3) == Polynomial((0, -12, 0, 8))

    def test_legendre(self):
        assert family_oracle(FamilyId.LEGENDRE, 2) == Polynomial((F(-1, 2), 0, F(3, 2)))

    def test_laguerre(self):
        assert family_oracle(FamilyId.LAGUERRE, 2) == Polynomial((1, -2, F(1, 2)))

    def test_continuant(self):
        assert family_oracle(FamilyId.CONTINUANT, 3, (F(1), F(2), F(3))) == 10

    def test_horner_prefixes(self):
        ps = (F(2), F(-1), F(3))
        assert family_oracle(FamilyId.HORNER, 3, ps) == Polynomial((3, -1, 2))

    def test_partial_sums(self):
        ps = (F(1, 2), F(1, 3), F(1, 6))
        assert family_oracle(FamilyId.PARTIAL_SUMS, 3, ps) == 1


class TestCrossIdentities:
    def test_cassini_identity_for_fibonacci(self):
        # F_{n+1} F_{n-1} - F_n^2 = (-1)^n, with det size n = F_{n+1}
        f = [family_oracle(FamilyId.FIBONACCI_NUM, n) for n in range(1, 12)]
        for n in range(1, 10):
            assert f[n] * f[n - 2 if n >= 2 else 0] - f[n - 1] ** 2 in (1, -1)

    def test_continuants_are_reversal_invariant(self):
        ps = (F(2), F(5), F(1), F(3))
        assert family_oracle(FamilyId.CONTINUANT, 4, ps) == family_oracle(
            FamilyId.CONTINUANT, 4, tuple(reversed(ps))
        )

    def test_chebyshev_t_and_u_derivative_relation(self):
        # d/dx T_n = n U_{n-1}
        for n in (2, 3, 4, 5):
            t = family_oracle(FamilyId.CHEBYSHEV_T, n)
            u = family_oracle(FamilyId.CHEBYSHEV_U, n - 1)
            dt = Polynomial(
                tuple(F(d) * c for d, c in enumerate(coeffs(t)) if d)
            )
            assert dt == F(n) * u

    def test_horner_oracle_evaluates_like_horner_iteration(self):
        ps = (F(1), F(2), F(3), F(4))
        at = F(5, 3)
        acc = F(0)
        for p in ps:
            acc = acc * at + p
        assert family_oracle(FamilyId.HORNER, 4, ps).evaluate(at) == acc


# --- Polynomial-object reference recurrences ---------------------------------
# family_oracles once stepped each classical three-term recurrence on
# Polynomial objects, a product and a sum of Polynomials per step; they
# stay here as a check on its steps over int coefficient lists.

_X = Polynomial.x()
_TWO_X = Polynomial((0, 2))


def _iterate(n, prev, cur, step):
    out = [cur]
    for j in range(1, n):
        prev, cur = cur, step(j, prev, cur)
        out.append(cur)
    return tuple(out)


REFERENCE_RECURRENCES = {
    # F_2 .. F_{n+1} from F_1 = 1, F_2 = x
    FamilyId.FIBONACCI_POLY: (Polynomial.one(), _X, lambda j, prev, cur: prev + _X * cur),
    # L_1 .. L_n from L_0 = 2, L_1 = x
    FamilyId.LUCAS_POLY: (Polynomial.constant(2), _X, lambda j, prev, cur: prev + _X * cur),
    FamilyId.CHEBYSHEV_T: (Polynomial.one(), _X, lambda j, prev, cur: _TWO_X * cur - prev),
    FamilyId.CHEBYSHEV_U: (Polynomial.one(), _TWO_X, lambda j, prev, cur: _TWO_X * cur - prev),
    FamilyId.HERMITE: (
        Polynomial.one(),
        _TWO_X,
        lambda j, prev, cur: _TWO_X * cur - F(2 * j) * prev,
    ),
    FamilyId.LEGENDRE: (
        Polynomial.one(),
        _X,
        lambda j, prev, cur: (
            Polynomial((0, F(2 * j + 1, j + 1))) * cur - F(j, j + 1) * prev
        ),
    ),
    FamilyId.LAGUERRE: (
        Polynomial.one(),
        Polynomial((1, -1)),
        lambda j, prev, cur: (
            Polynomial((F(2 * j + 1, j + 1), F(-1, j + 1))) * cur - F(j, j + 1) * prev
        ),
    ),
}


def reference_oracles(fid, n):
    return _iterate(n, *REFERENCE_RECURRENCES[fid])


def explicit_sum(fid, n):
    """The family's n-th object from its closed coefficient sum, with the
    family_oracle index: F_{n+1} for fibonacci-poly, the n-th
    polynomial otherwise."""
    c = [F(0)] * (n + 1)
    if fid is FamilyId.FIBONACCI_POLY:
        for k in range(n // 2 + 1):
            c[n - 2 * k] = F(comb(n - k, k))
    elif fid is FamilyId.LUCAS_POLY:
        for k in range(n // 2 + 1):
            c[n - 2 * k] = F(n * comb(n - k, k), n - k)
    elif fid is FamilyId.CHEBYSHEV_T:
        # T_n = sum (-1)^k n / (2 (n - k)) C(n - k, k) (2x)^(n - 2k)
        for k in range(n // 2 + 1):
            c[n - 2 * k] = F((-1) ** k * n * comb(n - k, k) * 2 ** (n - 2 * k), 2 * (n - k))
    elif fid is FamilyId.CHEBYSHEV_U:
        for k in range(n // 2 + 1):
            c[n - 2 * k] = F((-1) ** k * comb(n - k, k) * 2 ** (n - 2 * k))
    elif fid is FamilyId.HERMITE:
        # H_n = n! sum (-1)^m (2x)^(n - 2m) / (m! (n - 2m)!)
        for m in range(n // 2 + 1):
            c[n - 2 * m] = F(
                (-1) ** m * factorial(n) * 2 ** (n - 2 * m),
                factorial(m) * factorial(n - 2 * m),
            )
    elif fid is FamilyId.LEGENDRE:
        # P_n = 2^-n sum (-1)^k C(n, k) C(2n - 2k, n) x^(n - 2k)
        for k in range(n // 2 + 1):
            c[n - 2 * k] = F((-1) ** k * comb(n, k) * comb(2 * n - 2 * k, n), 2**n)
    elif fid is FamilyId.LAGUERRE:
        # L_n = sum C(n, k) (-1)^k x^k / k!
        for k in range(n + 1):
            c[k] = F((-1) ** k * comb(n, k), factorial(k))
    return Polynomial(c)


class TestThreeTermOracles:
    """family_oracles' steps over int lists against the Polynomial-object
    recurrences and the closed coefficient sums."""

    def test_explicit_sums_keep_the_oracle_index(self):
        # the spot values of TestSpotValues, from the sums
        assert explicit_sum(FamilyId.FIBONACCI_POLY, 2) == Polynomial((1, 0, 1))
        assert explicit_sum(FamilyId.FIBONACCI_POLY, 3) == Polynomial((0, 2, 0, 1))
        assert explicit_sum(FamilyId.LUCAS_POLY, 1) == Polynomial((0, 1))
        assert explicit_sum(FamilyId.LUCAS_POLY, 2) == Polynomial((2, 0, 1))
        assert explicit_sum(FamilyId.CHEBYSHEV_T, 3) == Polynomial((0, -3, 0, 4))
        assert explicit_sum(FamilyId.CHEBYSHEV_U, 2) == Polynomial((-1, 0, 4))
        assert explicit_sum(FamilyId.HERMITE, 3) == Polynomial((0, -12, 0, 8))
        assert explicit_sum(FamilyId.LEGENDRE, 2) == Polynomial((F(-1, 2), 0, F(3, 2)))
        assert explicit_sum(FamilyId.LAGUERRE, 2) == Polynomial((1, -2, F(1, 2)))

    @pytest.mark.parametrize("fid", list(REFERENCE_RECURRENCES), ids=lambda f: f.value)
    @pytest.mark.parametrize("n", (1, 2, 3, 60, 200))
    def test_oracles_match_the_references(self, fid, n):
        got = family_oracles(fid, n)
        assert len(got) == n
        assert all(type(v) is Polynomial for v in got)
        assert got == reference_oracles(fid, n)
        assert got[-1] == explicit_sum(fid, n)
        if n <= 3:
            assert got == tuple(explicit_sum(fid, k) for k in range(1, n + 1))

    def test_the_table_covers_the_polynomial_families(self):
        assert set(_THREE_TERM) == set(REFERENCE_RECURRENCES) == (
            POLY_FAMILIES - PARAM_FAMILIES
        )


class TestOde:
    def test_early_coefficients(self):
        u = ode_coefficients(6)
        assert u.terms == (1, 0, 0, F(-1, 6), F(1, 8), F(-1, 10))

    def test_residual_vanishes_exactly(self):
        assert ode_residual_check(ode_coefficients(30))

    def test_residual_catches_a_corrupted_series(self):
        u = list(ode_coefficients(10).terms)
        u[7] += F(1, 1000)
        assert not ode_residual_check(SequencePrefix(tuple(u)))


class TestParamHandling:
    def test_param_families_require_params(self):
        for fid in PARAM_FAMILIES:
            with pytest.raises(MissingParams):
                family_spec(fid)

    def test_other_families_reject_params(self):
        with pytest.raises(UnexpectedParams):
            family_oracle(FamilyId.NATURALS, 3, (F(1),))

    def test_running_past_the_param_list_raises(self):
        with pytest.raises(OutOfRange):
            family_oracle(FamilyId.CONTINUANT, 4, (F(1), F(2)))
        with pytest.raises(OutOfRange):
            det_values(FamilyId.HORNER, 4, (F(1), F(2)))

    def test_index_must_be_positive(self):
        with pytest.raises(OutOfRange):
            family_oracle(FamilyId.NATURALS, 0)


def test_names_and_rings_cover_the_enum():
    assert len(family_names()) == 13
    assert family_ring(FamilyId.CHEBYSHEV_T) == "poly"
    assert family_ring(FamilyId.CONTINUANT) == "rational"
