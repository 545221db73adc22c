"""Catalog families: determinant route against the independent oracles."""

from fractions import Fraction

import pytest

from recdet.errors import MissingParams, OutOfRange, UnexpectedParams
from recdet.families import (
    PARAM_FAMILIES,
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
