"""Catalog families: determinant route against the independent oracles."""

from fractions import Fraction
from math import comb, factorial, lcm

import pytest

from recdet import hessenberg, ring
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
from recdet.recurrence import FullHistorySpec, SequencePrefix, determinant_terms
from recdet.ring import COUNTER, Polynomial, _reduced_poly

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


# Theorem 1's cells of each three-term family, restated from the
# textbook recurrences P_k = (a_k x + b_k) P_{k-1} - c_k P_{k-2} with
# a(1) = 1 standing for P_0: p(k, k) = a_k x + b_k, p(k, k - 1) = -c_k.
# Lucas's L_0 = 2 makes p(2, 1) = 2, and T_1 = x T_0 makes p(1, 1) = x;
# Legendre's is k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2} and
# Laguerre's k L_k = (2k - 1 - x) L_{k-1} - (k - 1) L_{k-2}.
TEXTBOOK_CELLS = {
    FamilyId.FIBONACCI_POLY: (lambda k: _X, lambda k: F(1)),
    FamilyId.LUCAS_POLY: (lambda k: _X, lambda k: F(2 if k == 2 else 1)),
    FamilyId.CHEBYSHEV_T: (lambda k: _X if k == 1 else _TWO_X, lambda k: F(-1)),
    FamilyId.CHEBYSHEV_U: (lambda k: _TWO_X, lambda k: F(-1)),
    FamilyId.HERMITE: (lambda k: _TWO_X, lambda k: F(-2 * (k - 1))),
    FamilyId.LEGENDRE: (lambda k: Polynomial((0, F(2 * k - 1, k))), lambda k: F(1 - k, k)),
    FamilyId.LAGUERRE: (
        lambda k: Polynomial((F(2 * k - 1, k), F(-1, k))),
        lambda k: F(1 - k, k),
    ),
}


def cell_route(spec):
    """The spec with a coeff that has no scaled columns, so the kernel
    reads its cells."""
    return FullHistorySpec(spec.initial, lambda k, i: spec.coeff(k, i), spec.name, spec.band)


def counted(call):
    COUNTER.reset()
    out = call()
    return out, (COUNTER.adds, COUNTER.muls, COUNTER.divs)


class TestBandColumns:
    """The three-term polynomial families are written as their scaled
    band columns, coeff.column(k); the cells derive from them."""

    @pytest.mark.parametrize("fid", list(TEXTBOOK_CELLS), ids=lambda f: f.value)
    def test_cells_are_the_textbook_coefficients(self, fid):
        coeff = family_spec(fid).coeff
        diag, sub = TEXTBOOK_CELLS[fid]
        for k in range(1, 61):
            got = coeff(k, k)
            assert (type(got), got) == (Polynomial, diag(k)), f"p({k}, {k})"
            if k > 1:
                got = coeff(k, k - 1)
                assert (type(got), got) == (Fraction, sub(k)), f"p({k}, {k - 1})"
            for i in range(1, k - 1):
                got = coeff(k, i)
                assert (type(got), got) == (Fraction, 0), f"p({k}, {i})"

    @pytest.mark.parametrize("fid", list(TEXTBOOK_CELLS), ids=lambda f: f.value)
    def test_columns_are_the_scaled_cells(self, fid):
        # (L, lists): L the lcm of the cells' denominators, and each list
        # its own cell times L, constant term first, with no trailing zero
        coeff = family_spec(fid).coeff
        for k in range(1, 301):
            cells = [coeff(k, i) for i in range(max(k - 1, 1), k + 1)]
            scale, lists = coeff.column(k)
            dens = [v.den if type(v) is Polynomial else v.denominator for v in cells]
            assert scale == lcm(*dens) and len(lists) == len(cells), f"column {k}"
            for nums, cell in zip(lists, cells):
                assert type(nums) is list and all(type(a) is int for a in nums)
                assert nums and nums[-1] != 0, f"column {k}"
                got = Fraction(nums[0], scale) if len(nums) == 1 else _reduced_poly(nums[:], scale)
                assert (type(got), got) == (type(cell), cell), f"column {k}"

    @pytest.mark.parametrize("fid", list(TEXTBOOK_CELLS), ids=lambda f: f.value)
    @pytest.mark.parametrize("n", (1, 2, 3, 60, 300))
    def test_the_columns_give_what_the_cells_give(self, fid, n):
        spec = family_spec(fid)
        got, ops = counted(lambda: determinant_terms(spec, n))
        want, want_ops = counted(lambda: determinant_terms(cell_route(spec), n))
        assert list(map(type, got)) == list(map(type, want))
        assert (got, ops) == (want, want_ops)
        assert ops[1] > 0

    @pytest.mark.parametrize(
        "fid, bits",
        [(f, -1) for f in TEXTBOOK_CELLS] + [(FamilyId.LEGENDRE, 2)],
        ids=str,
    )
    def test_the_columns_never_hand_over_to_the_ring_recurrence(self, monkeypatch, fid, bits):
        # list minors divide out what their scales share, so no bound on
        # a scale's excess stops them, even one that stops every int
        # column after the first; the cells, refused by the gate, go to
        # the ring recurrence from the first column
        monkeypatch.setattr(ring, "_MAX_EXCESS_BITS", bits)
        handovers = []
        tail = hessenberg._ring_leading_minors
        monkeypatch.setattr(
            hessenberg,
            "_ring_leading_minors",
            lambda *a: handovers.append(len(a[4]) - 1) or tail(*a),
        )
        spec = family_spec(fid)
        got, ops = counted(lambda: determinant_terms(spec, 40))
        assert handovers == []
        want, want_ops = counted(lambda: determinant_terms(cell_route(spec), 40))
        assert handovers == [0]
        assert list(map(type, got)) == list(map(type, want))
        assert (got, ops) == (want, want_ops)
        assert tuple(got) == family_oracles(fid, 40)

    def test_the_families_of_columns_are_the_three_term_polynomial_ones(self):
        assert set(TEXTBOOK_CELLS) == POLY_FAMILIES - PARAM_FAMILIES
        coeff_of = {f: getattr(family_spec(f, default_params(f, 3)), "coeff", None) for f in FamilyId}
        columns = {f for f, coeff in coeff_of.items() if hasattr(coeff, "column")}
        assert columns == set(TEXTBOOK_CELLS)


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
