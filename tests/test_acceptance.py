"""Acceptance suite: one test per numbered shipping criterion.

Each test name states its criterion, so `pytest -v` doubles as the
acceptance report.  Every equality here is exact (Fraction/Polynomial);
the only floating point appears in criterion 8, which is a numeric
identity by construction.
"""

import math
import random
from fractions import Fraction

from recdet.cli import main as cli_main
from recdet.families import (
    PARAM_FAMILIES,
    POLY_FAMILIES,
    FamilyId,
    family_oracle,
    family_spec,
    ode_coefficients,
    ode_residual_check,
)
from recdet.hessenberg import (
    det_bareiss,
    det_hessenberg_fast,
    det_laplace,
    hessenberg_leading_minors,
    random_hessenberg,
)
from recdet.recurrence import (
    FullHistorySpec,
    determinant_terms,
    embed_fixed_order,
    eval_fixed_order,
    eval_full_history,
    theorem1_matrix,
)
from recdet.ring import COUNTER, Polynomial
from recdet.specfiles import available, spec_path

from tests.conftest import (
    coeffs,
    random_document,
    random_fixed_constant,
    random_fixed_variable,
    random_full_history,
)

from recdet import dsl


def test_criterion_1_theorem1_identity_on_200_random_full_history_specs_k_30():
    rng = random.Random(101)
    for _ in range(200):
        spec = random_full_history(rng, max_k=30)
        minors = hessenberg_leading_minors(theorem1_matrix(spec, 30))
        terms = eval_full_history(spec, 31)
        for k in range(1, 31):
            assert spec.initial * minors[k - 1] == terms.terms[k]


def test_criterion_2_theorem2_identity_on_random_fixed_order_specs_k_15():
    rng = random.Random(202)
    specs = [random_fixed_constant(rng) for _ in range(100)]
    specs += [random_fixed_variable(rng) for _ in range(20)]
    for spec in specs:
        minors = hessenberg_leading_minors(
            theorem1_matrix(embed_fixed_order(spec), 15)
        )
        terms = eval_fixed_order(spec, 15)
        for k in range(1, 16):
            assert minors[k - 1] == terms.terms[k - 1]


def test_criterion_3_every_family_determinant_equals_its_oracle():
    for fid in FamilyId:
        top = 12 if fid in POLY_FAMILIES else 20
        params = (
            tuple(Fraction(j) for j in range(1, top + 1))
            if fid in PARAM_FAMILIES
            else None
        )
        spec = family_spec(fid, params)
        if isinstance(spec, FullHistorySpec):
            initial = spec.initial
        else:
            initial = None
            spec = embed_fixed_order(spec)
        minors = hessenberg_leading_minors(theorem1_matrix(spec, top))
        for n in range(1, top + 1):
            det = minors[n - 1] if initial is None else initial * minors[n - 1]
            assert det == family_oracle(fid, n, params), f"{fid.value} at n={n}"


def test_criterion_4_named_spot_values_are_exact():
    def det(fid, n, params=None):
        return determinant_terms(family_spec(fid, params), n)[-1]

    assert det(FamilyId.NATURALS, 3) == 3
    assert det(FamilyId.FIBONACCI_NUM, 4) == 5
    assert det(FamilyId.FIBONACCI_POLY, 2) == Polynomial((1, 0, 1))  # F_3
    assert det(FamilyId.FIBONACCI_POLY, 3) == Polynomial((0, 2, 0, 1))  # F_4
    assert det(FamilyId.CHEBYSHEV_T, 3) == Polynomial((0, -3, 0, 4))
    assert det(FamilyId.CHEBYSHEV_U, 2) == Polynomial((-1, 0, 4))
    assert det(FamilyId.HERMITE, 3) == Polynomial((0, -12, 0, 8))
    assert det(FamilyId.LEGENDRE, 2) == Polynomial((Fraction(-1, 2), 0, Fraction(3, 2)))
    assert det(FamilyId.LAGUERRE, 2) == Polynomial((1, -2, Fraction(1, 2)))
    assert det(FamilyId.CONTINUANT, 3, (Fraction(1), Fraction(2), Fraction(3))) == 10


def test_criterion_5_ode_series_passes_residual_and_matches_determinants():
    series = ode_coefficients(30)
    assert ode_residual_check(series)
    assert series.terms[3] == Fraction(-1, 6)  # u(3)
    assert series.terms[4] == Fraction(1, 8)  # u(4)
    assert series.terms[5] == Fraction(-1, 10)  # u(5)
    spec = family_spec(FamilyId.ODE_EXAMPLE)
    minors = hessenberg_leading_minors(theorem1_matrix(embed_fixed_order(spec), 15))
    for k in range(1, 16):
        assert minors[k - 1] == series.terms[k - 1]  # det size k = u(k-1)


def test_criterion_6_three_determinant_algorithms_agree_on_random_matrices():
    rng = random.Random(606)
    for _ in range(500):
        m = random_hessenberg(rng.randint(1, 7), rng)
        d = det_laplace(m)
        assert d == det_bareiss(m) == det_hessenberg_fast(m)
    for _ in range(100):
        m = random_hessenberg(rng.randint(1, 5), rng, ring="poly", max_degree=2)
        assert det_bareiss(m) == det_hessenberg_fast(m)


def test_criterion_7_fast_count_is_quadratic_and_bareiss_ratio_grows():
    sizes = (64, 128, 256)
    rng = random.Random(707)
    fast_muls = {}
    bareiss_muls = {}
    for n in sizes:
        m = random_hessenberg(n, rng)
        COUNTER.reset()
        det_fast = det_hessenberg_fast(m)
        fast_muls[n] = COUNTER.muls
        COUNTER.reset()
        det_slow = det_bareiss(m)
        bareiss_muls[n] = COUNTER.muls
        COUNTER.reset()
        assert det_fast == det_slow
    # multiplication count of the fast algorithm fits c*n^2 within 1.5x
    fits = [fast_muls[n] / (n * n) for n in sizes]
    assert max(fits) <= 1.5 * min(fits)
    # bareiss exceeds fast by a ratio that grows with n
    ratios = [bareiss_muls[n] / fast_muls[n] for n in sizes]
    assert ratios[0] > 1
    assert ratios[0] < ratios[1] < ratios[2]


def test_criterion_8_chebyshev_determinants_satisfy_the_cosine_identity():
    spec = family_spec(FamilyId.CHEBYSHEV_T)
    t_polys = hessenberg_leading_minors(theorem1_matrix(spec, 12))
    u_spec = family_spec(FamilyId.CHEBYSHEV_U)
    u_polys = hessenberg_leading_minors(theorem1_matrix(u_spec, 12))

    def horner(p, at):
        acc = 0.0
        for c in reversed(coeffs(p)):
            acc = acc * at + float(c)
        return acc

    for theta in (0.3, 1.1, 2.5):
        c = math.cos(theta)
        for n in range(1, 13):
            assert abs(horner(t_polys[n - 1], c) - math.cos(n * theta)) < 1e-9
            expected_u = math.sin((n + 1) * theta) / math.sin(theta)
            assert abs(horner(u_polys[n - 1], c) - expected_u) < 1e-9


def test_criterion_9_dsl_round_trip_shipped_specs_and_negative_controls():
    rng = random.Random(909)
    for _ in range(200):
        doc = random_document(rng)
        assert dsl.parse(dsl.render(doc)) == doc

    for name in available():
        code = cli_main(["verify", str(spec_path(name)), "--max-n", "10"])
        assert code == 0, f"shipped spec {name} failed verification"

    # negative controls, with their documented exit codes:
    #   bad-syntax   -> 1 (grammar violation)
    #   bad-semantic -> 1 (well-formed but inconsistent)
    #   bad-eval     -> 2 (parses; denominator vanishes at k = 9)
    bad = {"bad-syntax": 1, "bad-semantic": 1, "bad-eval": 2}
    for name, expected in bad.items():
        path = str(spec_path(name, negative=True))
        assert cli_main(["eval", path, "--n", "12"]) == expected, name
