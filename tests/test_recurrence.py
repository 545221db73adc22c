"""Theorem-1/Theorem-2 matrix builders, direct evaluation, verification."""

import dataclasses
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from recdet import cli, dsl, hessenberg, recurrence, ring
from recdet.errors import DivisionByZero, IndexBelowValidity, RecdetError, SizeTooLarge
from recdet.families import PARAM_FAMILIES, FamilyId, family_oracles, family_spec
from recdet.hessenberg import (
    _matrix_columns,
    _ring_leading_minors,
    det_bareiss,
    det_hessenberg_fast,
    hessenberg_leading_minors,
)
from recdet.ring import COUNTER, Polynomial
from recdet.recurrence import (
    FixedOrderSpec,
    FullHistorySpec,
    SequencePrefix,
    VerificationCheck,
    VerificationReport,
    determinant_terms,
    embed_fixed_order,
    eval_fixed_order,
    eval_full_history,
    spec_matrix,
    theorem1_matrix,
    theorem2_matrix,
    verify_spec,
)
from recdet.specfiles import available, spec_text
from tests.conftest import random_document

ONE = Fraction(1)


def naturals_full():
    # a(k+1) = a(1) + a(k): the sequence 1, 1, 2, 3, 4, ...
    return FullHistorySpec(
        initial=ONE,
        coeff=lambda k, i: ONE if i in (1, k) else Fraction(0),
        name="naturals",
    )


def fib_fixed(a1=1, a2=1):
    return FixedOrderSpec(
        order=2,
        initials=(Fraction(a1), Fraction(a2)),
        coeffs=(lambda k: ONE, lambda k: ONE),
        name="fib",
    )


class TestFullHistory:
    def test_direct_evaluation_prefix(self):
        assert eval_full_history(naturals_full(), 5).terms == (1, 1, 2, 3, 4)

    def test_matrix_layout_transposes_the_coefficients(self):
        # entries[i][j] = p(j, i) above the diagonal, -1 below, 0 elsewhere
        probe = FullHistorySpec(
            initial=ONE,
            coeff=lambda k, i: Fraction(10 * k + i),
            name="probe",
        )
        m = theorem1_matrix(probe, 3)
        assert m.entries[0][2] == 31  # p(3, 1)
        assert m.entries[2][2] == 33
        assert m.entries[1][0] == -1
        assert m.entries[2][0] == 0

    def test_determinant_reproduces_the_sequence(self):
        spec = naturals_full()
        minors = hessenberg_leading_minors(theorem1_matrix(spec, 8))
        terms = eval_full_history(spec, 9)
        for k in range(1, 9):
            assert spec.initial * minors[k - 1] == terms.terms[k]

    def test_scaling_the_initial_scales_terms_but_not_the_matrix(self):
        base = naturals_full()
        scaled = FullHistorySpec(initial=Fraction(3), coeff=base.coeff, name="scaled")
        assert theorem1_matrix(scaled, 5).entries == theorem1_matrix(base, 5).entries
        assert [3 * t for t in eval_full_history(base, 6)] == list(
            eval_full_history(scaled, 6)
        )


def _never_read(k):
    raise AssertionError(f"coefficient read at k = {k}")


class TestFixedOrder:
    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(RecdetError):
            FixedOrderSpec(order=0, initials=(), coeffs=())
        with pytest.raises(RecdetError):
            FixedOrderSpec(order=2, initials=(ONE,), coeffs=(lambda k: ONE,) * 2)
        with pytest.raises(RecdetError):
            FixedOrderSpec(
                order=2,
                initials=(ONE, ONE),
                coeffs=(lambda k: ONE,) * 2,
                first_valid_k=2,
            )

    def test_first_valid_k_defaults_to_order_plus_one(self):
        assert fib_fixed().first_valid_k == 3

    def test_direct_evaluation_matches_fibonacci(self):
        assert eval_fixed_order(fib_fixed(), 7).terms == (1, 1, 2, 3, 5, 8, 13)

    def test_factorials_from_an_order_one_recurrence(self):
        spec = FixedOrderSpec(
            order=1,
            initials=(ONE,),
            coeffs=(lambda k: Fraction(k),),
            name="factorials",
        )
        assert eval_fixed_order(spec, 4).terms == (1, 2, 6, 24)
        assert det_hessenberg_fast(theorem2_matrix(spec, 4)) == 24

    def test_embedding_starts_from_one_and_shifts(self):
        emb = embed_fixed_order(fib_fixed())
        assert emb.initial == 1
        # column 2 carries a(2) in row 1 and nothing on the diagonal
        assert emb.coeff(2, 1) == 1
        assert emb.coeff(2, 2) == 0
        # column 4 carries p_1(4), p_2(4) ending on the diagonal
        assert emb.coeff(4, 3) == 1
        assert emb.coeff(4, 4) == 1
        assert emb.coeff(4, 1) == 0

    def test_embedded_sequence_is_the_original_shifted(self):
        emb = embed_fixed_order(fib_fixed())
        assert eval_full_history(emb, 8).terms == (1, 1, 1, 2, 3, 5, 8, 13)

    def test_determinant_of_size_k_is_term_k(self):
        spec = fib_fixed()
        minors = hessenberg_leading_minors(theorem2_matrix(spec, 10))
        assert tuple(minors) == eval_fixed_order(spec, 10).terms

    def test_lucas_numbers_spot_value(self):
        lucas = fib_fixed(1, 3)
        assert det_hessenberg_fast(theorem2_matrix(lucas, 6)) == 18

    def test_variable_coefficients_use_the_column_index(self):
        # a(k) = k * a(k-1), a(1) = 1: a(k) = k!
        spec = FixedOrderSpec(
            order=1, initials=(ONE,), coeffs=(lambda k: Fraction(k),)
        )
        m = theorem2_matrix(spec, 4)
        assert m.entries[3][3] == 4
        assert m.entries[1][1] == 2

    def test_terms_below_first_valid_k_raise(self):
        gappy = FixedOrderSpec(
            order=1,
            initials=(ONE,),
            coeffs=(lambda k: ONE,),
            first_valid_k=4,
        )
        assert eval_fixed_order(gappy, 1).terms == (1,)
        with pytest.raises(IndexBelowValidity):
            eval_fixed_order(gappy, 2)
        with pytest.raises(IndexBelowValidity):
            theorem2_matrix(gappy, 3)
        # the first term past the initials, k = m + 1, is the one refused,
        # before any coefficient is read or any op counted
        for initials in (
            (Fraction(1, 2), Fraction(-3)),
            (Polynomial((1, 1)), Fraction(2)),
        ):
            for first_valid_k, track_bits in product((4, 7), (False, True)):
                spec = FixedOrderSpec(
                    order=2,
                    initials=initials,
                    coeffs=(_never_read, _never_read),
                    first_valid_k=first_valid_k,
                )
                assert _direct(spec, 2, track_bits) == (initials, (0, 0, 0))
                refused = (
                    IndexBelowValidity,
                    "term 3 requested but coefficients are only valid "
                    f"from k = {first_valid_k}",
                )
                for n in (3, 7):
                    assert _direct(spec, n, track_bits) == (refused, (0, 0, 0))


# strings that JSON escapes: quotes, backslashes, controls, non-ASCII,
# astral characters (a surrogate pair in JSON) and a lone surrogate
json_text_st = st.text(
    st.one_of(
        st.sampled_from('"\\\n\t\x00\x1f\x7f \u00e9\u2028\ud800\U0001f600'),
        st.characters(),
    ),
    max_size=12,
)


class TestVerification:
    def test_passing_report(self):
        report = verify_spec(naturals_full(), 10)
        assert report.passed
        assert len(report.checks) == 10
        assert report.first_failure() is None
        assert [c.k for c in report.checks] == list(range(1, 11))

    def test_methods_agree(self):
        for method in ("fast", "bareiss", "laplace"):
            assert verify_spec(fib_fixed(), 8, method=method).passed

    def test_unknown_method_is_rejected(self):
        with pytest.raises(RecdetError):
            verify_spec(fib_fixed(), 4, method="cramer")

    def test_corrupting_an_entry_fails_verification(self):
        report = verify_spec(naturals_full(), 8, corrupt=(1, 2))
        assert not report.passed
        assert report.first_failure() == 2

    def test_corrupt_position_must_stay_in_band(self):
        with pytest.raises(RecdetError):
            verify_spec(naturals_full(), 8, corrupt=(5, 1))
        with pytest.raises(RecdetError):
            verify_spec(naturals_full(), 8, corrupt=(9, 9))

    def test_bad_input_is_refused_before_any_coefficient_is_read(self):
        # a position outside the matrix or below its subdiagonal, or an
        # unknown method, wins over the error of the first coefficient
        def never_read(k, i):
            raise DivisionByZero(f"p({k}, {i}) read", k=k)

        full = FullHistorySpec(initial=ONE, coeff=never_read)
        fixed = FixedOrderSpec(order=2, initials=(ONE, ONE), coeffs=(_never_read, _never_read))
        for spec in (full, fixed):
            for kwargs, message in (
                ({"corrupt": (0, 0)}, r"corrupt position \(0, 0\) outside a size-8 matrix"),
                ({"corrupt": (9, 1)}, r"corrupt position \(9, 1\) outside a size-8 matrix"),
                ({"corrupt": (5, 1)}, "must stay in the upper-Hessenberg band"),
                ({"method": "cramer"}, "unknown determinant method 'cramer'"),
            ):
                for route in (verify_spec, determinant_terms):
                    with pytest.raises(RecdetError, match=message):
                        route(spec, 8, **kwargs)

    def test_json_report_schema(self):
        payload = json.loads(verify_spec(fib_fixed(), 3).to_json())
        assert set(payload) == {"spec", "checks", "pass"}
        assert payload["pass"] is True
        assert payload["checks"][2] == {"k": 3, "direct": "2", "det": "2", "ok": True}

    @settings(max_examples=300, deadline=None)
    @given(
        spec=json_text_st,
        checks=st.lists(
            st.tuples(
                st.one_of(st.integers(0, 200), st.integers(2**62, 2**300)),
                json_text_st,
                json_text_st,
                st.booleans(),
            ),
            max_size=4,
        ),
        passed=st.booleans(),
    )
    @example(spec='f\u00efb "q"\\\n\x00 \U0001f600', checks=[], passed=False)
    @example(spec="", checks=[(10**40, "-3/2", "x + 1", False)], passed=True)
    def test_json_report_is_compact_json_dumps(self, spec, checks, passed):
        report = VerificationReport(
            spec=spec, checks=tuple(VerificationCheck(*c) for c in checks), passed=passed
        )
        payload = {
            "spec": spec,
            "checks": [
                {"k": k, "direct": direct, "det": det, "ok": ok}
                for k, direct, det, ok in checks
            ],
            "pass": passed,
        }
        assert report.to_json() == json.dumps(payload, separators=(",", ":"))

    def test_a_check_by_keyword_is_the_check_by_position(self):
        check = VerificationCheck(k=3, direct="1/2", det="-1", ok=False)
        assert check == VerificationCheck(3, "1/2", "-1", False)
        assert repr(check) == "VerificationCheck(k=3, direct='1/2', det='-1', ok=False)"
        assert check._replace(det="1/2", ok=True) == VerificationCheck(3, "1/2", "1/2", True)
        with pytest.raises(AttributeError):
            check.ok = True  # type: ignore[misc]

    def test_sequence_prefix_iterates_in_order(self):
        prefix = SequencePrefix((ONE, Fraction(2)))
        assert list(prefix) == [1, 2]
        assert len(prefix) == 2


# verify_spec's (adds, muls, divs) untracked at n = 1, 40 and 150, and its
# (max_bits, ring_ops) tracked at n = 12, for every shipped spec and the
# seven polynomial families
VERIFY_COUNTS = [
    ("spec", "chebyshev-t", (0, 1, 0), (77, 271, 0), (297, 1041, 0), (13, 96)),
    ("spec", "chebyshev-u", (0, 1, 0), (77, 271, 0), (297, 1041, 0), (14, 96)),
    ("spec", "continuant", (0, 1, 0), (77, 233, 0), (297, 893, 0), (30, 86)),
    ("spec", "fibonacci-num", (0, 1, 0), (77, 233, 0), (297, 893, 0), (8, 86)),
    ("spec", "fibonacci-poly", (0, 1, 0), (77, 233, 0), (297, 893, 0), (7, 86)),
    ("spec", "hermite", (0, 1, 0), (115, 309, 0), (445, 1189, 0), (24, 116)),
    ("spec", "horner", (0, 1, 0), (225, 419, 0), (885, 1629, 0), (5, 168)),
    ("spec", "laguerre", (0, 1, 0), (191, 271, 76), (741, 1041, 296), (29, 146)),
    ("spec", "legendre", (0, 1, 0), (153, 309, 76), (593, 1189, 296), (23, 146)),
    ("spec", "lucas-poly", (0, 1, 0), (77, 233, 0), (297, 893, 0), (7, 86)),
    ("spec", "naturals", (0, 1, 0), (77, 233, 0), (297, 893, 0), (5, 86)),
    ("spec", "ode-example", (0, 1, 0), (299, 419, 74), (1179, 1629, 294), (20, 204)),
    ("spec", "partial-sums", (0, 1, 0), (78, 79, 39), (298, 299, 149), (7, 56)),
    ("spec", "powers-of-two", (0, 3, 0), (1560, 3240, 0), (22350, 45150, 0), (12, 432)),
    ("family", "fibonacci-poly", (0, 3, 0), (819, 1017, 0), (11324, 12072, 0), (7, 212)),
    ("family", "lucas-poly", (0, 3, 0), (819, 1017, 0), (11324, 12072, 0), (7, 212)),
    ("family", "chebyshev-t", (0, 3, 0), (819, 1017, 0), (11324, 12072, 0), (13, 212)),
    ("family", "chebyshev-u", (0, 3, 0), (819, 1017, 0), (11324, 12072, 0), (14, 212)),
    ("family", "hermite", (0, 3, 0), (819, 1017, 0), (11324, 12072, 0), (24, 212)),
    ("family", "legendre", (0, 3, 0), (819, 1017, 0), (11324, 12072, 0), (23, 212)),
    ("family", "laguerre", (0, 3, 0), (819, 1017, 0), (11324, 12072, 0), (29, 212)),
]


@pytest.mark.parametrize(
    "kind, name, at_1, at_40, at_150, tracked_12",
    VERIFY_COUNTS,
    ids=[f"{kind}-{name}" for kind, name, *_ in VERIFY_COUNTS],
)
def test_verify_counts_are_pinned(kind, name, at_1, at_40, at_150, tracked_12):
    if kind == "spec":
        spec = dsl.to_spec(dsl.parse(spec_text(name)), name=name)
    else:
        spec = family_spec(FamilyId(name))
    for n, want in ((1, at_1), (40, at_40), (150, at_150)):
        COUNTER.reset()
        assert verify_spec(spec, n).passed
        assert (COUNTER.adds, COUNTER.muls, COUNTER.divs) == want, n
    COUNTER.reset(track_bits=True)
    try:
        assert verify_spec(spec, 12).passed
        assert (COUNTER.max_bits, COUNTER.ring_ops) == tracked_12
    finally:
        COUNTER.reset()


# eval's (adds, muls, divs) untracked at n = 1, 40 and 150, for every
# shipped spec and every catalog family, the parameter families with
# _fractional_params(150); a banded full-history family reads its band
# alone, so row k costs min(k, b + 1) muls and one add fewer
EVAL_COUNTS = [
    ("spec", "chebyshev-t", (0, 0, 0), (38, 114, 0), (148, 444, 0)),
    ("spec", "chebyshev-u", (0, 0, 0), (38, 114, 0), (148, 444, 0)),
    ("spec", "continuant", (0, 0, 0), (38, 76, 0), (148, 296, 0)),
    ("spec", "fibonacci-num", (0, 0, 0), (38, 76, 0), (148, 296, 0)),
    ("spec", "fibonacci-poly", (0, 0, 0), (38, 76, 0), (148, 296, 0)),
    ("spec", "hermite", (0, 0, 0), (76, 152, 0), (296, 592, 0)),
    ("spec", "horner", (0, 0, 0), (148, 148, 0), (588, 588, 0)),
    ("spec", "laguerre", (0, 0, 0), (152, 114, 76), (592, 444, 296)),
    ("spec", "legendre", (0, 0, 0), (114, 152, 76), (444, 592, 296)),
    ("spec", "lucas-poly", (0, 0, 0), (38, 76, 0), (148, 296, 0)),
    ("spec", "naturals", (0, 0, 0), (38, 76, 0), (148, 296, 0)),
    ("spec", "ode-example", (0, 0, 0), (222, 148, 74), (882, 588, 294)),
    ("spec", "partial-sums", (0, 0, 0), (78, 39, 39), (298, 149, 149)),
    ("spec", "powers-of-two", (0, 0, 0), (741, 780, 0), (11026, 11175, 0)),
    ("family", "naturals", (0, 0, 0), (741, 780, 0), (11026, 11175, 0)),
    ("family", "horner", (0, 0, 0), (741, 780, 0), (11026, 11175, 0)),
    ("family", "partial-sums", (0, 0, 0), (741, 780, 0), (11026, 11175, 0)),
    ("family", "fibonacci-poly", (0, 0, 0), (38, 77, 0), (148, 297, 0)),
    ("family", "fibonacci-num", (0, 0, 0), (38, 77, 0), (148, 297, 0)),
    ("family", "lucas-poly", (0, 0, 0), (38, 77, 0), (148, 297, 0)),
    ("family", "chebyshev-t", (0, 0, 0), (38, 77, 0), (148, 297, 0)),
    ("family", "chebyshev-u", (0, 0, 0), (38, 77, 0), (148, 297, 0)),
    ("family", "hermite", (0, 0, 0), (38, 77, 0), (148, 297, 0)),
    ("family", "legendre", (0, 0, 0), (38, 77, 0), (148, 297, 0)),
    ("family", "laguerre", (0, 0, 0), (38, 77, 0), (148, 297, 0)),
    ("family", "continuant", (0, 0, 0), (38, 77, 0), (148, 297, 0)),
    ("family", "ode-example", (0, 0, 0), (74, 111, 0), (294, 441, 0)),
]


@pytest.mark.parametrize(
    "kind, name, at_1, at_40, at_150",
    EVAL_COUNTS,
    ids=[f"{kind}-{name}" for kind, name, *_ in EVAL_COUNTS],
)
def test_eval_counts_are_pinned(kind, name, at_1, at_40, at_150):
    if kind == "spec":
        spec = dsl.to_spec(dsl.parse(spec_text(name)), name=name)
    else:
        fid = FamilyId(name)
        spec = family_spec(fid, _fractional_params(150) if fid in PARAM_FAMILIES else None)
    for n, want in ((1, at_1), (40, at_40), (150, at_150)):
        assert _direct(spec, n)[1] == want, n
    if getattr(spec, "band", None) is not None:
        widths = [min(k, spec.band + 1) for k in range(1, 150)]
        assert at_150 == (sum(widths) - len(widths), sum(widths), 0)


ROUTE_CASES = [("family", fid.value) for fid in FamilyId] + [
    ("spec", name) for name in available()
]


@pytest.mark.parametrize(
    "kind, name", ROUTE_CASES, ids=[f"{kind}-{name}" for kind, name in ROUTE_CASES]
)
def test_determinant_terms_agree_across_methods_and_references(kind, name):
    # families against their oracles, shipped specs against direct iteration
    n = 10
    if kind == "family":
        fid = FamilyId(name)
        params = (
            tuple(Fraction(j) for j in range(1, n + 1)) if fid in PARAM_FAMILIES else None
        )
        spec = family_spec(fid, params)
        expected = list(family_oracles(fid, n, params))
    else:
        spec = dsl.to_spec(dsl.parse(spec_text(name)), name=name)
        if isinstance(spec, FullHistorySpec):
            expected = list(eval_full_history(spec, n + 1).terms[1:])
        else:
            expected = list(eval_fixed_order(spec, n).terms)
    assert determinant_terms(spec, n) == expected
    assert determinant_terms(spec, n, method="bareiss") == expected
    assert determinant_terms(spec, 8, method="laplace") == expected[:8]


@pytest.mark.parametrize("n", [9, 40])
def test_laplace_refuses_before_the_first_determinant(n):
    # the DSL spec's coefficients cost ring ops to build, the refusal none;
    # the message names size 9, the first leading submatrix past the limit
    spec = dsl.to_spec(dsl.parse(spec_text("legendre")), name="legendre")
    COUNTER.reset()
    spec_matrix(spec, n)
    build_ops = COUNTER.ring_ops
    assert build_ops > 0
    COUNTER.reset()
    with pytest.raises(SizeTooLarge) as info:
        determinant_terms(spec, n, method="laplace")
    assert str(info.value) == "det_laplace handles sizes up to 8, got 9"
    assert COUNTER.ring_ops == build_ops
    COUNTER.reset()


def test_bareiss_minors_cost_one_elimination():
    # one pass gives every leading minor: the route costs one det_bareiss
    # of the size-40 matrix plus the 40 products a(1) * d_k, where one
    # determinant per leading submatrix cost 264,980
    spec = dsl.to_spec(dsl.parse(spec_text("powers-of-two")), name="powers-of-two")
    COUNTER.reset()
    det_bareiss(spec_matrix(spec, 40))
    one = COUNTER.ring_ops
    COUNTER.reset()
    determinant_terms(spec, 40, method="bareiss")
    route = COUNTER.ring_ops
    COUNTER.reset()
    assert one == 24_362
    assert route == one + 40


def test_a_zero_term_sends_bareiss_minors_to_the_fallback():
    # a(k) = a(k-1) + a(k-2) from 1, -1 gives a(3) = 0, the third minor
    spec = fib_fixed(1, -1)
    expected = list(eval_fixed_order(spec, 12).terms)
    assert expected[2] == 0
    assert determinant_terms(spec, 12, method="bareiss") == expected


# --- the int direct kernel against the ring loop ---------------------------


def _direct(spec, n, track_bits=False):
    """Terms 1..n by direct iteration, or the error raised, with the
    adds, muls and divs COUNTER saw.  Bit tracking sends every row down
    the ring loop (and DSL coefficients down eval_expr)."""
    COUNTER.reset(track_bits=track_bits)
    try:
        if isinstance(spec, FullHistorySpec):
            result = eval_full_history(spec, n).terms
        else:
            result = eval_fixed_order(spec, n).terms
    except RecdetError as exc:
        result = (type(exc), str(exc))
    ops = COUNTER.adds, COUNTER.muls, COUNTER.divs
    COUNTER.reset()
    return result, ops


def _assert_kernel_matches_ring(spec, n):
    fast, fast_ops = _direct(spec, n)
    ring, ring_ops = _direct(spec, n, track_bits=True)
    assert fast == ring, (spec.name, n)
    assert [type(t) for t in fast] == [type(t) for t in ring]
    assert fast_ops == ring_ops, (spec.name, n)
    return fast


def _kernel_runs(spec, n, monkeypatch):
    """How direct iteration went: the runs of the int kernel, one more
    for each time it started again, and the rows the ring loop summed."""
    runs, ring_rows = [], []
    kernel, ring_sum = recurrence._scaled_terms, recurrence._ring_sum
    with monkeypatch.context() as mp:
        mp.setattr(recurrence, "_scaled_terms", lambda *a: runs.append(a) or kernel(*a))
        mp.setattr(recurrence, "_ring_sum", lambda *a: ring_rows.append(a) or ring_sum(*a))
        _direct(spec, n)
    return len(runs), len(ring_rows)


def _one_over_i(k, i):
    return Fraction(1, i)


def _row_dependent(k, i):
    return Fraction(k - i + 1, k + 2 * i) - Fraction(1, 3)


def _excess_fixed_order():
    return FixedOrderSpec(
        order=2,
        initials=(Fraction(1, 2), Fraction(2, 3)),
        coeffs=(lambda k: Fraction(1, k), lambda k: Fraction(k - 1, k + 1)),
    )


class TestIntDirectKernel:
    @pytest.mark.parametrize("name", available())
    def test_shipped_specs(self, name):
        spec = dsl.to_spec(dsl.parse(spec_text(name)), name=name)
        for n in (1, 2, 3, 17, 40):
            _assert_kernel_matches_ring(spec, n)

    @pytest.mark.parametrize("ring", ["rational", "poly"])
    def test_random_documents_in_both_modes(self, ring):
        rng = random.Random(880 if ring == "rational" else 881)
        seen = {"full-history": 0, "fixed-order": 0}
        while min(seen.values()) < 12:
            doc = random_document(rng)
            if doc.ring != ring:
                continue
            spec = dsl.to_spec(doc)
            _assert_kernel_matches_ring(spec, rng.randint(1, 40))
            seen[doc.mode] += 1

    @pytest.mark.parametrize(
        "coeff", [_one_over_i, _row_dependent], ids=["one-over-i", "row-dependent"]
    )
    def test_the_ring_loop_takes_over_past_the_excess_bound(self, coeff, monkeypatch):
        # denominators that depend on i make T outgrow the reduced terms,
        # and at a bound of one bit the lcm of the terms' own denominators
        # soon outgrows the last term too
        spec = FullHistorySpec(initial=Fraction(3, 2), coeff=coeff, name="excess")
        n = 30
        monkeypatch.setattr(ring, "_MAX_EXCESS_BITS", 1)
        runs, ring_rows = _kernel_runs(spec, n, monkeypatch)
        assert runs >= 1 and 0 < ring_rows < n - 1
        _assert_kernel_matches_ring(spec, n)

    def test_fixed_order_hands_over_past_the_excess_bound(self, monkeypatch):
        spec = _excess_fixed_order()
        monkeypatch.setattr(ring, "_MAX_EXCESS_BITS", 4)
        runs, ring_rows = _kernel_runs(spec, 30, monkeypatch)
        assert runs > 1 and 0 < ring_rows < 28
        _assert_kernel_matches_ring(spec, 30)

    @pytest.mark.parametrize(
        "spec",
        [
            FullHistorySpec(initial=Fraction(3, 2), coeff=_one_over_i, name="excess"),
            FullHistorySpec(initial=Fraction(3, 2), coeff=_row_dependent, name="excess"),
            FullHistorySpec(initial=ONE, coeff=lambda k, i: Fraction(1, k), name="one-over-k"),
            _excess_fixed_order(),
        ],
        ids=["one-over-i", "row-dependent", "one-over-k", "fixed-order"],
    )
    def test_the_int_kernel_starts_again_from_the_terms(self, spec, monkeypatch):
        # where T outgrew the term, the lcm of the denominators of the
        # terms the next row reads does not, so the ints go on from there
        monkeypatch.setattr(ring, "_MAX_EXCESS_BITS", 40)
        runs, ring_rows = _kernel_runs(spec, 30, monkeypatch)
        assert runs > 1 and ring_rows == 0
        _assert_kernel_matches_ring(spec, 30)
        # across bounds, each run starting again or handing over
        for bits in (1, 2, 4, 8, 16, 100):
            monkeypatch.setattr(ring, "_MAX_EXCESS_BITS", bits)
            for n in (2, 3, 17, 30):
                _assert_kernel_matches_ring(spec, n)

    def test_an_error_after_a_start_again_is_the_ring_loops(self, monkeypatch):
        def coeff(k, i):
            if (k, i) == (25, 3):
                raise DivisionByZero("no p(25, 3)", k=k)
            return Fraction(1, i)

        spec = FullHistorySpec(initial=Fraction(3, 2), coeff=coeff, name="raising")
        monkeypatch.setattr(ring, "_MAX_EXCESS_BITS", 40)
        runs, ring_rows = _kernel_runs(spec, 30, monkeypatch)
        # the error's row leaves the ring loop's counts
        assert runs > 1 and ring_rows == 1
        fast = _assert_kernel_matches_ring(spec, 30)
        assert fast == (DivisionByZero, "no p(25, 3)")

    def test_a_coefficient_turning_polynomial_mid_row_is_read_once(self):
        # row 6 turns polynomial at i = 3: the ring loop gets p(6, 1..6)
        # with the three the kernel read, and never asks for them again
        calls = []

        def coeff(k, i):
            calls.append((k, i))
            if (k, i) == (6, 3) or k > 8:
                return Polynomial((Fraction(1, k), Fraction(i)))
            return Fraction(k + i, 2 * i + 1)

        spec = FullHistorySpec(initial=Fraction(2, 3), coeff=coeff, name="turning")
        n = 12
        fast, fast_ops = _direct(spec, n)
        assert calls == [(k, i) for k in range(1, n) for i in range(1, k + 1)]
        calls.clear()
        ring, ring_ops = _direct(spec, n, track_bits=True)
        assert calls == [(k, i) for k in range(1, n) for i in range(1, k + 1)]
        assert fast == ring and fast_ops == ring_ops
        assert [type(t) for t in fast] == [Fraction] * 6 + [Polynomial] * 6

    def test_a_fixed_order_coefficient_turning_polynomial_is_read_once(self):
        calls = []

        def p2(k):
            calls.append(k)
            return Polynomial((0, 1)) if k >= 7 else Fraction(k, 3)

        spec = FixedOrderSpec(
            order=2,
            initials=(Fraction(1), Fraction(1, 2)),
            coeffs=(lambda k: Fraction(-1, k), p2),
        )
        fast, fast_ops = _direct(spec, 10)
        assert calls == list(range(3, 11))
        ring, ring_ops = _direct(spec, 10, track_bits=True)
        assert fast == ring and fast_ops == ring_ops

    def test_zero_terms(self):
        zero_start = FullHistorySpec(
            initial=Fraction(0), coeff=lambda k, i: Fraction(k, i), name="zero"
        )
        assert set(_assert_kernel_matches_ring(zero_start, 20)) == {0}
        # a(2) = a(1), a(3) = a(1) - a(2) = 0, and zero from there on
        vanishing = FullHistorySpec(
            initial=Fraction(5, 7),
            coeff=lambda k, i: Fraction(1 if i == 1 else -1),
            name="vanishing",
        )
        terms = _assert_kernel_matches_ring(vanishing, 20)
        assert terms[:3] == (Fraction(5, 7), Fraction(5, 7), 0)
        assert _assert_kernel_matches_ring(fib_fixed(1, -1), 20)[2] == 0

    def test_errors_and_counts_on_the_way_out_match_the_ring_loop(self):
        # p(4, 3) raises: the ring loop had multiplied two products and
        # added them once before asking for it
        def coeff(k, i):
            if (k, i) == (4, 3):
                raise RecdetError("no p(4, 3)")
            return Fraction(i, k + 1)

        spec = FullHistorySpec(initial=ONE, coeff=coeff, name="raising")
        fast = _assert_kernel_matches_ring(spec, 9)
        assert fast == (RecdetError, "no p(4, 3)")
        gappy = FixedOrderSpec(
            order=1, initials=(ONE,), coeffs=(lambda k: ONE,), first_valid_k=4
        )
        fast = _assert_kernel_matches_ring(embed_fixed_order(gappy), 6)
        assert fast[0] is IndexBelowValidity

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "mode = full-history\nring = rational\ninitial = 1\n"
                "coeff p(k, i) = i/(k - 8)\n",
                "error: denominator is zero at k = 8\n",
            ),
            (
                "mode = fixed-order\nring = rational\norder = 2\ninitial = [1, 2]\n"
                "coeff p1(k) = 1/(k - 9)\ncoeff p2(k) = k\n",
                "error: denominator is zero at k = 9\n",
            ),
            (
                "mode = fixed-order\nring = rational\norder = 2\ninitial = [1, 1]\n"
                "first_valid_k = 5\ncoeff p1(k) = 1\ncoeff p2(k) = 1/(k - 4)\n",
                "error: term 3 requested but coefficients are only valid from k = 5\n",
            ),
        ],
        ids=["division-full-history", "division-fixed-order", "below-validity"],
    )
    def test_eval_errors_keep_their_message_and_exit_code(
        self, text, message, tmp_path, capsys
    ):
        path = tmp_path / "bad.rec"
        path.write_text(text, encoding="utf-8")
        seen = []
        for track_bits in (False, True):
            COUNTER.reset(track_bits=track_bits)
            code = cli.main(["eval", str(path), "--n", "12"])
            COUNTER.reset()
            seen.append((code, capsys.readouterr()))
        assert seen[0] == seen[1]
        code, captured = seen[0]
        assert code == 2
        assert captured.out == ""
        assert captured.err == message


# --- verify_spec's coefficient table against the plain composition ---------


def reference_verify(spec, max_n, method="fast", corrupt=None):
    """verify_spec as composed without a shared coefficient table: the
    determinant route and direct iteration each compute every value by
    a call.  The coefficients are plain wrappers with no vector form, so
    no scaled int row enters either side (see _by_calls).  verify's
    direct side reads whole rows, where eval reads within a declared
    band, so the direct side here drops the band."""
    if max_n < 1:
        raise RecdetError("max_n must be at least 1")
    spec = _by_calls(spec)
    dets = determinant_terms(spec, max_n, method, corrupt)
    if isinstance(spec, FullHistorySpec):
        whole_rows = dataclasses.replace(spec, band=None)
        direct = eval_full_history(whole_rows, max_n + 1).terms[1:]
    else:
        direct = eval_fixed_order(spec, max_n).terms
    checks = tuple(
        VerificationCheck(
            k=k, direct=ring.render_value(a), det=ring.render_value(d), ok=a == d
        )
        for k, (a, d) in enumerate(zip(direct, dets), start=1)
    )
    return VerificationReport(
        spec=spec.name, checks=checks, passed=all(c.ok for c in checks)
    )


def _by_calls(spec):
    """A copy of spec whose coefficients call the spec's, with no vector
    form: each value is computed by one call, as the spec computes it."""
    if isinstance(spec, FullHistorySpec):
        f = spec.coeff
        return dataclasses.replace(spec, coeff=lambda k, i: f(k, i))
    return dataclasses.replace(spec, coeffs=tuple((lambda k, f=f: f(k)) for f in spec.coeffs))


def _outcome(run, spec, *args, track_bits=False):
    """The report, or the error's type, message and k, with max_bits and
    the ring ops COUNTER saw."""
    COUNTER.reset(track_bits=track_bits)
    try:
        result = run(spec, *args)
    except RecdetError as exc:
        result = (type(exc), str(exc), getattr(exc, "k", None))
    counts = COUNTER.max_bits, COUNTER.ring_ops
    COUNTER.reset()
    return result, counts


def _assert_table_matches_reference(spec, *args, track_bits=False):
    got, (got_bits, got_ops) = _outcome(verify_spec, spec, *args, track_bits=track_bits)
    want, (want_bits, want_ops) = _outcome(
        reference_verify, spec, *args, track_bits=track_bits
    )
    assert got == want, (spec.name, args)
    # the same intermediates; only the coefficients' repeated ops are gone
    assert got_bits == want_bits
    assert got_ops <= want_ops
    return got


def _dsl_spec(text, name="spec"):
    return dsl.to_spec(dsl.parse(text), name=name)


class TestCoefficientTable:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(("fast", "bareiss", "laplace")),
        corrupt=st.booleans(),
        track_bits=st.booleans(),
    )
    def test_random_documents(self, seed, method, corrupt, track_bits):
        rng = random.Random(seed)
        spec = dsl.to_spec(random_document(rng))
        n = rng.randint(1, 8 if method == "laplace" else 30)
        # any position, in the band, above it or below the subdiagonal
        position = (rng.randint(1, n), rng.randint(1, n)) if corrupt else None
        _assert_table_matches_reference(spec, n, method, position, track_bits=track_bits)

    @pytest.mark.parametrize("name", available())
    def test_shipped_specs(self, name):
        spec = _dsl_spec(spec_text(name), name)
        for method, n in (("fast", 30), ("bareiss", 30), ("laplace", 8)):
            report = _assert_table_matches_reference(spec, n, method)
            assert report.passed
            # (1, 1) is in every band, (3, 2) on the subdiagonal; (1, n) is
            # above the band of every fixed-order spec, and in the dense
            # matrix of the full-history one
            for position in ((1, 1), (1, n), (3, 2)):
                _assert_table_matches_reference(spec, n, method, position)
        _assert_table_matches_reference(spec, 12, "fast", (1, 1), track_bits=True)

    @pytest.mark.parametrize("name", available(negative=True))
    def test_negative_specs(self, name):
        try:
            spec = _dsl_spec(spec_text(name, negative=True), name)
        except RecdetError:
            return  # refused by the parser, before any spec exists
        for n in (8, 9, 12):
            _assert_table_matches_reference(spec, n)

    def test_bad_eval_raises_as_before(self):
        spec = _dsl_spec(spec_text("bad-eval", negative=True), "bad-eval")
        got = _assert_table_matches_reference(spec, 12)
        assert got[0] is DivisionByZero and got[2] == 9

    def test_the_matrix_read_order_picks_the_first_error(self):
        # k + 3i = 22 vanishes at (k, i) = (7, 5), (10, 4), ..., (19, 1):
        # direct iteration alone meets k = 7 first, the matrix build, row
        # i = 1 first, the cell with the smallest i inside the matrix
        spec = _dsl_spec(
            "mode = full-history\nring = rational\ninitial = 1\n"
            "coeff p(k, i) = 1/(k + 3*i - 22)\n"
        )
        with pytest.raises(DivisionByZero) as direct_only:
            eval_full_history(spec, 21)
        assert direct_only.value.k == 7
        for n, k in ((20, 19), (12, 10), (8, 7)):
            for method in ("fast", "bareiss"):
                got = _assert_table_matches_reference(spec, n, method)
                assert got == (DivisionByZero, f"denominator is zero at k = {k}", k)

    def test_a_spec_that_breaks_its_band_still_fails(self):
        # band 1 promises p(k, i) = 0 for k - i > 1; p is 1 everywhere
        spec = FullHistorySpec(
            initial=ONE, coeff=lambda k, i: ONE, name="band-breaker", band=1
        )
        report = _assert_table_matches_reference(spec, 10)
        assert not report.passed
        assert report.first_failure() == 3

    @pytest.mark.parametrize("bits", [1, 4, 40])
    @pytest.mark.parametrize(
        "spec",
        [
            FullHistorySpec(initial=Fraction(3, 2), coeff=_row_dependent, name="row-dependent"),
            FullHistorySpec(initial=Fraction(-2, 3), coeff=_one_over_i, name="one-over-i"),
            _excess_fixed_order(),
            FullHistorySpec(
                initial=Fraction(5, 7),
                coeff=lambda k, i: _row_dependent(k, i) if k - i <= 2 else ONE - ONE,
                name="banded",
                band=2,
            ),
        ],
        ids=["row-dependent", "one-over-i", "fixed-order", "banded"],
    )
    def test_both_int_kernels_trip_under_a_lowered_bound(self, spec, bits, monkeypatch):
        # the leading minors' kernel hands over to its ring path and direct
        # iteration's starts again or hands over, each from values it holds
        # as pairs (A, T); a banded spec's minors below the ring path's
        # first window stay pairs, which an a(1) other than 1 scales
        n = 30
        monkeypatch.setattr(ring, "_MAX_EXCESS_BITS", bits)
        minors, outgrew = [], []
        minors_kernel, terms_kernel = recurrence.scaled_leading_minors, recurrence._scaled_terms
        with monkeypatch.context() as mp:
            mp.setattr(
                recurrence,
                "scaled_leading_minors",
                lambda *a: minors.append(minors_kernel(*a)) or minors[-1],
            )
            mp.setattr(
                recurrence, "_scaled_terms", lambda *a: outgrew.append(terms_kernel(*a)) or outgrew[-1]
            )
            got = _outcome(verify_spec, spec, n)
        assert len(minors) == 1 and 0 < len(minors[0]) < n
        assert True in outgrew
        assert got == _outcome(reference_verify, spec, n)
        report = got[0]
        assert report.passed
        # and the same report where no int kernel takes the minors
        assert report == verify_spec(spec, n, "bareiss")

    @pytest.mark.parametrize("initial", ["3/2", "-2/3", "0", "7", "-1"])
    def test_an_initial_value_scales_the_pairs(self, initial):
        # no kernel trips at the default bound, so every value stays a pair
        # up to the report, and a(1) = p/q scales each to (p * A, q * T)
        for coeff, n in (("(k - i + 1)/(k + 2*i) - 1/3", 40), ("1/i", 40), ("k/(i + 1)", 25)):
            spec = _dsl_spec(
                f"mode = full-history\nring = rational\ninitial = {initial}\n"
                f"coeff p(k, i) = {coeff}\n"
            )
            report = _assert_table_matches_reference(spec, n)
            assert report.passed
            assert report == verify_spec(spec, n, "bareiss")

    def test_corruption_is_seen_by_the_determinant_route_only(self):
        spec = naturals_full()
        direct = [ring.render_value(a) for a in eval_full_history(spec, 9).terms[1:]]
        for position in ((1, 1), (1, 8), (2, 1), (4, 6)):
            report = _assert_table_matches_reference(spec, 8, "fast", position)
            assert not report.passed
            assert [c.direct for c in report.checks] == direct


def _counting_full(value, band=None):
    calls = Counter()

    def coeff(k, i):
        calls[k, i] += 1
        return value(k, i)

    return FullHistorySpec(initial=ONE, coeff=coeff, name="counted", band=band), calls


class TestCoefficientReadsOnce:
    @pytest.mark.parametrize("method", ["fast", "bareiss", "laplace"])
    def test_dense_full_history(self, method):
        n = 8
        spec, calls = _counting_full(lambda k, i: Fraction(k + i, 2 * i + 1))
        before = (spec.coeff, spec.initial, spec.band, spec.name)
        assert verify_spec(spec, n, method).passed
        assert calls == Counter({(k, i): 1 for k in range(1, n + 1) for i in range(1, k + 1)})
        assert sum(calls.values()) == n * (n + 1) // 2
        assert (spec.coeff, spec.initial, spec.band, spec.name) == before
        # nothing is kept between calls
        verify_spec(spec, n, method)
        assert set(calls.values()) == {2}

    def test_banded_full_history_reads_out_of_band_cells_once_more(self):
        # the build reads the band, direct iteration once more each cell
        # outside it, which the matrix never holds
        n, band = 12, 2
        spec, calls = _counting_full(
            lambda k, i: Fraction(k, i) if k - i <= band else Fraction(0), band=band
        )
        theorem1_matrix(spec, n)
        in_band = Counter(calls)
        assert in_band == Counter(
            {(k, i): 1 for k in range(1, n + 1) for i in range(1, k + 1) if k - i <= band}
        )
        calls.clear()
        assert verify_spec(spec, n).passed
        assert calls == Counter({(k, i): 1 for k in range(1, n + 1) for i in range(1, k + 1)})
        assert sum(calls.values()) - sum(in_band.values()) == sum(
            1 for k in range(1, n + 1) for i in range(1, k + 1) if k - i > band
        )

    @pytest.mark.parametrize("method", ["fast", "bareiss"])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_fixed_order(self, m, method):
        n = 20
        calls = Counter()

        def p(t):
            def coeff(k):
                calls[t, k] += 1
                return Fraction(t * k - 1, k + t)

            return coeff

        spec = FixedOrderSpec(
            order=m,
            initials=tuple(Fraction(j, 2) for j in range(1, m + 1)),
            coeffs=tuple(p(t) for t in range(1, m + 1)),
        )
        coeffs = spec.coeffs
        assert verify_spec(spec, n, method).passed
        assert calls == Counter(
            {(t, k): 1 for t in range(1, m + 1) for k in range(spec.first_valid_k, n + 1)}
        )
        assert spec.coeffs is coeffs

    def test_a_value_that_raised_is_read_again(self):
        # a raising coefficient is not stored: a second verify of the same
        # spec raises the same error from the same cell
        spec = _dsl_spec(spec_text("bad-eval", negative=True), "bad-eval")
        for _ in range(2):
            with pytest.raises(DivisionByZero) as info:
                verify_spec(spec, 12)
            assert info.value.k == 9

    def test_dsl_coefficient_ops_are_counted_once(self):
        # the matrix build reads every cell direct iteration reads, so
        # verify counts the build's coefficient ops and none for direct
        spec = _dsl_spec(spec_text("partial-sums"), "partial-sums")
        n = 30
        COUNTER.reset()
        determinant_terms(spec, n)
        det_ops = COUNTER.ring_ops
        COUNTER.reset()
        for k in range(2, n + 1):
            spec.coeffs[0](k)
        coeff_ops = COUNTER.ring_ops
        COUNTER.reset()
        eval_fixed_order(spec, n)
        direct_ops = COUNTER.ring_ops
        COUNTER.reset()
        verify_spec(spec, n)
        assert coeff_ops > 0
        assert COUNTER.ring_ops == det_ops + direct_ops - coeff_ops
        COUNTER.reset()


# --- verify_spec on the specs the vector form covers, or does not -----------


def _k_minus(c):
    # k - c, or k + |c| for c < 0
    return dsl.Sub(dsl.Var("k"), dsl.IntLit(c)) if c >= 0 else dsl.Add(
        dsl.Var("k"), dsl.IntLit(-c)
    )


def _evaluations_counted(spec):
    """spec with its coefficient wrapped to count each value it computes:
    one per scalar call, and one per index of a vector run."""
    f = spec.coeff
    evaluated = Counter()

    def coeff(k, i):
        evaluated[k, i] += 1
        return f(k, i)

    def vector(k, i):
        evaluated.update((k, j) for j in i)
        return f.vector(k, i)

    coeff.vector = vector
    coeff.ops = f.ops
    return dataclasses.replace(spec, coeff=coeff), evaluated


class TestVectorRows:
    """verify_spec against reference_verify where the vector form computes
    rows of the table, gives way to calls, or hands its kernels over."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        vanishing_at=st.one_of(st.none(), st.integers(-2, 30)),
        n=st.integers(1, 40),
    )
    def test_random_rational_documents(self, seed, vanishing_at, n):
        doc = random_document(random.Random(seed))
        assume(doc.ring == "rational")
        if vanishing_at is not None:
            # divide every coefficient by k - c, which vanishes at k = c
            doc = dataclasses.replace(
                doc,
                coeffs=tuple(
                    dataclasses.replace(c, expr=dsl.Div(c.expr, _k_minus(vanishing_at)))
                    for c in doc.coeffs
                ),
            )
        _assert_table_matches_reference(dsl.to_spec(doc), n)

    @pytest.mark.parametrize(
        "name", [name for name in available() if dsl.parse(spec_text(name)).ring == "rational"]
    )
    def test_rational_shipped_specs(self, name):
        spec = _dsl_spec(spec_text(name), name)
        for n in (1, 2, 3, 4, 40, 150):
            assert _assert_table_matches_reference(spec, n).passed

    @pytest.mark.parametrize("name", available(negative=True))
    def test_negative_specs(self, name):
        try:
            spec = _dsl_spec(spec_text(name, negative=True), name)
        except RecdetError:
            return  # refused by the parser, before any spec exists
        for n in (8, 9, 12):
            _assert_table_matches_reference(spec, n)

    def test_the_matrix_read_order_picks_the_first_error(self):
        # k + 3i = 22 vanishes at (k, i) = (7, 5), (10, 4), ..., (19, 1);
        # a pass over the columns meets k = 7 first, the matrix build
        # k = 19 at n = 20
        spec = _dsl_spec(
            "mode = full-history\nring = rational\ninitial = 1\n"
            "coeff p(k, i) = 1/(k + 3*i - 22)\n"
        )
        for n, k in ((20, 19), (12, 10), (8, 7)):
            got = _assert_table_matches_reference(spec, n)
            assert got == (DivisionByZero, f"denominator is zero at k = {k}", k)
        assert _assert_table_matches_reference(spec, 6).passed

    def test_specs_the_vector_rows_leave_to_calls(self):
        # a first_valid_k gap, initial values that are not Fractions, and
        # a declared band that p breaks, which only direct iteration sees
        gap = _dsl_spec(
            "mode = fixed-order\nring = rational\norder = 2\ninitial = [1, 2]\n"
            "first_valid_k = 6\ncoeff p1(k) = 1/(k - 4)\ncoeff p2(k) = k\n"
        )
        assert _assert_table_matches_reference(gap, 2).passed
        assert _assert_table_matches_reference(gap, 3)[0] is IndexBelowValidity
        poly_initial = _dsl_spec(
            "mode = fixed-order\nring = poly\norder = 2\ninitial = [1, x]\n"
            "coeff p1(k) = 2\ncoeff p2(k) = -1\n"
        )
        _assert_table_matches_reference(poly_initial, 1)
        _assert_table_matches_reference(poly_initial, 12)
        _assert_table_matches_reference(
            _dsl_spec("mode = full-history\nring = poly\ninitial = x\ncoeff p(k, i) = i/k\n"),
            12,
        )
        dense = _dsl_spec("mode = full-history\nring = rational\ninitial = 1\ncoeff p(k, i) = 1\n")
        assert _assert_table_matches_reference(dense, 10).passed
        banded = dataclasses.replace(dense, band=1)
        assert not _assert_table_matches_reference(banded, 10).passed

    @pytest.mark.parametrize(
        "p, n",
        [
            ("(k - i + 1)/(k + 2*i) - 1/3", 100),
            ("(k - i + 1)/(k + 2*i) - 1/3", 200),
            ("1/i", 100),
            ("1/i", 200),
        ],
    )
    def test_row_dependent_denominators(self, p, n):
        # the scales grow with the row: each int kernel hands over to its
        # ring path where its own scale outgrows its values, and goes on
        # from the values the vector rows computed, evaluating none again
        spec, evaluated = _evaluations_counted(
            _dsl_spec(f"mode = full-history\nring = rational\ninitial = 1\ncoeff p(k, i) = {p}\n")
        )
        got = verify_spec(spec, n)
        assert evaluated == Counter({(k, i): 1 for k in range(1, n + 1) for i in range(1, k + 1)})
        assert got.passed
        assert _assert_table_matches_reference(spec, n) == got

    @pytest.mark.parametrize(
        "kwargs, track_bits",
        [
            ({}, True),
            ({"corrupt": (1, 1)}, False),
            ({"corrupt": (2, 5)}, False),
            ({"method": "bareiss"}, False),
            ({"method": "laplace"}, False),
        ],
    )
    @pytest.mark.parametrize("name", ["powers-of-two", "ode-example"])
    def test_only_fast_untracked_uncorrupted_calls_run_a_compiled_form(
        self, name, kwargs, track_bits
    ):
        # powers-of-two's p(k, i) = 1 factors, so its fast call runs the
        # factored form in place of the vector form
        spec = _dsl_spec(spec_text(name), name)
        runs = []
        for f in (spec.coeff,) if isinstance(spec, FullHistorySpec) else spec.coeffs:
            for form in ("vector", "factored"):
                if hasattr(f, form):
                    run = getattr(f, form)
                    spy = lambda *args, form=form, run=run: runs.append(form) or run(*args)
                    setattr(f, form, spy)
        COUNTER.reset(track_bits=track_bits)
        try:
            verify_spec(spec, 8, **kwargs)
        finally:
            COUNTER.reset()
        assert runs == []
        verify_spec(spec, 8)
        assert runs == (["factored"] if name == "powers-of-two" else ["vector"] * 3)

    @pytest.mark.parametrize(
        "text",
        [
            "mode = full-history\nring = rational\ninitial = 1\n"
            "coeff p(k, i) = (k - i + 1)/(k + 2*i) - 1/3\n",
            "mode = full-history\nring = rational\ninitial = 1\ncoeff p(k, i) = 1/k\n",
            spec_text("ode-example"),
        ],
        ids=["row-dependent", "one-over-k", "fixed-order"],
    )
    def test_a_table_no_one_shares_forgets_each_row(self, text):
        # so eval and a lone determinant_terms hold no more than a row of
        # coefficients at a time, by calls as well as by vector rows;
        # verify's table keeps the rows its determinant side read, or
        # where p(k, i) factors, the runs of h and g in their place
        def forgot_everything(rows):
            return not rows.cells and not rows.ints

        for spec in (_dsl_spec(text), _by_calls(_dsl_spec(text))):
            rows = recurrence._Rows(spec, 100)
            recurrence._direct(rows)
            assert forgot_everything(rows)
            rows = recurrence._Rows(spec, 100)
            recurrence._determinant_terms(rows, "fast", None)
            assert forgot_everything(rows)
            rows = recurrence._Rows(spec, 100, shared=True)
            recurrence._determinant_terms(rows, "fast", None)
            assert rows.factored() or not forgot_everything(rows)


def _generated_fixed_order(seed):
    """A rational fixed-order spec of order 1..4 whose coefficients are
    constants, k, or ratios of linear forms in k of either sign that no
    k >= 1 zeroes."""
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    lines = [
        "mode = fixed-order",
        "ring = rational",
        f"order = {m}",
        "initial = [" + ", ".join(str(rng.randint(-3, 3)) for _ in range(m)) + "]",
    ]
    for j in range(1, m + 1):
        a, b, c, d = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 3), rng.randint(0, 3)
        lines.append(f"coeff p{j}(k) = " + rng.choice(
            [f"{a}", f"{a}/{c}", "k", f"({a}*k + {b})/({c}*k + {d})", f"({a}*k + {b})/(-{c}*k - {d})"]
        ))
    return _dsl_spec("\n".join(lines) + "\n", f"generated-{seed}")


def _fixed_order_specs():
    shipped = [
        _dsl_spec(spec_text(name), name)
        for name in available()
        if (doc := dsl.parse(spec_text(name))).ring == "rational" and doc.mode == "fixed-order"
    ]
    random_docs = [random_document(random.Random(seed)) for seed in range(200)]
    documents = [
        dsl.to_spec(doc, name=f"random-{seed}")
        for seed, doc in enumerate(random_docs)
        if doc.ring == "rational" and doc.mode == "fixed-order"
    ][:10]
    return shipped + [_generated_fixed_order(seed) for seed in range(20)] + documents


@pytest.mark.parametrize("spec", _fixed_order_specs(), ids=lambda spec: spec.name)
def test_fixed_order_rows_scale_as_pairs_scaled_row_by_row(spec):
    # a shared table's scaled int rows, made a run at a time
    # (ring.runs_scaled), against each row through ring.pairs_scaled
    n = 150
    rows = recurrence._Rows(spec, n, shared=True)
    assert rows.scaled(n) is not None
    ks = list(range(spec.first_valid_k, n + 1))
    runs = [f.vector(ks, None) for f in spec.coeffs]

    def at(v, r):
        return v[r] if type(v) is list else v

    want = {}
    for r, k in enumerate(ks):
        scale, ps = ring.pairs_scaled([at(a, r) for a, _ in runs], [at(d, r) for _, d in runs])
        want[k] = (scale, list(ps))
    assert rows.ints == want


# --- full-history coefficients that factor as h(k) * g(i) -------------------

# the last three vanish in h at k = 7, in g at i = 9, and at i = 8 in a
# divisor that the split moves to a numerator; -i/(3 - 2*k) has negative
# denominators
SEPARABLE = [
    "1",
    "1/k",
    "(2*i - 1)/(k + 3)",
    "-(3*i + 1)/(2*k + 1)",
    "k*i/(i + 1)",
    "(k + 1)/((i + 2)/(k + 4))",
    "-i/(3 - 2*k)",
    "i/(k - 7)",
    "k/(i - 9)",
    "(k + 1)/((i - 8)/(k + 2))",
]


def _separable(p, initial="1"):
    spec = _dsl_spec(f"mode = full-history\nring = rational\ninitial = {initial}\ncoeff p(k, i) = {p}\n")
    assert hasattr(spec.coeff, "factored")
    return spec


def _unfactored(spec):
    """A copy of spec whose coefficient keeps its vector form but has no
    factored form: the general path, row by row."""
    f = spec.coeff

    def coeff(k, i=None):
        return f(k, i)

    coeff.vector, coeff.ops = f.vector, f.ops
    return dataclasses.replace(spec, coeff=coeff)


def _assert_factored_matches(spec, n, method="fast"):
    """verify_spec and eval_full_history of spec give the general path's
    reports, values and counts, and reference_verify's reports; eval also
    the by-calls path's counts."""
    got = _counted(verify_spec, spec, n, method)
    assert got == _counted(verify_spec, _unfactored(spec), n, method)
    assert got[0] == _outcome(reference_verify, spec, n, method)[0]
    terms = _counted(eval_full_history, spec, n + 1)
    assert terms == _counted(eval_full_history, _unfactored(spec), n + 1)
    assert terms == _counted(eval_full_history, _by_calls(spec), n + 1)
    return got[0]


class TestFactoredForm:
    @pytest.mark.parametrize("initial", ["0", "1", "-2/3", "3/2"])
    @pytest.mark.parametrize("p", SEPARABLE)
    def test_every_method_matches_the_general_path(self, p, initial):
        spec = _separable(p, initial)
        for method, n in (("fast", 1), ("fast", 12), ("fast", 40), ("bareiss", 12), ("laplace", 7)):
            _assert_factored_matches(spec, n, method)

    @pytest.mark.parametrize("p", SEPARABLE)
    def test_only_a_fast_verify_and_eval_run_the_factored_loops(self, p, monkeypatch):
        calls = []
        for name in ("rank_one_leading_minors", "_factored_terms"):
            loop = getattr(recurrence, name)
            monkeypatch.setattr(
                recurrence, name, lambda *a, name=name, loop=loop: calls.append(name) or loop(*a)
            )
        spec = _separable(p, "-2/3")
        n = 12
        refuses = spec.coeff.factored(n) is None
        assert refuses == (p in SEPARABLE[-3:])
        for method, corrupt in (("bareiss", None), ("laplace", None), ("fast", (2, 5))):
            _counted(verify_spec, spec, n, method, corrupt)
        assert calls == []
        _counted(verify_spec, spec, n)
        _counted(eval_full_history, spec, n)
        assert calls == ([] if refuses else ["rank_one_leading_minors"] + ["_factored_terms"] * 2)

    @pytest.mark.parametrize("bits", [1, 4, 40])
    def test_both_loops_divide_out_under_a_lowered_bound(self, bits, monkeypatch):
        # each side divides its running pair by its gcd where the scale
        # outgrew it, and goes on
        monkeypatch.setattr(ring, "_MAX_EXCESS_BITS", bits)
        trips = Counter()
        for module in (recurrence, hessenberg):
            outgrew = module.pair_outgrew
            monkeypatch.setattr(
                module,
                "pair_outgrew",
                lambda *a, m=module.__name__, f=outgrew: f(*a) and not trips.update([m]),
            )
        for p in SEPARABLE[:7]:
            for initial in ("0", "1", "-2/3", "3/2"):
                report = _assert_factored_matches(_separable(p, initial), 30)
                assert report.passed
        assert trips["recdet.recurrence"] and trips["recdet.hessenberg"]

    def test_a_poly_initial_keeps_the_general_path(self, monkeypatch):
        spec = _dsl_spec("mode = full-history\nring = poly\ninitial = x\ncoeff p(k, i) = (2*i - 1)/(k + 3)\n")
        monkeypatch.setattr(recurrence, "rank_one_leading_minors", None)
        monkeypatch.setattr(recurrence, "_factored_terms", None)
        assert verify_spec(spec, 20).passed
        assert eval_full_history(spec, 20) == eval_full_history(_by_calls(spec), 20)

    def test_a_band_or_tracked_bits_keep_the_general_path(self, monkeypatch):
        spec = _separable("(2*i - 1)/(k + 3)")
        monkeypatch.setattr(recurrence, "rank_one_leading_minors", None)
        monkeypatch.setattr(recurrence, "_factored_terms", None)
        assert not verify_spec(dataclasses.replace(spec, band=2), 12).passed
        assert _assert_table_matches_reference(spec, 12, track_bits=True).passed


# --- determinant_terms' band columns against the matrix ---------------------


def _counted(fn, *args, track_bits=False):
    """fn(*args), or the error's type, message and k, with COUNTER's adds,
    muls, divs and max_bits."""
    COUNTER.reset(track_bits=track_bits)
    try:
        value = fn(*args)
    except RecdetError as exc:
        value = (type(exc), str(exc), getattr(exc, "k", None))
    counts = COUNTER.adds, COUNTER.muls, COUNTER.divs, COUNTER.max_bits
    COUNTER.reset()
    return value, counts


def _matrix_minors(spec, n):
    """The leading minors of Theorem 1's or 2's matrix by the ring kernel
    alone, with no int kernel."""
    m = spec_matrix(spec, n)
    band = n if m.band is None else m.band
    return _ring_leading_minors(*_matrix_columns(m.entries), n, band, [ONE])


def _matrix_terms(spec, n):
    minors = _matrix_minors(spec, n)
    if isinstance(spec, FullHistorySpec):
        return [ring.ring_mul(spec.initial, d) for d in minors]
    return minors


def _assert_same_values(got, want):
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    assert list(map(ring.render_value, got)) == list(map(ring.render_value, want))


def _assert_columns_match_matrix(spec, n):
    """The band columns give the matrix's minors and determinant_terms
    the terms _matrix_terms takes from the matrix: values, types,
    renderings and COUNTER.  The band columns' int minors come as pairs
    (A, T), T > 0, which determinant_terms turns into Fractions."""
    got, counts = _counted(recurrence._band_minors, recurrence._Rows(spec, n))
    want, want_counts = _counted(_matrix_minors, spec, n)
    assert all(v[1] > 0 for v in got if type(v) is tuple)
    _assert_same_values(list(map(ring.pair_value, got)), want)
    assert counts == want_counts
    got, counts = _counted(determinant_terms, spec, n)
    want, want_counts = _counted(_matrix_terms, spec, n)
    _assert_same_values(got, want)
    assert counts == want_counts
    return got


def _fractional_params(n):
    # zero, negative and fractional parameters
    return tuple(Fraction(j % 7 - 3, j % 4 + 1) for j in range(n))


def _fractional_poly_document(rng):
    """A random poly-ring document whose every coefficient is its random
    expression over 3 plus x/(k + 1): fractional, x-bearing, k-dependent."""
    doc = random_document(rng)
    while doc.ring != "poly":
        doc = random_document(rng)
    extra = dsl.Div(dsl.Var("x"), dsl.Add(dsl.Var("k"), dsl.IntLit(1)))
    return dataclasses.replace(
        doc,
        coeffs=tuple(
            dataclasses.replace(c, expr=dsl.Add(dsl.Div(c.expr, dsl.IntLit(3)), extra))
            for c in doc.coeffs
        ),
    )


class TestBandColumns:
    """determinant_terms by the fast method reads band columns from the
    spec, with no matrix: against the ring kernel on Theorem 1's and 2's
    matrices."""

    @pytest.mark.parametrize("n", [1, 2, 3, 60, 200])
    @pytest.mark.parametrize("fid", list(FamilyId))
    def test_catalog_families(self, fid, n):
        params = _fractional_params(n) if fid in PARAM_FAMILIES else None
        spec = family_spec(fid, params)
        got = _assert_columns_match_matrix(spec, n)
        if n <= 60:
            assert got == list(family_oracles(fid, n, params))
        if isinstance(spec, FullHistorySpec) and spec.band is not None:
            # eval reads the band alone, and gives what whole rows give
            whole_rows = dataclasses.replace(spec, band=None)
            assert eval_full_history(spec, n + 1) == eval_full_history(whole_rows, n + 1)

    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_poly_ring_documents(self, seed):
        rng = random.Random(seed)
        spec = dsl.to_spec(_fractional_poly_document(rng))
        for n in (1, 2, 7, 25):
            _assert_columns_match_matrix(spec, n)
        if isinstance(spec, FullHistorySpec):
            # banded: the build and the columns read the band cells only
            for band in (0, 1, 3):
                _assert_columns_match_matrix(dataclasses.replace(spec, band=band), 25)

    @pytest.mark.parametrize("name", available())
    def test_shipped_specs(self, name):
        spec = _dsl_spec(spec_text(name), name)
        for n in (1, 4, 40):
            _assert_columns_match_matrix(spec, n)

    @pytest.mark.parametrize(
        "value",
        [
            lambda k, i: Polynomial((Fraction(1, k + 2 * i), Fraction(1, i))),
            lambda k, i: Fraction(1, i),
            # rational leading columns, then polynomial ones
            lambda k, i: Fraction(1, i) if k < 6 else Polynomial((Fraction(1, i), 1)),
        ],
        ids=["poly", "rational", "rational-then-poly"],
    )
    def test_the_ring_path_takes_over_from_the_minors_so_far(self, value, monkeypatch):
        # row-dependent denominators outgrow a low bound within a few
        # columns; the ring kernel goes on from the next column, and no
        # cell is read twice
        monkeypatch.setattr(ring, "_MAX_EXCESS_BITS", 16)
        monkeypatch.setattr(ring, "_MAX_POLY_EXCESS_BITS", 16)
        kernel = recurrence.scaled_leading_minors
        lengths = []

        def spy(*args):
            minors = kernel(*args)
            lengths.append(len(minors))
            return minors

        monkeypatch.setattr(recurrence, "scaled_leading_minors", spy)
        n = 30
        spec, calls = _counting_full(value)
        _assert_columns_match_matrix(spec, n)
        assert all(0 < length < n for length in lengths), lengths
        calls.clear()
        determinant_terms(spec, n)
        assert calls == Counter({(k, i): 1 for k in range(1, n + 1) for i in range(1, k + 1)})

    def test_columns_are_read_in_band_once_each(self):
        n, band = 20, 2
        spec, calls = _counting_full(
            lambda k, i: Polynomial((Fraction(k, i), 1)) if k - i <= band else ONE - ONE,
            band=band,
        )
        determinant_terms(spec, n)
        assert calls == Counter(
            {(k, i): 1 for k in range(1, n + 1) for i in range(1, k + 1) if k - i <= band}
        )

    def test_eval_reads_in_band_once_each(self):
        n, band = 20, 2
        spec, calls = _counting_full(
            lambda k, i: Polynomial((Fraction(k, i), 1)) if k - i <= band else ONE - ONE,
            band=band,
        )
        eval_full_history(spec, n + 1)
        assert calls == Counter(
            {(k, i): 1 for k in range(1, n + 1) for i in range(1, k + 1) if k - i <= band}
        )

    @pytest.mark.parametrize("ring_name", ["rational", "poly"])
    @pytest.mark.parametrize("seed", range(8))
    def test_eval_within_a_kept_band_is_eval_of_whole_rows(self, seed, ring_name):
        # p of a random document, zero outside band b: the same terms, or
        # the same error, whether eval reads the band or whole rows
        rng = random.Random(seed)
        doc = random_document(rng)
        while doc.ring != ring_name or doc.mode != "full-history":
            doc = random_document(rng)
        spec = dsl.to_spec(doc)
        f = spec.coeff
        for band in (0, 1, 2, 3):
            banded = dataclasses.replace(
                spec, coeff=lambda k, i, b=band: f(k, i) if k - i <= b else ONE - ONE, band=band
            )
            whole_rows = dataclasses.replace(banded, band=None)
            for n in (1, 2, 5, 25):
                assert _direct(banded, n)[0] == _direct(whole_rows, n)[0]

    @pytest.mark.parametrize(
        "spec",
        [
            FullHistorySpec(initial=ONE, coeff=lambda k, i: _never_read(k) if k == 3 else ONE),
            FixedOrderSpec(
                order=1, initials=(ONE,), coeffs=(lambda k: _never_read(k) if k == 3 else ONE,)
            ),
        ],
        ids=["full-history", "fixed-order"],
    )
    def test_eval_of_a_huge_n_raises_the_coefficients_error(self, spec):
        # nothing in proportion to n is allocated before the first row
        run = eval_full_history if isinstance(spec, FullHistorySpec) else eval_fixed_order
        with pytest.raises(AssertionError, match="coefficient read at k = 3"):
            run(spec, 10**12)

    @pytest.mark.parametrize(
        "name, max_bits",
        [
            ("naturals", 6),
            ("fibonacci-poly", 39),
            ("fibonacci-num", 42),
            ("lucas-poly", 40),
            ("chebyshev-t", 73),
            ("chebyshev-u", 74),
            ("hermite", 177),
            ("legendre", 126),
            ("laguerre", 273),
            ("ode-example", 251),
        ],
    )
    def test_tracked_runs_keep_their_max_bits(self, name, max_bits, monkeypatch):
        # bits tracked: the matrix and its ring kernel, as before
        spec = family_spec(FamilyId(name))
        terms, counts = _counted(determinant_terms, spec, 60, track_bits=True)
        assert counts[3] == max_bits
        untracked, untracked_counts = _counted(determinant_terms, spec, 60)
        _assert_same_values(untracked, terms)
        assert untracked_counts[:3] == counts[:3]
        monkeypatch.setattr(recurrence, "_band_minors", None)
        assert _counted(determinant_terms, spec, 60, track_bits=True) == (terms, counts)

    def test_an_initial_value_of_one_skips_its_products_only_as_a_fraction(self):
        # a Polynomial 1 turns Fraction minors into Polynomials: its
        # products stay; a Fraction 1 gives the minors themselves
        coeff = lambda k, i: Fraction(k, i + 1)  # noqa: E731
        for initial in (ONE, Polynomial.one(), Fraction(2, 3)):
            spec = FullHistorySpec(initial=initial, coeff=coeff)
            got = _assert_columns_match_matrix(spec, 12)
            assert {type(v) for v in got} == {type(initial)}

    def test_a_column_error_is_raised_in_the_builds_order(self):
        # x/(k + 3i - 22) vanishes at (k, i) = (7, 5), ..., (19, 1): the
        # columns meet k = 7 first, the build k = 19 at n = 20
        spec = _dsl_spec("mode = full-history\nring = poly\ninitial = 1\ncoeff p(k, i) = x/(k + 3*i - 22)\n")
        for n, k in ((20, 19), (12, 10), (8, 7)):
            got = _counted(determinant_terms, spec, n)
            assert got == _counted(spec_matrix, spec, n)
            assert got[0] == (DivisionByZero, f"denominator is zero at k = {k}", k)
            # verify counts what the build from an empty table counts
            assert _outcome(verify_spec, spec, n) == _outcome(reference_verify, spec, n)
        assert _counted(determinant_terms, spec, 6)[0] == _matrix_terms(spec, 6)

    def test_what_the_build_coerces_or_refuses_goes_to_the_build(self):
        ints = FullHistorySpec(initial=ONE, coeff=lambda k, i: k - i + 1)
        _assert_same_values(determinant_terms(ints, 9), _matrix_terms(ints, 9))
        floats = FullHistorySpec(initial=ONE, coeff=lambda k, i: 0.5)
        with pytest.raises(RecdetError, match="exact ring values, got float"):
            determinant_terms(floats, 3)
        negative_band = FullHistorySpec(initial=ONE, coeff=lambda k, i: ONE, band=-1)
        with pytest.raises(RecdetError, match="band must be at least 0, got -1"):
            determinant_terms(negative_band, 3)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "{path}", "--max-n", "20"], "error: denominator is zero at k = 19\n"),
            (["verify", "{path}", "--max-n", "12", "--method", "bareiss"], "error: denominator is zero at k = 10\n"),
            (["eval", "{path}", "--n", "21"], "error: denominator is zero at k = 7\n"),
        ],
    )
    def test_poly_ring_errors_through_the_cli(self, argv, message, tmp_path, capsys):
        path = tmp_path / "vanishing.rec"
        path.write_text(
            "mode = full-history\nring = poly\ninitial = 1\ncoeff p(k, i) = x/(k + 3*i - 22)\n",
            encoding="utf-8",
        )
        assert cli.main([a.format(path=path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message
