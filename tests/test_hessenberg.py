"""SquareMatrix, the three determinant algorithms, and the emitters."""

import contextlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from recdet import dsl, hessenberg, ring
from recdet.errors import NotHessenberg, RecdetError, SizeTooLarge
from recdet.hessenberg import (
    LAPLACE_SIZE_LIMIT,
    SquareMatrix,
    _matrix_columns,
    _ring_leading_minors,
    det_bareiss,
    det_hessenberg_fast,
    det_laplace,
    hessenberg_leading_minors,
    identity,
    leading_minors,
    matrix_from_json,
    matrix_to_json,
    matrix_to_latex,
    matrix_to_text,
    random_hessenberg,
)
from recdet.families import FamilyId, family_spec
from recdet.recurrence import (
    FixedOrderSpec,
    FullHistorySpec,
    determinant_terms,
    theorem1_matrix,
    theorem2_matrix,
)
from recdet.ring import COUNTER, MAX_PARSE_DEGREE, Polynomial, parse_value, render_value
from recdet.cli import main
from recdet.specfiles import available, spec_path, spec_text


X = Polynomial.x()


class TestStructure:
    def test_rows_must_be_square(self):
        for rows in ([[1, 2], [3, 4], [5, 6]], [[1, 2], [3]], []):
            with pytest.raises(RecdetError):
                SquareMatrix(rows)

    def test_integer_entries_are_coerced_to_fractions(self):
        m = SquareMatrix([[1, 2], [3, 4]])
        assert m.entries[0][1] == Fraction(2)
        assert isinstance(m.entries[0][0], Fraction)

    def test_leading_submatrix_reads_its_own_shape(self):
        m = SquareMatrix([[1, 2, 0], [-1, 3, 4], [0, -1, 5]])
        sub = m.leading_submatrix(2)
        assert sub.size == 2
        assert sub.entries == ((Fraction(1), Fraction(2)), (Fraction(-1), Fraction(3)))
        # a cell below the subdiagonal outside the leading block
        general = m.with_entry(2, 0, 1)
        with pytest.raises(NotHessenberg, match="row 3, column 1 below"):
            hessenberg_leading_minors(general)
        assert hessenberg_leading_minors(general.leading_submatrix(2)) == [1, 5]


def _first_bad_cell(rows, band=None):
    """The NotHessenberg text of a cell-by-cell scan, or None: the first
    nonzero cell below the first subdiagonal, or with a band, the first
    one above the band."""
    n = len(rows)
    if band is None:
        cells = [(r, c) for r in range(2, n) for c in range(r - 1)]
        where = "below the first subdiagonal"
    else:
        cells = [(r, c) for r in range(n) for c in range(r + band + 1, n)]
        where = f"above the declared band {band}"
    for r, c in cells:
        if rows[r][c] != 0:
            return f"nonzero entry at row {r + 1}, column {c + 1} {where}"
    return None


class TestZeroChecks:
    """SquareMatrix's zero-pattern scans on every kind of zero cell."""

    ZERO_KINDS = {
        "shared-zero": lambda: hessenberg.ZERO,
        "separate-fractions": lambda: Fraction(0),
        "zero-polynomials": Polynomial.zero,
        "ints": lambda: 0,
    }

    @pytest.mark.parametrize("kind", list(ZERO_KINDS))
    def test_the_first_bad_cell_is_named_for_every_kind_of_zero(self, kind):
        # a cell above the band is refused at construction; the shape is
        # inferred, and the fast route refuses a cell below the subdiagonal
        zero = self.ZERO_KINDS[kind]
        n = 7
        bad_cells = [None, (5, 1), (6, 3), (2, 6), (0, 4)]
        for bad in bad_cells:
            for extra in [None, (6, 0), (1, 6)]:
                rows = [
                    [
                        Fraction(r + c + 1) if r <= c + 1 and c - r <= 2 else zero()
                        for c in range(n)
                    ]
                    for r in range(n)
                ]
                for cell in (bad, extra):
                    if cell is not None:
                        rows[cell[0]][cell[1]] = Fraction(3, 4)
                for band in (None, 2):
                    above = None if band is None else _first_bad_cell(rows, band)
                    if above is not None:
                        with pytest.raises(NotHessenberg) as info:
                            SquareMatrix(rows, band)
                        assert str(info.value) == above
                        continue
                    m = SquareMatrix(rows, band)
                    assert m.entries == tuple(map(tuple, rows))
                    below = _first_bad_cell(rows)
                    assert (m._below_subdiagonal is None) == (below is None)
                    if below is None:
                        assert det_hessenberg_fast(m) == det_laplace(m)
                        continue
                    with pytest.raises(NotHessenberg) as info:
                        det_hessenberg_fast(m)
                    assert str(info.value) == below

    def test_int_and_bool_cells_are_coerced(self):
        m = SquareMatrix([[True, 2], [-1, False]])
        assert m.entries == ((1, 2), (-1, 0))
        assert {type(v) for row in m.entries for v in row} == {Fraction}
        mixed = SquareMatrix([[Fraction(1, 2), X], [True, 0]])
        assert mixed.entries[1] == (Fraction(1), Fraction(0))
        assert type(mixed.entries[1][0]) is Fraction
        assert mixed.entries[0][1] is X

    def test_other_cells_are_refused(self):
        with pytest.raises(RecdetError, match="exact ring values, got float"):
            SquareMatrix([[Fraction(1), 0.5], [-1, 1]])


class TestDeterminants:
    def test_identity_has_determinant_one(self):
        for n in (1, 2, 5):
            assert det_hessenberg_fast(identity(n)) == 1

    def test_size_one(self):
        m = SquareMatrix([[Fraction(-7, 3)]])
        assert det_laplace(m) == det_bareiss(m) == det_hessenberg_fast(m) == Fraction(-7, 3)

    def test_continuant_example(self):
        # dets of these tridiagonal matrices are the continuants K(1), K(1,2), K(1,2,3)
        m = SquareMatrix([[1, -1, 0], [1, 2, -1], [0, 1, 3]])
        assert hessenberg_leading_minors(m) == [1, 3, 10]

    def test_polynomial_determinant(self):
        m = SquareMatrix([[X, 1], [-1, X]])
        assert det_bareiss(m) == Polynomial((1, 0, 1))
        assert det_hessenberg_fast(m) == Polynomial((1, 0, 1))

    def test_triple_agreement_on_random_rational_matrices(self):
        rng = random.Random(11)
        for _ in range(40):
            m = random_hessenberg(rng.randint(1, 6), rng)
            assert det_laplace(m) == det_bareiss(m) == det_hessenberg_fast(m)

    def test_bareiss_equals_fast_on_random_polynomial_matrices(self):
        rng = random.Random(12)
        for _ in range(15):
            m = random_hessenberg(rng.randint(1, 4), rng, ring="poly", max_degree=2)
            assert det_bareiss(m) == det_hessenberg_fast(m)

    def test_bareiss_handles_zero_pivots_with_a_row_swap(self):
        m = SquareMatrix([[0, 1], [1, 0]])
        assert det_bareiss(m) == -1
        m = SquareMatrix([[0, 2, 3], [5, 0, 1], [0, 4, 0]])
        assert det_bareiss(m) == _ring_reference(m) == det_laplace(m) == 60
        # dense and upper-Hessenberg matrices with a zero diagonal
        rng = random.Random(9)
        for n in range(2, LAPLACE_SIZE_LIMIT + 1):
            for upper in (False, True):
                m = _integral(rng, n, upper, 0.3)
                for k in range(n):
                    m = m.with_entry(k, k, 0)
                assert det_bareiss(m) == det_laplace(m)

    def test_bareiss_detects_singular_matrices(self):
        m = SquareMatrix([[0, 1], [0, 1]])
        assert det_bareiss(m) == 0
        m = SquareMatrix([[1, 1, 1], [1, 1, 1], [0, 1, 1]])
        assert det_bareiss(m) == det_laplace(m) == 0
        # a zero column: no row can repair its pivot
        rows = [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8], [9, 7, 9, 3]]
        for r in rows:
            r[2] = 0
        m = SquareMatrix(rows)
        assert det_bareiss(m) == det_laplace(m) == 0

    def test_determinant_multiplies_like_a_sign_under_row_scaling(self):
        m = SquareMatrix([[2, 3], [-1, 4]])
        scaled = SquareMatrix([[4, 6], [-1, 4]])
        assert det_bareiss(scaled) == 2 * det_bareiss(m)

    def test_laplace_refuses_large_sizes(self):
        with pytest.raises(SizeTooLarge):
            det_laplace(identity(9))

    def test_fast_takes_any_matrix_of_upper_hessenberg_shape(self):
        # every 2 x 2 matrix is upper Hessenberg
        assert det_hessenberg_fast(SquareMatrix([[1, 2], [3, 4]])) == -2
        m = SquareMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        with pytest.raises(NotHessenberg) as info:
            det_hessenberg_fast(m)
        assert str(info.value) == "nonzero entry at row 3, column 1 below the first subdiagonal"
        assert det_bareiss(m) == det_laplace(m) == -3

    def test_fast_multiplication_count_is_quadratic_exactly(self):
        for n in (5, 16, 40):
            m = identity(n)
            COUNTER.reset()
            det_hessenberg_fast(m)
            assert COUNTER.muls == (3 * n * n - n) // 2
        COUNTER.reset()

    def test_banded_multiplication_count_is_exact(self):
        # d_c sums over j >= c - b only: n + 3 * sum_c min(c, b) products
        for n in (5, 16, 40):
            for b in (0, 1, 3, n - 1):
                m = SquareMatrix(identity(n).entries, b)
                COUNTER.reset()
                assert det_hessenberg_fast(m) == 1
                assert COUNTER.muls == n + 3 * sum(min(c, b) for c in range(n))
            assert COUNTER.muls == (3 * n * n - n) // 2  # b = n - 1 is dense
        COUNTER.reset()


def _banded(rng, n, band, kind):
    """An n x n upper-Hessenberg matrix with a declared band, its in-band
    cells drawn by kind: integral, fractional, or fractional with about
    half of them zero (the subdiagonal included)."""
    def cell():
        if kind == "integral":
            return Fraction(rng.randint(-5, 5))
        if kind == "sparse" and rng.random() < 0.5:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    rows = [
        [
            cell() if r <= c + 1 and (band is None or c - r <= band) else 0
            for c in range(n)
        ]
        for r in range(n)
    ]
    return SquareMatrix(rows, band)


def _counted(fn, *args, track_bits=False):
    COUNTER.reset(track_bits=track_bits)
    value = fn(*args)
    ops = COUNTER.adds, COUNTER.muls, COUNTER.divs
    COUNTER.reset()
    return value, ops


def _route(m):
    """The kernel form that m's accessor hands out: "ints" or "packed",
    or None, which keeps the ring paths."""
    form = m._kernel_form()
    if form is None:
        return None
    return "ints" if form.value is Fraction else "packed"


def _slot_width(m):
    """B of m's packed kernel form."""
    assert _route(m) == "packed"
    return m._kernel_form().value.keywords["b"]


def _kernel_minors(m):
    """hessenberg_leading_minors(m) with no ring recurrence: the minors
    the int kernels take before they would hand over, as ring values."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hessenberg, "_ring_leading_minors", lambda column, subs, n, band, d, read=(): d[1:])
        return hessenberg_leading_minors(m)


@contextlib.contextmanager
def _handovers():
    """A log of the ring recurrence's takeovers in hessenberg_leading_minors:
    for each, the minors it goes on from and the cells of the columns
    that come as already read."""
    log = []
    tail = hessenberg._ring_leading_minors

    def spy(column, subs, n, band, d, read=()):
        log.append((list(d), list(read)))
        return tail(column, subs, n, band, d, read)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hessenberg, "_ring_leading_minors", spy)
        yield log


@contextlib.contextmanager
def _ring_paths():
    """No kernel form and no int columns: every algorithm on its ring
    path, with bits untracked."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SquareMatrix, "_kernel_form", lambda self: None)
        mp.setattr(hessenberg, "scaled_leading_minors", lambda columns, band: [])
        yield


class TestIntegerKernel:
    """The int recurrence on column-scaled Fractions against the ring path."""

    def test_minors_and_op_counts_equal_the_ring_path(self):
        rng = random.Random(6)
        for n in range(1, 21):
            for band in (None, 0, 1, 3):
                for kind in ("integral", "fractional", "sparse"):
                    m = _banded(rng, n, band, kind)
                    b = n if band is None else band
                    fast, fast_ops = _counted(_kernel_minors, m)
                    ring, ring_ops = _counted(
                        _ring_leading_minors, *_matrix_columns(m.entries), n, b, [Fraction(1)]
                    )
                    assert fast == ring, (n, band, kind)
                    assert all(type(d) is Fraction for d in fast)
                    assert fast_ops == ring_ops
                    assert _counted(hessenberg_leading_minors, m) == (ring, ring_ops)

    def test_a_zero_subdiagonal_splits_the_determinant(self):
        rows = [[Fraction(1, 2), 3, 0], [0, Fraction(2, 3), 5], [0, -1, Fraction(7, 4)]]
        m = SquareMatrix(rows, band=1)
        # d_3 = d_1 * det [[2/3, 5], [-1, 7/4]], the zero cutting the chain
        assert _kernel_minors(m) == [
            Fraction(1, 2),
            Fraction(1, 3),
            Fraction(1, 2) * (Fraction(2, 3) * Fraction(7, 4) + 5),
        ]

    def test_the_ring_recurrence_takes_over_at_a_polynomial_column(self):
        # column 1 holds a Polynomial: int_scaled refuses it, and the ring
        # recurrence goes on from d_1 with the column's cells as read
        m = SquareMatrix([[1, X, 2], [-1, Fraction(1, 2), 1], [0, -1, 3]])
        ring = _counted(_ring_leading_minors, *_matrix_columns(m.entries), 3, 3, [Fraction(1)])
        assert [type(d) for d in ring[0]] == [Fraction, Polynomial, Polynomial]
        assert _kernel_minors(m) == ring[0][:1]
        with _handovers() as log:
            got = _counted(hessenberg_leading_minors, m)
        assert got == ring and [type(d) for d in got[0]] == [type(d) for d in ring[0]]
        assert log == [([1, 1], [[X, Fraction(1, 2)]])]
        assert [type(v) for v in log[0][1][0]] == [Polynomial, Fraction]

    def test_the_ring_path_takes_over_past_the_excess_bound(self, monkeypatch):
        # denominators that depend on the row: the column scales outgrow
        # the reduced minors at once
        n = 20
        rows = [
            [Fraction(1, r + 1) if r <= c + 1 else 0 for c in range(n)] for r in range(n)
        ]
        m = SquareMatrix(rows)
        monkeypatch.setattr(ring, "_MAX_EXCESS_BITS", 40)
        assert 0 < len(_kernel_minors(m)) < n
        want = _counted(_ring_leading_minors, *_matrix_columns(m.entries), n, n, [Fraction(1)])
        assert _counted(hessenberg_leading_minors, m) == want

    def test_bit_tracking_reports_the_ring_paths_max_bits(self):
        m = _banded(random.Random(7), 20, 3, "fractional")
        COUNTER.reset(track_bits=True)
        minors = hessenberg_leading_minors(m)
        got = COUNTER.max_bits
        COUNTER.reset(track_bits=True)
        assert _ring_leading_minors(*_matrix_columns(m.entries), 20, 3, [Fraction(1)]) == minors
        want = COUNTER.max_bits
        COUNTER.reset()
        assert got == want > 0


def _mixed_case(rng, n, band):
    """An upper-Hessenberg matrix with a declared band whose cells on and
    above the subdiagonal, the subdiagonal included, mix Fractions (zero,
    integral, fractional) with Polynomials (integral, fractional)."""

    def cell():
        kind = rng.randrange(5)
        if kind == 0:
            return Fraction(0)
        if kind == 1:
            return Fraction(rng.randint(-4, 4))
        if kind == 2:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        if kind == 4:
            coeffs = [Fraction(a, rng.randint(1, 4)) for a in coeffs]
        return Polynomial(coeffs)

    rows = [
        [
            cell() if r <= c + 1 and (band is None or c - r <= band) else hessenberg.ZERO
            for c in range(n)
        ]
        for r in range(n)
    ]
    return SquareMatrix(rows, band)


class TestOneColumnRoute:
    """hessenberg_leading_minors drives every column through
    column_minors, whichever cells a matrix mixes: against the ring
    path, the same values, the same type for every minor and the same
    adds and muls; Bareiss and Laplace against theirs."""

    def test_mixed_matrices_against_the_ring_paths(self):
        for seed in range(1500):
            rng = random.Random(seed)
            n = rng.randint(1, 8)
            band = rng.choice([None, *range(n)])
            m = _mixed_case(rng, n, band)
            b = n if band is None else band
            got, ops = _counted(hessenberg_leading_minors, m)
            want, want_ops = _counted(
                _ring_leading_minors, *_matrix_columns(m.entries), n, b, [Fraction(1)]
            )
            assert got == want, seed
            assert [type(v) for v in got] == [type(v) for v in want], seed
            assert ops == want_ops, seed
            det, ring_det = det_bareiss(m), _ring_reference(m)
            assert (det, type(det)) == (ring_det, type(ring_det)), seed
            det, ring_det = det_laplace(m), _recursive_laplace(m.entries)
            assert (det, type(det)) == (ring_det, type(ring_det)), seed

    def test_a_polynomial_subdiagonal_under_fraction_columns(self):
        # band 0: the subdiagonal never enters the recurrence, so every
        # minor is a Fraction; band 1: the minor after it is a Polynomial
        lower = [[Fraction(1, 2), 0, 0], [X, Fraction(2, 3), 0], [0, -1, Fraction(7, 4)]]
        upper = [[Fraction(1, 2), 3, 0], [X, Fraction(2, 3), 5], [0, -1, Fraction(7, 4)]]
        for band, rows, types in (
            (0, lower, [Fraction] * 3),
            (1, upper, [Fraction, Polynomial, Polynomial]),
        ):
            m = SquareMatrix(rows, band)
            columns = _matrix_columns(m.entries)
            want = _counted(_ring_leading_minors, *columns, 3, band, [Fraction(1)])
            got = _counted(hessenberg_leading_minors, m)
            assert got == want
            assert [type(v) for v in got[0]] == [type(v) for v in want[0]] == types

    def test_a_poly_familys_matrix_takes_the_ring_recurrence_throughout(self):
        # Theorem 1's matrix of hermite mixes the Fraction -1s of its
        # subdiagonal with Polynomial cells, so it has no kernel form, and
        # int_scaled refuses its first column: the ring recurrence reads
        # every column, the first as column_minors read it
        spec = family_spec(FamilyId.HERMITE)
        m = theorem1_matrix(spec, 60)
        assert m._kernel_form() is None
        want, want_ops = _counted(
            _ring_leading_minors, *_matrix_columns(m.entries), 60, 1, [Fraction(1)]
        )
        with _handovers() as log:
            got, ops = _counted(hessenberg_leading_minors, m)
        assert log == [([1], [[m.entries[0][0]]])]
        terms, terms_ops = _counted(determinant_terms, spec, 60)
        assert got == want == terms
        assert [type(v) for v in got] == [type(v) for v in terms] == [Polynomial] * 60
        # determinant_terms multiplies each minor by a(1) = 1 once more
        assert ops == want_ops == (terms_ops[0], terms_ops[1] - 60, terms_ops[2])


class TestListKernel:
    """scaled_leading_minors over polynomials as int coefficient lists."""

    def test_a_window_divides_by_what_its_scales_share(self):
        # d_1 = (1 + 2x)/6 and d_2 = 3x/6 at total 36: both scales share 6
        d = [[1], [6, 12], [0, 18]]
        shares = [1, 6, 6]
        assert hessenberg._divide_window(d, shares, 1, 36) == 6
        assert d == [[1], [1, 2], [0, 3]] and shares == [1, 1, 1]
        # a window that holds d_0 shares nothing
        assert hessenberg._divide_window(d, [1, 6, 6], 0, 36) == 36
        assert d == [[1], [1, 2], [0, 3]]

    def test_legendre_scales_stay_near_the_reduced_denominators(self, monkeypatch):
        # the columns' scales multiply to n!, the minors' denominators
        # are powers of 2
        divide = hessenberg._divide_window
        total_bits = []

        def spy(d, shares, lo, total):
            total = divide(d, shares, lo, total)
            total_bits.append(total.bit_length())
            return total

        monkeypatch.setattr(hessenberg, "_divide_window", spy)
        minors = determinant_terms(family_spec(FamilyId.LEGENDRE), 200)
        assert len(total_bits) == 200
        assert total_bits[-1] - minors[-1].den.bit_length() < 16


class TestHornerOrder:
    """The ring kernel in Horner order against the order it keeps while
    bits are tracked: the same minors, of the same types and renderings,
    and the same COUNTER deltas."""

    def _agree(self, m):
        n = m.size
        band = n if m.band is None else m.band
        ring_path = (_ring_leading_minors, *_matrix_columns(m.entries), n, band)
        got, ops = _counted(*ring_path, [Fraction(1)])
        want, want_ops = _counted(*ring_path, [Fraction(1)], track_bits=True)
        # the whole fast route, int kernel first, against the tracked one
        fast, fast_ops = _counted(hessenberg_leading_minors, m)
        for minors in (got, fast):
            assert minors == want
            assert [type(d) for d in minors] == [type(d) for d in want]
            assert list(map(render_value, minors)) == list(map(render_value, want))
        assert ops == fast_ops == want_ops
        assert _counted(hessenberg_leading_minors, m, track_bits=True) == (want, want_ops)
        return want

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(1, 12),
        kind=st.sampled_from(("integral", "fractional", "poly")),
        band=st.sampled_from((None, 0, 1, 3)),
        zeros=st.sampled_from((0.0, 0.1, 0.4)),
        vanishing=st.lists(st.integers(0, 11), max_size=3, unique=True),
    )
    def test_random_matrices(self, seed, n, kind, band, zeros, vanishing):
        # zeros = 0.4 makes sparse matrices, zero subdiagonal cells included
        m = _hessenberg_case(seed, n, kind, band, zeros)
        self._agree(_vanishing_minor(m, *(k for k in vanishing if k < n)))

    def test_zero_subdiagonal_cells_and_zero_minors(self):
        rng = random.Random(18)
        for kind in ("integral", "fractional", "poly"):
            for band in (None, 0, 1, 3):
                m = _hessenberg_case(rng.random(), 9, kind, band, 0.0)
                for r in range(2, 9, 3):
                    m = m.with_entry(r, r - 1, 0)
                minors = self._agree(_vanishing_minor(m, 1, 5))
                assert minors[1] == minors[5] == 0

    def test_polynomial_degrees_one_and_two(self):
        rng = random.Random(19)
        for degree in (1, 2):
            for n in (1, 2, 7, 16):
                self._agree(random_hessenberg(n, rng, ring="poly", max_degree=degree))

    def test_a_polynomial_one_under_the_diagonal_keeps_its_product(self):
        # -Polynomial(-1) equals 1 but is no Fraction: multiplying by it
        # turns the Fraction minors into Polynomials, so it is not skipped
        m = SquareMatrix([[2, 3, 1], [Polynomial((-1,)), 5, Fraction(1, 2)], [0, -1, 4]])
        minors = self._agree(m)
        assert [type(d) for d in minors] == [Fraction, Polynomial, Polynomial]
        # the Fraction -1 of Theorems 1 and 2 is skipped, with the same result
        self._agree(m.with_entry(1, 0, -1))


def _integral_json(seed, n):
    """An integral upper-Hessenberg matrix as JSON, with zeros."""
    return matrix_to_json(_hessenberg_case(seed, n, "integral", None, 0.2))


class TestIntCache:
    """SquareMatrix._kernel_form's ints: filled by matrix_from_json or
    computed on first use, read by fast, Bareiss and Laplace, never while
    bits are tracked."""

    def test_matrix_from_json_fills_the_cells(self):
        for seed in range(10):
            m = matrix_from_json(_integral_json(seed, seed + 1))
            assert m._kernel.rows == m.entries and m._kernel.value is Fraction
            assert {type(v) for row in m._kernel.rows for v in row} == {int}
            assert m._kernel_form() is m._kernel
            # the same cells as a matrix without the parser computes
            assert SquareMatrix(m.entries)._kernel_form() == m._kernel

    def test_random_hessenberg_keeps_the_ints_it_draws(self):
        for ring_name in ("rational", "poly"):
            for size in (1, 2, 3, 9, 40):
                m = random_hessenberg(size, random.Random(size), ring=ring_name)
                # the same draws in the same order as cell by cell
                rng = random.Random(size)
                for r, row in enumerate(m.entries):
                    for c, v in enumerate(row):
                        if r <= c + 1:
                            want = [rng.randint(-5, 5) for _ in range(2 if ring_name == "poly" else 1)]
                            assert v == (Polynomial(want) if ring_name == "poly" else want[0])
                        else:
                            assert v is hessenberg.ZERO
                form = m._kernel_form()
                fresh = SquareMatrix(m.entries)._kernel_form()
                if ring_name == "poly":
                    # B is at most 264 here, within the packing gate; each
                    # packed form's value is a partial of its own
                    assert _route(m) == "packed" and form.rows == fresh.rows
                    assert _slot_width(m) == fresh.value.keywords["b"]
                else:
                    assert form == fresh
                    assert {type(v) for row in form.rows for v in row} == {int}

    def test_other_json_gets_no_cache(self):
        rng = random.Random(20)
        for kind in ("fractional", "poly"):
            text = matrix_to_json(_hessenberg_case(rng.random(), 6, kind, None, 0.0))
            m = matrix_from_json(text)
            assert m._kernel == () and _route(m) is None
            assert det_hessenberg_fast(m) == det_bareiss(m) == det_laplace(m)
        # one fractional cell in the band
        doc = {"size": 2, "ring": "rational", "entries": [["1", "1/2"], ["-1", "3"]]}
        assert _route(matrix_from_json(json.dumps(doc))) is None
        # integral cells above a nonzero one below the subdiagonal: no shape to use
        rows = [["1", "2", "3"], ["4", "5", "6"], ["7", "8", "10"]]
        doc = {"size": 3, "ring": "rational", "entries": rows}
        assert det_bareiss(matrix_from_json(json.dumps(doc))) == -3

    def test_tracking_bits_ignores_the_cache(self):
        text = _integral_json(21, 12)
        for cached in (True, False):
            # the parser's matrix has the cells; a copy has none yet
            m = matrix_from_json(text)
            if not cached:
                m = SquareMatrix(m.entries)
            COUNTER.reset(track_bits=True)
            try:
                assert m._kernel_form() is None
                fast = det_hessenberg_fast(m)
                fast_bits = COUNTER.max_bits
                COUNTER.reset(track_bits=True)
                bareiss = det_bareiss(m)
                bareiss_bits = COUNTER.max_bits
                COUNTER.reset(track_bits=True)
                want = _ring_leading_minors(*_matrix_columns(m.entries), 12, 12, [Fraction(1)])[-1]
                want_bits = COUNTER.max_bits
                COUNTER.reset(track_bits=True)
                _ring_reference(m)
                assert (fast, fast_bits) == (want, want_bits)
                assert (bareiss, bareiss_bits) == (want, COUNTER.max_bits)
            finally:
                COUNTER.reset()
            # nothing is computed while bits are tracked
            assert (m._kernel is None) is not cached

    def test_with_entry_of_a_cached_matrix_starts_afresh(self):
        rng = random.Random(22)
        for seed in range(8):
            m = matrix_from_json(_integral_json(seed, 8))
            assert _route(m) == "ints"
            r = rng.randrange(8)
            c = rng.randrange(max(r - 1, 0), 8)
            for value in (Fraction(1, 3), Fraction(-7, 2), X):
                changed = m.with_entry(r, c, value)
                assert changed._kernel is None
                want = det_laplace(changed)
                assert det_hessenberg_fast(changed) == det_bareiss(changed) == want
                assert _route(changed) is None
                assert leading_minors(changed, "bareiss") == hessenberg_leading_minors(changed)
            # an integral cell keeps the matrix integral, with its own cells
            changed = m.with_entry(r, c, 9)
            assert changed._kernel_form().rows == changed.entries
            assert det_hessenberg_fast(changed) == det_bareiss(changed) == det_laplace(changed)
            sub = m.leading_submatrix(5)
            assert sub._kernel is None and sub._kernel_form().rows == sub.entries

    def test_a_matrix_that_is_not_upper_hessenberg_gets_no_kernel_rows(self):
        # integral cells, and integral polynomials, above a nonzero cell
        # below the subdiagonal: the parser fills no field, as a matrix
        # built from the same cells computes none
        docs = [
            ("rational", [["1", "2", "3"], ["4", "5", "6"], ["7", "8", "10"]]),
            ("poly", [["x", "2*x", "x^2"], ["x + 1", "5*x", "-x"], ["x - 1", "x", "3*x"]]),
        ]
        for ring_name, rows in docs:
            m = matrix_from_json(json.dumps({"size": 3, "ring": ring_name, "entries": rows}))
            assert m._below_subdiagonal == (2, 0)
            assert m._kernel is None
            fresh = SquareMatrix(m.entries)
            for got in (m, fresh):
                assert got._kernel_form() is None and got._kernel == ()
            want = det_laplace(m)
            assert det_bareiss(m) == det_bareiss(fresh) == want


# zero texts of each ring; "0/5" and "-0" parse as the Fraction 0 in both,
# "0*x" as the zero Polynomial
_ZERO_TEXTS = {
    "rational": ("0", " 0", "-0", "0/5", "00"),
    "poly": ("0", " 0", "-0", "0/5", "0*x", "0*x^2 - 0"),
}


def _poly_text_st(bits):
    """Texts of integral polynomials of degree 1 to 3, coefficients of up
    to bits bits: their cells run on the list route."""
    return st.lists(
        st.integers(-(2**bits), 2**bits), min_size=1, max_size=3
    ).map(lambda cs: render_value(Polynomial([*cs, 2**bits])))


@st.composite
def _matrix_docs(draw):
    """A matrix JSON document (ring, rows of cell texts): zero texts and
    cells on or above the subdiagonal drawn to reach the int kernels'
    rows, or their refusals (fractions; constant cells, which parse as
    Fractions in either ring; constant and fractional polynomials), with
    coefficients small or wide enough to put B past _MAX_PACKED_BITS, and
    now and then a nonzero cell below the subdiagonal."""
    ring_name = draw(st.sampled_from(("rational", "poly")))
    n = draw(st.integers(1, 7))
    zero = st.sampled_from(_ZERO_TEXTS[ring_name])
    if ring_name == "rational":
        kernel = st.integers(-9, 9).map(str)
        other = st.sampled_from(("1/2", "-3/4", "6/3", "7"))
    else:
        kernel = _poly_text_st(draw(st.sampled_from((2, 40, 90))))
        other = st.sampled_from(
            ("3", "-1", "1/2", "0*x + 3", "x^0", "-2*x^0", "1/2*x - 1/3", "3/4*x^2")
        )
    band = st.one_of(kernel, zero, other) if draw(st.booleans()) else st.one_of(kernel, zero)
    rows = [[draw(band if r <= c + 1 else zero) for c in range(n)] for r in range(n)]
    if n > 2 and draw(st.integers(0, 4)) == 0:
        r = draw(st.integers(2, n - 1))
        rows[r][draw(st.integers(0, r - 2))] = draw(kernel)
    return ring_name, rows


def _kernel_fields(m):
    """What the kernels read of m, through the accessor and then as kept,
    a packed form by its B: the same for a parsed matrix and for a fresh
    one."""
    form = m._kernel_form()
    return (
        m.entries,
        [[type(v) for v in row] for row in m.entries],
        _route(m),
        form and form.rows,
        _slot_width(m) if _route(m) == "packed" else None,
        m._below_subdiagonal,
        m._kernel == (),
    )


class TestParseRoute:
    """matrix_from_json fills the kernel form from the distinct cell
    texts: the form it fills equals what a matrix built from its cells
    computes, and the accessor hands out the form it filled."""

    def _agree(self, ring_name, rows):
        n = len(rows)
        m = matrix_from_json(json.dumps({"size": n, "ring": ring_name, "entries": rows}))
        filled = m._kernel
        fresh = SquareMatrix(m.entries)
        assert fresh._kernel is None
        # the parser's constructor makes the matrix the constructor makes
        assert (m, hash(m), repr(m), m.band) == (fresh, hash(fresh), repr(fresh), None)
        assert _kernel_fields(m) == _kernel_fields(fresh)
        # the form the parser filled is the one the accessor hands out
        if filled:
            assert m._kernel_form() is filled
        # and the parser fills the field of every upper-Hessenberg matrix
        assert (filled is not None) is (m._below_subdiagonal is None)
        return m

    @settings(max_examples=300, deadline=None)
    @given(_matrix_docs())
    def test_random_documents(self, doc):
        self._agree(*doc)

    def test_zero_texts_on_and_above_the_subdiagonal(self):
        for ring_name, zeros in _ZERO_TEXTS.items():
            kernel = "3" if ring_name == "rational" else "2*x - 1"
            for zero in zeros:
                for n in (1, 2, 4):
                    for spot in ((0, 0), (n - 1, max(n - 2, 0)), (0, n - 1)):
                        rows = [[kernel if r <= c + 1 else zeros[(r + c) % len(zeros)]
                                 for c in range(n)] for r in range(n)]
                        rows[spot[0]][spot[1]] = zero
                        m = self._agree(ring_name, rows)
                        # a Fraction zero sends a poly matrix to the ring path
                        packed = ring_name == "poly" and "x" in zero
                        assert (_route(m) == "packed") is packed

    def test_b_on_both_sides_of_the_gate(self):
        for bits, n in ((2, 6), (90, 2), (90, 4), (40, 7)):
            rows = [
                [render_value(Polynomial([r - c, 2**bits])) if r <= c + 1 else "0"
                 for c in range(n)]
                for r in range(n)
            ]
            m = self._agree("poly", rows)
            b = _packing_bound(m).bit_length() + 1
            if b > hessenberg._MAX_PACKED_BITS:
                assert _route(m) is None and m._kernel == ()
            else:
                assert _slot_width(m) == b

    def test_constant_and_fractional_polynomial_cells(self):
        for cell, route in (("0*x + 3", "packed"), ("x^0", "packed"), ("-2*x^0", "packed"),
                            ("1/2*x - 1/3", None), ("3/4*x^2", None), ("3", None)):
            # "-1" would parse as a Fraction
            rows = [["x", cell], ["0*x - 1", "x + 1"]]
            m = self._agree("poly", rows)
            assert _route(m) == route, cell
        # a poly document whose every band cell is a constant runs on the ints
        m = self._agree("poly", [["3", "0"], ["-1", " 2"]])
        assert _route(m) == "ints" and m._kernel.rows == ((3, 0), (-1, 2))


def _integral(rng, n, upper, zeros):
    """An n x n matrix of integral cells in [-5, 5], each zero with
    probability zeros, with the Hessenberg zero pattern when upper."""
    rows = [
        [
            0
            if (upper and r > c + 1)
            or rng.random() < zeros
            else rng.randint(-5, 5)
            for c in range(n)
        ]
        for r in range(n)
    ]
    return SquareMatrix(rows)


class TestBareissMinors:
    """leading_minors(m, "bareiss") from one pass against one det_bareiss
    per leading submatrix."""

    def _agree(self, m):
        minors = leading_minors(m, "bareiss")
        each = [det_bareiss(m.leading_submatrix(k)) for k in range(1, m.size + 1)]
        assert minors == each
        assert [type(d) for d in minors] == [type(d) for d in each]
        return minors

    def test_random_rational_and_polynomial_matrices(self):
        rng = random.Random(10)
        for n in range(1, 16):
            self._agree(_integral(rng, n, False, 0.0))
            self._agree(_banded(rng, n, None, "fractional"))
            self._agree(random_hessenberg(n, rng))
            if n <= 8:
                self._agree(random_hessenberg(n, rng, ring="poly", max_degree=2))

    def test_a_vanishing_minor_falls_back_to_one_determinant_per_size(self):
        # on the ring elimination: a matrix that is not upper Hessenberg,
        # and any matrix while bits are tracked
        rng = random.Random(12)
        for n in range(3, 13):
            for base in (
                _integral(rng, n, False, 0.0),
                _banded(rng, n, None, "fractional"),
            ):
                # rows 1 and 2 agree in the first two columns: d_2 = 0
                m = base.with_entry(1, 0, base.entries[0][0])
                m = m.with_entry(1, 1, base.entries[0][1])
                minors = self._agree(m)
                assert minors[1] == 0
                COUNTER.reset(track_bits=True)
                try:
                    assert self._agree(m) == minors
                finally:
                    COUNTER.reset()
        poly = SquareMatrix([[X, 1, 2], [X, 1, 3], [0, X, 1]])
        assert self._agree(poly) == [X, 0, det_laplace(poly)]


def _ring_reference(m, minors=None):
    """_ring_bareiss on a copy of m's rows."""
    return hessenberg._ring_bareiss([list(row) for row in m.entries], minors)


def _hessenberg_case(seed, n, kind, band, zeros):
    """A random_hessenberg matrix of the given kind (integral,
    fractional or poly, the last with some constant Fraction cells),
    with a declared band and each band cell zero with probability
    zeros."""
    rng = random.Random(seed)
    ring_name = "poly" if kind == "poly" else "rational"
    rows = [
        list(row)
        for row in random_hessenberg(n, rng, ring_name, rng.randint(0, 2)).entries
    ]
    for r in range(n):
        for c in range(max(r - 1, 0), n):
            if band is not None and c - r > band or rng.random() < zeros:
                rows[r][c] = rng.choice((0, Polynomial())) if kind == "poly" else 0
            elif kind == "fractional":
                rows[r][c] /= rng.randint(1, 6)
            elif kind == "poly" and rng.random() < 0.2:
                rows[r][c] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return SquareMatrix(rows, band)


def _vanishing_minor(m, *ks, zero=0):
    """m with d_{k+1} = 0 for each k: column k copies column k - 1 on
    rows 0..k, or m[0][0] = zero when k is 0.  Each copy leaves the
    minors of the smaller ks as they were."""
    for k in sorted(ks):
        if k == 0:
            m = m.with_entry(0, 0, zero)
        for r in range(k + 1 if k else 0):
            m = m.with_entry(r, k, m.entries[r][k - 1])
    return m


class TestHessenbergBareiss:
    """The row recurrence for upper-Hessenberg matrices against
    _ring_bareiss: the same determinants, types and COUNTER deltas, zero
    pivots included, and every leading minor from one pass."""

    def _agree(self, m):
        det, ops = _counted(det_bareiss, m)
        want, want_ops = _counted(_ring_reference, m)
        assert det == want and type(det) is type(want)
        assert ops == want_ops
        # all minors, past a zero one too, at det_bareiss's counts
        minors, minors_ops = _counted(leading_minors, m, "bareiss")
        assert minors_ops == ops
        each = [_ring_reference(m.leading_submatrix(k)) for k in range(1, m.size + 1)]
        assert minors == each
        assert [type(d) for d in minors] == [type(d) for d in each]
        return det, minors

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(1, 10),
        kind=st.sampled_from(("integral", "fractional", "poly")),
        band=st.sampled_from((None, 0, 1, 3)),
        zeros=st.sampled_from((0.0, 0.1, 0.4)),
        vanishing=st.lists(st.integers(0, 9), max_size=3, unique=True),
    )
    def test_random_matrices(self, seed, n, kind, band, zeros, vanishing):
        m = _hessenberg_case(seed, n, kind, band, zeros)
        self._agree(_vanishing_minor(m, *(k for k in vanishing if k < n)))

    def test_sizes_one_and_two(self):
        for rows in (
            [[5]], [[0]], [[Fraction(1, 2)]], [[X]], [[Polynomial()]],
            [[1, 2], [3, 4]], [[Fraction(1, 3), 2], [3, X]], [[X, 1], [X, 1]],
            [[0, 2], [3, 4]], [[0, X], [1, 2]], [[1, 2], [0, 4]], [[X, 0], [0, X]],
        ):
            self._agree(SquareMatrix(rows))
        assert self._agree(SquareMatrix([[0, 2], [3, 4]])) == (-6, [0, -6])

    def test_zero_subdiagonal_cells(self):
        rng = random.Random(14)
        for kind in ("integral", "fractional", "poly"):
            for n in (3, 6, 9):
                m = _hessenberg_case(rng.random(), n, kind, None, 0.2)
                for r in range(1, n, 2):
                    m = m.with_entry(r, r - 1, 0)
                self._agree(m)

    def test_zero_pivots_at_the_first_a_middle_and_the_last_step(self):
        n = 7
        for kind in ("integral", "fractional", "poly"):
            # the first seed whose matrix has no zero leading minor
            base = next(
                m
                for m in (_hessenberg_case(s, n, kind, None, 0.0) for s in range(100))
                if 0 not in hessenberg_leading_minors(m)
            )
            # pivots p_0, p_3 and p_5 (the last step's), then d_7 = p_6
            for k in (0, 3, n - 2, n - 1):
                m = _vanishing_minor(base, k)
                det, minors = self._agree(m)
                assert minors == hessenberg_leading_minors(m)
                assert minors[k] == 0 and 0 not in minors[:k]
                if k == n - 1:
                    assert det == 0

    # two and three vanishing leading minors, adjacent and apart
    VANISHING = ((2, 3), (1, 5), (0, 1, 2), (1, 3, 6), (5, 6, 7))

    def _several_vanishing(self):
        n = 8
        for kind in ("integral", "fractional", "poly"):
            # the first seed with no zero leading minor or subdiagonal cell
            base = next(
                m
                for m in (_hessenberg_case(s, n, kind, None, 0.0) for s in range(100))
                if 0 not in hessenberg_leading_minors(m)
                and all(m.entries[r][r - 1] != 0 for r in range(1, n))
            )
            for ks in self.VANISHING:
                yield ks, _vanishing_minor(base, *ks)

    def test_several_zero_pivots_swap_rows_as_on_the_ring_path(self):
        for ks, m in self._several_vanishing():
            fast = hessenberg_leading_minors(m)
            assert [k for k, d in enumerate(fast) if d == 0] == list(ks)
            det, minors = self._agree(m)
            assert minors == fast
            assert det == fast[-1]

    def test_no_ring_elimination_while_bits_are_untracked(self, monkeypatch, capsys):
        took = []
        monkeypatch.setattr(
            hessenberg, "_ring_bareiss", lambda a, minors: took.append(len(a))
        )
        for _ks, m in self._several_vanishing():
            det_bareiss(m)
            leading_minors(m, "bareiss")
        # ode-example has a(2) = a(3) = 0: a zero pivot at every size from 3 on
        path = str(spec_path("ode-example"))
        assert main(["verify", path, "--max-n", "40", "--method", "bareiss"]) == 0
        assert "result: pass (40 checks)" in capsys.readouterr().out
        assert took == []

    def test_general_matrices_and_bit_tracking_keep_the_elimination(self, monkeypatch):
        took = []

        def spy(name):
            route = getattr(hessenberg, name)

            def call(a, minors):
                # _hessenberg_bareiss takes the matrix, _ring_bareiss its rows
                took.append((name, len(getattr(a, "entries", a))))
                return route(a, minors)

            monkeypatch.setattr(hessenberg, name, call)

        spy("_hessenberg_bareiss")
        spy("_ring_bareiss")
        general = _integral(random.Random(16), 5, False, 0.0)
        upper = _hessenberg_case(17, 6, "fractional", None, 0.0)
        det_bareiss(general)
        assert took == [("_ring_bareiss", 5)]
        COUNTER.reset(track_bits=True)
        try:
            det_bareiss(upper)
        finally:
            COUNTER.reset()
        assert took[1:] == [("_ring_bareiss", 6)]
        # the shape is read from the cells: plain rows of it take the recurrence
        for m in (upper, SquareMatrix([list(row) for row in upper.entries])):
            took.clear()
            det_bareiss(m)
            leading_minors(m, "bareiss")
            assert took == [("_hessenberg_bareiss", 6)] * 2

    @pytest.mark.parametrize("n", [40, 120])
    def test_ode_example_minors_from_one_pass(self, n):
        # a(2) = a(3) = 0: zero pivots at steps 1 and 2
        m = theorem2_matrix(family_spec(FamilyId.ODE_EXAMPLE), n)
        minors, ops = _counted(leading_minors, m, "bareiss")
        assert minors == hessenberg_leading_minors(m)
        assert minors[1] == minors[2] == 0
        assert ops == _counted(det_bareiss, m)[1]
        if n == 120:
            assert sum(ops) == 69_278


def _recursive_laplace(rows):
    """The cofactor expansion that recomputes every minor, one ring_*
    call per operation: the reference for the memoized det_laplace."""
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, v in enumerate(rows[0]):
        if v == 0:
            continue
        minor = tuple(row[:j] + row[j + 1 :] for row in rows[1:])
        term = ring.ring_mul(v, _recursive_laplace(minor))
        if j % 2:
            term = -term
        total = term if total is None else ring.ring_add(total, term)
    return Fraction(0) if total is None else total


def _laplace_cases(rng):
    """Sizes 1..8 in both rings, Hessenberg and dense, each cell zero
    with probability 0, 0.3 or 0.7."""
    def cell(ring_name, zeros):
        if rng.random() < zeros:
            return 0
        if ring_name == "poly":
            return Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))])
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))

    for n in range(1, 9):
        for ring_name in ("rational", "poly"):
            for upper in (False, True):
                for zeros in (0.0, 0.3, 0.7):
                    rows = [
                        [
                            0
                            if upper and r > c + 1
                            else cell(ring_name, zeros)
                            for c in range(n)
                        ]
                        for r in range(n)
                    ]
                    yield SquareMatrix(rows)


class TestMemoizedLaplace:
    """det_laplace, each distinct minor once, against the expansion that
    recomputes every minor."""

    def _agree(self, m):
        for track_bits in (False, True):
            COUNTER.reset(track_bits=track_bits)
            got = det_laplace(m)
            got_counts = COUNTER.adds, COUNTER.muls, COUNTER.divs, COUNTER.max_bits
            COUNTER.reset(track_bits=track_bits)
            want = _recursive_laplace(m.entries)
            want_counts = COUNTER.adds, COUNTER.muls, COUNTER.divs, COUNTER.max_bits
            COUNTER.reset()
            assert got == want
            assert type(got) is type(want)
            assert got_counts == want_counts
        return got

    def test_values_types_and_counts_equal_the_recomputing_expansion(self):
        for m in _laplace_cases(random.Random(14)):
            self._agree(m)

    def test_a_zero_first_row_and_a_zero_column(self):
        rng = random.Random(15)
        for n in range(2, 9):
            for ring_name in ("rational", "poly"):
                m = random_hessenberg(n, rng, ring=ring_name)
                for r in range(n):
                    m = m.with_entry(r, n // 2, 0)
                assert self._agree(m) == 0
                m = random_hessenberg(n, rng, ring=ring_name)
                for c in range(n):
                    m = m.with_entry(0, c, 0)
                assert self._agree(m) == 0
        assert self._agree(SquareMatrix([[0]])) == 0

    def test_leading_minors_equal_the_fast_route(self):
        for m in _laplace_cases(random.Random(16)):
            if m._below_subdiagonal is None:
                laplace = leading_minors(m, "laplace")
                fast = leading_minors(m, "fast")
                assert laplace == fast

    @pytest.mark.parametrize("name", available())
    def test_shipped_specs_through_determinant_terms(self, name):
        spec = dsl.to_spec(dsl.parse(spec_text(name)), name=name)
        assert determinant_terms(spec, 8, method="laplace") == determinant_terms(spec, 8)


def _poly_band_case(rng, n, degree, band, zeros):
    """An n x n upper-Hessenberg matrix whose cells on or above the
    subdiagonal are all integral Polynomials of degree at most degree:
    Polynomial() above the declared band and, with probability zeros,
    in it.  The cells below the subdiagonal are the int 0."""

    def cell(r, c):
        if band is not None and c - r > band or rng.random() < zeros:
            return Polynomial()
        return Polynomial([rng.randint(-4, 4) for _ in range(degree + 1)])

    return SquareMatrix(
        [[cell(r, c) if r <= c + 1 else 0 for c in range(n)] for r in range(n)], band
    )


def _packing_bound(m):
    """H of SquareMatrix._kernel_form: the product over the rows of
    max(1, the sum of the coefficient 1-norms of the row's cells)."""
    h = 1
    for row in m.entries:
        h *= max(1, sum(abs(a) for v in row if type(v) is Polynomial for a in v.nums))
    return h


_LIST_ROUTE_FUNCTIONS = {
    "det_hessenberg_fast": det_hessenberg_fast,
    "hessenberg_leading_minors": hessenberg_leading_minors,
    "det_bareiss": det_bareiss,
    "leading_minors bareiss": lambda m: leading_minors(m, "bareiss"),
    "det_laplace": det_laplace,
    "leading_minors laplace": lambda m: leading_minors(m, "laplace"),
}


class TestListRoute:
    """Fast, Bareiss and Laplace on integral polynomial matrices against
    their ring paths on the same matrix: the same values, types,
    renderings and COUNTER deltas, with packing forced on and forced
    off.  Packed, they read SquareMatrix._kernel_form's ints; unpacked,
    the matrix has no kernel form, and all three run over ring values.
    A matrix parsed from JSON (text) is parsed again under each width
    gate, any other one built again from its cells."""

    def _agree(self, m, monkeypatch, text=None):
        assert _route(m) == "packed"
        results = {}
        for limit in (1 << 40, 0):
            with monkeypatch.context() as mp:
                mp.setattr(hessenberg, "_MAX_PACKED_BITS", limit)
                m = matrix_from_json(text) if text else SquareMatrix(m.entries, m.band)
                assert _route(m) == (None if limit == 0 else "packed")
                for name, fn in _LIST_ROUTE_FUNCTIONS.items():
                    if "laplace" in name and m.size > LAPLACE_SIZE_LIMIT:
                        continue
                    got, got_ops = _counted(fn, m)
                    with _ring_paths():
                        want, want_ops = _counted(fn, m)
                    got = got if isinstance(got, list) else [got]
                    want = want if isinstance(want, list) else [want]
                    assert got == want, (name, limit)
                    assert [type(v) for v in got] == [type(v) for v in want], (name, limit)
                    assert list(map(render_value, got)) == list(map(render_value, want)), (
                        name, limit
                    )
                    assert got_ops == want_ops, (name, limit)
                    results.setdefault(name, got)
        return results

    def test_random_matrices(self, monkeypatch):
        rng = random.Random(30)
        for n in range(1, 13):
            for degree in range(4):
                for band in (None, 0, 1, 3):
                    for zeros in (0.0, 0.3):
                        self._agree(_poly_band_case(rng, n, degree, band, zeros), monkeypatch)

    def test_the_gate_reads_each_cells_coefficients(self, monkeypatch):
        m = _poly_band_case(random.Random(31), 7, 2, 1, 0.3)
        columns = []
        scaled_leading_minors = hessenberg.scaled_leading_minors
        with monkeypatch.context() as mp, _handovers() as log:
            mp.setattr(hessenberg, "_MAX_PACKED_BITS", 0)
            mp.setattr(
                hessenberg,
                "scaled_leading_minors",
                lambda cols, band: scaled_leading_minors(
                    (columns.append(col) or col for col in cols), band
                ),
            )
            wide = SquareMatrix(m.entries, m.band)
            minors = hessenberg_leading_minors(wide)
        assert _route(wide) is None and wide._kernel == ()
        # past the gate, int_scaled refuses the first column, whose band
        # cells are Polynomials: the fast method scales no column, and the
        # ring recurrence reads every one, the first as column_minors read it
        assert columns == []
        assert log == [([1], [[m.entries[0][0]]])]
        assert minors == hessenberg_leading_minors(m)
        # each cell packed as its value at x = 2^B
        b, packed = _slot_width(m), m._kernel_form().rows
        assert packed is m._kernel.rows
        assert b == _packing_bound(m).bit_length() + 1
        for r in range(7):
            for c in range(7):
                want = m.entries[r][c].evaluate(2**b) if r <= c + 1 else 0
                assert packed[r][c] == want and type(packed[r][c]) is int

    def test_the_width_limit_is_on_b(self, monkeypatch):
        m = _poly_band_case(random.Random(36), 9, 2, None, 0.0)
        b = _slot_width(m)
        monkeypatch.setattr(hessenberg, "_MAX_PACKED_BITS", b)
        assert _slot_width(SquareMatrix(m.entries)) == b
        # a matrix past the limit has no kernel form, and a form once
        # computed is kept
        monkeypatch.setattr(hessenberg, "_MAX_PACKED_BITS", b - 1)
        wide = SquareMatrix(m.entries)
        assert _route(wide) is None and wide._kernel == () and _slot_width(m) == b

    def test_diagonal_and_triangular_monomials_where_b_is_tight(self, monkeypatch):
        # a diagonal determinant is one monomial whose coefficient is +-H:
        # 3 * 5 * 17 = 2^8 - 1 is the largest magnitude that B = 9 holds
        for scales in ((3, 5, 17), (16, 16), (255,), (1, 3, 1, 5, 17), (2, 2, 2, 2)):
            n = len(scales)
            for signs in ((1,) * n, (-1,) * n, tuple((-1) ** j for j in range(n))):
                cells = [
                    Polynomial([0] * (j % 3) + [sign * scale])
                    for j, (sign, scale) in enumerate(zip(signs, scales))
                ]
                m = SquareMatrix(
                    [[cells[r] if r == c else Polynomial() for c in range(n)] for r in range(n)]
                )
                h = _packing_bound(m)
                assert _slot_width(m) == h.bit_length() + 1
                det = self._agree(m, monkeypatch)["det_hessenberg_fast"][-1]
                assert max(map(abs, det.nums)) == h
                # upper triangular: monomials above the diagonal too
                rng = random.Random(n)
                upper = [
                    [cells[r] if r == c else Polynomial([0] * rng.randint(0, 2) + [
                        rng.choice((-2, -1, 1, 2))]) if c > r else Polynomial()
                     for c in range(n)]
                    for r in range(n)
                ]
                diagonal = Polynomial([1])
                for cell in cells:
                    diagonal *= cell
                assert self._agree(SquareMatrix(upper), monkeypatch)["det_bareiss"] == [diagonal]
                # lower bidiagonal: monomials on the subdiagonal
                lower = [
                    [cells[r] if r == c else Polynomial([-1, 0, 2]) if r == c + 1
                     else Polynomial() for c in range(n)]
                    for r in range(n)
                ]
                self._agree(SquareMatrix(lower), monkeypatch)

    def test_one_by_one_matrices(self, monkeypatch):
        for cell in (Polynomial(), Polynomial([5]), Polynomial([-1]), X, -X * X + 3,
                     Polynomial([0, 0, 0, -7])):
            results = self._agree(SquareMatrix([[cell]]), monkeypatch)
            assert results["det_laplace"] == [cell] and type(results["det_laplace"][0]) is Polynomial

    def test_constant_polynomial_cells(self, monkeypatch):
        rng = random.Random(37)
        for n in (2, 3, 5, 8, 12):
            for choices in ((-1, 1), (-3, -1, 0, 1, 2), (1,)):
                rows = [
                    [Polynomial([rng.choice(choices)]) if r <= c + 1 else 0 for c in range(n)]
                    for r in range(n)
                ]
                self._agree(SquareMatrix(rows), monkeypatch)
            # Theorem 1's -1 under the diagonal, whose product the packed
            # minors skip and the lists do not
            rows = [
                [Polynomial([-1]) if r == c + 1 else Polynomial([rng.randint(-4, 4)])
                 if r <= c else 0 for c in range(n)]
                for r in range(n)
            ]
            self._agree(SquareMatrix(rows), monkeypatch)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(1, 9),
        degree=st.integers(0, 3),
        band=st.sampled_from((None, 0, 1, 3)),
        zeros=st.sampled_from((0.0, 0.3, 0.7)),
        vanishing=st.lists(st.integers(0, 8), max_size=2, unique=True),
    )
    def test_random_small_matrices(self, seed, n, degree, band, zeros, vanishing):
        m = _poly_band_case(random.Random(seed), n, degree, band, zeros)
        m = _vanishing_minor(m, *(k for k in vanishing if k < n), zero=Polynomial())
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._agree(m, monkeypatch)

    def test_zero_pivots_at_the_first_a_middle_and_the_last_step(self, monkeypatch):
        n = 8
        rng = random.Random(32)
        for degree in (0, 1, 3):
            base = next(
                m
                for m in (_poly_band_case(rng, n, degree, None, 0.0) for _ in range(100))
                if 0 not in hessenberg_leading_minors(m)
            )
            for k in (0, 3, n - 2, n - 1):
                m = _vanishing_minor(base, k, zero=Polynomial())
                minors = self._agree(m, monkeypatch)["hessenberg_leading_minors"]
                assert minors[k] == 0 and 0 not in minors[:k]
            for ks in TestHessenbergBareiss.VANISHING:
                self._agree(_vanishing_minor(base, *ks, zero=Polynomial()), monkeypatch)

    def test_zero_subdiagonal_cells_and_a_zero_first_row(self, monkeypatch):
        rng = random.Random(33)
        for n in (2, 3, 6, 9, 12):
            m = _poly_band_case(rng, n, 2, None, 0.2)
            for r in range(1, n, 2):
                m = m.with_entry(r, r - 1, Polynomial())
            self._agree(m, monkeypatch)
            # a zero pivot over a zero subdiagonal cell: every later minor is 0
            m = m.with_entry(0, 0, Polynomial()).with_entry(1, 0, Polynomial())
            self._agree(m, monkeypatch)
            for c in range(n):
                m = m.with_entry(0, c, Polynomial())
            results = self._agree(m, monkeypatch)
            if n <= LAPLACE_SIZE_LIMIT:
                # the empty expansion's Fraction 0, as on the ring path
                assert type(results["det_laplace"][0]) is Fraction
        self._agree(SquareMatrix([[Polynomial()]]), monkeypatch)

    def test_det_crosscheck_shaped_json(self, monkeypatch):
        # every cell on or above the subdiagonal of exact degree 1 or 2,
        # "0" below it
        rng = random.Random(34)

        def cell(degree):
            lead = rng.choice((-3, -2, -1, 1, 2, 3))
            return render_value(Polynomial([rng.randint(-3, 3) for _ in range(degree)] + [lead]))

        shapes = [(size, 1) for size in range(1, 14)] + [(size, 2) for size in range(1, 12)]
        for n, degree in shapes:
            rows = [[cell(degree) if r <= c + 1 else "0" for c in range(n)] for r in range(n)]
            text = json.dumps({"size": n, "ring": "poly", "entries": rows})
            results = self._agree(matrix_from_json(text), monkeypatch, text)
            assert results["det_bareiss"] == results["det_hessenberg_fast"]

    def test_the_gate_refuses_other_matrices(self, monkeypatch):
        base = _poly_band_case(random.Random(35), 6, 2, None, 0.0)
        assert _route(base) == "packed"
        refused = [
            # a Fraction cell in the band, integral or not, zero included
            base.with_entry(2, 4, Fraction(3)),
            base.with_entry(2, 4, Fraction(1, 2)),
            base.with_entry(3, 2, 0),
            # a Polynomial whose den is not 1
            base.with_entry(2, 4, Polynomial([Fraction(1, 2), 1])),
            # not upper Hessenberg
            base.with_entry(4, 1, Polynomial([1])),
            # a constant cell of poly JSON parses as a Fraction
            matrix_from_json(json.dumps({
                "size": 2, "ring": "poly", "entries": [["x + 1", "3"], ["2*x", "x"]]
            })),
        ]
        for m in refused:
            assert m._kernel_form() is None and m._kernel == ()
            want = det_laplace(m)
            assert det_bareiss(m) == want
            if m._below_subdiagonal is None:
                assert det_hessenberg_fast(m) == want
        # nothing is computed while bits are tracked, and the ring paths run
        m = SquareMatrix(base.entries)
        COUNTER.reset(track_bits=True)
        try:
            assert m._kernel_form() is None
            fast = det_hessenberg_fast(m)
            fast_bits = COUNTER.max_bits
            COUNTER.reset(track_bits=True)
            laplace = det_laplace(m)
            laplace_bits = COUNTER.max_bits
            COUNTER.reset(track_bits=True)
            want = _ring_leading_minors(*_matrix_columns(m.entries), 6, 6, [Fraction(1)])[-1]
            assert (fast, fast_bits) == (want, COUNTER.max_bits)
            COUNTER.reset(track_bits=True)
            assert (laplace, laplace_bits) == (_recursive_laplace(m.entries), COUNTER.max_bits)
        finally:
            COUNTER.reset()
        assert m._kernel is None
        self._agree(m, monkeypatch)


def _wide_poly_case(seed, n, degree):
    """A random upper-Hessenberg matrix of integral Polynomials of the
    given degree with coefficients of up to 20 bits on and above its
    subdiagonal, the int 0 below it."""
    rng = random.Random(seed)
    return SquareMatrix([
        [Polynomial([rng.randint(-(2**20), 2**20) for _ in range(degree + 1)])
         if r <= c + 1 else 0 for c in range(n)]
        for r in range(n)
    ])


class TestPastTheGate:
    """An integral polynomial matrix whose B is past _MAX_PACKED_BITS has
    no kernel form: the fast method runs the ring recurrence from the
    first column, which int_scaled refuses, and Bareiss runs its row
    recurrence over ring values, never the O(n^3) elimination.  Each
    gives the ring path's values, types and adds, muls and divs."""

    def _cases(self):
        for seed, (n, degree) in enumerate(((16, 1), (20, 2), (18, 1), (16, 2))):
            m = _wide_poly_case(seed, n, degree)
            assert _packing_bound(m).bit_length() + 1 > hessenberg._MAX_PACKED_BITS
            assert _route(m) is None and m._kernel == ()
            yield m

    def test_fast_takes_the_ring_recurrence_from_the_first_column(self, monkeypatch):
        int_scaled = hessenberg.int_scaled
        for m in self._cases():
            n = m.size
            want, want_ops = _counted(
                _ring_leading_minors, *_matrix_columns(m.entries), n, n, [Fraction(1)]
            )
            gated = []
            with monkeypatch.context() as mp, _handovers() as log:
                mp.setattr(hessenberg, "int_scaled", lambda v: gated.append(v) or int_scaled(v))
                got, ops = _counted(hessenberg_leading_minors, m)
                fast = det_hessenberg_fast(m)
            # on each call the gate refuses the first column, handed over
            # with its cells as read, and sees no other
            first = [m.entries[0][0]]
            assert gated == [[*first, -m.entries[1][0]]] * 2
            assert log == [([1], [first])] * 2
            assert got == want and fast == want[-1]
            assert [type(v) for v in got] == [type(v) for v in want] == [Polynomial] * n
            assert ops == want_ops

    def test_bareiss_takes_its_row_recurrence_over_ring_values(self, monkeypatch):
        ring_bareiss, combine = hessenberg._ring_bareiss, hessenberg._combine
        for m in self._cases():
            want_minors = []
            want, want_ops = _counted(_ring_reference, m)
            _, minors_ops = _counted(_ring_reference, m, want_minors)
            eliminations, pivots = [], set()

            def spy(p, xs, s, ys):
                pivots.add(type(p))
                return combine(p, xs, s, ys)

            with monkeypatch.context() as mp:
                mp.setattr(
                    hessenberg, "_ring_bareiss", lambda *a: eliminations.append(1) or ring_bareiss(*a)
                )
                mp.setattr(hessenberg, "_combine", spy)
                det, ops = _counted(det_bareiss, m)
                minors, got_minors_ops = _counted(leading_minors, m, "bareiss")
            assert eliminations == [] and pivots == {Polynomial}
            assert (det, type(det), ops) == (want, type(want), want_ops)
            assert minors == want_minors and 0 not in minors
            assert [type(v) for v in minors] == [type(v) for v in want_minors]
            assert got_minors_ops == minors_ops


def _with_bits(fn, m, track_bits):
    """fn(m) and COUNTER's adds, muls, divs and max_bits after it, from a
    reset counter tracking bits or not."""
    COUNTER.reset(track_bits=track_bits)
    try:
        value = fn(m)
        return value, (COUNTER.adds, COUNTER.muls, COUNTER.divs, COUNTER.max_bits)
    finally:
        COUNTER.reset()


def _integral_band_spec(band):
    """A spec whose Theorem 1 matrix has integral cells in a band."""
    return FullHistorySpec(
        Fraction(1), lambda k, i: Fraction(k - 2 * i + 3) if k - i <= band else 0, band=band
    )


class TestFastIsTheLastMinor:
    """det_hessenberg_fast makes a ring value of d_n alone, so it is
    checked against hessenberg_leading_minors(m)[-1] on every route: the
    same value, type and adds, muls and divs, and the same max_bits
    while bits are tracked."""

    def _matrices(self, capsys):
        rng = random.Random(34)
        for n in (1, 2, 40):
            yield "ints", random_hessenberg(n, rng)
            yield "packed", random_hessenberg(n, rng, "poly", 2)
            banded = theorem1_matrix(_integral_band_spec(2), n)
            assert banded.band == 2
            yield "ints", banded
            # Fraction -1 subdiagonals under Polynomial cells, past n = 1
            hermite = theorem1_matrix(family_spec(FamilyId.HERMITE), n)
            yield "packed" if n == 1 else None, hermite
        yield None, _wide_poly_case(34, 16, 1)
        assert main(["matrix", "chebyshev-t", "--k", "12", "--format", "json"]) == 0
        yield None, matrix_from_json(capsys.readouterr().out)

    def test_values_types_and_counts_equal_the_last_leading_minor(self, capsys):
        routes = []
        for route, m in self._matrices(capsys):
            assert _route(m) == route
            routes.append(route)
            for track_bits in (False, True):
                det, ops = _with_bits(det_hessenberg_fast, m, track_bits)
                minors, minors_ops = _with_bits(hessenberg_leading_minors, m, track_bits)
                assert det == minors[-1] and type(det) is type(minors[-1])
                assert ops[:3] == minors_ops[:3]
                if track_bits:
                    assert ops[3] == minors_ops[3] > 0
        assert {"ints", "packed", None} <= set(routes)

    def test_both_refuse_a_cell_below_the_subdiagonal_alike(self):
        for ring_name in ("rational", "poly"):
            m = random_hessenberg(6, random.Random(3), ring_name).with_entry(4, 1, 7)
            refusals = []
            for fn in (det_hessenberg_fast, hessenberg_leading_minors):
                with pytest.raises(NotHessenberg) as info:
                    fn(m)
                refusals.append(str(info.value))
            assert refusals == ["nonzero entry at row 5, column 2 below the first subdiagonal"] * 2


class TestSizeCap:
    """Dense matrices past MAX_MATRIX_SIZE are refused before any row is
    built; only refusals are run here."""

    TOO_LARGE = hessenberg.MAX_MATRIX_SIZE + 1

    def test_random_hessenberg_draws_nothing(self):
        rng = random.Random(40)
        state = rng.getstate()
        for ring_name in ("rational", "poly"):
            with pytest.raises(SizeTooLarge, match="matrix size above the limit 2000, got 2001"):
                random_hessenberg(self.TOO_LARGE, rng, ring=ring_name)
        assert rng.getstate() == state

    def test_theorem1_matrix_reads_no_coefficient(self):
        calls = []
        spec = FullHistorySpec(
            initial=Fraction(1), coeff=lambda k, i: calls.append((k, i)) or Fraction(1)
        )
        with pytest.raises(SizeTooLarge):
            theorem1_matrix(spec, self.TOO_LARGE)
        fixed = FixedOrderSpec(
            order=1, initials=(Fraction(1),), coeffs=(lambda k: calls.append(k) or Fraction(1),)
        )
        with pytest.raises(SizeTooLarge):
            theorem2_matrix(fixed, self.TOO_LARGE)
        assert calls == []

    def test_matrix_from_json_refuses_the_size_first(self):
        doc = {"size": self.TOO_LARGE, "ring": "rational", "entries": []}
        with pytest.raises(SizeTooLarge):
            matrix_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--sizes", "3,2001"],
            ["matrix", "fibonacci-num", "--k", "2001"],
            ["verify", "fibonacci-num", "--max-n", "2001", "--method", "bareiss"],
            ["verify", "hermite", "--max-n", "2001", "--method", "laplace"],
        ],
    )
    def test_the_cli_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix size above the limit 2000, got 2001\n"


class TestEmitters:
    def test_json_matches_the_documented_schema_byte_for_byte(self):
        m = SquareMatrix([[1, 1, 1], [-1, 1, 0], [0, -1, 1]])
        assert matrix_to_json(m, ring="rational") == (
            '{"size":3,"ring":"rational",'
            '"entries":[["1","1","1"],["-1","1","0"],["0","-1","1"]]}'
        )

    def test_json_round_trips(self):
        rng = random.Random(13)
        for ring in ("rational", "poly"):
            m = random_hessenberg(5, rng, ring=ring)
            again = matrix_from_json(matrix_to_json(m))
            assert again == m
            assert hessenberg_leading_minors(again) == hessenberg_leading_minors(m)

    def test_from_json_rejects_malformed_documents(self):
        for bad in (
            "[]",
            '{"size":2,"ring":"rational"}',
            '{"size":2,"ring":"rational","entries":[["1"],["2"]],"extra":1}',
            '{"size":2,"ring":"nope","entries":[["1","2"],["3","4"]]}',
        ):
            with pytest.raises(RecdetError):
                matrix_from_json(bad)

    def test_from_json_keeps_to_the_schema(self):
        def doc(size, cell, ring="rational"):
            return json.dumps({"size": size, "ring": ring, "entries": [[cell]]})

        assert matrix_from_json(doc(1, " -3/4 ")).entries == ((Fraction(-3, 4),),)
        assert matrix_from_json(doc(1, "3*x^2 - 1", "poly")).entries[0][0] == Polynomial(
            (-1, 0, 3)
        )
        with pytest.raises(RecdetError, match="size must be a positive integer"):
            matrix_from_json(doc(True, "1"))
        for cell in ("1e3", "1e5000000", "3.5", "1_000", "+5", "- 5", "1/0", "x"):
            with pytest.raises(RecdetError, match="cannot parse rational value"):
                matrix_from_json(doc(1, cell))
        for cell in ("2/0*x", "1.5*x", "\u0663*x"):
            with pytest.raises(RecdetError, match="cannot parse polynomial term"):
                matrix_from_json(doc(1, cell, "poly"))
        with pytest.raises(RecdetError, match="cannot parse rational value"):
            matrix_from_json(doc(1, "\u0663", "poly"))

    def test_from_json_parses_cells_as_parse_value_does(self):
        rng = random.Random(17)
        texts = {
            "rational": ["0", " 0", "0 ", "-0", "0/5", "00", "1", " 1 ", "-3/4",
                         "\t-3/4", "6/4", "12"],
            "poly": ["0", " 0 ", "-0", "x", " x ", "-x + 1", "3*x^2 - 1",
                     "3*x^2  -  1", "0*x", "1/2*x - 1/3", "5", " -5/10"],
        }
        for ring_name, pool in texts.items():
            for n in (1, 2, 5, 9):
                cells = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
                doc = json.dumps({"size": n, "ring": ring_name, "entries": cells})
                m = matrix_from_json(doc)
                for row, texts_row in zip(m.entries, cells):
                    want = tuple(parse_value(t, ring_name) for t in texts_row)
                    assert row == want
                    assert [type(v) for v in row] == [type(v) for v in want]
                    for v in row:
                        if type(v) is Fraction and v == 0:
                            assert v is hessenberg.ZERO

    def test_from_json_refuses_cells_that_are_not_strings(self):
        def doc(entries):
            return json.dumps({"size": len(entries), "ring": "rational", "entries": entries})

        for cell in (1, 2.5, True, None, [1], {"a": 1}):
            with pytest.raises(RecdetError) as info:
                matrix_from_json(doc([["1", "2"], ["3", cell]]))
            assert str(info.value) == "matrix JSON cell at row 2, column 2 is not a string"
            assert type(info.value) is RecdetError
            # the first bad cell in row-major order raises, whatever its kind
            with pytest.raises(RecdetError, match="row 1, column 2 is not a string"):
                matrix_from_json(doc([["1", cell], ["1/0", "4"]]))
            with pytest.raises(RecdetError, match="cannot parse rational value"):
                matrix_from_json(doc([["1", "1/0"], [cell, "4"]]))
            with pytest.raises(RecdetError, match="cannot parse rational value"):
                matrix_from_json(doc([["1/0", cell], ["3", "4"]]))

    def test_polynomial_degrees_past_the_cap_are_refused(self):
        # refused from the exponent's digits, before any coefficient list
        cap = MAX_PARSE_DEGREE
        assert parse_value(f"x^{cap}", "poly").degree == cap
        for cell in (f"x^{cap + 1}", "2*x^1000000000 + 1", "x^" + "9" * 5000):
            with pytest.raises(SizeTooLarge) as info:
                parse_value(cell, "poly")
            assert info.value.exit_code == 2
            assert str(info.value) == f"polynomial degree above the limit {cap}"

    def test_latex_vmatrix_golden(self):
        m = SquareMatrix([[X, 1], [-1, X]])
        assert matrix_to_latex(m) == (
            "\\begin{vmatrix}\n"
            "x & 1 \\\\\n"
            "-1 & x \\\\\n"
            "\\end{vmatrix}"
        )

    def test_text_output_aligns_columns(self):
        m = SquareMatrix([[1, 22], [-1, 3]])
        lines = matrix_to_text(m).splitlines()
        assert len(lines) == 2
        assert len(lines[0]) == len(lines[1])
        assert lines[0].startswith("[") and lines[0].endswith("]")


def test_random_hessenberg_is_reproducible_and_banded():
    a = random_hessenberg(6, random.Random(99))
    b = random_hessenberg(6, random.Random(99))
    assert a.entries == b.entries
    for r in range(6):
        for c in range(6):
            if r > c + 1:
                assert a.entries[r][c] == 0
