"""Square matrices over the exact rings, plus three determinant algorithms.

det_hessenberg_fast is the O(n^2) leading-principal-minor recurrence,
run down each column in Horner order, and the computational heart of
the package; det_laplace (cofactor expansion, guarded at size 8) and
det_bareiss (fraction-free elimination) are its independent oracles.
det_bareiss is the O(n^3) ring elimination in general, and an O(n^2)
row recurrence on upper-Hessenberg matrices while bits are not tracked,
which needs no row swap and expands rows.  A matrix is given by its rows
and an optional band; whether it is upper Hessenberg is read from its
cells.  All three read its cells in one kernel form, made once where
the cells allow it (see SquareMatrix._kernel_form): integral cells as
ints, and integral polynomial cells packed into ints by Kronecker
substitution up to a width gate.  Bareiss and Laplace run any other
matrix over ring values; its leading minors, as a spec's columns',
scale each column to ints where they can, and run the ring recurrence
from the first column whose cells, its subdiagonal one included, hold a
Polynomial; only the catalog's columns come as int coefficient lists
(see column_minors).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from math import gcd
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import ring
from .errors import NotHessenberg, RecdetError, SizeTooLarge
from .ring import (
    COUNTER,
    Polynomial,
    RingValue,
    _add_product,
    _pair_poly,
    _reduced_poly,
    int_scaled,
    is_zero,
    latex_value,
    pair_outgrew,
    pair_value,
    parse_value,
    render_value,
    ring_add,
    ring_exact_div,
    ring_mul,
    ring_sub,
)

if TYPE_CHECKING:
    from random import Random


# The zero cell theorem1_matrix fills in.  SquareMatrix checks its zero
# patterns with list.count(ZERO), which tests identity before calling
# __eq__, so cells that are this very object cost no Python call.
ZERO = Fraction(0)
_ONE = Fraction(1)
_RING_TYPES = {Fraction, Polynomial}


def _coerce_entry(v: object) -> RingValue:
    if isinstance(v, (Fraction, Polynomial)):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise RecdetError(f"matrix entries must be exact ring values, got {type(v).__name__}")


class _Kernel(NamedTuple):
    """A matrix's rows as the int kernels read them, and value, which
    makes a kernel's cell or result the ring path's value (a Fraction
    stays as it is)."""

    rows: tuple
    value: Callable


# a kernel cell's type -> its denominator, its kernel value, and the
# kernel's zero
_CELLS = {
    Fraction: (attrgetter("denominator"), attrgetter("numerator"), 0),
    Polynomial: (attrgetter("den"), attrgetter("nums"), ()),
}


@dataclass(frozen=True)
class SquareMatrix:
    """Immutable dense n x n matrix of ring values, given by its rows.

    The size and the shape are read from the cells.  The matrix is upper
    Hessenberg when every cell below the first subdiagonal is zero;
    otherwise _below_subdiagonal keeps the first nonzero one, 0-based
    (row, column) in row-major order, and hessenberg_leading_minors
    refuses the matrix naming it.  A declared band b promises
    e[r][c] == 0 whenever c - r > b (b superdiagonals above the main
    one) and is enforced at construction; None means dense.

    The int kernels read the cells of an upper-Hessenberg matrix in one
    form (see _kernel_form), kept in _kernel, a field that compares and
    prints as nothing: computed on first use, or filled by matrix_from_json
    from the matrix's distinct cell texts under the same rule.
    """

    entries: tuple[tuple[RingValue, ...], ...]
    band: int | None = None
    _below_subdiagonal: tuple[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # None until computed, () where the rule refuses
    _kernel: _Kernel | tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        rows = tuple(
            tuple(row) if set(map(type, row)) <= _RING_TYPES
            else tuple(map(_coerce_entry, row))
            for row in self.entries
        )
        n = len(rows)
        if n < 1:
            raise RecdetError("matrix size must be at least 1")
        if any(len(row) != n for row in rows):
            raise RecdetError(f"entries do not form a {n}x{n} array")
        object.__setattr__(self, "entries", rows)
        self._find_below_subdiagonal()
        if self.band is not None:
            if self.band < 0:
                raise RecdetError(f"band must be at least 0, got {self.band}")
            for r in range(n):
                c = _first_nonzero(rows[r], r + self.band + 1, n)
                if c is not None:
                    raise NotHessenberg(
                        f"nonzero entry at row {r + 1}, column {c + 1} "
                        f"above the declared band {self.band}"
                    )

    @classmethod
    def _of_ring_rows(cls, rows: tuple[tuple[RingValue, ...], ...]) -> "SquareMatrix":
        """The dense matrix of rows, n >= 1 tuples of n cells each a
        Fraction or a Polynomial, taken as they are: the constructor with
        no walk over the cells' types."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", rows)
        m._find_below_subdiagonal()
        return m

    def _find_below_subdiagonal(self) -> None:
        """Keep the first nonzero cell below the subdiagonal, if any, in
        _below_subdiagonal."""
        rows = self.entries
        for r in range(2, len(rows)):
            c = _first_nonzero(rows[r], 0, r - 1)
            if c is not None:
                object.__setattr__(self, "_below_subdiagonal", (r, c))
                break

    @property
    def size(self) -> int:
        return len(self.entries)

    def with_entry(self, row: int, col: int, value: object) -> "SquareMatrix":
        """Copy with one entry replaced (0-based indices).

        The copy is dense: the new value may lie outside a declared band.
        """
        rows = [list(r) for r in self.entries]
        rows[row][col] = value
        return SquareMatrix(rows)

    def leading_submatrix(self, k: int) -> "SquareMatrix":
        if not (1 <= k <= self.size):
            raise RecdetError(f"leading submatrix size {k} out of range")
        return SquareMatrix(tuple(row[:k] for row in self.entries[:k]), self.band)

    def _kernel_form(self) -> _Kernel | None:
        """The cells on or above the subdiagonal of this upper-Hessenberg
        matrix in the one form the int kernels read, zero below it: as
        ints (value Fraction) when every such cell is an integral
        Fraction; when every one is a Polynomial with den 1 and B is at
        most _MAX_PACKED_BITS, packed into the ints p(2^B) (value
        _unpacked).  None for any other matrix, which keeps the ring
        paths, and for every matrix while COUNTER tracks bits.

        B = bit_length(H) + 1, H the product over the rows of max(1, the
        sum of the row's cells' coefficient 1-norms).  By its Leibniz
        expansion every minor has a 1-norm of at most H, so its
        coefficients have magnitudes below 2^(B - 1) (see _unpacked).
        """
        if COUNTER.track_bits:
            return None
        if self._kernel is None:
            object.__setattr__(self, "_kernel", _kernel_of(self))
        return self._kernel or None


def _kernel_of(m: SquareMatrix) -> _Kernel | tuple:
    """m._kernel_form computed cell by cell, or () where its rule
    refuses."""
    if m._below_subdiagonal is not None:
        return ()
    kind = type(m.entries[0][0])
    den, value, zero = _CELLS[kind]
    rows = []
    for r, row in enumerate(m.entries):
        tail = row[max(r - 1, 0) :]
        if set(map(type, tail)) != {kind} or set(map(den, tail)) != {1}:
            return ()
        rows.append((zero,) * (r - 1) + tuple(map(value, tail)))
    if kind is Fraction:
        return _Kernel(tuple(rows), Fraction)
    b = _slot_bits(sum(abs(a) for cell in row for a in cell) for row in rows)
    if b > _MAX_PACKED_BITS:
        return ()
    packed = tuple(tuple(_pack(cell, b) for cell in row) for row in rows)
    return _Kernel(packed, partial(_unpacked, b=b))


# The widest slot B with which the kernels run a polynomial matrix
# packed (see SquareMatrix._kernel_form); a wider one has no kernel form.
# The packed ints grow with B and the degrees.  In probes of degree 1 to
# 8 with coefficients of 2 to 10 bits, at sizes from 10 to 70 (best of 3,
# Python 3.11.7, x86-64), det_hessenberg_fast and det_bareiss over the
# packed ints took 0.1 to 0.8 of their time over the Polynomials below B
# of about 280 bits, and fell behind them from B of about 310 (degree 8)
# to 490 bits (degree 1).  Past the gate all three methods run over ring
# values.
_MAX_PACKED_BITS = 320


def _slot_bits(row_norms: Iterable[int]) -> int:
    """B = bit_length(H) + 1, H the product of max(1, s) over the rows'
    coefficient 1-norm sums s (see SquareMatrix._kernel_form)."""
    h = 1
    for s in row_norms:
        h *= max(1, s)
    return h.bit_length() + 1


def _pack(cell: tuple[int, ...], b: int) -> int:
    """The int coefficient tuple cell, constant term first, evaluated at
    x = 2^b."""
    v = 0
    for a in reversed(cell):
        v = (v << b) + a
    return v


def _unpacked(v: int | Fraction, b: int) -> RingValue:
    """A packed kernel's value as the ring path's: the Polynomial p with
    integral coefficients of magnitude below 2^(b - 1) and p(2^b) = v,
    whose coefficients are v's balanced base-2^b digits, lowest first; a
    Fraction as it is."""
    if type(v) is Fraction:
        return v
    nums = []
    half, full = 1 << (b - 1), 1 << b
    mask = full - 1
    while v:
        a = v & mask
        if a >= half:
            a -= full
        nums.append(a)
        v = (v - a) >> b
    return _pair_poly(tuple(nums), 1)


def _first_nonzero(row: tuple[RingValue, ...], lo: int, hi: int) -> int | None:
    """The first column in lo..hi - 1 whose cell is not zero, or None.

    One C-level count decides the common all-zero case; only a segment
    that fails it is walked cell by cell.
    """
    seg = row[lo:hi]
    if seg.count(ZERO) < len(seg):
        for c, v in enumerate(seg, lo):
            if not is_zero(v):
                return c
    return None


def identity(n: int) -> SquareMatrix:
    rows = tuple(
        tuple(Fraction(1) if r == c else ZERO for c in range(n)) for r in range(n)
    )
    return SquareMatrix(rows)


LAPLACE_SIZE_LIMIT = 8

# The largest dense matrix that theorem1_matrix, matrix_from_json and
# random_hessenberg build; a larger size raises SizeTooLarge before any
# row is built.  Building and printing one costs about 150 bytes a cell:
# `matrix --k N --format json` of the poly-ring spec p(k, i) = k*x + i
# peaked at 60 MB RSS at N = 500 and 191 MB at N = 1000, and of the
# rational p(k, i) = (k + i)/(2k + i + 1) at 52 and 160 MB;
# matrix_from_json of that poly JSON at 52 and 169 MB (Python 3.11,
# x86-64).  So this size stays near 0.75 GB.
MAX_MATRIX_SIZE = 2000


def _refuse_matrix_size(size: int) -> None:
    """Raise SizeTooLarge when a dense matrix of this size is past
    MAX_MATRIX_SIZE."""
    if size > MAX_MATRIX_SIZE:
        raise SizeTooLarge(f"matrix size above the limit {MAX_MATRIX_SIZE}, got {size}")


def det_laplace(m: SquareMatrix) -> RingValue:
    """Determinant by cofactor expansion along the first row.

    Refuses matrices larger than 8 to keep the factorial blowup at bay;
    this is the brute-force oracle, not a production path.
    """
    _refuse_laplace_size(m.size)
    return _laplace(m)


def _refuse_laplace_size(size: int) -> None:
    if size > LAPLACE_SIZE_LIMIT:
        raise SizeTooLarge(
            f"det_laplace handles sizes up to {LAPLACE_SIZE_LIMIT}, got {size}"
        )


def _laplace(m: SquareMatrix) -> RingValue:
    """Cofactor expansion along the first row, each distinct minor once.

    The minor left after expanding rows 0..d-1 is rows d.. on the
    columns that remain, so it is memoized by that column tuple: at
    most 2^n minors.  Each entry carries the minor's value and the muls
    and adds that the expansion recomputing every minor makes for it,
    and COUNTER gets the root's totals in bulk.  That expansion forms
    the same products and partial sums, so observing each distinct one
    once, while bits are tracked, leaves max_bits as it would be.

    The cells run over m._kernel_form's ints or packed ints when it has
    them, and the determinant comes back as the ring path's value, or its
    Fraction 0 when the first row of a matrix wider than 1 is zero; else
    over ring values.
    """
    form = m._kernel_form()
    rows = form.rows if form else m.entries
    # an empty expansion's value: the ring path's Fraction 0, or an int
    empty = 0 if form else Fraction(0)
    n = len(rows)
    track = COUNTER.track_bits
    memo: dict[tuple[int, ...], tuple[RingValue, int, int]] = {}

    def minor(cols: tuple[int, ...]) -> tuple[RingValue, int, int]:
        # a minor not in memo yet
        row = rows[n - len(cols)]
        if len(cols) == 1:
            hit = (row[cols[0]], 0, 0)
        else:
            total = None
            muls = adds = 0
            for j, c in enumerate(cols):
                v = row[c]
                if v == 0:
                    continue
                sub = cols[:j] + cols[j + 1 :]
                rest, rest_muls, rest_adds = memo.get(sub) or minor(sub)
                muls += 1 + rest_muls
                adds += rest_adds if total is None else rest_adds + 1
                t = -v * rest if j % 2 else v * rest
                total = t if total is None else total + t
                if track:
                    COUNTER.observe(t)
                    COUNTER.observe(total)
            hit = (empty if total is None else total, muls, adds)
        memo[cols] = hit
        return hit

    det, muls, adds = minor(tuple(range(n)))
    COUNTER.muls += muls
    COUNTER.adds += adds
    if not form:
        return det
    if n > 1 and not any(rows[0]):
        return Fraction(0)
    return form.value(det)


def det_bareiss(m: SquareMatrix) -> RingValue:
    """Fraction-free single-step Bareiss elimination.

    Intermediate entries stay in the ring thanks to exact divisions by
    the previous pivot.  Rows are swapped only to repair a zero pivot:
    the first row below it with a nonzero entry in its column comes up,
    with sign tracking, and a column with no such row short-circuits to
    0.  An upper-Hessenberg matrix takes a division-free O(n^2) row
    recurrence while bits are not tracked, which needs no swap (see
    _hessenberg_bareiss); any other matrix takes the O(n^3) elimination.
    """
    return _bareiss(m)


def _bareiss(m: SquareMatrix, minors: list[RingValue] | None = None) -> RingValue:
    """det_bareiss's elimination of m's rows, returning the determinant.

    With a list minors, leading minors are appended to it:
    _hessenberg_bareiss appends all of d_1..d_n.  _ring_bareiss appends
    the pivot of each step before the step, and the last entry after the
    last step, which are d_1..d_n while no row is swapped; its first zero
    pivot ends the pass, returning 0 with that zero minor appended.

    An upper-Hessenberg matrix takes _hessenberg_bareiss while
    COUNTER.track_bits is off, so that max_bits still sees every result
    of the ring path; any other matrix, and every matrix while bits are
    tracked, takes _ring_bareiss.
    """
    if m._below_subdiagonal is None and not COUNTER.track_bits:
        return _hessenberg_bareiss(m, minors)
    return _ring_bareiss([list(row) for row in m.entries], minors)


def _hessenberg_bareiss(m: SquareMatrix, minors: list[RingValue] | None) -> RingValue:
    """_bareiss on an upper-Hessenberg matrix as a row recurrence.

    Let R_i[c] be the determinant of rows 0..i on columns 0..i-1 and c,
    so that R_i[i] is the leading minor d_{i+1}.  Row i of that matrix is
    zero but for its subdiagonal cell s_i = orig_i[i-1] and orig_i[c], so
    expanding along it gives R_i = d_i * orig_i - s_i * R_{i-1} on columns
    >= i, with R_0 = orig_0, for every d_i, zero included.  While no
    pivot is zero these are _ring_bareiss's rows: below the pivot row,
    Bareiss only rescales a row until its own step, and those factors
    telescope away.  So the determinant and every leading minor come
    out, of _ring_bareiss's types, from O(n^2) products and no division.

    When d_i = 0 the next row is -s_i * R_{i-1}.  The elimination swaps
    row i up instead and rescales the old pivot row by s_i, which gives
    the same row up to its sign, so no swap is needed.  When s_i is zero
    as well, every later minor is 0.  A row whose subdiagonal cell is
    zero is only rescaled, and keeps its zero cells as they are.

    The cells run over m._kernel_form when it has them, and the results
    come back as the ring path's Fractions or Polynomials, keeping the
    pivots' Fraction 0s; else over ring values.  Either way the loop
    forms its rows by _combine.  COUNTER gets det_bareiss's ring-path
    counts in bulk, with minors or without.
    """
    n = m.size
    rows, value = m._kernel_form() or (m.entries, None)
    # row r from column r - 1: the cells on or above the subdiagonal
    tails = [row[max(r - 1, 0) :] for r, row in enumerate(rows)]
    row = tails[0]
    pivots = [row[0]]
    steps = n - 1
    # row i -> the nonzero cells that _ring_bareiss's swap with row i rescales
    swaps: dict[int, int] = {}
    for i in range(1, n):
        tail = tails[i]
        p, s = row[0], tail[0]
        if p == 0 and s == 0:
            steps = i - 1
            pivots += [Fraction(0)] * (n - i)
            break
        row = _combine(p, tail[1:], s, row[1:])
        if p == 0:
            swaps[i] = len(row) - row.count(0)
        pivots.append(row[0])
    _hessenberg_bareiss_counts(tails, steps, swaps)
    if minors is not None:
        minors += pivots if value is None else map(value, pivots)
    return pivots[-1] if value is None else value(pivots[-1])


def _combine(p: RingValue, xs: list, s: RingValue, ys: list) -> list:
    """The next row of _hessenberg_bareiss over ints or ring values:
    p * xs - s * ys cell by cell, or, when p is zero, -s * ys and, when s
    is zero, p * xs, with zero cells kept as they are."""
    if p == 0:
        s = -s
        return [y if y == 0 else s * y for y in ys]
    if s == 0:
        return [x if x == 0 else p * x for x in xs]
    return [p * x - s * y for x, y in zip(xs, ys)]


def _hessenberg_bareiss_counts(tails: list, steps: int, swaps: dict[int, int]) -> None:
    """Add to COUNTER the muls, adds and divs of _ring_bareiss's first
    steps on an upper-Hessenberg matrix, whose rows from the
    subdiagonal on are tails, with the rows in swaps swapped up.

    At step k, with w = n - k - 1, row k + 1 costs 2w muls, w adds and w
    divs when its subdiagonal cell is nonzero; every other row below the
    pivot row costs one mul and one div per nonzero cell right of column
    k, which for row i >= k + 2 is every nonzero cell.  When row k + 1 is
    swapped up, the old pivot row takes its place, at one mul and one
    div per nonzero cell of it right of column k: swaps[k + 1] of them.
    """
    n = len(tails)
    muls = adds = divs = 0
    for i in range(1, n):
        tail = tails[i]
        live = len(tail) - tail.count(0)
        rescaled = live * min(steps, i - 1)
        muls += rescaled
        divs += rescaled
        if i <= steps:
            if i in swaps:
                muls += swaps[i]
                divs += swaps[i]
            elif tail[0] == 0:
                muls += live
                divs += live
            else:
                w = n - i
                muls += 2 * w
                adds += w
                divs += w
    COUNTER.muls += muls
    COUNTER.adds += adds
    COUNTER.divs += divs


def _ring_bareiss(
    a: list[list[RingValue]], minors: list[RingValue] | None
) -> RingValue:
    """_bareiss over the ring, one ring_* call per operation."""
    n = len(a)
    zero = Fraction(0)
    prev: RingValue = Fraction(1)
    sign = 1
    for k in range(n - 1):
        if minors is not None:
            minors.append(a[k][k])
        if is_zero(a[k][k]):
            if minors is not None:
                return zero
            for r in range(k + 1, n):
                if not is_zero(a[r][k]):
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            aik_zero = is_zero(aik)
            row = a[i]
            for j in range(k + 1, n):
                if aik_zero and is_zero(row[j]):
                    continue
                t = ring_mul(row[j], pivot)
                if not aik_zero:
                    t = ring_sub(t, ring_mul(aik, a[k][j]))
                row[j] = ring_exact_div(t, prev)
            row[k] = zero
        prev = pivot
    d = a[n - 1][n - 1]
    if minors is not None:
        minors.append(d)
    return d if sign == 1 else -d


def hessenberg_leading_minors(m: SquareMatrix) -> list[RingValue]:
    """All leading principal minors d_1..d_n of an upper-Hessenberg matrix.

    Uses the recurrence d_c = sum_j (-1)^(c-j) m[j][c] (prod of the
    subdiagonal between j and c) d_{j-1} with d_0 = 1, in O(n^2) ring
    multiplications in Horner order (see _horner).  With a declared band
    b the sum runs over j >= c - b only, the other m[j][c] being zero: O(n*b).
    """
    minors, value = _minors_pass(m)
    return list(map(value, minors))


def _minors_pass(m: SquareMatrix) -> tuple[list, Callable]:
    """m's leading minors as the pass leaves them, and the function that
    makes one the ring value.  m._kernel_form's columns run at scale 1,
    never handing over: a dense kernel's from one transpose of its rows,
    a banded one's from its band rows, O(n*b).  Else column_minors reads
    the cells."""
    if m._below_subdiagonal is not None:
        r, c = m._below_subdiagonal
        raise NotHessenberg(
            f"nonzero entry at row {r + 1}, column {c + 1} below the first subdiagonal"
        )
    n = m.size
    band = n if m.band is None else m.band
    form = m._kernel_form()
    if form is None:
        minors = column_minors(lambda k: None, *_matrix_columns(m.entries), n, band)
        return minors, pair_value
    rows, value = form
    # column c's negated subdiagonal cell, any int for the last column
    subs = [-rows[c + 1][c] for c in range(n - 1)] + [0]
    if m.band is None:
        cols: Iterable = zip(*rows)
    else:
        cols = ([row[c] for row in rows[max(c - band, 0) : c + 1]] for c in range(n))
    minors = scaled_leading_minors(zip(repeat(1), cols, subs), band)
    return minors, lambda pair: value(pair[0])


def _matrix_columns(
    e: tuple[tuple[RingValue, ...], ...]
) -> tuple[Callable[[int, int], list[RingValue]], list[RingValue]]:
    """The column source of the matrix rows e, for _ring_leading_minors."""
    return (
        lambda c, lo: [row[c] for row in e[lo : c + 1]],
        [-e[t + 1][t] for t in range(len(e) - 1)],
    )


def column_minors(
    given: Callable[[int], tuple | None],
    column: Callable[[int, int], list[RingValue]],
    subs: list[RingValue],
    n: int,
    band: int,
) -> list:
    """The leading minors d_1..d_n of the upper-Hessenberg matrix of
    column and subs (see _ring_leading_minors), a matrix's or a spec's.
    COUNTER gets the ring path's counts.

    Column c comes pre-scaled as given(c + 1), where given has it:
    (L, col) over a -1, as in Theorems 1 and 2, whose negated cell scaled
    by L is L.  Else its band cells and subs[c] take one scale through
    ring.int_scaled, so only a given column comes as int coefficient
    lists (families._COLUMNS).
    The ring recurrence goes on from the first column the gate refuses (a
    Polynomial among its cells, or bits tracked), with the cells as read,
    or from where a scale outgrew its minor.  Minors of int columns come
    back as pairs (A, T), except those the ring recurrence reads.
    """
    refused: list[list[RingValue]] = []

    def scaled() -> Iterator[tuple[int, list, int]]:
        for c in range(n):
            got = given(c + 1)
            if got is not None:
                yield (*got, got[0])
                continue
            cells = column(c, max(c - band, 0))
            # the negated subdiagonal cell (c + 1, c) takes the scale
            got = int_scaled([*cells, subs[c] if c < len(subs) else _ONE])
            if got is None:
                refused.append(cells)
                return
            scale, col = got
            yield scale, col, col.pop()

    d = [_ONE, *scaled_leading_minors(scaled(), band)]
    if len(d) > n:
        return d[1:]
    # the ring recurrence goes on from the minors its first column reads,
    # as ring values
    lo = max(len(d) - 1 - band, 0)
    d[lo:] = map(pair_value, d[lo:])
    return _ring_leading_minors(column, subs, n, band, d, refused)


def _ring_leading_minors(
    column: Callable[[int, int], list[RingValue]],
    subs: list[RingValue],
    n: int,
    band: int,
    d: list[RingValue],
    read: Sequence[list[RingValue]] = (),
) -> list[RingValue]:
    """Extend d = [1, d_1, ..., d_c] to all n minors; returns d_1..d_n.

    column(c, lo) gives column c's cells, rows lo..c of its band (0-based),
    and is called once for each column d lacks, in order, after the
    columns read gives as already read; subs[t] is the negated
    subdiagonal cell (t + 1, t).  Columns run in _horner's order,
    or while COUNTER tracks bits as the plain sum of e[j][c] * prod * d_j,
    one ring_* call per operation, so that max_bits sees the values it
    pins."""
    start = len(d) - 1
    los = [max(c - band, 0) for c in range(start, n)]
    cols = chain(read, map(column, range(start + len(read), n), los[len(read):]))
    if not COUNTER.track_bits:
        skip = [None if s == 1 and type(s) is Fraction else s for s in subs]
        for lo, col in zip(los, cols):
            d.append(_horner(col, lo, d, skip))
        terms = sum(min(c, band) for c in range(start, n))
        COUNTER.muls += n - start + 3 * terms
        COUNTER.adds += terms
        return d[1:]
    for c, lo, col in zip(range(start, n), los, cols):
        acc = ring_mul(col[-1], d[c])
        prod: RingValue = Fraction(1)
        for j in range(c - 1, lo - 1, -1):
            prod = ring_mul(prod, subs[j])
            acc = ring_add(acc, ring_mul(ring_mul(col[j - lo], prod), d[j]))
        d.append(acc)
    return d[1:]


def scaled_leading_minors(columns: Iterable[tuple[int, list, int]], band: int) -> list:
    """The leading minors of the columns, by the ring recurrence run over
    ints, until the columns run out or the scales outgrow the minors (see
    pair_outgrew).  COUNTER gets the ring path's muls and adds for these
    columns, in bulk.

    Column c comes as (L_c, col, s): its band cells, rows max(c - band, 0)
    to c, scaled to ints by L_c, and its subdiagonal cell (c + 1, c)
    negated and scaled by L_c (any int for the last column).  L_c
    scales the c-th leading minor by L_1 * ... * L_c, so the scaled
    minors d'_c come from the same recurrence, and
    d_c = d'_c / (L_1 * ... * L_c).  A minor of int cells comes back as
    that unreduced pair (d'_c, L_1 * ... * L_c), for the caller to turn
    into a Fraction where it leaves as a ring value (ring.pair_value).

    The cells are ints (ring.int_scaled, or SquareMatrix._kernel_form's
    ints or packed ints at scale 1), or, for the catalog's three-term
    polynomial families (families._COLUMNS), polynomials as int
    coefficient lists in every column, s an int.  The scaled minors are
    then lists too (_horner_lists), and the minors Polynomials, as the
    ring path makes them.  Each list minor divides out what its scale
    shares with the minors the next column reads (see _divide_window),
    which keeps the catalog's scales within about log2(n) bits of the
    minors' denominators, so list minors never hand over.
    """
    d: list = [1]
    shares: list[int] = []
    subs: list[int | None] = []
    minors: list[RingValue] = []
    total = 1
    terms = 0
    step = _horner
    # a scale no longer than the bound outgrows no minor (see pair_outgrew)
    bound = ring._MAX_EXCESS_BITS
    for c, (scale, col, sub) in enumerate(columns):
        lo = max(c - band, 0)
        if step is _horner and type(col[0]) is not int:
            step = _horner_lists
            d = [[v] if v else [] for v in d]
            shares = [1] * len(d)
        d.append(step(col, lo, d, subs))
        subs.append(None if sub == 1 else sub)
        terms += c - lo
        total *= scale
        if step is _horner:
            minors.append((d[-1], total))
            if total.bit_length() > bound and pair_outgrew(d[-1], total):
                break
        else:
            # trims the trailing zeros of d[-1] in place
            minor = _reduced_poly(d[-1], total)
            shares.append(total // minor.den)
            total = _divide_window(d, shares, max(c + 1 - band, 0), total)
            minors.append(minor)
    COUNTER.muls += len(minors) + 3 * terms
    COUNTER.adds += terms
    return minors


def rank_one_leading_minors(h: tuple, g: tuple) -> list[tuple[int, int]]:
    """The leading minors d_1..d_n, as pairs (A, T), of Theorem 1's
    matrix whose cell (i, k), i <= k, is h(k) * g(i) and whose subdiagonal
    is -1: above its subdiagonal it has rank one.  h and g come as runs
    (nums, dens) over 1..n, every den > 0.

    Expanding d_k along column k gives d_k = h(k) * U_k with
    U_k = U_{k-1} + g(k) * d_{k-1}, U_0 = 0 and d_0 = 1: O(n) where the
    leading-minor recurrence takes O(n^2).  U_k is held as the pair
    (B, Q), and d_k as its numerator over Q times the den of h(k), so
    each step multiplies large ints by small ones only.  Where U's scale
    outgrew it (ring.pair_outgrew), its pair is divided by their gcd and
    the expansion goes on.  COUNTER gets what scaled_leading_minors adds
    for n dense columns, in bulk.
    """
    (hn, hd), (gn, gd) = h, g
    minors: list[tuple[int, int]] = []
    # U as b / q; d_{k-1} as a / (q * t)
    b, q, a, t = 0, 1, 1, 1
    for hk, dk, gk, ek in zip(hn, hd, gn, gd):
        s = t * ek
        b, q = b * s + gk * a, q * s
        if pair_outgrew(b, q):
            c = gcd(b, q)
            b, q = b // c, q // c
        a, t = hk * b, dk
        minors.append((a, q * t))
    n = len(minors)
    COUNTER.muls += n + 3 * (n * (n - 1) // 2)
    COUNTER.adds += n * (n - 1) // 2
    return minors


def _divide_window(d: list, shares: list[int], lo: int, total: int) -> int:
    """Divide the list minors d[lo:], the ones the next column reads, and
    their scale total by h, the gcd of shares[lo:]; returns total / h.

    shares[j] is what d[j]'s scale shares with its coefficients, the
    scale over the minor's reduced denominator, so h divides every
    coefficient of the window and every scale in it: the minors keep
    their values and their scales their ratios L_j.  Where denominators
    cancel, as in Legendre's, the ints stay near the reduced minors'
    instead of growing with L_1 * ... * L_c.  A window that holds d_0,
    as every column of a dense matrix reads, has h = 1.
    """
    h = gcd(*shares[lo:])
    if h == 1:
        return total
    for j in range(lo, len(d)):
        d[j] = [a // h for a in d[j]]
        shares[j] //= h
    return total // h


def _horner(col: list, lo: int, d: list, subs: list) -> RingValue:
    """The minor d_{c+1}, c = len(d) - 1, over ints or ring values, from
    column c's cells col (rows lo..c; later ones unread), d = [d_0..d_c]
    and the negated subdiagonal cells subs, None for an int or Fraction 1
    (as under Theorems 1 and 2), whose product is skipped.  Each term takes
    two products, neither of two large values, where e[j][c] * prod * d_j,
    prod the product of subs[j..c-1], takes three; the kernels count those."""
    acc = col[0] * d[lo]
    for j in range(lo + 1, len(d)):
        s = subs[j - 1]
        acc = (acc if s is None else acc * s) + col[j - lo] * d[j]
    return acc


def _horner_lists(col: list, lo: int, d: list, subs: list) -> list[int]:
    """_horner over polynomials as int coefficient lists, constant term
    first and [] for zero: the cells col and minors d are lists, subs
    ints or None.  A zero cell or minor skips its product."""
    acc = _add_product([], col[0], d[lo])
    for j in range(lo + 1, len(d)):
        s = subs[j - 1]
        if s is not None:
            acc = [a * s for a in acc]
        acc = _add_product(acc, col[j - lo], d[j])
    return acc


def det_hessenberg_fast(m: SquareMatrix) -> RingValue:
    """O(n^2) determinant via the leading-principal-minor recurrence:
    hessenberg_leading_minors(m)[-1], with d_n alone made a ring value."""
    minors, value = _minors_pass(m)
    return value(minors[-1])


DET_FUNCTIONS = {
    "fast": det_hessenberg_fast,
    "bareiss": det_bareiss,
    "laplace": det_laplace,
}


def leading_minors(m: SquareMatrix, method: str) -> list[RingValue]:
    """Leading principal minors d_1..d_n of m by the method of
    DET_FUNCTIONS that method names.

    The fast method takes them all in one pass, and so does Bareiss on
    an upper-Hessenberg matrix while bits are not tracked.  Bareiss's
    ring elimination takes them up to its first zero pivot (the pivots
    of a pass with no row swap are the leading minors); past it, and for
    Laplace, each remaining minor is one determinant of a leading
    submatrix.  Laplace refuses before its first determinant when a
    submatrix is past its size limit, naming the first such size.
    """
    det = DET_FUNCTIONS[method]
    if det is det_hessenberg_fast:
        return hessenberg_leading_minors(m)
    minors: list[RingValue] = []
    if det is det_bareiss:
        _bareiss(m, minors)
    elif det is det_laplace:
        _refuse_laplace_size(min(m.size, LAPLACE_SIZE_LIMIT + 1))
    return minors + [
        det(m.leading_submatrix(k)) for k in range(len(minors) + 1, m.size + 1)
    ]


# --- emitters and parsers -------------------------------------------------

def matrix_ring(m: SquareMatrix) -> str:
    for row in m.entries:
        for v in row:
            if isinstance(v, Polynomial):
                return "poly"
    return "rational"


def matrix_to_json(m: SquareMatrix, ring: str | None = None) -> str:
    """JSON per the documented schema: {"size", "ring", "entries"}."""
    payload = {
        "size": m.size,
        "ring": ring if ring is not None else matrix_ring(m),
        "entries": [[render_value(v) for v in row] for row in m.entries],
    }
    return json.dumps(payload, separators=(",", ":"))


def matrix_from_json(text: str) -> SquareMatrix:
    """Parse the JSON schema back into a matrix.

    Each distinct cell text is parsed once, and each distinct term of the
    polynomial texts once, through a table of this call's own (see
    ring._parse_poly_text); cells are checked in row-major order, so the
    first bad cell raises.  The kernel form of an upper-Hessenberg
    matrix comes from the distinct texts too (see _fill_kernel_rows).
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecdetError(f"invalid matrix JSON: {exc}") from exc
    if not isinstance(payload, dict) or set(payload) != {"size", "ring", "entries"}:
        raise RecdetError('matrix JSON must have exactly the keys "size", "ring", "entries"')
    size = payload["size"]
    ring = payload["ring"]
    entries = payload["entries"]
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise RecdetError("matrix JSON size must be a positive integer")
    _refuse_matrix_size(size)
    if ring not in ("rational", "poly"):
        raise RecdetError(f"matrix JSON ring must be rational or poly, got {ring!r}")
    if (
        type(entries) is not list
        or len(entries) != size
        or set(map(type, entries)) != {list}
        or set(map(len, entries)) != {size}
    ):
        raise RecdetError("matrix JSON entries do not form a square array")
    # each distinct cell text is parsed once, and each distinct term of a
    # polynomial text once; "0" maps to the shared ZERO
    cache: dict[str, RingValue] = {"0": ZERO}
    terms: dict[str, tuple[int, int, int]] = {}
    lookup = cache.__getitem__
    parsed = []
    for r, row in enumerate(entries):
        try:
            parsed.append(tuple(map(lookup, row)))
            continue
        except (KeyError, TypeError):  # a new text, or a cell that is no string
            pass
        # outside the handler, so that a parse error chains no KeyError
        parsed.append(_parse_row(row, r, ring, cache, terms))
    m = SquareMatrix._of_ring_rows(tuple(parsed))
    if m._below_subdiagonal is None:
        _fill_kernel_rows(m, entries, cache)
    return m


def _parse_row(
    row: list[object],
    r: int,
    ring: str,
    cache: dict[str, RingValue],
    terms: dict[str, tuple[int, int, int]],
) -> tuple[RingValue, ...]:
    """Row r of matrix_from_json, parsing each text the cache lacks, with
    the table terms of the polynomial terms parsed so far.

    Cells are checked in order, so the first bad cell raises.  A zero
    Fraction is stored as ZERO.
    """
    out = []
    for c, cell in enumerate(row):
        if not isinstance(cell, str):
            raise RecdetError(
                f"matrix JSON cell at row {r + 1}, column {c + 1} is not a string"
            )
        v = cache.get(cell)
        if v is None:
            v = parse_value(cell, ring, terms)
            if type(v) is Fraction and not v:
                v = ZERO
            cache[cell] = v
        out.append(v)
    return tuple(out)


def _fill_kernel_rows(
    m: SquareMatrix, texts: list[list[str]], cells: dict[str, RingValue]
) -> None:
    """Fill _kernel of m, the upper-Hessenberg matrix of texts, from cells,
    the value of each distinct text, each text converted once, by
    SquareMatrix._kernel_form's rule.  A text whose value the rule
    refuses may stand only below the subdiagonal, where it is zero."""
    kind = type(cells[texts[0][0]])
    den, value, zero = _CELLS[kind]
    odd = {t for t, v in cells.items() if type(v) is not kind or den(v) != 1}
    form: _Kernel | tuple = ()
    if not odd or all(odd.isdisjoint(row[max(r - 1, 0) :]) for r, row in enumerate(texts)):
        table = {t: zero if t in odd else value(v) for t, v in cells.items()}
        if kind is Fraction:
            form = _Kernel(_rows_of(texts, table), Fraction)
        else:
            norms = {t: sum(map(abs, nums)) for t, nums in table.items()}
            b = _slot_bits(sum(map(norms.__getitem__, row)) for row in texts)
            if b <= _MAX_PACKED_BITS:
                packed = {t: _pack(nums, b) for t, nums in table.items()}
                form = _Kernel(_rows_of(texts, packed), partial(_unpacked, b=b))
    object.__setattr__(m, "_kernel", form)


def _rows_of(texts: list[list[str]], table: dict[str, object]) -> tuple:
    """The rows of texts with each text replaced by its entry in table."""
    get = table.__getitem__
    return tuple(tuple(map(get, row)) for row in texts)


def matrix_to_latex(m: SquareMatrix) -> str:
    body = "\n".join(
        " & ".join(latex_value(v) for v in row) + r" \\" for row in m.entries
    )
    return "\\begin{vmatrix}\n" + body + "\n\\end{vmatrix}"


def matrix_to_text(m: SquareMatrix) -> str:
    cells = [[render_value(v) for v in row] for row in m.entries]
    widths = [max(len(cells[r][c]) for r in range(m.size)) for c in range(m.size)]
    lines = [
        "[ " + "  ".join(cells[r][c].rjust(widths[c]) for c in range(m.size)) + " ]"
        for r in range(m.size)
    ]
    return "\n".join(lines)


def random_hessenberg(
    size: int, rng: Random, ring: str = "rational", max_degree: int = 1
) -> SquareMatrix:
    """Seeded pseudo-random upper-Hessenberg matrix.

    Entries in the allowed band are drawn uniformly from the integers
    [-5, 5], row by row; for the poly ring each band entry gets
    max_degree + 1 such integers as coefficients.  The PRNG is whatever
    Random instance the caller seeds, so runs are reproducible.
    """
    if size < 1:
        raise RecdetError("matrix size must be at least 1")
    _refuse_matrix_size(size)
    poly = ring == "poly"
    return SquareMatrix([
        [
            ZERO if r > c + 1
            else Polynomial([rng.randint(-5, 5) for _ in range(max_degree + 1)]) if poly
            else Fraction(rng.randint(-5, 5))
            for c in range(size)
        ]
        for r in range(size)
    ])
