"""Square matrices over the exact rings, plus three determinant algorithms.

det_hessenberg_fast is the O(n^2) leading-principal-minor recurrence,
run down each column in Horner order, and the computational heart of
the package; det_laplace (cofactor expansion, guarded at size 8) and
det_bareiss (fraction-free elimination) are its independent oracles.
det_bareiss is the O(n^3) ring elimination in general, and an O(n^2)
row recurrence on upper-Hessenberg matrices while bits are not tracked,
which needs no row swap and expands rows.  A matrix is given by its rows
and an optional band; whether it is upper Hessenberg is read from its
cells.  Both fast routes read its integral cells as ints once, and all
three read its integral polynomial cells once, packed into ints by
Kronecker substitution up to a width gate and as int coefficient lists
past it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd
from operator import attrgetter, sub
from typing import TYPE_CHECKING, Callable, Iterable

from . import ring
from .errors import NotHessenberg, RecdetError, SizeTooLarge
from .ring import (
    COUNTER,
    Polynomial,
    RingValue,
    _add_product,
    _pair_poly,
    _reduced,
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
    scale_outgrew,
)

if TYPE_CHECKING:
    from random import Random


# The zero cell theorem1_matrix fills in.  SquareMatrix checks its zero
# patterns with list.count(ZERO), which tests identity before calling
# __eq__, so cells that are this very object cost no Python call.
ZERO = Fraction(0)
_RING_TYPES = {Fraction, Polynomial}


def _coerce_entry(v: object) -> RingValue:
    if isinstance(v, (Fraction, Polynomial)):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise RecdetError(f"matrix entries must be exact ring values, got {type(v).__name__}")


# What SquareMatrix._kernel_rows reads for _int_rows and for _list_rows:
# the field that keeps the rows, the cells' type, their denominator, the
# kernel's value of a cell, and its zero below the subdiagonal
_INT_CELLS = ("_ints", Fraction, attrgetter("denominator"), attrgetter("numerator"), 0)
_LIST_CELLS = ("_lists", Polynomial, attrgetter("den"), attrgetter("nums"), ())


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

    The int kernels read the cells of an upper-Hessenberg matrix once,
    kept in fields that compare and print as nothing: _int_rows when every
    cell on or above the subdiagonal is an integral Fraction, _list_rows
    when every such cell is a Polynomial with integer coefficients, and
    _packed_rows, those cells packed into ints, when they are and the
    packing's slot width passes its gate.  Each is computed on first use,
    or filled by matrix_from_json from the matrix's distinct cell texts
    (and _int_rows by random_hessenberg from its draws) under the same
    rule.  Any other matrix, and every matrix while bits are tracked,
    keeps the ring paths.
    """

    entries: tuple[tuple[RingValue, ...], ...]
    band: int | None = None
    _below_subdiagonal: tuple[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _ints: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _lists: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _packed: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    def _int_rows(self) -> tuple[tuple[int, ...], ...] | None:
        """The cells as ints, computed on first use and kept in _ints, when
        every cell on or above this upper-Hessenberg matrix's subdiagonal is
        an integral Fraction; else None, and None while COUNTER tracks bits."""
        return self._kernel_rows(*_INT_CELLS)

    def _list_rows(self) -> tuple[tuple[tuple[int, ...], ...], ...] | None:
        """The cells as int coefficient tuples (Polynomial.nums, () for
        zero), computed on first use and kept in _lists, when every cell on
        or above this upper-Hessenberg matrix's subdiagonal is a Polynomial
        with den 1; else None, and None while COUNTER tracks bits."""
        return self._kernel_rows(*_LIST_CELLS)

    def _packed_rows(self) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
        """(B, the cells of _list_rows as the ints p(2^B)) when _list_rows
        has the cells and B is at most _MAX_PACKED_BITS; else None.  B
        and then the ints are computed on first use and kept in _packed.

        B = bit_length(H) + 1, H the product over the rows of
        max(1, the sum of the row's cells' coefficient 1-norms).  By its
        Leibniz expansion every minor has a 1-norm of at most H, so its
        coefficients have magnitudes below 2^(B - 1) (see _unpacked).
        """
        lists = self._list_rows()
        if lists is None:
            return None
        if self._packed is None:
            b = _slot_bits(sum(abs(a) for cell in row for a in cell) for row in lists)
            object.__setattr__(self, "_packed", (b, None))
        b, rows = self._packed
        if b > _MAX_PACKED_BITS:
            return None
        if rows is None:
            rows = tuple(tuple(_pack(cell, b) for cell in row) for row in lists)
            object.__setattr__(self, "_packed", (b, rows))
        return b, rows

    def _kernel_rows(
        self, slot: str, kind: type, den: Callable, value: Callable, zero: object
    ) -> tuple | None:
        """The rows of an int kernel, kept in the field slot: each cell
        value(v), zero below the subdiagonal, when the matrix is upper
        Hessenberg and every cell on or above its subdiagonal is of type
        kind with den(v) == 1."""
        if COUNTER.track_bits:
            return None
        rows = getattr(self, slot)
        if rows is None:
            got: list = []
            if self._below_subdiagonal is None:
                for r, row in enumerate(self.entries):
                    tail = row[max(r - 1, 0) :]
                    if set(map(type, tail)) != {kind} or set(map(den, tail)) != {1}:
                        got.clear()
                        break
                    got.append((zero,) * (r - 1) + tuple(map(value, tail)))
            rows = tuple(got)
            object.__setattr__(self, slot, rows)
        return rows or None


# The widest slot B with which the kernels run a polynomial matrix
# packed (see SquareMatrix._packed_rows).  The packed ints grow with B
# and the degrees, and det_hessenberg_fast fell behind the list route
# from B of about 300 to 470 bits in probes of degree 1 to 8 with
# coefficients of 3 to 30 bits, at sizes from 14 to 70 (Python 3.11,
# x86-64).
_MAX_PACKED_BITS = 320


def _slot_bits(row_norms: Iterable[int]) -> int:
    """B = bit_length(H) + 1, H the product of max(1, s) over the rows'
    coefficient 1-norm sums s (see SquareMatrix._packed_rows)."""
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
    once leaves max_bits as it would be.

    The cells run over m._packed_rows when it has them, as ints, and the
    determinant comes back as the ring path's Polynomial, or its Fraction
    0 when the first row of a matrix wider than 1 is zero; else over ring
    values (see _ring_term).
    """
    packed = m._packed_rows()
    rows = packed[1] if packed else m.entries
    # an empty expansion's value: the ring path's Fraction 0, or an int
    empty = 0 if packed else Fraction(0)
    n = len(rows)
    memo: dict[tuple[int, ...], tuple[RingValue, int, int]] = {}

    def minor(cols: tuple[int, ...]) -> tuple[RingValue, int, int]:
        hit = memo.get(cols)
        if hit is not None:
            return hit
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
                rest, rest_muls, rest_adds = minor(cols[:j] + cols[j + 1 :])
                muls += 1 + rest_muls
                adds += rest_adds if total is None else rest_adds + 1
                total = _ring_term(total, v, rest, j % 2)
            hit = (empty if total is None else total, muls, adds)
        memo[cols] = hit
        return hit

    det, muls, adds = minor(tuple(range(n)))
    COUNTER.muls += muls
    COUNTER.adds += adds
    if not packed:
        return det
    if n > 1 and not any(rows[0]):
        return Fraction(0)
    return _unpacked(det, packed[0])


def _ring_term(total, v: RingValue, rest: RingValue, odd: int) -> RingValue:
    """total + (-1)^odd * v * rest over the ring or ints, the product and
    the sum observed while bits are tracked; a total of None starts the
    sum."""
    t = v * rest
    if COUNTER.track_bits:
        COUNTER.observe(t)
    if odd:
        t = -t
    if total is None:
        return t
    total = total + t
    if COUNTER.track_bits:
        COUNTER.observe(total)
    return total


def _list_value(v) -> RingValue:
    """A list kernel's result as the ring path's value: the Polynomial of
    an int coefficient list or tuple, or a Fraction as it is."""
    return v if type(v) is Fraction else _reduced_poly(list(v), 1)


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

    The cells on or above the subdiagonal run over m._int_rows,
    m._packed_rows or m._list_rows when it has them, and the results come
    back as the ring path's Fractions or Polynomials, keeping the pivots'
    Fraction 0s (see _unpacked and _list_value); the loop forms its rows
    by _combine over ints and ring values, or by _combine_lists.  COUNTER
    gets det_bareiss's ring-path counts in bulk, with minors or without.
    """
    n = m.size
    ints = m._int_rows()
    packed = None if ints else m._packed_rows()
    lists = None if ints or packed else m._list_rows()
    zero, combine = ((), _combine_lists) if lists else (0, _combine)
    if packed:
        value, rows = partial(_unpacked, b=packed[0]), packed[1]
    else:
        value = Fraction if ints else _list_value if lists else None
        rows = ints or lists or m.entries
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
        if p == zero and s == zero:
            steps = i - 1
            pivots += [Fraction(0)] * (n - i)
            break
        row = combine(p, tail[1:], s, row[1:])
        if p == zero:
            swaps[i] = len(row) - row.count(zero)
        pivots.append(row[0])
    _hessenberg_bareiss_counts(tails, steps, swaps, zero)
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


def _combine_lists(p: tuple[int, ...], xs: list, s: tuple[int, ...], ys: list) -> list:
    """_combine over int coefficient lists, () for zero: a nonzero cell
    is a list or tuple with no trailing zero, so that a zero test is a
    comparison with () and a cancelled p * x - s * y becomes ()."""
    if not p:
        return [y if not y else _add_product([], s, y, sub) for y in ys]
    if not s:
        return [x if not x else _add_product([], p, x) for x in xs]
    return [
        acc if (acc := _add_product(_add_product([], p, x), s, y, sub)) and acc[-1]
        else _reduced(acc, 1)[0]
        for x, y in zip(xs, ys)
    ]


def _hessenberg_bareiss_counts(tails: list, steps: int, swaps: dict[int, int], zero) -> None:
    """Add to COUNTER the muls, adds and divs of _ring_bareiss's first
    steps on an upper-Hessenberg matrix, whose rows from the
    subdiagonal on are tails, with the rows in swaps swapped up.  A
    cell equal to zero (0, or () in int coefficient lists) is zero.

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
        live = len(tail) - tail.count(zero)
        rescaled = live * min(steps, i - 1)
        muls += rescaled
        divs += rescaled
        if i <= steps:
            if i in swaps:
                muls += swaps[i]
                divs += swaps[i]
            elif tail[0] == zero:
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

    The leading columns run over ints or int coefficient lists while
    m._int_rows, m._packed_rows, m._list_rows or int_scaled lets them
    (see _int_leading_minors); the ring recurrence takes the rest.
    """
    if m._below_subdiagonal is not None:
        r, c = m._below_subdiagonal
        raise NotHessenberg(
            f"nonzero entry at row {r + 1}, column {c + 1} below the first subdiagonal"
        )
    n = m.size
    band = n if m.band is None else m.band
    d: list[RingValue] = [Fraction(1), *_int_leading_minors(m, band)]
    if len(d) > n:
        return d[1:]
    return _ring_leading_minors(*_matrix_columns(m.entries), n, band, d)


def _matrix_columns(
    e: tuple[tuple[RingValue, ...], ...]
) -> tuple[Callable[[int, int], list[RingValue]], list[RingValue]]:
    """The column source of the matrix rows e, for _ring_leading_minors."""
    return (
        lambda c, lo: [row[c] for row in e[lo : c + 1]],
        [-e[t + 1][t] for t in range(len(e) - 1)],
    )


def _ring_leading_minors(
    column: Callable[[int, int], list[RingValue]],
    subs: list[RingValue],
    n: int,
    band: int,
    d: list[RingValue],
) -> list[RingValue]:
    """Extend d = [1, d_1, ..., d_c] to all n minors; returns d_1..d_n.

    column(c, lo) gives column c's cells, rows lo..c of its band (0-based),
    and is called once for each column d lacks, in order; subs[t] is the
    negated subdiagonal cell (t + 1, t).  Columns run in _horner's order,
    or while COUNTER tracks bits as the plain sum of e[j][c] * prod * d_j,
    one ring_* call per operation, so that max_bits sees the values it
    pins."""
    start = len(d) - 1
    if not COUNTER.track_bits:
        skip = [None if s == 1 and type(s) is Fraction else s for s in subs]
        for c in range(start, n):
            lo = max(c - band, 0)
            d.append(_horner(column(c, lo), lo, d, skip))
        terms = sum(min(c, band) for c in range(start, n))
        COUNTER.muls += n - start + 3 * terms
        COUNTER.adds += terms
        return d[1:]
    for c in range(start, n):
        lo = max(c - band, 0)
        col = column(c, lo)
        acc = ring_mul(col[-1], d[c])
        prod: RingValue = Fraction(1)
        for j in range(c - 1, lo - 1, -1):
            prod = ring_mul(prod, subs[j])
            acc = ring_add(acc, ring_mul(ring_mul(col[j - lo], prod), d[j]))
        d.append(acc)
    return d[1:]


def _int_leading_minors(m: SquareMatrix, band: int) -> list[RingValue]:
    """The leading minors d_1..d_c by scaled_leading_minors, as ring
    values: of every column, at scale 1, when m._int_rows, m._packed_rows
    or m._list_rows has the cells, the negated subdiagonal cell of a list
    column a list too; else of the leading columns whose band and
    subdiagonal cells int_scaled lets through.  Only band cells are read,
    so a banded matrix costs O(n*b).  Packed minors come back unpacked to
    Polynomials.
    """
    rows = m._int_rows()
    packed = None if rows else m._packed_rows()
    rows = packed[1] if packed else rows or m._list_rows()
    gate = int_scaled if rows is None else lambda col: (1, col)
    rows = rows or m.entries

    def columns():
        for c in range(m.size):
            # rows lo..c of the band, then the subdiagonal cell (c + 1, c)
            scaled = gate([row[c] for row in rows[max(c - band, 0) : c + 2]])
            if scaled is None:
                return
            scale, col = scaled
            s = col[-1]
            yield scale, col, [-a for a in s] if type(s) is tuple else -s

    minors = scaled_leading_minors(columns(), band)
    if packed:
        return [_unpacked(a, packed[0]) for a, _ in minors]
    return list(map(pair_value, minors))


def scaled_leading_minors(columns: Iterable[tuple[int, list, int]], band: int) -> list:
    """The leading minors of the columns, by the ring recurrence run over
    ints, until the columns run out or the scales outgrow the minors (see
    pair_outgrew and scale_outgrew).  COUNTER gets the ring path's muls
    and adds for these columns, in bulk.

    Column c comes as (L_c, col, s): its band cells, rows max(c - band, 0)
    to c, scaled to ints by L_c, and its subdiagonal cell (c + 1, c)
    negated and scaled by L_c (any int for the last column).  L_c
    scales the c-th leading minor by L_1 * ... * L_c, so the scaled
    minors d'_c come from the same recurrence, and
    d_c = d'_c / (L_1 * ... * L_c).  A minor of int cells comes back as
    that unreduced pair (d'_c, L_1 * ... * L_c), for the caller to turn
    into a Fraction where it leaves as a ring value (ring.pair_value).

    The cells are ints (ring.int_scaled), or polynomials as int
    coefficient lists or tuples: from ring.poly_scaled, whose s is still
    an int, or from SquareMatrix._list_rows at scale 1, whose s is a
    list.  From the first column of lists on, every column must come as
    lists: the scaled minors become lists too (_horner_lists), and the
    minors Polynomials, as the ring path makes them once a Polynomial
    enters.
    Each list minor then divides out what its scale shares with the
    minors the next column reads (see _divide_window).
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
            if scale_outgrew(total, minor):
                break
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
    first and [] or () for zero: the cells col and minors d are lists or
    tuples, subs ints, lists or None.  A zero cell or minor skips its
    product."""
    acc = _add_product([], col[0], d[lo])
    for j in range(lo + 1, len(d)):
        s = subs[j - 1]
        if s is not None:
            acc = [a * s for a in acc] if type(s) is int else _add_product([], acc, s)
        acc = _add_product(acc, col[j - lo], d[j])
    return acc


def det_hessenberg_fast(m: SquareMatrix) -> RingValue:
    """O(n^2) determinant via the leading-principal-minor recurrence."""
    return hessenberg_leading_minors(m)[-1]


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
    first bad cell raises.  The kernel rows of an upper-Hessenberg
    matrix come from the distinct texts too (see _fill_kernel_rows).
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
        not isinstance(entries, list)
        or len(entries) != size
        or any(not isinstance(row, list) or len(row) != size for row in entries)
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
    """Fill the kernel rows of m, the upper-Hessenberg matrix of texts,
    from cells, the value of each distinct text, each text converted
    once: _ints, or _lists and _packed with _packed_rows' B, by
    SquareMatrix._kernel_rows' rule.  A text whose value the rule refuses
    may stand only below the subdiagonal, where it is zero; else m keeps
    its fields for the accessors to decide."""
    slot, kind, den, value, zero = (
        _INT_CELLS if type(cells[texts[0][0]]) is Fraction else _LIST_CELLS
    )
    odd = {t for t, v in cells.items() if type(v) is not kind or den(v) != 1}
    if odd and any(
        not odd.isdisjoint(row[max(r - 1, 0) :]) for r, row in enumerate(texts)
    ):
        return
    table = {t: zero if t in odd else value(v) for t, v in cells.items()}
    object.__setattr__(m, slot, _rows_of(texts, table))
    if kind is Polynomial:
        norms = {t: sum(map(abs, nums)) for t, nums in table.items()}
        b = _slot_bits(sum(map(norms.__getitem__, row)) for row in texts)
        packed = None
        if b <= _MAX_PACKED_BITS:
            packed = _rows_of(texts, {t: _pack(nums, b) for t, nums in table.items()})
        object.__setattr__(m, "_packed", (b, packed))


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
    [-5, 5]; for the poly ring each band entry gets max_degree + 1 such
    integers as coefficients.  The PRNG is whatever Random instance the
    caller seeds, so runs are reproducible.  A rational matrix keeps the
    ints it draws as its _int_rows.
    """
    if size < 1:
        raise RecdetError("matrix size must be at least 1")
    _refuse_matrix_size(size)
    rows: list[list[RingValue]] = []
    ints: list[tuple[int, ...]] = []
    for r in range(size):
        if ring == "poly":
            rows.append([
                ZERO if r > c + 1
                else Polynomial([rng.randint(-5, 5) for _ in range(max_degree + 1)])
                for c in range(size)
            ])
        else:
            below = max(r - 1, 0)
            drawn = [rng.randint(-5, 5) for _ in range(below, size)]
            ints.append((0,) * below + tuple(drawn))
            rows.append([ZERO] * below + [Fraction(v) for v in drawn])
    m = SquareMatrix(rows)
    if ints:
        object.__setattr__(m, "_ints", tuple(ints))
    return m
