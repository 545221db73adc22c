"""Recurrence specifications, evaluators, and the determinant builders.

A FullHistorySpec gives a(1) and a coefficient function p(k, i) for the
recurrence a(k+1) = sum_{i=1..k} p(k,i) a(i); its k x k upper-Hessenberg
matrix D_k satisfies a(1) * det(D_k) = a(k+1).  A FixedOrderSpec gives
order m, initials a(1..m) and coefficients p_1(k)..p_m(k) for
a(k) = sum_i p_i(k) a(k-m+i-1); embedding it into full-history form via
the auxiliary sequence b_1 = 1, b_{j+1} = a(j) yields a banded k x k
matrix whose determinant is a(k).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Callable, Iterable, Iterator, NamedTuple

from . import ring
from .errors import IndexBelowValidity, RecdetError
from .hessenberg import (
    _RING_TYPES,
    DET_FUNCTIONS,
    ZERO,
    SquareMatrix,
    _refuse_matrix_size,
    column_minors,
    leading_minors,
    rank_one_leading_minors,
)
from .ring import (
    COUNTER,
    RingValue,
    int_scaled,
    pair_outgrew,
    pair_value,
    pairs_scaled,
    render_pair,
    render_value,
    ring_add,
    ring_mul,
    runs_scaled,
)

_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


@dataclass(frozen=True)
class FullHistorySpec:
    """Initial value a(1) plus the coefficient table p(k, i).

    coeff must be total for 1 <= i <= k; queries outside that range are
    a contract violation by the caller.  A declared band b promises
    p(k, i) == 0 whenever k - i > b; None means no such promise.
    """

    initial: RingValue
    coeff: Callable[[int, int], RingValue]
    name: str = "full-history"
    band: int | None = None


@dataclass(frozen=True)
class FixedOrderSpec:
    """Order m, initials a(1..m), coefficient functions p_1..p_m of k.

    first_valid_k is the smallest k at which every p_i(k) is defined; it
    is explicit data rather than something inferred from the expressions.
    """

    order: int
    initials: tuple[RingValue, ...]
    coeffs: tuple[Callable[[int], RingValue], ...]
    first_valid_k: int = 0
    name: str = "fixed-order"

    def __post_init__(self) -> None:
        if self.order < 1:
            raise RecdetError("order must be at least 1")
        if len(self.initials) != self.order:
            raise RecdetError(
                f"expected {self.order} initial values, got {len(self.initials)}"
            )
        if len(self.coeffs) != self.order:
            raise RecdetError(
                f"expected {self.order} coefficient functions, got {len(self.coeffs)}"
            )
        if self.first_valid_k == 0:
            object.__setattr__(self, "first_valid_k", self.order + 1)
        if self.first_valid_k < self.order + 1:
            raise RecdetError("first_valid_k must be at least order + 1")


@dataclass(frozen=True)
class SequencePrefix:
    """The first n terms of a sequence; terms[k - 1] is term k."""

    terms: tuple[RingValue, ...]

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[RingValue]:
        return iter(self.terms)


class _Rows:
    """A spec's coefficient rows up to row n, each value computed once.

    Row k multiplies the last len(row) terms, and is column k of Theorem
    1's or 2's matrix ending on the diagonal, cell i in row i: p(k, i) of a
    full-history spec for i = 1..k, or for i >= k - b within a declared
    band b; p_t(k) of a fixed-order spec of order m for i = k - m + t.  So
    row k has min(k, span) cells.  The shape is decided here, once: how a
    cell comes by a call (cell), rows by the vector form (runs), and the
    spec that builds the matrix from a shared table's values (view).

    The kernels read rows whole, as scaled int rows (L, [p * L]) where the
    vector form gives them (see scaled), L the lcm of the reduced
    denominators.  Every other value is computed by a call, in the order
    the values are read, and from then on no vector form runs.  A value
    that raised is not stored, so errors are those of the spec itself.

    verify_spec's two sides read one table, which it makes shared: its
    full-history rows are whole, so that a spec that breaks its band still
    fails, and it holds every row until direct iteration, the last reader,
    takes it.  Any other table, eval's or a lone determinant_terms', reads
    within the declared band, trusting it as theorem1_matrix does, and
    forgets each row once read.  Nothing is allocated in proportion to n
    up front, or shared between calls.
    """

    def __init__(
        self, spec: FullHistorySpec | FixedOrderSpec, n: int, shared: bool = False
    ) -> None:
        self.spec = spec
        self.n = n
        self.shared = shared
        # a run puts the scaled int rows it makes in ints, counts their
        # DSL ops, and returns whether later rows may still run
        if isinstance(spec, FullHistorySpec):
            f = spec.coeff
            self.funcs = (f,)
            self.band = n if spec.band is None else spec.band
            self.span = (n if shared or self.band < 0 else self.band) + 1
            self.cell = f
            self.view = lambda value: replace(spec, coeff=value)
            self.hg: tuple | bool | None = None

            def runs(k: int, ints: dict) -> bool:
                # one run of i per row, up to the first that refuses: to
                # row n for a shared table, whose every row is read
                values = 0
                for j in range(k, n + 1 if shared else k + 1):
                    run = f.vector(j, list(range(1, j + 1)))
                    if run is None:
                        break
                    nums, dens = run
                    ints[j] = pairs_scaled(nums if type(nums) is list else [nums] * j, dens)
                    values += j
                _count((f,), values)
                return run is not None and not shared

            self.runs = runs if spec.band is None else None
        else:
            coeffs, m, first = spec.coeffs, spec.order, spec.first_valid_k
            self.funcs = coeffs
            self.band, self.span = m - 1, m
            self.cell = lambda k, i: coeffs[i - k + m - 1](k)
            self.view = lambda value: replace(
                spec, coeffs=tuple((lambda k, t=t: value(k, k - m + t)) for t in range(1, m + 1))
            )
            self.hg = False

            def runs(k: int, ints: dict) -> bool:
                # one run of k per p_t, for every row at once
                ks = list(range(first, n + 1))
                got = [f.vector(ks, None) for f in coeffs] if ks else [None]
                if None not in got:
                    ints.update(zip(ks, runs_scaled(got, len(ks))))
                    _count(coeffs, len(ks))
                return False

            self.runs = runs
        self.clear()

    def clear(self) -> None:
        """Forget every value, as if nothing had been read."""
        self.cells: defaultdict[int, dict[int, RingValue]] = defaultdict(dict)
        self.ints: dict[int, tuple[int, list[int]]] = {}
        self.vector = self.runs is not None and all(hasattr(f, "vector") for f in self.funcs)
        self.asked = False

    def value(self, k: int, i: int) -> RingValue:
        """Cell i of row k of a shared table, kept for its other reader."""
        row = self.cells[k]
        v = row.get(i)
        if v is None:
            got = self.ints.get(k) or self.asked and self.scaled(k)
            if got:
                scale, ps = got
                v = Fraction(ps[i - k + len(ps) - 1], scale)
            else:
                self.vector = False
                v = self.cell(k, i)
            row[i] = v
        return v

    def factored(self) -> tuple | None:
        """The runs of h and g of a full-history coefficient that factors
        as p(k, i) = h(k) * g(i) (see dsl._factored), read once per call;
        None where the vector form would not run, for a fixed-order spec,
        an a(1) that is not a Fraction or no such form, while bits are
        tracked, once a vector row was asked for, or where a run refuses.
        COUNTER gets the DSL ops of the whole triangle."""
        if self.hg is None:
            f = self.funcs[0]
            self.hg = (
                self.vector
                and not self.asked
                and self.n >= 1
                and not COUNTER.track_bits
                and type(self.spec.initial) is Fraction
                and hasattr(f, "factored")
                and f.factored(self.n)  # type: ignore[attr-defined]
            ) or False
            if self.hg:
                _count(self.funcs, self.n * (self.n + 1) // 2)
        return self.hg or None

    def scaled(self, k: int) -> tuple[int, list[int]] | None:
        """Row k as a scaled int row, forgotten unless the table is shared,
        or None where the vector form does not give it: while bits are
        tracked, when a coefficient has no vector form or a full-history
        spec declares a band, once a value was computed by a call, below
        first_valid_k, and where a run refuses.  COUNTER gets each value's
        DSL ops."""
        if k not in self.ints and self.vector and not COUNTER.track_bits:
            self.asked = True
            self.vector = self.runs(k, self.ints)  # type: ignore[misc]
        return self.ints.get(k) if self.shared else self.ints.pop(k, None)

    def take(self, k: int, row: list[RingValue]) -> None:
        """Append row k's values to row, in order, for the row's last
        reader, and forget the row: from its scaled int row where there is
        one, else from the cells a shared table kept and by calls.  A
        value that raises leaves the values before it in row."""
        got = self.asked and self.scaled(k)
        window = range(k - self.span + 1 if k > self.span else 1, k + 1)
        if got:
            row.extend([Fraction(p, got[0]) for p in got[1]])
        elif k in self.cells:
            row.extend(map(partial(self.value, k), window))
        else:
            self.vector = False
            row.extend(map(partial(self.cell, k), window))
        if self.shared:
            self.cells.pop(k, None)
            self.ints.pop(k, None)


def _count(funcs: tuple, values: int) -> None:
    """COUNTER gets the DSL ops of that many values of each coefficient."""
    for f in funcs:
        adds, muls, divs = f.ops
        COUNTER.adds += adds * values
        COUNTER.muls += muls * values
        COUNTER.divs += divs * values


def eval_full_history(spec: FullHistorySpec, n: int) -> SequencePrefix:
    """Direct iteration of the full-history recurrence, terms 1..n (see
    _direct).  Row k reads p(k, i) within a declared band only, which is
    trusted as theorem1_matrix trusts it: a banded spec costs O(n*b).
    The int kernel's terms become Fractions here, as they leave."""
    if n < 1:
        raise RecdetError("n must be at least 1")
    return SequencePrefix(tuple(map(pair_value, _direct(_Rows(spec, n - 1)))))


def eval_fixed_order(spec: FixedOrderSpec, n: int) -> SequencePrefix:
    """Direct iteration of the fixed-order recurrence, terms 1..n (see
    _direct).  The int kernel's terms become Fractions here, as they
    leave."""
    if n < 1:
        raise RecdetError("n must be at least 1")
    return SequencePrefix(tuple(map(pair_value, _direct(_Rows(spec, n)))))


def _direct(rows: _Rows) -> list:
    """The terms by direct iteration over the rows of the table: a(1) and
    a(k + 1) for each row k of a full-history spec, a(1..m) and a(k) for
    each row k > m of a fixed-order one.  A first_valid_k above m + 1
    refuses term m + 1 before any coefficient is read.

    Row k sums its coefficients times the last w terms, w its length:
    one ring_mul and ring_add per term.  The coefficients are read in
    order, so the first error raised is always the same.

    While ring.int_scaled lets the terms and each row through, the rows
    run over ints instead (see _scaled_terms); a row the table holds as
    a scaled int row is taken as it is.  Where the scale outgrew the term
    (see ring.pair_outgrew), the int kernel starts again from the terms
    the next row reads, scaled by the lcm of their own denominators,
    unless that outgrows the last term too.  The ring loop takes over
    from the first row int_scaled refuses, and from a scale that still
    outgrows.  The kernel's terms are pairs (A, T), each made a Fraction
    only when a row that starts again or a ring loop reads it (see
    _ring_window), or where it leaves as a ring value.
    """
    spec, n = rows.spec, rows.n
    hg = rows.factored()
    if hg:
        return _factored_terms(*hg, spec.initial)
    if isinstance(spec, FullHistorySpec):
        terms: list[RingValue] = [spec.initial]
        ks = iter(range(1, n + 1))
    else:
        m = spec.order
        if n > m and spec.first_valid_k > m + 1:
            raise IndexBelowValidity(
                f"term {m + 1} requested but coefficients are only valid from "
                f"k = {spec.first_valid_k}"
            )
        terms = list(spec.initials[:n])
        ks = iter(range(m + 1, n + 1))

    def scaled_rows() -> Iterator[tuple[int, list[int]]]:
        for k in ks:
            scaled = rows.scaled(k)
            if scaled is None:
                row = _read_row(rows, k, terms)
                scaled = int_scaled(row)
                if scaled is None:
                    # the ring loop sums this row and the rest
                    terms.append(_ring_sum(row, _ring_window(terms, len(row))))
                    return
            yield scaled

    start = int_scaled(terms)
    while start is not None and _scaled_terms(scaled_rows(), terms, *start):
        window = _ring_window(terms, rows.span)
        start = int_scaled(window)
        if start is not None and pair_outgrew(start[1][-1], start[0]):
            break
    for k in ks:
        row = _read_row(rows, k, terms)
        terms.append(_ring_sum(row, _ring_window(terms, len(row))))
    return terms


def _factored_terms(h: tuple, g: tuple, a1: Fraction) -> list:
    """Direct iteration where p(k, i) = h(k) * g(i), in O(n): the row sum
    of row k is h(k) * S_k with S_k = S_{k-1} + g(k) * a(k), so
    a(k + 1) = h(k) * S_k.  h and g come as runs (nums, dens), dens > 0
    (see _Rows.factored).

    S_k is held as the pair (B, Q), and a(k) as its numerator over Q
    times r, r the den of h(k - 1) (of a(1) for k = 1), so that each step
    multiplies large ints by small ones only.  Where S's scale outgrew it
    (ring.pair_outgrew), its pair is divided by their gcd and the sum goes
    on.  COUNTER gets the row sums' k muls and k - 1 adds per row k, in
    bulk.  A term goes into the list as its pair (A, T).
    """
    (hn, hd), (gn, gd) = h, g
    terms: list = [a1]
    # S as b / q; a(k) as a / (q * r)
    b, q, a, r = 0, 1, a1.numerator, a1.denominator
    for hk, dk, gk, ek in zip(hn, hd, gn, gd):
        s = r * ek
        b, q = b * s + gk * a, q * s
        if pair_outgrew(b, q):
            c = gcd(b, q)
            b, q = b // c, q // c
        a, r = hk * b, dk
        terms.append((a, q * r))
    n = len(hn)
    COUNTER.muls += n * (n + 1) // 2
    COUNTER.adds += n * (n - 1) // 2
    return terms


def _ring_window(terms: list, w: int) -> list[RingValue]:
    """The last w terms, all of them if there are fewer, as ring values:
    a pair (A, T) among them becomes its Fraction, in terms too."""
    window = terms[-w:]
    if tuple in map(type, window):
        window = terms[-w:] = list(map(pair_value, window))
    return window


def _read_row(rows: _Rows, k: int, terms: list[RingValue]) -> list[RingValue]:
    """Row k of the table, in order (see _Rows.take)."""
    row: list[RingValue] = []
    try:
        rows.take(k, row)
    except BaseException:
        # leave the counts and max_bits of a loop that sums each
        # coefficient as it reads it
        _ring_sum(row, _ring_window(terms, rows.span))
        raise
    return row


def _scaled_terms(
    rows: Iterable[tuple[int, list[int]]],
    terms: list,
    total: int,
    nums: list[int],
) -> bool:
    """Append to terms one term per scaled row, until the rows run out or
    T outgrows the term (see ring.pair_outgrew); returns whether T
    outgrew.  COUNTER gets the ring loop's w muls and w - 1 adds per row
    of w coefficients, in bulk, once per call.

    A row comes as (L, [P_1, ..., P_w]), P_i = p_i * L: its coefficients
    scaled to ints by L, the lcm of their denominators.  Term j is kept
    as A_j / T_j, nums holding the A of the last terms, at least those
    the first row reads: T = total starts as the lcm of their
    denominators and is multiplied by each row's L.  The new A is the
    sum of P_i * A_j times the L of every term after j, which Horner
    takes as acc = acc * L_j + P_i * A_j: two products by small ints per
    term.  An L_j of 1 (every row of int coefficients) is held as None,
    and its product skipped, as hessenberg._horner skips its subs.  A new
    term goes into terms as the pair (A, T) it is held as.
    """
    scales: list[int | None] = [None] * len(nums)
    first = len(nums)
    products = 0
    # a T no longer than the bound outgrows no term (see pair_outgrew)
    bound = ring._MAX_EXCESS_BITS
    try:
        for scale, ps in rows:
            lo = len(nums) - len(ps)
            acc = ps[0] * nums[lo]
            for p, a, s in zip(ps[1:], nums[lo + 1 :], scales[lo + 1 :]):
                acc = (acc if s is None else acc * s) + p * a
            nums.append(acc)
            scales.append(None if scale == 1 else scale)
            total *= scale
            terms.append((acc, total))
            products += len(ps)
            if total.bit_length() > bound and pair_outgrew(acc, total):
                return True
        return False
    finally:
        # the rows summed, also where reading the next one raised
        COUNTER.muls += products
        COUNTER.adds += products - (len(nums) - first)


def _ring_sum(row: list[RingValue], window: list[RingValue]) -> RingValue:
    """sum_i row[i] * window[i], one ring_mul and ring_add per term."""
    acc = None
    for c, a in zip(row, window):
        t = ring_mul(c, a)
        acc = t if acc is None else ring_add(acc, t)
    return acc


def theorem1_matrix(spec: FullHistorySpec, k: int) -> SquareMatrix:
    """The k x k upper-Hessenberg matrix with entries[i][j] = p(j, i),
    subdiagonal -1, zeros below.  The matrix carries the spec's band;
    cells above it are zero and p is not called for them.

    Each row is the band cells and the -1 between slices of one tuple
    of ZERO cells, so neither the build nor SquareMatrix's zero checks
    make a Python call per zero cell."""
    if k < 1:
        raise RecdetError("matrix size must be at least 1")
    _refuse_matrix_size(k)
    band = k if spec.band is None else spec.band
    coeff = spec.coeff
    zeros = (ZERO,) * k
    rows = []
    for r in range(k):
        hi = min(r + band + 1, k)
        cells = tuple([coeff(c + 1, r + 1) for c in range(r, hi)])
        if r:
            rows.append(zeros[: r - 1] + (_MINUS_ONE,) + cells + zeros[hi:])
        else:
            rows.append(cells + zeros[hi:])
    return SquareMatrix(tuple(rows), spec.band)


def embed_fixed_order(spec: FixedOrderSpec) -> FullHistorySpec:
    """Full-history form of a fixed-order spec.

    Realizes the auxiliary sequence b_1 = 1, b_{j+1} = a(j): columns
    j <= m carry a(j) in row 1, columns j > m carry the band
    p_1(j)..p_m(j) ending on the diagonal.  The band argument is the
    column index j, which is what makes the determinant identity hold
    for k-dependent coefficients.  Theorem 2's bandwidth m counts the
    diagonal, so the declared band is m - 1 superdiagonals.
    """
    m = spec.order

    def coeff(j: int, i: int) -> RingValue:
        if j <= m:
            return spec.initials[j - 1] if i == 1 else ZERO
        if j < spec.first_valid_k:
            raise IndexBelowValidity(
                f"column {j} is below first_valid_k = {spec.first_valid_k}"
            )
        t = i - (j - m)
        if 1 <= t <= m:
            return spec.coeffs[t - 1](j)
        return ZERO

    return FullHistorySpec(
        initial=_ONE, coeff=coeff, name=f"embed({spec.name})", band=m - 1
    )


def theorem2_matrix(spec: FixedOrderSpec, k: int) -> SquareMatrix:
    """The banded k x k matrix whose determinant equals a(k)."""
    return theorem1_matrix(embed_fixed_order(spec), k)


def spec_matrix(spec: FullHistorySpec | FixedOrderSpec, k: int) -> SquareMatrix:
    """Theorem 1's matrix of a full-history spec, Theorem 2's of a
    fixed-order one."""
    if isinstance(spec, FullHistorySpec):
        return theorem1_matrix(spec, k)
    return theorem2_matrix(spec, k)


def determinant_terms(
    spec: FullHistorySpec | FixedOrderSpec,
    n: int,
    method: str = "fast",
    corrupt: tuple[int, int] | None = None,
) -> list[RingValue]:
    """The sequence by the determinant route, one value per k = 1..n.

    For a full-history spec the k-th value is a(1) * det(D_k) = a(k+1);
    for a fixed-order spec it is det = a(k).  method names an entry of
    DET_FUNCTIONS, and hessenberg.leading_minors takes the minors.  The
    optional corrupt argument adds 1 to the given 1-based matrix entry
    before any determinant is taken, as a negative control; the position
    must stay inside the upper-Hessenberg band.

    The coefficients are read through a row table of this call's own,
    which holds one row at a time (see _Rows).  The fast method with no
    corrupt cell and bits untracked builds no matrix: it
    reads the band columns from the table (see _band_minors).  Every
    other call takes the minors of Theorem 1's or 2's matrix, built by
    calls.  An a(1) of Fraction 1 skips its n products while bits
    are untracked; COUNTER still counts them.  The int kernel's values
    become Fractions here, as they leave.
    """
    return list(map(pair_value, _determinant_terms(_Rows(spec, n), method, corrupt)))


def _determinant_terms(rows: _Rows, method: str, corrupt: tuple[int, int] | None) -> list:
    """determinant_terms(rows.spec, rows.n, method, corrupt), reading the
    coefficients from rows, with each value the int kernel computed as
    its pair (A, T) (see scaled_leading_minors); a Fraction a(1) = p/q
    scales a pair to (p * A, q * T).  An unknown method and a corrupt
    position outside the band are refused before any coefficient is
    read."""
    spec, n = rows.spec, rows.n
    if method not in DET_FUNCTIONS:
        raise RecdetError(f"unknown determinant method {method!r}")
    if corrupt is not None:
        ci, cj = corrupt
        if not (1 <= ci <= n and 1 <= cj <= n):
            raise RecdetError(f"corrupt position {corrupt} outside a size-{n} matrix")
        if ci > cj + 1:
            raise RecdetError("corrupt position must stay in the upper-Hessenberg band")
    minors = None
    if method == "fast" and corrupt is None and n >= 1 and not COUNTER.track_bits:
        saved = COUNTER.adds, COUNTER.muls, COUNTER.divs
        try:
            minors = _band_minors(rows)
        except _BuildTheMatrix:
            # the build reads in its own order, from an empty table
            COUNTER.adds, COUNTER.muls, COUNTER.divs = saved
            rows.clear()
    if minors is None:
        big = spec_matrix(rows.view(rows.value) if rows.shared else spec, n)
        if corrupt is not None:
            big = big.with_entry(ci - 1, cj - 1, big.entries[ci - 1][cj - 1] + _ONE)
        minors = leading_minors(big, method)
    if isinstance(spec, FixedOrderSpec):
        return minors
    a1 = spec.initial
    if type(a1) is not Fraction or COUNTER.track_bits:
        return [ring_mul(a1, pair_value(d)) for d in minors]
    COUNTER.muls += len(minors)
    if a1 == 1:
        return minors
    p, q = a1.numerator, a1.denominator
    return [(p * d[0], q * d[1]) if type(d) is tuple else a1 * d for d in minors]


class _BuildTheMatrix(Exception):
    """The band columns cannot stand in for the matrix build: a
    coefficient raised, and the build, reading in row order, may meet
    another error first; or a cell is no ring value, or the declared band
    is negative, which the build coerces or refuses."""


def _band_minors(rows: _Rows) -> list:
    """hessenberg_leading_minors(spec_matrix(rows.spec, rows.n)), its
    values and COUNTER counts, from the matrix's columns read from the
    table by column_minors: column k is the band tail of row k, or for a
    fixed-order spec's k <= m, a(k) on top of zeros (see
    embed_fixed_order), over the subdiagonal's -1s.

    A column comes pre-scaled, on a table no one shares, as a
    coefficient's own scaled column where it carries one as
    coeff.column(k), int coefficient lists (the catalog's three-term
    polynomial families, see families._COLUMNS), the only columns that
    come as lists; else as the table's scaled int row where it has one.
    Any other column is scaled to ints by column_minors, or read by the
    ring recurrence.  Minors come back as column_minors gives them, the
    int kernel's as pairs (A, T).

    The columns are read in column order and the build reads in row
    order, so a coefficient error of any kind, a cell that is neither a
    Fraction nor a Polynomial, and a negative band raise _BuildTheMatrix,
    for the caller to build the matrix, which raises what it raises.
    """
    hg = rows.factored()
    if hg:
        return rank_one_leading_minors(*hg)
    spec, n, band = rows.spec, rows.n, rows.band
    if band < 0:
        raise _BuildTheMatrix
    initials, first = (
        (spec.initials, spec.first_valid_k) if isinstance(spec, FixedOrderSpec) else ((), 1)
    )

    def column(c: int, lo: int) -> list[RingValue]:
        k = c + 1
        if len(initials) < k < first:
            raise _BuildTheMatrix
        cells: list[RingValue] = []
        try:
            if k <= len(initials):
                cells = [initials[c], *[ZERO] * c]
            elif rows.shared:
                cells = [rows.value(k, i) for i in range(lo + 1, k + 1)]
            else:
                rows.take(k, cells)
        except Exception as exc:
            raise _BuildTheMatrix from exc
        if not set(map(type, cells)) <= _RING_TYPES:
            raise _BuildTheMatrix
        return cells

    given = None if rows.shared else getattr(rows.cell, "column", None)
    return column_minors(given or rows.scaled, column, [_ONE] * (n - 1), n, band)


class VerificationCheck(NamedTuple):
    k: int
    direct: str
    det: str
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    """Per-k comparison of the direct term against the determinant route."""

    spec: str
    checks: tuple[VerificationCheck, ...]
    passed: bool

    def first_failure(self) -> int | None:
        for check in self.checks:
            if not check.ok:
                return check.k
        return None

    def to_json(self) -> str:
        """The report as one compact JSON line, written in one pass: the
        bytes json.dumps(payload, separators=(",", ":")) writes for the
        payload {"spec", "checks": [{"k", "direct", "det", "ok"}...],
        "pass"}.  Each string goes through encode_basestring_ascii, the
        escaping json.dumps applies under its default ensure_ascii."""
        enc = encode_basestring_ascii
        checks = ",".join([
            f'{{"k":{c.k},"direct":{enc(c.direct)},"det":{enc(c.det)},'
            f'"ok":{"true" if c.ok else "false"}}}'
            for c in self.checks
        ])
        return (
            f'{{"spec":{enc(self.spec)},"checks":[{checks}],'
            f'"pass":{"true" if self.passed else "false"}}}'
        )


def verify_spec(
    spec: FullHistorySpec | FixedOrderSpec,
    max_n: int,
    method: str = "fast",
    corrupt: tuple[int, int] | None = None,
) -> VerificationReport:
    """Check the determinant identity for every k up to max_n.

    Compares determinant_terms(spec, max_n, method, corrupt) with direct
    iteration: a(k+1) for a full-history spec, a(k) for a fixed-order one.
    Both read one row table (see _Rows), so each coefficient value is
    computed once: as scaled int rows by the vector form when a kernel
    of the fast method first asks, else by calls.  The determinant side
    reads first, so errors come in the matrix build's order.  Direct
    iteration never reads the matrix or the columns, so a corrupted cell
    or a wrong index map is still seen.  Each side hands the report what
    its int kernel computed as the pairs (A, T) it holds, with no
    Fraction made for a value no ring loop read (see _report).
    """
    if max_n < 1:
        raise RecdetError("max_n must be at least 1")
    rows = _Rows(spec, max_n, shared=True)
    dets = _determinant_terms(rows, method, corrupt)
    direct = _direct(rows)
    return _report(spec.name, direct[1:] if isinstance(spec, FullHistorySpec) else direct, dets)


def _report(name: str, direct: list, dets: list) -> VerificationReport:
    """The report of the two sides' values, each a ring value or an int
    kernel's pair (A, T).  Where both sides are rational, a check compares
    their pairs, by the numerators when the scales are equal, else by one
    cross product, and renders from them (ring.render_pair): once, when
    they agree.  Where a Polynomial is on either side, a check compares
    and renders ring values.  passed is kept as the checks are made."""
    checks = []
    passed = True
    for k, (a, d) in enumerate(zip(direct, dets), start=1):
        if type(a) is Fraction:
            a = a.numerator, a.denominator
        if type(d) is Fraction:
            d = d.numerator, d.denominator
        if type(a) is tuple and type(d) is tuple:
            (an, at), (dn, dt) = a, d
            ok = an == dn if at == dt else an * dt == dn * at
            text = render_pair(an, at)
            checks.append(VerificationCheck(k, text, text if ok else render_pair(dn, dt), ok))
        else:
            a, d = pair_value(a), pair_value(d)
            ok = a == d
            checks.append(VerificationCheck(k, render_value(a), render_value(d), ok))
        if not ok:
            passed = False
    return VerificationReport(spec=name, checks=tuple(checks), passed=passed)
