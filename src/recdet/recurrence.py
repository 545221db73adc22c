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

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import IndexBelowValidity, RecdetError
from .hessenberg import (
    _RING_TYPES,
    ZERO,
    SquareMatrix,
    _ring_leading_minors,
    leading_minors,
    scaled_leading_minors,
)
from .ring import (
    COUNTER,
    RingValue,
    int_scaled,
    pairs_scaled,
    poly_scaled,
    render_value,
    ring_add,
    ring_mul,
    scale_outgrew,
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


def eval_full_history(spec: FullHistorySpec, n: int) -> SequencePrefix:
    """Direct iteration of the full-history recurrence, terms 1..n (see
    _direct)."""
    if n < 1:
        raise RecdetError("n must be at least 1")
    terms: list[RingValue] = [spec.initial]
    _direct(spec.coeff, range(1, n), None, terms)
    return SequencePrefix(tuple(terms))


def _direct(
    read: Callable[[int, int], RingValue],
    rows: range,
    width: int | None,
    terms: list[RingValue],
) -> None:
    """Append to terms the terms of rows, by direct iteration.

    Row k sums read(k, i) times the i-th of the last w terms, i = 1..w,
    where w is width, or k for a full-history spec: one ring_mul and
    ring_add per term.  The coefficients are read in order, so the
    first error raised is always the same.

    While ring.int_scaled lets the terms and each row through, the rows
    run over ints instead (see _scaled_terms).  The ring loop takes
    over from the first row int_scaled refuses, and after the row where
    the scale outgrew the term (see scale_outgrew).
    """
    rows = iter(rows)

    def scaled_rows() -> Iterator[tuple[int, list[int]]]:
        for k in rows:
            w = width or k
            row = _read_row(read, k, w, terms)
            scaled = int_scaled(row)
            if scaled is None:
                # the ring loop sums this row and the rest
                terms.append(_ring_sum(row, terms[-w:]))
                return
            yield scaled

    start = int_scaled(terms)
    if start is not None:
        _scaled_terms(scaled_rows(), terms, *start)
    for k in rows:
        w = width or k
        terms.append(_ring_sum(_read_row(read, k, w, terms), terms[-w:]))


def _read_row(
    read: Callable[[int, int], RingValue], k: int, w: int, terms: list[RingValue]
) -> list[RingValue]:
    """read(k, 1..w), in order."""
    row: list[RingValue] = []
    try:
        for i in range(1, w + 1):
            row.append(read(k, i))
    except BaseException:
        # leave the counts and max_bits of a loop that sums each
        # coefficient as it reads it
        _ring_sum(row, terms[-w:])
        raise
    return row


def _scaled_terms(
    rows: Iterable[tuple[int, list[int]]], terms: list[RingValue], total: int, nums: list[int]
) -> None:
    """Append to terms one term per scaled row, until the rows run out or
    T outgrows the term (see scale_outgrew).  COUNTER gets the ring
    loop's w muls and w - 1 adds per row of w coefficients, in bulk.

    A row comes as (L, [P_1, ..., P_w]), P_i = p_i * L: its coefficients
    scaled to ints by L, the lcm of their denominators.  Term j is kept
    as A_j / T_j, nums holding the A of the terms so far: T = total
    starts as the lcm of the initial terms' denominators and is
    multiplied by each row's L.  The new A is the sum of P_i * A_j times
    the L of every term after j, which Horner takes as
    acc = acc * L_j + P_i * A_j: two products by small ints per term.
    """
    scales = [1] * len(nums)
    for scale, ps in rows:
        lo = len(nums) - len(ps)
        acc = ps[0] * nums[lo]
        for p, a, s in zip(ps[1:], nums[lo + 1 :], scales[lo + 1 :]):
            acc = acc * s + p * a
        nums.append(acc)
        scales.append(scale)
        total *= scale
        term = Fraction(acc, total)
        terms.append(term)
        COUNTER.muls += len(ps)
        COUNTER.adds += len(ps) - 1
        if scale_outgrew(total, term):
            return


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

    The fast method with no corrupt cell and bits untracked builds no
    matrix: it reads the band columns from the spec (see _band_minors).
    Every other call takes the minors of spec_matrix(spec, n).  An a(1)
    of Fraction 1 skips its n products while bits are untracked; COUNTER
    still counts them.
    """
    minors = None
    if method == "fast" and corrupt is None and n >= 1 and not COUNTER.track_bits:
        saved = COUNTER.adds, COUNTER.muls, COUNTER.divs
        try:
            minors = _band_minors(
                spec if isinstance(spec, FullHistorySpec) else embed_fixed_order(spec), n
            )
        except _BuildTheMatrix:
            COUNTER.adds, COUNTER.muls, COUNTER.divs = saved
    if minors is None:
        big = spec_matrix(spec, n)
        if corrupt is not None:
            ci, cj = corrupt
            if not (1 <= ci <= n and 1 <= cj <= n):
                raise RecdetError(f"corrupt position {corrupt} outside a size-{n} matrix")
            if ci > cj + 1:
                raise RecdetError("corrupt position must stay in the upper-Hessenberg band")
            big = big.with_entry(ci - 1, cj - 1, big.entries[ci - 1][cj - 1] + _ONE)
        minors = leading_minors(big, method)
    if not isinstance(spec, FullHistorySpec):
        return minors
    a1 = spec.initial
    if type(a1) is Fraction and a1 == 1 and not COUNTER.track_bits:
        COUNTER.muls += len(minors)
        return minors
    return [ring_mul(a1, d) for d in minors]


class _BuildTheMatrix(Exception):
    """The band columns cannot stand in for the matrix build: a
    coefficient raised, and the build, reading in row order, may meet
    another error first; or a cell is no ring value, or the declared band
    is negative, which the build coerces or refuses."""


def _band_minors(spec: FullHistorySpec, n: int) -> list[RingValue]:
    """hessenberg_leading_minors(theorem1_matrix(spec, n)), its values and
    COUNTER counts, from columns read straight from the spec.

    Column k holds p(k, i) for the band rows max(k - b, 1)..k, b the
    spec's band, and the -1 under it; each cell is read once, as the
    build reads it.  The columns run over ints while they are Fractions
    (ring.int_scaled), then over int coefficient lists from the first
    column with a Polynomial on (ring.poly_scaled), and the ring
    recurrence takes over from the column where a scale outgrew its minor,
    with the minors so far.

    The columns are read in column order and the build reads in row
    order, so a coefficient error of any kind, a cell that is neither a
    Fraction nor a Polynomial, and a negative band raise _BuildTheMatrix,
    for the caller to build the matrix, which raises what it raises.
    """
    band = n if spec.band is None else spec.band
    if band < 0:
        raise _BuildTheMatrix
    coeff = spec.coeff

    def column(c: int, lo: int) -> list[RingValue]:
        try:
            cells = [coeff(c + 1, i) for i in range(lo + 1, c + 2)]
        except Exception as exc:
            raise _BuildTheMatrix from exc
        if not set(map(type, cells)) <= _RING_TYPES:
            raise _BuildTheMatrix
        return cells

    def scaled() -> Iterator[tuple[int, list, int]]:
        gate = int_scaled
        for c in range(n):
            cells = column(c, max(c - band, 0))
            got = gate(cells)
            if got is None:  # a Polynomial: lists from here on
                gate = poly_scaled
                got = gate(cells)
            # the -1 under column k, negated and scaled, is L_k
            scale, col = got
            yield scale, col, scale

    d: list[RingValue] = [_ONE, *scaled_leading_minors(scaled(), band)]
    return _ring_leading_minors(column, [_ONE] * (n - 1), n, band, d)


def eval_fixed_order(spec: FixedOrderSpec, n: int) -> SequencePrefix:
    """Direct iteration of the fixed-order recurrence, terms 1..n (see
    _direct).  Past the initials, the first term needed is k = m + 1, so
    a larger first_valid_k refuses before any coefficient is read."""
    if n < 1:
        raise RecdetError("n must be at least 1")
    m = spec.order
    if n > m and spec.first_valid_k > m + 1:
        raise IndexBelowValidity(
            f"term {m + 1} requested but coefficients are only valid from "
            f"k = {spec.first_valid_k}"
        )
    terms: list[RingValue] = list(spec.initials[:n])

    def read(k: int, i: int) -> RingValue:
        return spec.coeffs[i - 1](k)

    _direct(read, range(m + 1, n + 1), m, terms)
    return SequencePrefix(tuple(terms))


@dataclass(frozen=True)
class VerificationCheck:
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
        payload = {
            "spec": self.spec,
            "checks": [
                {"k": c.k, "direct": c.direct, "det": c.det, "ok": c.ok}
                for c in self.checks
            ],
            "pass": self.passed,
        }
        return json.dumps(payload, separators=(",", ":"))


def verify_spec(
    spec: FullHistorySpec | FixedOrderSpec,
    max_n: int,
    method: str = "fast",
    corrupt: tuple[int, int] | None = None,
) -> VerificationReport:
    """Check the determinant identity for every k up to max_n.

    Compares determinant_terms(spec, max_n, method, corrupt) with direct
    iteration: a(k+1) for a full-history spec, a(k) for a fixed-order one.

    With the fast method, no corrupt cell and bits untracked, a spec
    whose coefficients all have a vector form (compiled DSL ones) and
    whose initial values are Fractions takes the column route (see
    _column_route): both sides read one scaled int column per k, and no
    matrix is built.  Any other call, and any column route that cannot
    finish over ints, takes the matrix route (see _matrix_route) from
    the start, so the report, the error raised and COUNTER's counts are
    the matrix route's.
    """
    if max_n < 1:
        raise RecdetError("max_n must be at least 1")
    routes = None
    if method == "fast" and corrupt is None:
        routes = _column_route(spec, max_n)
    direct, dets = routes or _matrix_route(spec, max_n, method, corrupt)
    return _report(spec.name, direct, dets)


def _report(
    name: str, direct: list[RingValue], dets: list[RingValue]
) -> VerificationReport:
    checks = tuple(
        VerificationCheck(k=k, direct=render_value(a), det=render_value(d), ok=a == d)
        for k, (a, d) in enumerate(zip(direct, dets), start=1)
    )
    return VerificationReport(spec=name, checks=checks, passed=all(c.ok for c in checks))


def _matrix_route(
    spec: FullHistorySpec | FixedOrderSpec,
    max_n: int,
    method: str,
    corrupt: tuple[int, int] | None,
) -> tuple[list[RingValue], list[RingValue]]:
    """verify_spec's direct terms and determinant terms, the latter by
    determinant_terms: from the band columns, or Theorem 1's or 2's matrix.

    Both read the coefficients through one table (see _read_once), so
    each value is computed once; the determinant side reads first, so
    errors come in the matrix build's order.  Direct iteration still never
    reads the matrix or the columns, so a corrupted cell or a wrong index
    map is still seen.

    When the determinant side raises, COUNTER gets the counts of a build
    from an empty table: the band columns may have stored values that
    the build, reading them back, would not count.
    """
    table = _read_once(spec, max_n)
    saved = COUNTER.adds, COUNTER.muls, COUNTER.divs
    try:
        dets = determinant_terms(table, max_n, method, corrupt)
    except Exception as exc:
        failed = exc
    else:
        if isinstance(table, FullHistorySpec):
            return eval_full_history(table, max_n + 1).terms[1:], dets
        return eval_fixed_order(table, max_n).terms, dets
    # outside the handler, so that the build's error chains nothing
    COUNTER.adds, COUNTER.muls, COUNTER.divs = saved
    spec_matrix(spec, max_n)
    raise failed


def _column_route(
    spec: FullHistorySpec | FixedOrderSpec, n: int
) -> tuple[list[RingValue], list[RingValue]] | None:
    """_matrix_route(spec, n, "fast", None) from one scaled int column per
    k (see _columns), or None when that must run instead.

    The leading minors read column k as column k of the matrix
    (hessenberg.scaled_leading_minors), and direct iteration reads it as
    row k (_scaled_terms): the matrix route's int kernels on the same
    scales.  The two still check each other, because they combine the
    columns by different recurrences.

    None, with COUNTER as it was, when bits are tracked, a coefficient
    has no vector form, an initial value is not a Fraction, a
    full-history spec declares a band, a value divides by zero or names
    an unbound variable, first_valid_k refuses a k, or a kernel's scale
    outgrows its values before the last k: where the matrix route raises
    or hands over to its ring path.  Otherwise COUNTER gets what the
    matrix route adds: each coefficient value's DSL ops once, the
    kernels' muls and adds and, for a full-history spec, the n products
    by a(1).
    """
    if COUNTER.track_bits:
        return None
    full = isinstance(spec, FullHistorySpec)
    coeffs = (spec.coeff,) if full else spec.coeffs
    direct: list[RingValue] = [spec.initial] if full else list(spec.initials[:n])
    if (
        (full and spec.band is not None)
        or not all(hasattr(f, "vector") for f in coeffs)
        or any(type(v) is not Fraction for v in direct)
    ):
        return None
    columns: list[tuple[int, list[int]]] = []

    def kept() -> Iterator[tuple[int, list[int], int]]:
        # the -1 under column k, negated and scaled, is L_k
        for scale, col in _columns(spec, n):
            columns.append((scale, col))
            yield scale, col, scale

    # the kernels count as they go; a route that falls back takes it back
    saved = COUNTER.adds, COUNTER.muls, COUNTER.divs
    minors = scaled_leading_minors(kept(), n if full else spec.order - 1)
    if len(minors) == n:
        rows = columns if full else columns[spec.order :]
        start = len(direct)
        _scaled_terms(rows, direct, *int_scaled(direct))
        if len(direct) == start + len(rows):
            reads = n * (n + 1) // 2 if full else len(rows)
            for f in coeffs:
                adds, muls, divs = f.ops  # type: ignore[attr-defined]
                COUNTER.adds += adds * reads
                COUNTER.muls += muls * reads
                COUNTER.divs += divs * reads
            if full:
                COUNTER.muls += n
                return direct[1:], [spec.initial * d for d in minors]
            return direct, minors
    COUNTER.adds, COUNTER.muls, COUNTER.divs = saved
    return None


def _columns(
    spec: FullHistorySpec | FixedOrderSpec, n: int
) -> Iterator[tuple[int, list[int]]]:
    """Column k of spec's matrix for k = 1..n, in order, as (L_k, [p * L_k]),
    up to the first k whose values a vector form or first_valid_k refuses.

    The column holds p(k, 1..k) of a full-history spec; of a fixed-order
    one, the band p_1(k)..p_m(k), or a(k) in row 1 for k <= m.  L_k is
    the lcm of their reduced denominators, as ring.int_scaled takes it
    for that column of the matrix.  A full-history spec takes one run of
    its vector form per k, so columns a kernel never reaches are never
    built; a fixed-order one takes one run of k per p_t, and column k
    gathers p_1(k)..p_m(k) from them.  No Fraction is built per value.
    """
    if isinstance(spec, FullHistorySpec):
        i = list(range(1, n + 1))
        for k in i:
            run = spec.coeff.vector(k, i[:k])  # type: ignore[attr-defined]
            if run is None:
                return
            nums, dens = run
            yield pairs_scaled(nums if type(nums) is list else [nums] * k, dens)
        return
    m = spec.order
    for k, a in enumerate(spec.initials[:n], start=1):
        yield a.denominator, [a.numerator] + [0] * (k - 1)
    if n <= m or spec.first_valid_k > m + 1:
        return
    ks = list(range(m + 1, n + 1))
    runs = [f.vector(ks, None) for f in spec.coeffs]  # type: ignore[attr-defined]
    if any(run is None for run in runs):
        return
    nums = zip(*(a if type(a) is list else [a] * len(ks) for a, _ in runs))
    dens = zip(*(d if type(d) is list else [d] * len(ks) for _, d in runs))
    yield from map(pairs_scaled, nums, dens)


def _read_once(
    spec: FullHistorySpec | FixedOrderSpec, n: int
) -> FullHistorySpec | FixedOrderSpec:
    """A copy of spec that computes each coefficient value up to index n
    once and then returns the stored value.

    A full-history spec gets a row per k, indexed by i; a fixed-order
    spec one list per p_t, indexed by k.  Values are computed lazily, in
    the order of the first reads, and a value that raised is not stored,
    so errors are those of the spec itself.  The table is local to the
    copy: nothing is shared between calls or threads.
    """
    if isinstance(spec, FullHistorySpec):
        coeff = spec.coeff
        rows: list[list[RingValue | None]] = [[None] * (k + 1) for k in range(n + 1)]

        def read(k: int, i: int) -> RingValue:
            row = rows[k]
            v = row[i]
            if v is None:
                v = row[i] = coeff(k, i)
            return v

        return replace(spec, coeff=read)
    return replace(spec, coeffs=tuple(_read_once_by_k(f, n) for f in spec.coeffs))


def _read_once_by_k(f: Callable[[int], RingValue], n: int) -> Callable[[int], RingValue]:
    values: list[RingValue | None] = [None] * (n + 1)

    def read(k: int) -> RingValue:
        v = values[k]
        if v is None:
            v = values[k] = f(k)
        return v

    return read
