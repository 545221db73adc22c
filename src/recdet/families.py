"""Catalog of concrete recurrence families, each with an independent oracle.

Every family is exposed twice: family_spec builds the recurrence spec
whose determinant of size n reproduces the family's n-th object, and
family_oracles computes the objects 1..n without any determinant
machinery, so the two routes check each other.  Indexing per family:

    naturals        det size n = n
    horner          det size n = p0*x^(n-1) + ... + p_{n-1} (params p0, p1, ...)
    partial-sums    det size n = p0 + ... + p_{n-1} (params p0, p1, ...)
    fibonacci-poly  det size n = F_{n+1}(x)   (F_1 = 1, F_2 = x)
    fibonacci-num   det size n = F_{n+1}      (F_1 = F_2 = 1)
    lucas-poly      det size n = L_n(x)       (L_1 = x, L_2 = x^2 + 2)
    chebyshev-t     det size n = T_n(x)
    chebyshev-u     det size n = U_n(x)
    hermite         det size n = H_n(x)
    legendre        det size n = P_n(x)
    laguerre        det size n = L_n(x)       (Laguerre)
    continuant      det size n = K(p1..pn)    (params p1, p2, ...)
    ode-example     det size k = u(k-1), the power series coefficients of
                    the solution of (x+1)y'' + y' + x*y = 0, y(0)=1, y'(0)=0
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import Callable

from .errors import MissingParams, OutOfRange, RecdetError, UnexpectedParams
from .recurrence import (
    FixedOrderSpec,
    FullHistorySpec,
    SequencePrefix,
    eval_fixed_order,
)
from .ring import Polynomial, RingValue, _reduced_poly

_ZERO = Fraction(0)
_ONE = Fraction(1)
_X = Polynomial.x()


class FamilyId(str, Enum):
    NATURALS = "naturals"
    HORNER = "horner"
    PARTIAL_SUMS = "partial-sums"
    FIBONACCI_POLY = "fibonacci-poly"
    FIBONACCI_NUM = "fibonacci-num"
    LUCAS_POLY = "lucas-poly"
    CHEBYSHEV_T = "chebyshev-t"
    CHEBYSHEV_U = "chebyshev-u"
    HERMITE = "hermite"
    LEGENDRE = "legendre"
    LAGUERRE = "laguerre"
    CONTINUANT = "continuant"
    ODE_EXAMPLE = "ode-example"


PARAM_FAMILIES = frozenset(
    {FamilyId.HORNER, FamilyId.PARTIAL_SUMS, FamilyId.CONTINUANT}
)

POLY_FAMILIES = frozenset(
    {
        FamilyId.HORNER,
        FamilyId.FIBONACCI_POLY,
        FamilyId.LUCAS_POLY,
        FamilyId.CHEBYSHEV_T,
        FamilyId.CHEBYSHEV_U,
        FamilyId.HERMITE,
        FamilyId.LEGENDRE,
        FamilyId.LAGUERRE,
    }
)


def family_ring(fid: FamilyId) -> str:
    return "poly" if fid in POLY_FAMILIES else "rational"


def family_names() -> tuple[str, ...]:
    return tuple(f.value for f in FamilyId)


def _check_params(fid: FamilyId, params: tuple[RingValue, ...] | None) -> tuple[RingValue, ...]:
    if fid in PARAM_FAMILIES:
        if not params:
            raise MissingParams(f"family {fid.value!r} needs a coefficient list")
        return tuple(params)
    if params:
        raise UnexpectedParams(f"family {fid.value!r} takes no parameters")
    return ()


# Theorem 1's column k of each three-term polynomial family, k >= 2, as
# (L, [L p(k, k - 1), L p(k, k)]): the band cells times L, L the lcm of
# their denominators, as int coefficient lists, constant term first.
# Column 1 is its last cell alone, and every other p(k, i) is zero.
_COLUMNS: dict[FamilyId, Callable[[int], tuple[int, list[list[int]]]]] = {
    FamilyId.FIBONACCI_POLY: lambda k: (1, [[1], [0, 1]]),
    FamilyId.LUCAS_POLY: lambda k: (1, [[2 if k == 2 else 1], [0, 1]]),
    FamilyId.CHEBYSHEV_T: lambda k: (1, [[-1], [0, 1 if k == 1 else 2]]),
    FamilyId.CHEBYSHEV_U: lambda k: (1, [[-1], [0, 2]]),
    FamilyId.HERMITE: lambda k: (1, [[2 - 2 * k], [0, 2]]),
    FamilyId.LEGENDRE: lambda k: (k, [[1 - k], [0, 2 * k - 1]]),
    FamilyId.LAGUERRE: lambda k: (k, [[1 - k], [2 * k - 1, -1]]),
}


def _column_spec(fid: FamilyId) -> FullHistorySpec:
    """The band-1 spec of a family of _COLUMNS.  Its coeff carries the
    family's scaled columns as coeff.column(k), (L, the cells times L as
    int coefficient lists), L the lcm of their denominators: the only int
    coefficient lists the determinant kernel reads, whole (see
    recurrence._band_minors).  A cell read by a call is a Fraction where
    it is constant and a Polynomial elsewhere."""
    cells = _COLUMNS[fid]

    def column(k: int) -> tuple[int, list[list[int]]]:
        scale, col = cells(k)
        return scale, col if k > 1 else col[1:]

    def coeff(k: int, i: int) -> RingValue:
        if i < k - 1:
            return _ZERO
        scale, col = column(k)
        nums = col[i - k - 1]
        return Fraction(nums[0], scale) if len(nums) == 1 else _reduced_poly(nums, scale)

    coeff.column = column  # type: ignore[attr-defined]
    return FullHistorySpec(initial=_ONE, coeff=coeff, name=fid.value, band=1)


def family_spec(
    fid: FamilyId, params: tuple[RingValue, ...] | None = None
) -> FullHistorySpec | FixedOrderSpec:
    """The recurrence spec realizing the family's determinant representation.

    The three-term families have p(k, i) == 0 for i < k - 1 and declare
    band 1; naturals, horner and partial-sums are dense.
    """
    ps = _check_params(fid, params)
    if fid in _COLUMNS:
        return _column_spec(fid)
    if fid is FamilyId.ODE_EXAMPLE:
        return FixedOrderSpec(
            order=3,
            initials=(_ONE, _ZERO, _ZERO),
            coeffs=(
                lambda k: Fraction(-1, (k - 2) * (k - 1)),
                lambda k: _ZERO,
                lambda k: Fraction(-(k - 2), k - 1),
            ),
            first_valid_k=4,
            name=fid.value,
        )

    def param(k: int) -> RingValue:
        # 1-based access into the parameter list
        if k > len(ps):
            raise OutOfRange(
                f"family {fid.value!r} needs {k} parameters, got {len(ps)}"
            )
        return ps[k - 1]

    # p(k, k) and p(k, k - 1) as functions of k; every other p(k, i) is zero
    three_term = {
        FamilyId.FIBONACCI_NUM: (lambda k: _ONE, lambda k: _ONE),
        FamilyId.CONTINUANT: (param, lambda k: _ONE),
    }
    if fid in three_term:
        diag, sub = three_term[fid]

        def coeff(k: int, i: int) -> RingValue:
            if i == k:
                return diag(k)
            if i == k - 1:
                return sub(k)
            return _ZERO

        return FullHistorySpec(initial=_ONE, coeff=coeff, name=fid.value, band=1)

    # p(k, 1) and p(k, k), p(k, 1) winning at k = 1; every other p(k, i) is
    # zero, but p(k, 1) carries data for every k, so no band is declared
    first, last = {
        FamilyId.NATURALS: (lambda k: _ONE, lambda k: _ONE),
        FamilyId.HORNER: (param, lambda k: _X),
        FamilyId.PARTIAL_SUMS: (param, lambda k: _ONE),
    }[fid]

    def coeff(k: int, i: int) -> RingValue:
        if i == 1:
            return first(k)
        if i == k:
            return last(k)
        return _ZERO

    return FullHistorySpec(initial=_ONE, coeff=coeff, name=fid.value)


def _iterate(
    n: int,
    prev: RingValue,
    cur: RingValue,
    step: Callable[[int, RingValue, RingValue], RingValue],
) -> tuple[RingValue, ...]:
    """cur followed by n - 1 steps (prev, cur) -> (cur, step(j, prev, cur)),
    j = 1, 2, ...; the n values of cur in order."""
    out = [cur]
    for j in range(1, n):
        prev, cur = cur, step(j, prev, cur)
        out.append(cur)
    return tuple(out)


# The classical three-term recurrences (Abramowitz & Stegun 22.7) as
# (p_0, p_1, step): p_0 and p_1 are int coefficient lists, constant term
# first, and step(j) = (a, b, c, q) with
# p_{j+1} = ((a x + b) p_j - c p_{j-1}) / q; the family's objects are
# p_1, p_2, ...  Fibonacci's are F_2, F_3, ... from F_1 = 1, F_2 = x and
# Lucas's L_1, L_2, ... from L_0 = 2, L_1 = x.
_THREE_TERM: dict[FamilyId, tuple[tuple[int, ...], tuple[int, ...], Callable]] = {
    FamilyId.FIBONACCI_POLY: ((1,), (0, 1), lambda j: (1, 0, -1, 1)),
    FamilyId.LUCAS_POLY: ((2,), (0, 1), lambda j: (1, 0, -1, 1)),
    FamilyId.CHEBYSHEV_T: ((1,), (0, 1), lambda j: (2, 0, 1, 1)),
    FamilyId.CHEBYSHEV_U: ((1,), (0, 2), lambda j: (2, 0, 1, 1)),
    FamilyId.HERMITE: ((1,), (0, 2), lambda j: (2, 0, 2 * j, 1)),
    FamilyId.LEGENDRE: ((1,), (0, 1), lambda j: (2 * j + 1, 0, j, j + 1)),
    FamilyId.LAGUERRE: ((1,), (1, -1), lambda j: (-1, 2 * j + 1, j, j + 1)),
}


def _three_term(
    n: int, p0: tuple[int, ...], p1: tuple[int, ...], step: Callable
) -> tuple[Polynomial, ...]:
    """p_1 .. p_n, each step over the reduced (int list, den) pairs of
    p_{j-1} and p_j brought to their common denominator."""
    prev, dprev = p0, 1
    cur = _reduced_poly(list(p1), 1)
    out = [cur]
    for j in range(1, n):
        a, b, c, q = step(j)
        nums, den = cur.nums, cur.den
        g = gcd(den, dprev)
        sc, sp = dprev // g, den // g
        a, b, c = a * sc, b * sc, c * sp
        lifted, back = (0, *nums), (*prev, 0, 0)  # x p_j and p_{j-1}
        if b:
            nxt = [a * u + b * v - c * w for u, v, w in zip(lifted, (*nums, 0), back)]
        else:
            nxt = [a * u - c * w for u, w in zip(lifted, back)]
        prev, dprev = nums, den
        cur = _reduced_poly(nxt, den * sc * q)
        out.append(cur)
    return tuple(out)


def family_oracles(
    fid: FamilyId, n: int, params: tuple[RingValue, ...] | None = None
) -> tuple[RingValue, ...]:
    """The family's objects 1..n in one pass, computed without determinants.

    Polynomial families iterate their classical three-term recurrences
    directly; Horner and partial sums come from the coefficient list
    itself; continuants use the double recurrence K_n = p_n K_{n-1} +
    K_{n-2}; the ODE example iterates the original power series
    recurrence in u.
    """
    ps = _check_params(fid, params)
    if n < 1:
        raise OutOfRange(f"family index must be at least 1, got {n}")
    if fid in PARAM_FAMILIES and n > len(ps):
        raise OutOfRange(f"{fid.value} with {len(ps)} parameters stops at n = {len(ps)}")

    if fid is FamilyId.NATURALS:
        return tuple(Fraction(k) for k in range(1, n + 1))

    if fid is FamilyId.HORNER:
        # f_{k-1}(x) = p0 x^(k-1) + ... + p_{k-1}, constant term last
        return tuple(Polynomial(tuple(reversed(ps[:k]))) for k in range(1, n + 1))

    if fid is FamilyId.PARTIAL_SUMS:
        return tuple(accumulate(ps[:n], initial=_ZERO))[1:]

    if fid in _THREE_TERM:
        return _three_term(n, *_THREE_TERM[fid])

    if fid is FamilyId.FIBONACCI_NUM:
        # F_2 .. F_{n+1} from F_1 = F_2 = 1
        return tuple(Fraction(f) for f in _iterate(n, 1, 1, lambda j, prev, cur: prev + cur))

    if fid is FamilyId.CONTINUANT:
        # K_1 .. K_n from K_0 = 1, K_1 = p1
        return _iterate(n, _ONE, ps[0], lambda j, prev, cur: ps[j] * cur + prev)

    if fid is FamilyId.ODE_EXAMPLE:
        return tuple(_ode_series(n))  # u(0) .. u(n-1)

    raise RecdetError(f"unhandled family {fid!r}")  # pragma: no cover


def family_oracle(
    fid: FamilyId, n: int, params: tuple[RingValue, ...] | None = None
) -> RingValue:
    """The family's n-th object, the last of family_oracles(fid, n, params)."""
    return family_oracles(fid, n, params)[n - 1]


def _ode_series(count: int) -> list[Fraction]:
    """u(0..count-1) by iterating the series recurrence in its original shape:
    u(k+2) = -(k+1)/(k+2) u(k+1) - 1/((k+1)(k+2)) u(k-1) for k >= 1."""
    u = [Fraction(1), Fraction(0), Fraction(0)]
    while len(u) < count:
        k = len(u) - 2
        u.append(
            -Fraction(k + 1, k + 2) * u[k + 1] - Fraction(1, (k + 1) * (k + 2)) * u[k - 1]
        )
    return u[:count]


def ode_coefficients(n: int) -> SequencePrefix:
    """First n power series coefficients u(0..n-1) of the ODE solution,
    produced through the fixed-order spec (a(k) = u(k-1))."""
    if n < 1:
        raise RecdetError("n must be at least 1")
    spec = family_spec(FamilyId.ODE_EXAMPLE)
    return eval_fixed_order(spec, n)


def ode_residual_check(coeffs: SequencePrefix) -> bool:
    """Substitute the truncated series into (x+1)y'' + y' + x*y and check
    that every determined coefficient vanishes exactly.

    With u_t the coefficient of x^t, the x^k coefficient of the left
    side is (k+2)(k+1)u_{k+2} + (k+1)k u_{k+1} + (k+1)u_{k+1} + u_{k-1},
    the last term absent at k = 0.
    """
    u = coeffs.terms
    if len(u) < 3:
        raise RecdetError("residual check needs at least 3 coefficients")
    for k in range(len(u) - 2):
        residual = (
            Fraction((k + 2) * (k + 1)) * u[k + 2]
            + Fraction((k + 1) * k) * u[k + 1]
            + Fraction(k + 1) * u[k + 1]
        )
        if k >= 1:
            residual = residual + u[k - 1]
        if residual != 0:
            return False
    return True
