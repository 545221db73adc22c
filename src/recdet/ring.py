"""Exact ring arithmetic: rationals and univariate polynomials over them.

Every value the rest of the package manipulates is either a
``fractions.Fraction`` or a :class:`Polynomial`.  The ``ring_*`` helpers
operate on that union, promote operands as needed, and feed the global
:data:`COUNTER` used by benchmarks and the complexity tests.  The text
renderings produced by :func:`render_value` are the bit-exact contract
for JSON output and golden tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import DivisionByZero, InexactDivision, RecdetError


def _coerce_coeff(c: object) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"polynomial coefficients must be exact, got {type(c).__name__}")


class Polynomial:
    """Dense univariate polynomial in x over Fraction, constant term first.

    The zero polynomial is stored as an empty coefficient tuple and its
    degree is None, so it never collides with degree 0.  Instances are
    immutable and compare equal to Fractions and ints when constant.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[object] = ()) -> None:
        cs = [_coerce_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def constant(cls, c: object) -> "Polynomial":
        return cls((c,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coefficient(self, d: int) -> Fraction:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else Fraction(0)

    def _coerced(self, other: object) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial((other,))
        return None

    def __add__(self, other: object) -> "Polynomial":
        p = self._coerced(other)
        if p is None:
            return NotImplemented
        a, b = self.coeffs, p.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for d, c in enumerate(b):
            out[d] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: object) -> "Polynomial":
        p = self._coerced(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other: object) -> "Polynomial":
        p = self._coerced(other)
        if p is None:
            return NotImplemented
        return p + (-self)

    def __mul__(self, other: object) -> "Polynomial":
        p = self._coerced(other)
        if p is None:
            return NotImplemented
        if self.is_zero or p.is_zero:
            return Polynomial(())
        a, b = self.coeffs, p.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Long division: returns (quotient, remainder) over Fraction."""
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        dn = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        if len(rem) <= dn:
            return Polynomial(()), Polynomial(rem)
        quot = [Fraction(0)] * (len(rem) - dn)
        for top in range(len(rem) - 1, dn - 1, -1):
            c = rem[top]
            if c == 0:
                continue
            q = c / lead
            quot[top - dn] = q
            for d in range(dn + 1):
                rem[top - dn + d] -= q * other.coeffs[d]
        return Polynomial(quot), Polynomial(rem)

    def evaluate(self, at: object) -> Fraction:
        """Horner evaluation at an exact rational point."""
        point = at if isinstance(at, Fraction) else Fraction(at)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return other == 0
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        # constants hash like the Fraction they equal
        if not self.coeffs:
            return hash(Fraction(0))
        if len(self.coeffs) == 1:
            return hash(self.coeffs[0])
        return hash(("Polynomial", self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({render_value(self)!r})"


RingValue = Union[Fraction, Polynomial]


@dataclass
class OpCounter:
    """Instrumentation for ring operations.

    adds/muls/divs count calls to the corresponding ring_* helpers.
    When track_bits is on, every result is inspected and max_bits holds
    the largest numerator or denominator bit length seen so far.
    """

    adds: int = 0
    muls: int = 0
    divs: int = 0
    max_bits: int = 0
    track_bits: bool = False

    @property
    def ring_ops(self) -> int:
        return self.adds + self.muls + self.divs

    def reset(self, track_bits: bool = False) -> None:
        self.adds = 0
        self.muls = 0
        self.divs = 0
        self.max_bits = 0
        self.track_bits = track_bits

    def observe(self, value: RingValue) -> None:
        if isinstance(value, Polynomial):
            for c in value.coeffs:
                self._observe_fraction(c)
        else:
            self._observe_fraction(value)

    def _observe_fraction(self, f: Fraction) -> None:
        bits = f.numerator.bit_length()
        dbits = f.denominator.bit_length()
        if dbits > bits:
            bits = dbits
        if bits > self.max_bits:
            self.max_bits = bits


COUNTER = OpCounter()


def is_zero(v: RingValue) -> bool:
    return v == 0


def ring_add(a: RingValue, b: RingValue) -> RingValue:
    COUNTER.adds += 1
    r = a + b
    if COUNTER.track_bits:
        COUNTER.observe(r)
    return r


def ring_sub(a: RingValue, b: RingValue) -> RingValue:
    COUNTER.adds += 1
    r = a - b
    if COUNTER.track_bits:
        COUNTER.observe(r)
    return r


def ring_neg(a: RingValue) -> RingValue:
    return -a


def ring_mul(a: RingValue, b: RingValue) -> RingValue:
    COUNTER.muls += 1
    if type(a) is Fraction and type(b) is Fraction:
        if a.denominator == 1 and b.denominator == 1:
            r = Fraction(a.numerator * b.numerator)
        else:
            r = a * b
    else:
        r = a * b
    if COUNTER.track_bits:
        COUNTER.observe(r)
    return r


def ring_exact_div(a: RingValue, b: RingValue) -> RingValue:
    """Divide a by b, which must divide exactly in the current ring.

    Exactness always holds for rationals.  For polynomials the long
    division remainder must vanish; a nonzero remainder raises
    InexactDivision, a zero divisor raises DivisionByZero.
    """
    if is_zero(b):
        raise DivisionByZero("division by zero")
    COUNTER.divs += 1
    if isinstance(a, Polynomial) or isinstance(b, Polynomial):
        pa = a if isinstance(a, Polynomial) else Polynomial((a,))
        if not isinstance(b, Polynomial) or b.degree == 0:
            c = b.coeffs[0] if isinstance(b, Polynomial) else b
            r: RingValue = Polynomial(tuple(q / c for q in pa.coeffs))
        else:
            q, rem = pa.divmod(b)
            if not rem.is_zero:
                raise InexactDivision(
                    f"{render_value(b)} does not divide {render_value(a)} exactly"
                )
            r = q
    else:
        if a.denominator == 1 and b.denominator == 1:
            q2, rem2 = divmod(a.numerator, b.numerator)
            r = Fraction(q2) if rem2 == 0 else Fraction(a.numerator, b.numerator)
        else:
            r = a / b
    if COUNTER.track_bits:
        COUNTER.observe(r)
    return r


# --- canonical text rendering -------------------------------------------

def _render_terms(v: RingValue, coeff, power, star: str) -> str:
    """v as text: a rational through coeff, a polynomial as its nonzero
    terms, highest degree first, joined by " + " and " - ".

    coeff renders a rational, power(d) renders x^d for d >= 1, and star
    sits between a non-unit coefficient and its power.
    """
    if not isinstance(v, Polynomial):
        return coeff(v)
    parts: list[str] = []
    for d in range(len(v.coeffs) - 1, -1, -1):
        c = v.coeffs[d]
        if c == 0:
            continue
        mag = abs(c)
        if d == 0:
            piece = coeff(mag)
        else:
            piece = power(d) if mag == 1 else f"{coeff(mag)}{star}{power(d)}"
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f" + {piece}" if c > 0 else f" - {piece}")
    return "".join(parts) or "0"


def render_value(v: RingValue) -> str:
    """Canonical rendering: "n", "n/d", or "c_k*x^k + ... + c_0"."""
    return _render_terms(v, str, lambda d: "x" if d == 1 else f"x^{d}", "*")


def latex_value(v: RingValue) -> str:
    """LaTeX form of a ring value, for the vmatrix emitter."""
    return _render_terms(
        v, _latex_fraction, lambda d: "x" if d == 1 else f"x^{{{d}}}", ""
    )


def _latex_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return f"{sign}\\frac{{{abs(f.numerator)}}}{{{f.denominator}}}"


_TERM_RE = re.compile(r"(\d+)?(?:/(\d+))?(\*)?(x)?(?:\^(\d+))?")


def parse_value(text: str, ring: str = "rational") -> RingValue:
    """Parse the canonical rendering back into a ring value."""
    s = text.strip()
    if not s:
        raise RecdetError("cannot parse empty value")
    if ring not in ("rational", "poly"):
        raise RecdetError(f"unknown ring {ring!r}")
    if ring == "rational" or "x" not in s:
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise RecdetError(f"cannot parse rational value {text!r}") from exc
    return _parse_poly_text(s)


def _parse_poly_text(s: str) -> Polynomial:
    chunks = re.split(r"\s([+-])\s", s)
    signed: list[tuple[int, str]] = [(1, chunks[0].strip())]
    for t in range(1, len(chunks), 2):
        signed.append((1 if chunks[t] == "+" else -1, chunks[t + 1].strip()))
    coeffs: dict[int, Fraction] = {}
    for sign, term in signed:
        if term.startswith("-"):
            sign = -sign
            term = term[1:].strip()
        m = _TERM_RE.fullmatch(term)
        if not m:
            raise RecdetError(f"cannot parse polynomial term {term!r}")
        num, den, star, xpart, exp = m.groups()
        if num is None and xpart is None:
            raise RecdetError(f"cannot parse polynomial term {term!r}")
        if (exp or star) and not xpart:
            raise RecdetError(f"cannot parse polynomial term {term!r}")
        if den is not None and num is None:
            raise RecdetError(f"cannot parse polynomial term {term!r}")
        c = Fraction(int(num), int(den) if den else 1) if num else Fraction(1)
        d = (int(exp) if exp else 1) if xpart else 0
        coeffs[d] = coeffs.get(d, Fraction(0)) + sign * c
    top = max(coeffs, default=0)
    return Polynomial(tuple(coeffs.get(d, Fraction(0)) for d in range(top + 1)))
