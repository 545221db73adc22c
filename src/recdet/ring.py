"""Exact ring arithmetic: rationals and univariate polynomials over them.

Every value the rest of the package manipulates is either a
``fractions.Fraction`` or a :class:`Polynomial`.  A Polynomial keeps
integer numerators over one common denominator: products multiply ints
and division is fraction-free, so polynomial arithmetic makes no
Fraction.  The ``ring_*`` helpers operate on that union, promote
operands as needed, and feed the global :data:`COUNTER` used by
benchmarks and the complexity tests.  The text
renderings produced by :func:`render_value` are the bit-exact contract
for JSON output and golden tests.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import floordiv, mul
from typing import Iterable, Iterator, Union

from .errors import DivisionByZero, InexactDivision, RecdetError, SizeTooLarge


def _numerator_denominator(c: object) -> tuple[int, int]:
    if isinstance(c, int):
        return c, 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    raise TypeError(f"polynomial coefficients must be exact, got {type(c).__name__}")


class Polynomial:
    """Dense univariate polynomial in x over the rationals, constant term first.

    The value is stored as a reduced pair: nums, a tuple of ints with no
    trailing zero, over den, a positive int with gcd(den, *nums) == 1.
    Equal polynomials therefore have equal pairs.  The zero polynomial
    is ((), 1) and its degree is None, so it never collides with degree
    0.  Instances are immutable and compare equal to Fractions and ints
    when constant.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[object] = ()) -> None:
        pairs = [_numerator_denominator(c) for c in coeffs]
        den = lcm(*(d for _, d in pairs))
        nums, den = _reduced([n * (den // d) for n, d in pairs], den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

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
        return not self.nums

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else None

    def coefficient(self, d: int) -> Fraction:
        return Fraction(self.nums[d], self.den) if 0 <= d < len(self.nums) else Fraction(0)

    @staticmethod
    def _coerced(other: object) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return _pair_poly((other.numerator,) if other else (), other.denominator)
        return None

    def __add__(self, other: object) -> "Polynomial":
        p = self._coerced(other)
        if p is None:
            return NotImplemented
        return _combine(self, p, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _pair_poly(tuple(-n for n in self.nums), self.den)

    def __sub__(self, other: object) -> "Polynomial":
        p = self._coerced(other)
        if p is None:
            return NotImplemented
        return _combine(self, p, -1)

    def __rsub__(self, other: object) -> "Polynomial":
        p = self._coerced(other)
        if p is None:
            return NotImplemented
        return _combine(p, self, -1)

    def __mul__(self, other: object) -> "Polynomial":
        p = self._coerced(other)
        if p is None:
            return NotImplemented
        if not self.nums or not p.nums:
            return _ZERO
        return _reduced_poly(_add_product([], self.nums, p.nums), self.den * p.den)

    __rmul__ = __mul__

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Long division: (quotient, remainder), the remainder of lower
        degree than the divisor.

        It is fraction-free: it divides the integer numerators of
        self * other.den by other.nums.  When the divisor's leading
        coefficient does not divide a step's top coefficient c, the
        remainder and the quotient so far are scaled by
        |lead| / gcd(c, lead), and the product of those scales becomes
        part of both results' denominators.
        """
        if not other.nums:
            raise DivisionByZero("polynomial division by zero")
        d = other.nums
        dn = len(d) - 1
        if len(self.nums) <= dn:
            return _ZERO, self
        lead = d[-1]
        rem = [c * other.den for c in self.nums]
        quot = [0] * (len(rem) - dn)
        scale = 1
        for top in range(len(rem) - 1, dn - 1, -1):
            c = rem[top]
            if not c:
                continue
            q, r = divmod(c, lead)
            if r:
                f = abs(lead) // gcd(c, lead)
                scale *= f
                rem[:top] = [v * f for v in rem[:top]]
                quot = [v * f for v in quot]
                q = c * f // lead
            base = top - dn
            quot[base] = q
            for i in range(dn):
                rem[base + i] -= q * d[i]
        # scale * self.nums * other.den == quot * other.nums + rem[:dn]
        den = scale * self.den
        return _reduced_poly(quot, den), _reduced_poly(rem[:dn], den * other.den)

    def evaluate(self, at: object) -> Fraction:
        """Horner evaluation at an exact rational point."""
        point = at if isinstance(at, Fraction) else Fraction(at)
        acc = Fraction(0)
        for c in reversed(self.nums):
            acc = acc * point + c
        return acc / self.den

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return (
                self.nums == ((other.numerator,) if other else ())
                and self.den == other.denominator
            )
        return NotImplemented

    def __hash__(self) -> int:
        # constants hash like the Fraction they equal
        if len(self.nums) <= 1:
            return hash(self.coefficient(0))
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"Polynomial({render_value(self)!r})"


def _pair_poly(nums: tuple[int, ...], den: int) -> Polynomial:
    """A Polynomial from a pair that is already reduced."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "nums", nums)
    object.__setattr__(p, "den", den)
    return p


def _reduced(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """nums / den (den > 0) as a reduced pair."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return (), 1
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
    return tuple(nums), den


def _reduced_poly(nums: list[int], den: int) -> Polynomial:
    return _pair_poly(*_reduced(nums, den))


_ZERO = _pair_poly((), 1)


def _combine(a: Polynomial, b: Polynomial, sign: int) -> Polynomial:
    """a + sign * b, over the least common denominator."""
    an, bn, den = a.nums, b.nums, a.den
    if den != b.den:
        g = gcd(den, b.den)
        sa, sb = b.den // g, den // g
        an = [n * sa for n in an]
        bn = [n * sb for n in bn]
        den *= sa
    if sign > 0:
        out = [x + y for x, y in zip(an, bn)]
        tail = an[len(bn):] or bn[len(an):]
    else:
        out = [x - y for x, y in zip(an, bn)]
        tail = an[len(bn):] or [-y for y in bn[len(an):]]
    out += tail
    return _reduced_poly(out, den)


def _add_product(acc: list[int], a, b) -> list[int]:
    """acc + a * b over int coefficient lists or tuples, constant term
    first: in place when acc is long enough, else into a copy of acc
    grown by zeros.  An empty factor adds nothing.  The shorter factor
    drives the outer loop."""
    if not a or not b:
        return acc
    if len(a) > len(b):
        a, b = b, a
    short = len(a) + len(b) - 1 - len(acc)
    if short > 0:
        acc = acc + [0] * short
    for i, y in enumerate(a):
        if y:
            for j, x in enumerate(b, i):
                acc[j] += x * y
    return acc


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
            # each coefficient n/den reduced by one gcd, with no Fraction built
            nums, den = value.nums, value.den
            if not nums:
                return
            if den == 1:
                bits = max(1, *(n.bit_length() for n in nums))
            else:
                bits = 0
                for n in nums:
                    g = gcd(n, den)
                    bits = max(bits, (n // g).bit_length(), (den // g).bit_length())
        else:
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        if bits > self.max_bits:
            self.max_bits = bits


COUNTER = OpCounter()


# --- the gate of the int kernels ------------------------------------------
#
# The leading minors, Bareiss, Laplace and direct iteration each have an
# int kernel that gives the ring path's values and adds its op counts to
# COUNTER in bulk.  A matrix runs on it when SquareMatrix._kernel_form
# gives its cells as ints, or as polynomials packed into the ints p(2^B)
# by Kronecker substitution up to a width gate on B (no kernel divides,
# so every minor unpacks from its int).  Else a column or row runs over
# ints when int_scaled lets it, the one gate for cells that come
# unscaled; only the catalog's columns come as int coefficient lists
# (families._COLUMNS).  Where pair_outgrew says the scales cost too
# much, the leading minors hand over to their ring path, and direct
# iteration starts again from its terms unless their own lcm outgrows
# the last one too.

# Past this many bits of scale beyond a value's reduced denominator, the
# int products of the term-by-term sum cost more than the ring recurrence
# on reduced Fractions, when denominators depend on the row.  verify of
# (k - i + 1)/(k + 2i) - 1/3 took, with this bound against ints
# throughout, 26 against 16 ms at n = 100, 278 against 321 ms at n = 200
# and 2.9 against 8.8 s at n = 400 (Python 3.11, x86-64): the bound pays
# from n = 200 or so.  No benchmark workload runs a job that long.
_MAX_EXCESS_BITS = 8192


def int_scaled(values: Iterable[RingValue]) -> tuple[int, list[int]] | None:
    """(L, [v * L for v in values]) as ints, L the lcm of the values'
    denominators, by pairs_scaled's rule; None while COUNTER tracks
    bits, so that max_bits sees the ring path's every result, or when a
    value is not a Fraction."""
    if COUNTER.track_bits:
        return None
    nums: list[int] = []
    dens: list[int] = []
    for v in values:
        if type(v) is not Fraction:
            return None
        nums.append(v.numerator)
        dens.append(v.denominator)
    return pairs_scaled(nums, dens)


def pairs_scaled(nums: list[int], dens: list[int]) -> tuple[int, list[int]]:
    """(L, [n * L / d for each pair]) as ints, L the lcm of the reduced
    denominators of the Fractions nums[j] / dens[j], from int pairs that
    need not be reduced (every den nonzero, of either sign)."""
    if dens.count(1) == len(dens):
        return 1, nums
    scale = lcm(*_reduced_dens(nums, dens))
    return scale, list(_times(nums, repeat(scale), dens))


def runs_scaled(
    runs: list[tuple[list[int], list[int]]], w: int
) -> Iterator[tuple[int, list[int]]]:
    """pairs_scaled of each of w rows, row r made of the r-th pair of
    every run (nums, dens) in turn, each of length w.  The rule is
    pairs_scaled's, taken a run at a time: each run's reduced
    denominators, each row's lcm of them across the runs, and each run's
    products, so no row makes a Python call."""
    nums, dens = zip(*runs)
    if all(d.count(1) == w for d in dens):
        return zip(repeat(1), map(list, zip(*nums)))
    scales = list(map(lcm, *map(_reduced_dens, nums, dens)))
    return zip(scales, map(list, zip(*map(_times, nums, repeat(scales), dens))))


def _reduced_dens(nums: Iterable[int], dens: Iterable[int]) -> Iterator[int]:
    """The denominators of the Fractions nums[j] / dens[j], reduced, of
    the sign of dens[j]."""
    return map(floordiv, dens, map(gcd, nums, dens))


def _times(nums: Iterable[int], scales: Iterable[int], dens: Iterable[int]) -> Iterator[int]:
    """nums[j] / dens[j] times scales[j], each scale a multiple of the
    reduced denominator, as ints."""
    return map(floordiv, map(mul, nums, scales), dens)


# A value of an int kernel is held as the pair (A, T) it computes, the
# rational A / T with T > 0, neither reduced.  pair_outgrew and
# render_pair give what the Fraction A / T would, with no Fraction built;
# pair_value builds it where the value leaves as a ring value.


def pair_outgrew(num: int, scale: int) -> bool:
    """Whether scale > 0 carries more than _MAX_EXCESS_BITS bits beyond
    the reduced denominator of Fraction(num, scale).  A scale of at most
    _MAX_EXCESS_BITS bits cannot carry that many beyond any denominator,
    so only a longer one takes a gcd."""
    bits = scale.bit_length()
    if bits <= _MAX_EXCESS_BITS:
        return False
    return bits - (scale // gcd(num, scale)).bit_length() > _MAX_EXCESS_BITS


def pair_value(v: tuple[int, int] | RingValue) -> RingValue:
    """A kernel's value as a ring value: Fraction(A, T) of a pair (A, T),
    any other value as it is."""
    return Fraction(*v) if type(v) is tuple else v


def render_pair(num: int, den: int) -> str:
    """render_value(Fraction(num, den)), den > 0, reduced by one gcd."""
    try:
        if den != 1:
            g = gcd(num, den)
            if g != den:
                return f"{num // g}/{den // g}"
            num //= g
        return str(num)
    except ValueError:
        raise _too_long() from None


def _too_long() -> SizeTooLarge:
    """The refusal of a value with an int longer than the interpreter
    writes out (Python 3.11 and later), which raises ValueError."""
    return SizeTooLarge(
        f"a value has an integer of more than {sys.get_int_max_str_digits()} digits, "
        "the most this Python writes out (sys.set_int_max_str_digits)"
    )


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
        if isinstance(b, Polynomial) and b.degree:
            q, rem = pa.divmod(b)
            if not rem.is_zero:
                raise InexactDivision(
                    f"{render_value(b)} does not divide {render_value(a)} exactly"
                )
            r: RingValue = q
        else:
            # a constant n/d only rescales the pair: (nums * d) / (den * n)
            if isinstance(b, Polynomial):
                n, d = b.nums[0], b.den
            else:
                n, d = b.numerator, b.denominator
            if n < 0:
                n, d = -n, -d
            r = _reduced_poly([c * d for c in pa.nums], pa.den * n)
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

# x^d's text at index d, d >= 1, per power format; a longer tuple replaces
# a shorter one whole, so a thread reads an old table or a new one, both
# right, and a race only rebuilds a table
_POWER_TEXTS = {"x^{}": ("", "x"), "x^{{{}}}": ("", "x")}


def _power_texts(fmt: str, top: int) -> tuple[str, ...]:
    texts = _POWER_TEXTS[fmt]
    if len(texts) <= top:
        grown = range(len(texts), max(top + 1, 2 * len(texts)))
        texts = _POWER_TEXTS[fmt] = texts + tuple(fmt.format(d) for d in grown)
    return texts


def _render_terms(p: Polynomial, coeff, power_fmt: str, star: str) -> str:
    """p's nonzero terms, highest degree first, joined by " + " and " - ".

    coeff(num, den) renders a positive reduced rational,
    power_fmt.format(d) renders x^d for d >= 1, and star sits between a
    non-unit coefficient and its power.  Each coefficient comes from the
    int pair: |n| / den, reduced by one gcd when den is not 1.  Every
    term is written with its sign as " + " or " - ", and the first
    term's is rewritten once at the end.
    """
    nums, den = p.nums, p.den
    if not nums:
        return "0"
    powers = _power_texts(power_fmt, len(nums) - 1)
    parts: list[str] = []
    for d in range(len(nums) - 1, -1, -1):
        n = nums[d]
        if not n:
            continue
        sign, num = (" - ", -n) if n < 0 else (" + ", n)
        if d and num == den:  # a unit coefficient
            parts.append(f"{sign}{powers[d]}")
            continue
        if den == 1:
            c = num
        else:
            g = gcd(num, den)
            c = coeff(num // g, den // g)
        parts.append(f"{sign}{c}{star}{powers[d]}" if d else f"{sign}{c}")
    text = "".join(parts)
    return text[3:] if text[1] == "+" else f"-{text[3:]}"


def render_value(v: RingValue) -> str:
    """Canonical rendering: "n", "n/d", or "c_k*x^k + ... + c_0".  An
    int too long to write out raises SizeTooLarge, here and in
    render_pair and latex_value."""
    try:
        if not isinstance(v, Polynomial):
            return str(v)
        return _render_terms(v, _text_fraction, "x^{}", "*")
    except ValueError:
        raise _too_long() from None


def latex_value(v: RingValue) -> str:
    """LaTeX form of a ring value, for the vmatrix emitter."""
    try:
        if not isinstance(v, Polynomial):
            return _latex_fraction(v.numerator, v.denominator)
        return _render_terms(v, _latex_fraction, "x^{{{}}}", "")
    except ValueError:
        raise _too_long() from None


def _text_fraction(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def _latex_fraction(num: int, den: int) -> str:
    if den == 1:
        return str(num)
    sign = "-" if num < 0 else ""
    return f"{sign}\\frac{{{abs(num)}}}{{{den}}}"


_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_TERM_RE = re.compile(r"([0-9]+)?(?:/([0-9]+))?(\*)?(x)?(?:\^([0-9]+))?")
# the " + " and " - " between a polynomial's terms
_SIGN_RE = re.compile(r"\s([+-])\s")

# The highest degree parse_value accepts in a polynomial term; a larger
# one raises SizeTooLarge before anything of that size is allocated.
MAX_PARSE_DEGREE = 10_000


def parse_value(
    text: str, ring: str = "rational", terms: dict | None = None
) -> RingValue:
    """Parse the canonical rendering back into a ring value.

    A rational is an optional "-", digits, and optionally "/" and
    digits; surrounding whitespace is ignored.  Digits are ASCII, and a
    polynomial term's degree is at most MAX_PARSE_DEGREE.  A caller that
    parses many texts may pass one dict as terms, the table of the
    polynomial terms parsed so far (see _parse_poly_text).
    """
    s = text.strip()
    if not s:
        raise RecdetError("cannot parse empty value")
    if ring not in ("rational", "poly"):
        raise RecdetError(f"unknown ring {ring!r}")
    if ring == "rational" or "x" not in s:
        m = _RATIONAL_RE.fullmatch(s)
        if m is not None:
            num, den = m.groups()
            try:
                return Fraction(int(num), int(den) if den else 1)
            except (ValueError, ZeroDivisionError):
                pass  # a zero denominator, or more digits than int() takes
        raise RecdetError(f"cannot parse rational value {text!r}")
    return _parse_poly_text(s, terms)


def _parse_poly_text(s: str, table: dict | None = None) -> Polynomial:
    """A polynomial's text, term by term, straight into the reduced pair.

    Each term gives its degree and a signed numerator over a
    denominator, as ints, and is added as it comes over the lcm of the
    denominators so far, which grows only at a term whose denominator
    does not divide it: with every denominator 1 no lcm is taken.  The
    first malformed term raises, and a term's degree is checked before
    its coefficient.  table, when given, maps each term's text (as it
    stands between the " + " and " - " signs) to its (degree, numerator,
    denominator), filled as terms are parsed: a term in it is not parsed
    again, and one that raises is never stored, so it raises again.
    """
    # the terms at even indices, each after the sign before it
    chunks = _SIGN_RE.split(s)
    if table is None:
        table = {}
    get = table.get
    nums: list[int] = []
    den = 1
    for j in range(0, len(chunks), 2):
        chunk = chunks[j]
        term = get(chunk)
        if term is None:
            term = table[chunk] = _parse_term(chunk)
        d, n, q = term
        if j and chunks[j - 1] == "-":
            n = -n
        if q != den:
            if den % q:
                f = q // gcd(den, q)
                nums = [a * f for a in nums]
                den *= f
            n *= den // q
        if d >= len(nums):
            nums += [0] * (d + 1 - len(nums))
        nums[d] += n
    return _reduced_poly(nums, den)


def _parse_term(chunk: str) -> tuple[int, int, int]:
    """One term of a polynomial's text as (degree, numerator,
    denominator), the numerator signed by the term's own leading "-"."""
    term = chunk.strip()
    sign = 1
    if term.startswith("-"):
        sign = -1
        term = term[1:].strip()
    m = _TERM_RE.fullmatch(term)
    if not m:
        raise RecdetError(f"cannot parse polynomial term {term!r}")
    num, den, star, xpart, exp = m.groups()
    if (
        (num is None and xpart is None)
        or ((exp or star) and not xpart)
        or (den is not None and num is None)
    ):
        raise RecdetError(f"cannot parse polynomial term {term!r}")
    d = (_parse_degree(exp) if exp else 1) if xpart else 0
    try:
        n, q = (int(num), int(den) if den else 1) if num else (1, 1)
    except ValueError as exc:  # more digits than int() takes
        raise RecdetError(f"cannot parse polynomial term {term!r}") from exc
    if not q:
        raise RecdetError(f"cannot parse polynomial term {term!r}")
    return d, sign * n, q


def _parse_degree(digits: str) -> int:
    """The exponent of a term, refused past MAX_PARSE_DEGREE."""
    d = digits.lstrip("0") or "0"
    if len(d) > len(str(MAX_PARSE_DEGREE)) or int(d) > MAX_PARSE_DEGREE:
        raise SizeTooLarge(f"polynomial degree above the limit {MAX_PARSE_DEGREE}")
    return int(d)
