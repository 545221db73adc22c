"""Shared deterministic generators for randomized tests.

Everything draws from a caller-seeded random.Random so failures
reproduce; no test depends on global RNG state.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from recdet.dsl import (
    BinOp,
    CoeffDef,
    Expr,
    IntLit,
    Neg,
    SpecDocument,
    Var,
)
from recdet.recurrence import FixedOrderSpec, FullHistorySpec
from recdet.ring import Polynomial, RingValue


def coeffs(p: Polynomial) -> tuple[Fraction, ...]:
    """p's coefficients as reduced Fractions, constant term first."""
    return tuple(Fraction(n, p.den) for n in p.nums)


def rational_in(rng: random.Random, lo: int = -3, hi: int = 3) -> Fraction:
    # value stays inside [lo, hi]: numerator scaled by the denominator
    den = rng.randint(1, 4)
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_full_history(rng: random.Random, max_k: int) -> FullHistorySpec:
    """Full-history spec with a frozen coefficient table for k <= max_k."""
    table = {
        (k, i): rational_in(rng)
        for k in range(1, max_k + 1)
        for i in range(1, k + 1)
    }
    initial = rational_in(rng)
    while initial == 0:
        initial = rational_in(rng)

    def coeff(k: int, i: int) -> RingValue:
        return table[(k, i)]

    return FullHistorySpec(initial=initial, coeff=coeff, name="random-full")


def random_fixed_constant(rng: random.Random) -> FixedOrderSpec:
    m = rng.randint(1, 4)
    initials = tuple(rational_in(rng) for _ in range(m))
    constants = [rational_in(rng) for _ in range(m)]
    coeffs = tuple((lambda k, c=c: c) for c in constants)
    return FixedOrderSpec(order=m, initials=initials, coeffs=coeffs, name="random-const")


def random_fixed_variable(rng: random.Random) -> FixedOrderSpec:
    """Fixed-order spec with k-dependent rational-function coefficients.

    Denominators are k - c with c <= m, so they never vanish at or past
    first_valid_k = m + 1.
    """
    m = rng.randint(1, 4)
    initials = tuple(rational_in(rng) for _ in range(m))
    shapes = []
    for _ in range(m):
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        c = rng.randint(0, m)
        shapes.append((a, b, c))
    coeffs = tuple(
        (lambda k, a=a, b=b, c=c: Fraction(a * k + b, k - c)) for a, b, c in shapes
    )
    return FixedOrderSpec(order=m, initials=initials, coeffs=coeffs, name="random-var")


# --- random DSL documents --------------------------------------------------

def random_expr(rng: random.Random, vars_allowed: tuple[str, ...], depth: int = 0) -> Expr:
    """Expression tree in canonical form (IntLit is never negative)."""
    if depth >= 3 or rng.random() < 0.35:
        choices: list[Expr] = [IntLit(rng.randint(0, 9))]
        choices.extend(Var(v) for v in vars_allowed)
        return rng.choice(choices)
    kind = rng.randrange(5)
    if kind == 0:
        return Neg(random_expr(rng, vars_allowed, depth + 1))
    left = random_expr(rng, vars_allowed, depth + 1)
    if kind == 1:
        return BinOp("+", left, random_expr(rng, vars_allowed, depth + 1))
    if kind == 2:
        return BinOp("-", left, random_expr(rng, vars_allowed, depth + 1))
    if kind == 3:
        return BinOp("*", left, random_expr(rng, vars_allowed, depth + 1))
    # x-free, never-zero denominator: a positive integer
    return BinOp("/", left, IntLit(rng.randint(1, 9)))


def random_document(rng: random.Random) -> SpecDocument:
    mode = rng.choice(("fixed-order", "full-history"))
    ring = rng.choice(("rational", "poly"))
    value_vars = ("x",) if ring == "poly" else ()
    if mode == "full-history":
        return SpecDocument(
            mode=mode,
            ring=ring,
            order=None,
            initials=(random_expr(rng, value_vars),),
            coeffs=(
                CoeffDef("p", ("k", "i"), random_expr(rng, value_vars + ("k", "i"))),
            ),
            first_valid_k=None,
        )
    m = rng.randint(1, 4)
    coeffs = tuple(
        CoeffDef(f"p{j}", ("k",), random_expr(rng, value_vars + ("k",)))
        for j in range(1, m + 1)
    )
    return SpecDocument(
        mode=mode,
        ring=ring,
        order=m,
        initials=tuple(random_expr(rng, value_vars) for _ in range(m)),
        coeffs=coeffs,
        first_valid_k=m + 1 if rng.random() < 0.3 else None,
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
