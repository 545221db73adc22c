"""Shared helpers and fixtures for the tests.

The seeded generators live in tests/generators.py, which imports no
pytest, and are re-exported here; no test depends on global RNG state.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from recdet.ring import Polynomial
from tests.generators import (  # noqa: F401  (re-exported)
    random_document,
    random_expr,
    random_fixed_constant,
    random_fixed_variable,
    random_full_history,
)


def coeffs(p: Polynomial) -> tuple[Fraction, ...]:
    """p's coefficients as reduced Fractions, constant term first."""
    return tuple(Fraction(n, p.den) for n in p.nums)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
