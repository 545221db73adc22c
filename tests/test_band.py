"""Declared bands: the banded leading-minor path against the dense one."""

import dataclasses
import random
from fractions import Fraction

import pytest

from recdet import dsl
from recdet.errors import NotHessenberg, RecdetError
from recdet.families import PARAM_FAMILIES, FamilyId, family_spec
from recdet.hessenberg import SquareMatrix, hessenberg_leading_minors
from recdet.recurrence import (
    FixedOrderSpec,
    FullHistorySpec,
    embed_fixed_order,
    theorem1_matrix,
)
from recdet.specfiles import available, spec_text
from tests.conftest import random_document

DENSE_FAMILIES = {FamilyId.NATURALS, FamilyId.HORNER, FamilyId.PARTIAL_SUMS}


def full_history(spec: FullHistorySpec | FixedOrderSpec) -> FullHistorySpec:
    return spec if isinstance(spec, FullHistorySpec) else embed_fixed_order(spec)


def assert_band_is_sound(spec: FullHistorySpec, n: int) -> None:
    """Every out-of-band coefficient is zero, the banded build has the
    entries of the dense one, and the banded minors equal the minors of
    the same entries with no band declared."""
    b = spec.band
    assert b is not None
    for k in range(1, n + 1):
        for i in range(1, k - b):
            assert spec.coeff(k, i) == 0, f"p({k}, {i}) lies above band {b}"
    banded = theorem1_matrix(spec, n)
    assert banded.band == b
    unbanded = dataclasses.replace(spec, band=None)
    assert banded.entries == theorem1_matrix(unbanded, n).entries
    dense = dataclasses.replace(banded, band=None)
    assert hessenberg_leading_minors(banded) == hessenberg_leading_minors(dense)


def family_params(fid: FamilyId, n: int):
    if fid in PARAM_FAMILIES:
        return tuple(Fraction(j, 2) for j in range(1, n + 1))
    return None


@pytest.mark.parametrize("fid", list(FamilyId), ids=lambda f: f.value)
def test_family_band_is_declared_and_sound(fid):
    n = 30
    spec = full_history(family_spec(fid, family_params(fid, n)))
    if fid in DENSE_FAMILIES:
        assert spec.band is None
    else:
        assert spec.band == (2 if fid is FamilyId.ODE_EXAMPLE else 1)
        assert_band_is_sound(spec, n)


def shipped_fixed_order_specs():
    for name in available():
        doc = dsl.parse(spec_text(name))
        if doc.mode == "fixed-order":
            yield name, dsl.to_spec(doc, name=name)


def test_shipped_fixed_order_specs_embed_with_band_order_minus_one():
    seen = 0
    for name, spec in shipped_fixed_order_specs():
        fh = embed_fixed_order(spec)
        assert fh.band == spec.order - 1, name
        assert_band_is_sound(fh, 40)
        seen += 1
    assert seen >= 10


@pytest.mark.parametrize("ring", ["rational", "poly"])
def test_random_fixed_order_documents_band_matches_dense(ring):
    rng = random.Random(4040 if ring == "rational" else 4041)
    checked = 0
    while checked < 25:
        doc = random_document(rng)
        if doc.mode != "fixed-order" or doc.ring != ring:
            continue
        spec = embed_fixed_order(dsl.to_spec(doc))
        assert spec.band == doc.order - 1
        assert_band_is_sound(spec, rng.randint(1, 40))
        checked += 1


class TestDeclaredBand:
    def test_nonzero_entry_above_the_band_is_rejected(self):
        rows = [[1, 0, 5], [-1, 1, 0], [0, -1, 1]]
        with pytest.raises(NotHessenberg, match="row 1, column 3"):
            SquareMatrix(rows, band=1)
        m = SquareMatrix(rows, band=2)
        assert m.band == 2

    def test_negative_band_is_rejected(self):
        with pytest.raises(RecdetError):
            SquareMatrix([[1]], band=-1)

    def test_leading_submatrix_keeps_the_band(self):
        m = SquareMatrix([[1, 2, 0], [-1, 3, 4], [0, -1, 5]], band=1)
        assert m.leading_submatrix(2).band == 1

    def test_with_entry_drops_the_band(self):
        m = SquareMatrix([[1, 2, 0], [-1, 3, 4], [0, -1, 5]], band=1)
        corrupted = m.with_entry(0, 2, Fraction(1))
        assert corrupted.band is None
        assert hessenberg_leading_minors(corrupted)[-1] == hessenberg_leading_minors(
            dataclasses.replace(m, band=None)
        )[-1] + 1


def _reference_theorem1_matrix(spec: FullHistorySpec, k: int) -> SquareMatrix:
    """theorem1_matrix as the earlier cell-by-cell double loop."""
    band = k if spec.band is None else spec.band
    rows = []
    for r in range(k):
        row = []
        for c in range(k):
            if r <= c <= r + band:
                row.append(spec.coeff(c + 1, r + 1))
            elif r == c + 1:
                row.append(Fraction(-1))
            else:
                row.append(Fraction(0))
        rows.append(row)
    return SquareMatrix(rows, band=spec.band)


def _recording(spec: FullHistorySpec) -> tuple[FullHistorySpec, list]:
    calls: list = []

    def coeff(k, i):
        calls.append((k, i))
        return spec.coeff(k, i)

    return dataclasses.replace(spec, coeff=coeff), calls


def _build_cases():
    for name in available():
        spec = full_history(dsl.to_spec(dsl.parse(spec_text(name)), name=name))
        yield pytest.param(spec, id=name)
    for fid in FamilyId:
        spec = full_history(family_spec(fid, family_params(fid, 30)))
        yield pytest.param(spec, id=f"family-{fid.value}")
    rng = random.Random(5150)
    for j in range(16):
        yield pytest.param(full_history(dsl.to_spec(random_document(rng))), id=f"random-{j}")


@pytest.mark.parametrize("spec", list(_build_cases()))
def test_the_build_matches_the_reference_loop_cell_and_call_for_call(spec):
    # banded and dense specs, both rings: the same cells, and p called
    # for the same (k, i) in the same order
    for n in (1, 2, 7, 30):
        built, built_calls = _recording(spec)
        ref, ref_calls = _recording(spec)
        got = theorem1_matrix(built, n)
        want = _reference_theorem1_matrix(ref, n)
        assert got.entries == want.entries, n
        assert [list(map(type, row)) for row in got.entries] == [
            list(map(type, row)) for row in want.entries
        ]
        assert got.band == want.band
        assert built_calls == ref_calls, n
