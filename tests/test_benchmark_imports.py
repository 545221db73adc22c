"""The traced benchmark imports recdet's public names; keep them public."""

import ast
import dataclasses
from pathlib import Path

import recdet
from recdet.recurrence import FixedOrderSpec, FullHistorySpec

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_names_the_tracer_imports_from_recdet_are_public():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "recdet"
        for alias in node.names
        if alias.name != "dsl"  # a submodule, imported as such
    ]
    assert names
    assert sorted(set(names) - set(recdet.__all__)) == []
    # the tracer wraps the coefficient callables with dataclasses.replace
    assert "coeff" in {f.name for f in dataclasses.fields(FullHistorySpec)}
    assert "coeffs" in {f.name for f in dataclasses.fields(FixedOrderSpec)}
