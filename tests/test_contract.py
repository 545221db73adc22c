"""The CLI contract battery (see contract.py) against its golden file."""

import json

import contract


def test_every_invocation_matches_its_golden_record():
    golden = json.loads(contract.GOLDEN.read_text(encoding="utf-8"))
    report = contract.first_mismatch(golden)
    assert report is None, report
