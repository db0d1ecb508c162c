"""The pass-path report is byte-identical to the recorded reference."""

import hashlib
import json
from pathlib import Path

import pytest

from conics800 import report

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _digest(frame: str, heavy: bool) -> str:
    rep, ok = report.run_pipeline(report.Pipeline(frame), "ns", heavy=heavy)
    assert ok, frame
    text = report.serialize(report.strip_volatile(rep))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reference(key: str) -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["certify"][key]


def test_stripped_report_matches_reference():
    """Every frame recorded for the light run ("lex" and choices 0..3)."""
    expected = _reference("light")
    assert {frame: _digest(frame, heavy=False) for frame in expected} == expected


@pytest.mark.heavy
def test_full_report_matches_reference():
    """Every frame recorded for the full run, with the heavy norm-4 and
    norm-2 enumerations."""
    expected = _reference("full")
    assert {frame: _digest(frame, heavy=True) for frame in expected} == expected
