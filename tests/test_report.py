"""The pass-path report is byte-identical to the recorded reference."""

import hashlib
import json
from pathlib import Path

from conics800 import report

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_stripped_report_matches_reference():
    """Every frame recorded for the light run ("lex" and choices 0..3)."""
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["certify"]["light"]
    got = {}
    for frame in expected:
        rep, ok = report.run_pipeline(report.Pipeline(frame), "ns", heavy=False)
        assert ok, frame
        text = report.serialize(report.strip_volatile(rep))
        got[frame] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert got == expected
