"""The pass-path report is byte-identical to the recorded reference."""

import hashlib
import json
from pathlib import Path

from conics800 import report

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_stripped_report_matches_reference():
    rep, ok = report.run_pipeline(report.Pipeline("lex"), "ns", heavy=False)
    assert ok
    text = report.serialize(report.strip_volatile(rep))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["certify"]["light"]["lex"]
    assert digest == expected
