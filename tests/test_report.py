"""The pass-path report is byte-identical to the recorded reference, the
ns stage refuses an int64 product that could wrap, and the conics and ns
stages hold no full-size temporary array."""

import dataclasses
import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from conics800 import ns, report
from conics800.errors import ConstructionError

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


def test_stage_ns_refuses_class_products_that_could_wrap(
    monkeypatch, lam, conics, true_products, n_lattice
):
    """Classes scaled by 2^29 still fit int64, but their products with
    the Gram would not: the stage raises at the class products, after
    the rows before them, instead of judging wrapped entries."""
    wide = dataclasses.replace(n_lattice, classes=n_lattice.classes * 2**29)
    monkeypatch.setattr(ns, "build_N", lambda s, conics: wide)
    state = report.Pipeline(lam=lam, conics=conics, true_products=true_products)
    section = {"checks": []}
    with pytest.raises(ConstructionError, match="int64 product"):
        report.stage_ns(state, section)
    rows = section["checks"]
    assert rows[-1]["name"] == "classes_in_N"
    assert all(row["pass"] for row in rows)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stage_conics_peak_memory_within_twice_one_census_array():
    """The census rows are released once the conics are found, and each
    other frame's rows are freed before the next frame builds its own:
    the stage's traced peak, its int32 products included, stays within
    2x one census array."""
    state = report.Pipeline("lex")
    report.stage_golay(state, {"checks": []})
    report.stage_leech(state, {"checks": []})
    census_bytes = state.vectors.nbytes
    section = {"checks": []}
    peak = _traced_peak(lambda: report.stage_conics(state, section))
    assert peak <= 2 * census_bytes
    assert all(row["pass"] for row in section["checks"])
    assert state.vectors is None


def test_stage_ns_peak_memory_under_4_mb(lam, conics, true_products):
    """The class rows read the class products in row blocks, so no
    800 x 800 int64 matrix is formed."""
    state = report.Pipeline(lam=lam, conics=conics, true_products=true_products)
    section = {"checks": []}
    peak = _traced_peak(lambda: report.stage_ns(state, section))
    assert peak < 4 * 2**20
    assert all(row["pass"] for row in section["checks"])
