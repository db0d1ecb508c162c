"""The pass-path report is byte-identical to the recorded reference, from
other codes too, the ns stage refuses an int64 product that could wrap,
and the conics and ns stages hold no full-size temporary array."""

import dataclasses
import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from conics800 import golay, ns, report
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


def _icosahedron_code() -> golay.GolayCode:
    """The code with generator [I | J - A], for A the adjacency of the
    icosahedron (Conway & Sloane, SPLAG, ch. 3 sec. 2.8): vertex 0 over
    the pentagon 2-6, vertex 1 under the pentagon 7-11, and the two
    pentagons joined as an antiprism, u_i to l_i and l_(i+1). Row i has
    the 1 of I and the 7 vertices not adjacent to i, itself included."""
    edges = set()
    for i in range(5):
        u, u_next, l, l_next = 2 + i, 2 + (i + 1) % 5, 7 + i, 7 + (i + 1) % 5
        edges |= {(0, u), (1, l), (u, u_next), (l, l_next), (u, l), (u, l_next)}
    edges |= {(j, i) for i, j in edges}
    basis = tuple(
        (1 << i) | sum(1 << (12 + j) for j in range(12) if (i, j) not in edges) for i in range(12)
    )
    return golay.GolayCode(words=golay._expand_basis(basis), basis=basis)


def _relabelled_code(seed: int) -> golay.GolayCode:
    """build_golay's code under a seeded permutation of the 24 coordinates."""
    perm = random.Random(seed).sample(range(1, 25), 24)
    return golay._apply_permutation(golay.build_golay(), perm)


# Codes for build_golay to return in place of its own.
_STARTS = {
    "relabelled-1": lambda: _relabelled_code(1),
    "relabelled-2": lambda: _relabelled_code(2),
    "relabelled-3": lambda: _relabelled_code(3),
    "icosahedron": _icosahedron_code,
}


@pytest.mark.heavy
@pytest.mark.parametrize("source", list(_STARTS))
def test_full_report_does_not_depend_on_the_code_it_starts_from(source, monkeypatch, code):
    """A full lex run from another labelling of the 24 points, or from
    another construction of the code, gives the lex run's stripped report
    byte for byte, though its normalized code, and so its conic set,
    differs. The negative control is test_cli.PLANTED's codeword_count
    case: a [24, 11] subcode fails at the golay stage."""
    start = _STARTS[source]()
    assert golay.normalize_frame(start)[0].words != code.words
    monkeypatch.setattr(golay, "build_golay", lambda: start)
    assert _digest("lex", heavy=True) == _reference("full")["lex"]


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
