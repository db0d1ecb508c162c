"""Tests for minimal-vector enumeration and basis extraction."""

import tracemalloc

import numpy as np
import pytest

from conics800 import exact, golay, leech
from conics800.errors import ConstructionError
from conics800.lattices import count_vectors, short_vectors


def test_census_counts_and_invariants(code):
    vectors, cen = leech.census(code)
    assert cen.total == 196560
    assert cen.shape_counts == (98304, 97152, 1104)
    assert cen.all_norm_32
    assert cen.distinct
    assert cen.negation_closed


def _census_of(monkeypatch, code, vectors):
    monkeypatch.setattr(leech, "all_minimal_vectors", lambda _code: vectors)
    return leech.census(code)[1]


def test_census_catches_a_duplicate_row(monkeypatch, code, vectors):
    """Row 5 overwritten by row 6: a repeated row, and -row6 now has one
    partner where row6 has two."""
    dup = vectors.copy()
    dup[5] = dup[6]
    cen = _census_of(monkeypatch, code, dup)
    assert cen.all_norm_32
    assert cen.distinct is False
    assert cen.negation_closed is False


def test_census_catches_a_missing_negative(monkeypatch, code, vectors):
    """Row 0 replaced by a norm-32 vector with an entry 5, which no census
    vector has, so neither it nor its negation is among the others."""
    fresh = vectors.copy()
    fresh[0] = [5, 1, 1, 1, 1, 1, 1, 1] + [0] * 16
    cen = _census_of(monkeypatch, code, fresh)
    assert cen.all_norm_32
    assert cen.distinct is True
    assert cen.negation_closed is False


def test_shape31_structure(code, vectors):
    block = vectors[: leech.SHAPE31_COUNT].astype(np.int64)
    # exactly one entry of magnitude 3, twenty-three of magnitude 1
    sorted_abs = np.sort(np.abs(block), axis=1)
    assert (sorted_abs[:, :23] == 1).all()
    assert (sorted_abs[:, 23] == 3).all()
    # sign vectors (with the special position flipped) are codewords
    k = np.argmax(np.abs(block) == 3, axis=1)
    signs = block.copy()
    rows = np.arange(len(block))
    signs[rows, k] = -signs[rows, k] // 3
    masks = ((signs == 1).astype(np.uint32) << np.arange(24, dtype=np.uint32)).sum(axis=1)
    sample = np.random.default_rng(9).choice(len(block), 500, replace=False)
    for i in sample:
        assert int(masks[i]) in code


def test_shape20_structure(code, vectors):
    start = leech.SHAPE31_COUNT
    block = vectors[start : start + leech.SHAPE20_COUNT].astype(np.int64)
    support = (block != 0)
    assert (support.sum(axis=1) == 8).all()
    assert (np.abs(block[support]) == 2).all()
    # support octads are codewords; +2 counts are even
    masks = (support.astype(np.uint32) << np.arange(24, dtype=np.uint32)).sum(axis=1)
    plus = (block == 2).sum(axis=1)
    assert (plus % 2 == 0).all()
    sample = np.random.default_rng(10).choice(len(block), 500, replace=False)
    for i in sample:
        assert int(masks[i]) in code


def test_shape40_structure(vectors):
    block = vectors[leech.SHAPE31_COUNT + leech.SHAPE20_COUNT :].astype(np.int64)
    assert len(block) == 1104
    support = block != 0
    assert (support.sum(axis=1) == 2).all()
    assert (np.abs(block[support]) == 4).all()


def test_inner_products(vectors):
    a = vectors[0].astype(np.int64)
    assert int(a @ a) == 32  # raw norm; the true norm is 32 / 8 = 4


def test_extract_basis_is_unimodular_subset(vectors, basis):
    assert len(basis) == 24
    vec_set = {tuple(int(x) for x in row) for row in vectors.tolist()}
    for row in basis:
        assert tuple(row) in vec_set
    gram = [[x // 8 for x in row] for row in exact.mat_mul(basis, exact.transpose(basis))]
    assert exact.det_bareiss(gram) == 1
    assert all(gram[i][i] % 2 == 0 for i in range(24))


def test_extract_basis_rows_pinned():
    """The census indices of the basis rows, per frame. The heavy tree's
    cost depends on the basis, and no report digest covers it."""
    for choice in (None, 0, 1, 2, 3):
        code, _ = golay.normalize_frame(golay.build_golay(), choice)
        vectors = leech.all_minimal_vectors(code)
        twelfth = 13 if choice in (1, 2, 3) else 12
        expected = [*range(8), 9, 10, 11, twelfth, 24, 26] + [48 << k for k in range(10)]
        assert leech.extract_basis(vectors) == vectors[expected].tolist()


def test_extract_basis_rejects_rows_that_do_not_span(vectors):
    """The first 24 census rows span a sublattice of index 20480 and
    nothing follows them to exchange in."""
    with pytest.raises(ConstructionError, match="did not span"):
        leech.extract_basis(vectors[:24])


def test_extract_basis_overflow_guard():
    """Random rows with entries up to 100 have adjugate entries far beyond
    int64; the scan must refuse them rather than wrap."""
    rows = np.random.default_rng(3).integers(-100, 101, size=(30, 24)).astype(np.int8)
    with pytest.raises(ConstructionError, match="overflow"):
        leech.extract_basis(rows)


def test_all_vectors_lie_in_basis_span(vectors, basis):
    """Every census vector v has integer coordinates c = (v B'/8) G^-1 over
    the basis B, and c B = v. G = B B'/8 has determinant 1, so G^-1 is its
    adjugate; it is exact and enters int64 after a size check."""
    gram = [[x // 8 for x in row] for row in exact.mat_mul(basis, exact.transpose(basis))]
    det, gram_inv = exact.adjugate(gram)
    assert det == 1
    inv = np.array(gram_inv, dtype=np.int64)
    b = np.array(basis, dtype=np.int64)
    raw = vectors.astype(np.int64) @ b.T
    assert not (raw % 8).any()
    dots = raw // 8
    assert int(np.abs(dots).max()) * int(np.abs(inv).sum(axis=0).max()) < 2**62
    coords = dots @ inv
    assert np.array_equal(coords @ b, vectors.astype(np.int64))


def test_raw_determinant_scale(basis):
    raw_det = exact.det_bareiss(basis)
    assert abs(raw_det) == leech.RAW_BASIS_DET
    assert leech.RAW_BASIS_DET == 8 ** 12


def test_enumeration_is_deterministic(code):
    v1 = leech.all_minimal_vectors(code)
    v2 = leech.all_minimal_vectors(code)
    assert np.array_equal(v1, v2)


def _leech_gram(basis):
    return [[x // 8 for x in row] for row in exact.mat_mul(basis, exact.transpose(basis))]


@pytest.mark.heavy
def test_norm4_enumeration_is_the_census(code, basis):
    """The 196560 basis coordinates found by Fincke-Pohst map onto exactly
    the census vectors, as a set of rows. Both are sorted by one lexsort,
    which on these rows is about 5x faster than np.unique(axis=0)."""
    found4 = short_vectors(_leech_gram(basis), 4)
    vectors, _ = leech.census(code)
    ambient = np.array(found4, dtype=np.int64) @ np.array(basis, dtype=np.int64)
    expected = vectors.astype(np.int64)
    assert len(ambient) == len(expected) == 196560
    ambient = ambient[np.lexsort(ambient.T[::-1])]
    expected = expected[np.lexsort(expected.T[::-1])]
    assert (ambient[1:] != ambient[:-1]).any(axis=1).all()
    assert np.array_equal(ambient, expected)


@pytest.mark.heavy
def test_norm4_enumeration_memory_follows_its_output(basis):
    """While the norm-4 walk runs, no full-size copy of its rows exists: the
    traced peak stays within 1.25x of what the returned list holds (one
    int64 array of all 196560 rows would add about 0.36x)."""
    gram = _leech_gram(basis)
    tracemalloc.start()
    try:
        rows = short_vectors(gram, 4)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 196560
    assert peak <= 1.25 * held
    half = len(rows) // 2
    assert all(rows[k + half] == [-x for x in rows[k]] for k in range(half))


@pytest.mark.heavy
def test_norm4_count_lists_no_rows(basis):
    """count_vectors walks the norm-4 tree without building its rows: its
    traced peak is at most half of what short_vectors' list holds."""
    gram = _leech_gram(basis)
    tracemalloc.start()
    try:
        rows = short_vectors(gram, 4)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        count = count_vectors(gram, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == len(rows) == 196560
    assert peak <= held / 2
