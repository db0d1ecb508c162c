"""Tests for minimal-vector enumeration and basis extraction."""

import numpy as np
import pytest

from conics800 import exact, golay, leech
from conics800.lattices import short_vectors


def test_census_counts_and_invariants(code):
    vectors, cen = leech.census(code)
    assert cen.total == 196560
    assert cen.shape_counts == (98304, 97152, 1104)
    assert cen.all_norm_32
    assert cen.distinct
    assert cen.negation_closed


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


def test_all_vectors_lie_in_basis_span(vectors, basis):
    """Every census vector v has integer coordinates c = (v B'/8) G^-1 over
    the basis B, and c B = v. G = B B'/8 is unimodular, so G^-1 is integral;
    it comes from exact solves and enters int64 after a size check."""
    gram = [[x // 8 for x in row] for row in exact.mat_mul(basis, exact.transpose(basis))]
    solver = exact.LeftSolver(gram)
    gram_inv = [solver.solve(row) for row in exact.identity(24)]
    assert None not in gram_inv
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


@pytest.mark.heavy
def test_norm4_enumeration_is_the_census(code, basis):
    """The 196560 basis coordinates found by Fincke-Pohst map onto exactly
    the census vectors, as a set of rows."""
    gram = [[x // 8 for x in row] for row in exact.mat_mul(basis, exact.transpose(basis))]
    found4 = short_vectors(gram, 4)
    vectors, _ = leech.census(code)
    ambient = np.array(found4, dtype=np.int64) @ np.array(basis, dtype=np.int64)
    expected = vectors.astype(np.int64)
    assert len(ambient) == len(expected) == 196560
    assert len(np.unique(ambient, axis=0)) == len(ambient)
    assert np.array_equal(np.unique(ambient, axis=0), np.unique(expected, axis=0))
