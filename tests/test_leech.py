"""Tests for minimal-vector enumeration and basis extraction."""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from conics800 import exact, golay, lattices, leech
from conics800.errors import ConstructionError
from conics800.lattices import norm_counts, short_vectors


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


def _rows(*heads):
    """int8 rows of 24 entries, each head padded with zeros."""
    return np.array([list(head) + [0] * (24 - len(head)) for head in heads], dtype=np.int8)


def test_census_row_with_minus_128_is_not_negation_closed(monkeypatch, code):
    """-128 has no int8 negation: the integer negation of (-128, 1, 0, ...)
    holds 128, which no row can hold, so these two rows are not closed."""
    cen = _census_of(monkeypatch, code, _rows((-128, 1), (-128, -1)))
    assert cen.distinct is True
    assert cen.negation_closed is False


def test_census_negation_reading_ignores_a_closed_pair(monkeypatch, code):
    """Adding the pair +-5e_1, closed under negation, leaves the reading of
    the -128 rows as it was."""
    pair = _rows((-128, 1), (-128, -1))
    before = _census_of(monkeypatch, code, pair).negation_closed
    more = np.concatenate([pair, _rows((5,), (-5,))])
    after = _census_of(monkeypatch, code, more).negation_closed
    assert before is after is False


def test_census_largest_entry_reads_minus_128_as_128(monkeypatch, code, vectors):
    """(-128, 3, 0, ...) has largest |entry| 128, so it is of no shape: with
    it in place of the first shape31 row, that shape counts one less."""
    planted = vectors.copy()
    planted[0] = _rows((-128, 3))[0]
    assert _census_of(monkeypatch, code, planted).shape_counts == (98303, 97152, 1104)
    assert _census_of(monkeypatch, code, _rows((-128, 3))).shape_counts == (0, 0, 0)


def _planted_rows(vectors, plant):
    rows = vectors.copy()
    if plant == "duplicate":
        rows[5] = rows[6]
    elif plant == "missing-negative":
        rows[0] = [5, 1, 1, 1, 1, 1, 1, 1] + [0] * 16
    elif plant == "swapped":
        rows[[3, 4]] = rows[[4, 3]]
    elif plant == "minus-128":
        rows[:2] = _rows((-128, 1), (-128, -1))
    return rows


@pytest.mark.parametrize(
    "plant, distinct, closed",
    [
        ("none", True, True),
        ("duplicate", False, False),
        ("missing-negative", True, False),
        ("swapped", True, True),
        ("minus-128", True, False),
    ],
)
def test_census_is_exact_when_every_key_ties(monkeypatch, code, vectors, plant, distinct, closed):
    """The row key only sets the speed: with a constant key every row
    ties, the whole census is ordered by its bytes, and every reading is
    the one the real key gives."""
    rows = _planted_rows(vectors, plant)
    real = _census_of(monkeypatch, code, rows)
    monkeypatch.setattr(leech, "_row_key", lambda words: np.zeros(len(words), dtype=np.uint64))
    tied = _census_of(monkeypatch, code, rows)
    assert tied == real
    assert (real.distinct, real.negation_closed) == (distinct, closed)


def test_census_peak_memory_within_four_times_its_rows(code):
    """No full-size sorted or negated copy of the rows is made: the census's
    traced peak, its rows included, stays within 4x the rows."""
    tracemalloc.start()
    try:
        vectors, _ = leech.census(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * vectors.nbytes


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


@pytest.fixture(scope="module")
def norm4_walk(basis):
    """The norm-4 list walk on the Leech Gram, made once for the heavy
    tests below under tracemalloc: (gram, rows, held, peak), where held
    is the traced memory the returned list holds and peak the walk's
    traced peak."""
    gram = _leech_gram(basis)
    tracemalloc.start()
    try:
        rows = short_vectors(gram, 4)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return gram, rows, held, peak


@pytest.mark.heavy
def test_norm4_enumeration_is_the_census(code, basis, norm4_walk):
    """The 196560 basis coordinates found by Fincke-Pohst map onto exactly
    the census vectors, as a set of rows. Both are sorted by one lexsort,
    which on these rows is about 5x faster than np.unique(axis=0)."""
    _, found4, _, _ = norm4_walk
    vectors, _ = leech.census(code)
    ambient = np.array(found4, dtype=np.int64) @ np.array(basis, dtype=np.int64)
    expected = vectors.astype(np.int64)
    assert len(ambient) == len(expected) == 196560
    ambient = ambient[np.lexsort(ambient.T[::-1])]
    expected = expected[np.lexsort(expected.T[::-1])]
    assert (ambient[1:] != ambient[:-1]).any(axis=1).all()
    assert np.array_equal(ambient, expected)


@pytest.mark.heavy
def test_norm4_enumeration_memory_follows_its_output(norm4_walk):
    """While the norm-4 walk runs, no full-size copy of its rows exists: the
    traced peak stays within 1.25x of what the returned list holds (one
    int64 array of all 196560 rows would add about 0.36x)."""
    _, rows, held, peak = norm4_walk
    assert len(rows) == 196560
    assert peak <= 1.25 * held
    half = len(rows) // 2
    assert all(rows[k + half] == [-x for x in rows[k]] for k in range(half))


@pytest.mark.heavy
def test_norm4_walk_output_pinned(norm4_walk):
    """The 196560 norm-4 rows in walk order, pinned byte for byte."""
    _, rows, _, _ = norm4_walk
    digest = hashlib.sha256(np.array(rows, dtype=np.int64).tobytes()).hexdigest()
    assert digest == "ed71d11765f1a1ad28b274bf37fe087f385be1b20a7a8d068f62eb68eb74c8e9"


@pytest.mark.heavy
def test_norm4_count_lists_no_rows(norm4_walk):
    """norm_counts walks the norm-4 tree without building its rows: its
    traced peak is at most half of what short_vectors' list holds."""
    gram, rows, held, _ = norm4_walk
    tracemalloc.start()
    try:
        count = norm_counts(gram, 4)[4]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == len(rows) == 196560
    assert peak <= held / 2


def test_norm_counts_leech_norm_6(basis):
    """The q^3 coefficient of the Leech theta series (Conway & Sloane,
    SPLAG, ch. 4): the merged count reaches it without the 16773120 rows."""
    gram = _leech_gram(basis)
    assert [norm_counts(gram, t)[t] for t in (2, 4, 6)] == [0, 196560, 16773120]


def _leech_theta(top):
    """The number of Leech vectors of norm 2m for m = 0..top, from
    Theta = E_12 - (65520/691) Delta (Serre, A Course in Arithmetic,
    ch. VII): (65520/691)(sigma_11(m) - tau(m)) for m >= 1, with tau(m)
    the coefficients of Delta = q prod (1 - q^n)^24, all in Python ints."""
    delta = [0, 1] + [0] * (top - 1)
    for n in range(1, top + 1):
        for _ in range(24):
            for k in range(top, n - 1, -1):
                delta[k] -= delta[k - n]
    out = [1]
    for m in range(1, top + 1):
        sigma = sum(d**11 for d in range(1, m + 1) if m % d == 0)
        count, rest = divmod(65520 * (sigma - delta[m]), 691)
        assert rest == 0
        out.append(count)
    return out


def test_norm_counts_leech_theta_series(basis):
    """One walk at norm 8 gives every coefficient of the theta series up
    to q^4: 0, 196560, 16773120 and 398034000 at norms 2, 4, 6 and 8."""
    theta = _leech_theta(4)
    assert theta[1:] == [0, 196560, 16773120, 398034000]
    counts = lattices.norm_counts(_leech_gram(basis), 8)
    assert counts == [0 if t % 2 else theta[t // 2] for t in range(9)]


def test_norm_counts_under_a_dense_unimodular_skew(basis):
    """U G U' for a fixed dense unimodular U (120 seeded row operations
    row_i += +-row_j on I) counts the same vectors at norms 2, 4 and 6 as
    G: LLL has to undo the skew before the walk."""
    gram = _leech_gram(basis)
    rng = random.Random(32)
    u = exact.identity(24)
    for _ in range(120):
        i, j = rng.sample(range(24), 2)
        sign = rng.choice((-1, 1))
        u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
    skewed = exact.mat_mul(exact.mat_mul(u, gram), exact.transpose(u))
    assert sum(x == 0 for row in skewed for x in row) < 24
    assert lattices.norm_counts(skewed, 6) == [1, 0, 0, 0, 196560, 0, 16773120]


def test_count_reduction_bound_on_the_leech_gram(basis):
    """The bound on norm_counts' int64 reduction is about 2^17.6 here."""
    _, (_, _, d, lam, t_max) = lattices._prologue(_leech_gram(basis), 4)
    assert 2**17 < lattices._reduction_bound(d, lam, t_max) < 2**18
