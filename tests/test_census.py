"""Tests for the conic census, classification, recount, and cliques."""

import json
import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from conics800 import census, exact, golay
from conics800.errors import VerificationError

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_seed_rows_reproduce_gram():
    census.validate_seed()
    rows = [list(r) for r in census.SEED_ROWS]
    raw = exact.mat_mul(rows, exact.transpose(rows))
    assert [[x // 8 for x in row] for row in raw] == [list(r) for r in census.SEED_GRAM]


def test_conic_count_and_sorting(conics):
    assert conics.shape == (800, 24)
    as_tuples = [tuple(int(x) for x in row) for row in conics]
    assert as_tuples == sorted(as_tuples)
    assert len(set(as_tuples)) == 800


def test_conics_satisfy_defining_products(conics):
    seed = np.array(census.SEED_ROWS, dtype=np.int64)
    dots = conics.astype(np.int64) @ seed.T
    assert (dots == np.array(census.CONIC_RAW_DOTS)).all()
    norms = (conics.astype(np.int64) ** 2).sum(axis=1)
    assert (norms == 32).all()


def test_classification_split(records):
    split = {}
    for r in records:
        split[r.pattern] = split.get(r.pattern, 0) + 1
    assert split == census.PATTERN_COUNTS


def test_classification_consistency(records, code):
    for r in records[::37]:
        if r.pattern in ("P1", "P2"):
            assert r.special_position is not None
            assert abs(r.l[r.special_position - 1]) == 3
            assert r.codeword in code
            p, q = r.movable_pair
            assert r.l[p - 1] == 1 and r.l[q - 1] == 1
        elif r.pattern == "P3":
            assert r.movable_pair is None
            assert golay.weight(r.codeword) == 8
        else:
            p, q = r.movable_pair
            assert r.l[p - 1] == 2 and r.l[q - 1] == -2
            assert golay.weight(r.codeword) == 8


def test_classify_rejects_unknown_profile(code):
    bogus = [1] * 24
    with pytest.raises(VerificationError):
        census.classify(bogus, code)
    bogus2 = [3, 1, 1, -1, 1] + [1] * 19  # sign vector is not a codeword
    with pytest.raises(VerificationError):
        census.classify(bogus2, code)


def test_recount_matches_census(code, records):
    rep = census.recount_by_codewords(code, records)
    assert rep["total"] == 800
    per = {p: d["recount"] for p, d in rep["patterns"].items()}
    assert per == census.PATTERN_COUNTS
    under = {p: d["underline"] for p, d in rep["patterns"].items()}
    assert under == {"P1": 16, "P2": 16, "P3": 10, "P4": 3}
    for pattern, d in rep["patterns"].items():
        assert d["census"] == d["recount"]
        per_codeword = d["signs_per_codeword"] * (2 if pattern == "P4" else 1)
        for entry in d["windows"]:
            assert entry["codewords"] == d["underline"]
            assert entry["census"] == entry["codewords"] * per_codeword


def test_intersection_histogram(products_hist):
    true, hist = products_hist
    assert hist == {-2: 400, 0: 72240, 1: 174720, 2: 72240}
    assert sum(hist.values()) == 800 * 799 // 2
    assert (np.diagonal(true) == 4).all()


def test_disjoint_16_clique(products_hist):
    true, _ = products_hist
    masks = census.disjointness_masks(true)
    clique = census.find_disjoint_16(masks)
    assert len(clique) == 16
    assert clique == sorted(clique)
    sub = true[np.ix_(clique, clique)]
    off = sub[~np.eye(16, dtype=bool)]
    assert (off == 2).all()
    assert not census.clique_extension_exists(masks, clique)


def test_clique_search_finds_nothing_when_impossible():
    # triangle-free adjacency: 3 vertices, no edges
    assert census.find_disjoint_16([0, 0, 0], size=2) == []


def test_count_cliques_small():
    # complete graph on 4 vertices: C(4,2) = 6 edges, all triangles
    masks = [0b1110, 0b1101, 0b1011, 0b0111]
    count, exhausted = census.count_disjoint_16(masks, size=3, budget_seconds=10)
    assert exhausted
    assert count == 4


def _random_masks(rng: random.Random, n: int, density: float) -> list[int]:
    masks = [0] * n
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks


def _brute_force_cliques(masks: list[int], size: int) -> int:
    closed = [m | 1 << v for v, m in enumerate(masks)]
    count = 0
    for combo in combinations(range(len(masks)), size):
        cm = sum(1 << v for v in combo)
        count += all(closed[v] & cm == cm for v in combo)
    return count


def test_count_cliques_matches_brute_force():
    """Independent recount by itertools.combinations on random graphs."""
    rng = random.Random(20031)
    for trial in range(30):
        n = rng.randint(0, 22)
        masks = _random_masks(rng, n, (0.1, 0.3, 0.5, 0.7, 0.9)[trial % 5])
        for size in range(7):
            got = census.count_disjoint_16(masks, size=size)
            assert got == (_brute_force_cliques(masks, size), True), (trial, n, size)


def test_count_cliques_edge_sizes():
    masks = _random_masks(random.Random(5), 9, 0.5)
    edges = sum(m.bit_count() for m in masks) // 2
    assert census.count_disjoint_16(masks, size=0) == (1, True)
    assert census.count_disjoint_16(masks, size=1) == (9, True)
    assert census.count_disjoint_16(masks, size=2) == (edges, True)
    assert census.count_disjoint_16(masks, size=10) == (0, True)
    assert census.count_disjoint_16([], size=1) == (0, True)


def test_disjointness_masks_match_products(true_products):
    """Bit j of mask i is set exactly when l_i.l_j = 2 and i != j."""
    masks = census.disjointness_masks(true_products)
    n = len(true_products)
    assert len(masks) == n
    for i, m in enumerate(masks):
        assert m >> n == 0
        bits = [m >> j & 1 for j in range(n)]
        assert bits == [int(true_products[i][j] == 2 and i != j) for j in range(n)]


def test_triangle_count_is_trace_of_adjacency_cube(true_products):
    """Triangles of the real disjointness graph, recounted as trace(A^3)/6."""
    adj = (true_products == 2).astype(np.int64)
    np.fill_diagonal(adj, 0)
    # trace(A^3) = sum_ij (A^2)_ij A_ji, and A is symmetric: one product.
    triangles = int((adj @ adj * adj).sum()) // 6
    assert triangles == 1704320
    masks = census.disjointness_masks(true_products)
    assert census.count_disjoint_16(masks, size=3) == (triangles, True)


@pytest.mark.parametrize("relabel", [False, True])
def test_16_clique_count_under_relabeling(true_products, relabel):
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["clique"]["count"]
    order = list(range(len(true_products)))
    if relabel:
        random.Random(1973).shuffle(order)
    masks = census.disjointness_masks(true_products[np.ix_(order, order)])
    assert census.count_disjoint_16(masks) == (expected, True)


def test_clique_count_budget_cuts_search(true_products):
    masks = census.disjointness_masks(true_products)
    _, exhausted = census.count_disjoint_16(masks, budget_seconds=-1)
    assert exhausted is False
