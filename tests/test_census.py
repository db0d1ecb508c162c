"""Tests for the conic census, classification, recount, and cliques."""

import hashlib
import itertools
import json
import random
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from conics800 import census, exact, golay, leech
from conics800.errors import ConstructionError, VerificationError

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_seed_rows_reproduce_gram():
    census.validate_seed()
    rows = [list(r) for r in census.SEED_ROWS]
    raw = exact.mat_mul(rows, exact.transpose(rows))
    assert [[x // 8 for x in row] for row in raw] == [list(r) for r in census.SEED_GRAM]


@pytest.mark.parametrize(
    "name, value, message",
    [("SEED_GRAM", ((4,),), "Gram mismatch"), ("SEED_DET", 161, "determinant")],
    ids=["gram", "det"],
)
def test_validate_seed_names_its_mismatch(name, value, message, monkeypatch):
    monkeypatch.setattr(census, name, value)
    with pytest.raises(VerificationError, match=message):
        census.validate_seed()


def test_conic_count_and_sorting(conics):
    assert conics.shape == (800, 24)
    as_tuples = [tuple(int(x) for x in row) for row in conics]
    assert as_tuples == sorted(as_tuples)
    assert len(set(as_tuples)) == 800


def test_find_conics_matches_one_product_oracle():
    """The row-by-row int16 filter against one int64 product, on all five frames."""
    seed = np.array(census.SEED_ROWS, dtype=np.int64)
    for choice in (None, 0, 1, 2, 3):
        code, _ = golay.normalize_frame(golay.build_golay(), choice)
        vectors = leech.all_minimal_vectors(code)
        oracle = vectors[(vectors.astype(np.int64) @ seed.T == census.CONIC_RAW_DOTS).all(1)]
        oracle = oracle[np.lexsort(oracle.T[::-1])]
        assert len(oracle) == census.CONIC_COUNT
        assert np.array_equal(census.find_conics(vectors), oracle)


def test_find_conics_is_exact_on_wide_rows(vectors):
    """int32 rows take int64 products: an entry moved by 2^16 no longer
    reads as the conic it was, as a wrapping int16 product would read it."""
    rows = census.find_conics(vectors).astype(np.int32)
    rows[0, 0] += 1 << 16
    assert len(census.find_conics(rows)) == census.CONIC_COUNT - 1


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
    assert census.classify_all([bogus], code) == []
    bogus2 = [3, 1, 1, -1, 1] + [1] * 19  # no movable -1 entries
    assert census.classify_all([bogus2], code) == []
    # P2's profile, but the +1 entries have weight 20, so no codeword
    bogus3 = [3, 1, 1, -1, 1, 1, 1, -1, -1] + [1] * 15
    assert census.classify_all([bogus3], code) == []


def _classify_oracle(l, code):
    """The per-row classification the whole-array census.classify_all
    replaced, kept as its oracle."""
    l = tuple(map(int, l))
    pattern = census.PROFILES.get(
        (l[:5], tuple(sorted(l[p - 1] for p in census.MOVABLE_POSITIONS)))
    )
    if pattern is None:
        return None
    cond = census.WINDOW_CONDITIONS[pattern]
    octad = cond["octads_only"]
    codeword = sum(1 << i for i, x in enumerate(l) if (x if octad else x == 1))
    movable = [p for p in census.MOVABLE_POSITIONS if codeword >> (p - 1) & 1]
    pair = tuple(sorted(movable, key=lambda p: -l[p - 1]))
    if codeword not in code or codeword & census.NINE_MASK != golay.mask_of(cond["fixed"] + pair):
        return None
    return census.ConicRecord(
        l, pattern, pair or None, codeword, None if octad else l.index(3) + 1
    )


def _frame_conics(choice):
    code, _ = golay.normalize_frame(golay.build_golay(), choice)
    vectors = leech.all_minimal_vectors(code)
    return code, vectors, census.find_conics(vectors)


def _conics_of(choice):
    code, _, conics = _frame_conics(choice)
    return code, conics


def _mixed_rows(choice):
    """The conics and 300 seeded non-conic minimal vectors, shuffled."""
    code, vectors, conics = _frame_conics(choice)
    rng = np.random.default_rng(28)
    seed = np.array(census.SEED_ROWS, dtype=np.int64)
    others = np.flatnonzero((vectors.astype(np.int64) @ seed.T != census.CONIC_RAW_DOTS).any(1))
    rows = np.concatenate([conics, vectors[rng.choice(others, 300, replace=False)]])
    return code, rows[rng.permutation(len(rows))]


def _perturbed_conics():
    """Each lex conic with one entry outside positions 1-9 negated: every
    profile still matches, and the P1 and P2 codewords leave the code."""
    code, conics = _conics_of(None)
    rng = np.random.default_rng(29)
    rows = conics.copy()
    rows[np.arange(len(rows)), rng.integers(9, 24, len(rows))] *= -1
    return code, rows


def _no_p2_profile(monkeypatch):
    p2 = next(k for k, p in census.PROFILES.items() if p == "P2")
    monkeypatch.delitem(census.PROFILES, p2)


def _p3_window_moved(monkeypatch):
    monkeypatch.setitem(census.WINDOW_CONDITIONS["P3"], "fixed", (1, 3))


@pytest.mark.parametrize(
    "rows, patch",
    [
        *[((lambda c=c: _conics_of(c)), None) for c in (None, 0, 1, 2, 3)],
        ((lambda: _mixed_rows(None)), None),
        ((lambda: _mixed_rows(3)), None),
        ((lambda: _conics_of(None)), _no_p2_profile),
        ((lambda: _conics_of(None)), _p3_window_moved),
        (_perturbed_conics, None),
    ],
    ids=["lex", "0", "1", "2", "3", "mixed-lex", "mixed-3", "no-P2", "P3-window", "perturbed"],
)
def test_classify_all_matches_the_per_row_oracle(rows, patch, monkeypatch):
    """classify_all's records equal the per-row oracle's, in row order,
    and each row classified alone gives the same record. PROFILES and
    WINDOW_CONDITIONS are patched before the rows are classified."""
    code, rows = rows()
    if patch is not None:
        patch(monkeypatch)
    oracle = [_classify_oracle(row, code) for row in rows.tolist()]
    assert census.classify_all(rows, code) == [r for r in oracle if r is not None]
    alone = [census.classify_all([row], code) for row in rows[::50]]
    assert alone == [[r] if r is not None else [] for r in oracle[::50]]


@pytest.mark.parametrize(
    "choice, digest",
    [
        (None, "8fc4169cb67f725abd00db1078a7146bcff686e7414392680360cfb394e3f211"),
        (3, "50cbb5346e67ab44c537fbe5270c5a4437727df2d2a315d1140694c19b556d5f"),
    ],
    ids=["lex", "3"],
)
def test_all_minimal_vectors_bytes_pinned(choice, digest):
    """The census rows, dtype and order, byte for byte: sha256 of the
    int8 array's bytes, recorded from the per-octad enumeration."""
    code, _ = golay.normalize_frame(golay.build_golay(), choice)
    vectors = leech.all_minimal_vectors(code)
    assert vectors.dtype == np.int8 and vectors.shape == (196560, 24)
    assert hashlib.sha256(vectors.tobytes()).hexdigest() == digest


def _pair_histogram(true):
    """The i<j histogram by listing the pairs, kept as an oracle."""
    iu = np.triu_indices(len(true), k=1)
    vals, counts = np.unique(true[iu], return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


def test_intersection_histogram_matches_the_pair_route(conics, vectors):
    """On the conics, and on 400 seeded minimal vectors, whose products
    run from -4 to 4."""
    rows = vectors[np.random.default_rng(30).choice(len(vectors), 400, replace=False)]
    for sample in (conics, rows, rows[:1], rows[:0]):
        true, hist = census.intersection_data(sample)
        assert np.array_equal(true, sample.astype(np.int64) @ sample.astype(np.int64).T // 8)
        assert hist == _pair_histogram(true)
    assert min(census.intersection_data(rows)[1]) == -4
    # e_1 meets itself in 1 / 8: no integer product
    with pytest.raises(ConstructionError, match="multiples of 8"):
        census.intersection_data(np.eye(1, 24, dtype=np.int64))


def test_intersection_data_peak_memory_within_twice_its_output(conics):
    """The products are formed, checked and counted in row blocks: the
    traced peak, the int32 output included, stays within 2x the output."""
    tracemalloc.start()
    try:
        true, _ = census.intersection_data(conics)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * true.nbytes
    assert true.dtype == np.int32


def _with_half(row):
    row = row.astype(np.float64)
    row[7] += 0.5
    return row


def _with_wide_entry(rows):
    """int32 rows with one entry moved by 2^20: every product stays a
    multiple of 8, but the diagonal reaches about 2^37."""
    rows = rows.astype(np.int32)
    rows[0, 0] += 1 << 20
    return rows


def _with_wrapping_entry(conics):
    # A P3/P4 conic (entry 0 is 2) with entry 0 moved by -2^63, to 2 - 2^63:
    # its int64 products wrap back to the conic's own, hbar 16 and u3 0.
    rows = conics.astype(np.int64)
    rows[np.flatnonzero(rows[:, 0] == 2)[0], 0] = 2 - 2**63
    return rows


@pytest.mark.parametrize(
    "call, rows, error",
    [
        # The classify-* cases pass one row, as a caller classifying a
        # single conic does.
        ("classify_all", lambda conics, vectors: [_with_half(conics[0])], TypeError),
        ("classify_all", lambda conics, vectors: [_with_half(conics[0]).tolist()], TypeError),
        ("classify_all", lambda conics, vectors: [[2, 2, 0, 0, 0]], ValueError),
        ("classify_all", lambda conics, vectors: [conics[:2]], ValueError),
        ("classify_all", lambda conics, vectors: _with_half(conics), TypeError),
        ("classify_all", lambda conics, vectors: conics.astype(np.float64), TypeError),
        ("classify_all", lambda conics, vectors: conics[:, :23], ValueError),
        ("find_conics", lambda conics, vectors: vectors.astype(np.float64), TypeError),
        ("find_conics", lambda conics, vectors: vectors[:, :23], ValueError),
        ("find_conics", lambda conics, vectors: _with_wrapping_entry(conics), ValueError),
        ("intersection_data", lambda conics, vectors: _with_half(conics), TypeError),
        ("intersection_data", lambda conics, vectors: conics[0], ValueError),
        ("intersection_data", lambda conics, vectors: conics[:, :20], ValueError),
        ("intersection_data", lambda conics, vectors: _with_wide_entry(conics), ValueError),
    ],
    ids=[
        "classify-half", "classify-half-list", "classify-5-wide", "classify-2d",
        "classify_all-half", "classify_all-float", "classify_all-23-wide",
        "find_conics-float", "find_conics-23-wide", "find_conics-wrapping-entry",
        "intersection_data-half", "intersection_data-1d", "intersection_data-20-wide",
        "intersection_data-wide-entry",
    ],
)
def test_conic_entry_points_refuse_malformed_rows(call, rows, error, conics, vectors, code):
    """Integer rows 24 wide only: a float dtype or entry is a TypeError,
    another width or rank a ValueError; intersection_data also refuses
    an entry outside 8 bits, and find_conics one outside [-2^59, 2^59),
    with ValueError."""
    args = (rows(conics, vectors),) + ((code,) if call.startswith("classify") else ())
    with pytest.raises(error):
        getattr(census, call)(*args)


def test_recount_matches_census(code, records):
    rep = census.recount_by_codewords(code)
    assert rep["total"] == 800
    per = {p: d["recount"] for p, d in rep["patterns"].items()}
    assert per == census.PATTERN_COUNTS
    under = {p: d["underline"] for p, d in rep["patterns"].items()}
    assert under == {"P1": 16, "P2": 16, "P3": 10, "P4": 3}
    split = census.pattern_split(records)
    for pattern, d in rep["patterns"].items():
        # The census of each window: the records of the pattern whose
        # movable pair (either order for P4) is the window's.
        fixed = set(census.WINDOW_CONDITIONS[pattern]["fixed"])
        windows = [
            sum(
                r.pattern == pattern and set(r.movable_pair or ()) == set(e["window"]) - fixed
                for r in records
            )
            for e in d["windows"]
        ]
        assert split[pattern] == sum(windows) == d["recount"]
        per_codeword = d["signs_per_codeword"] * (2 if pattern == "P4" else 1)
        for entry, in_window in zip(d["windows"], windows):
            assert entry["codewords"] == d["underline"]
            assert in_window == entry["codewords"] * per_codeword


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


def _ordered_dfs_cliques(masks: list[int], size: int) -> int:
    """Each clique once, in increasing vertex order: a clique is extended
    only by its higher-index common neighbours. No colouring, no relabeling."""

    def extend(cand: int, need: int) -> int:
        if need <= 1:
            return cand.bit_count() if need else 1
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            total += extend(cand & masks[low.bit_length() - 1], need - 1)
        return total

    return extend((1 << len(masks)) - 1, size)


def test_count_cliques_matches_ordered_dfs_on_wide_graphs(monkeypatch):
    """Graphs of 70-160 vertices, so that the per-branch sub-problems are
    wider than 64 bits, of widths that are not multiples of 8, and hold
    degree ties. The sub-problems are watched as their table is packed:
    each is in descending degree order."""
    widths, ties = [], 0
    subproblem_table = census._subproblem_table

    def watched(adj, subs):
        nonlocal ties
        for sub in subs:
            degree = adj[np.ix_(sub, sub)].sum(axis=1)
            assert (degree[:-1] >= degree[1:]).all()
            widths.append(len(sub))
            ties += int((degree[:-1] == degree[1:]).sum())
        return subproblem_table(adj, subs)

    monkeypatch.setattr(census, "_subproblem_table", watched)
    rng = random.Random(2003)
    for i, n in enumerate(range(70, 161, 10)):
        density = (0.5, 0.4, 0.3)[i % 3]
        size = 3 + i % 4
        masks = _random_masks(rng, n, density)
        expected = _ordered_dfs_cliques(masks, size)
        assert expected > 0
        assert census.count_disjoint_16(masks, size=size) == (expected, True), (n, size)
    assert max(widths) > 64
    assert any(w % 8 for w in widths)
    assert ties


def _mcq_children(masks: list[int], cand: int, need: int) -> list[int]:
    """The children of one node of a per-node MCQ search, in branch order:
    the vertices of colour >= need in reverse colour order, each child the
    candidates adjacent to its vertex, each vertex cleared after its branch."""
    non = [~(m | 1 << v) for v, m in enumerate(masks)]
    branch, uncol, colour = [], cand, 0
    while uncol:
        colour += 1
        q = uncol
        while q:
            low = q & -q
            v = low.bit_length() - 1
            q &= non[v]
            uncol ^= low
            if colour >= need:
                branch.append(v)
    children = []
    for v in reversed(branch):
        children.append(cand & masks[v])
        cand ^= 1 << v
    return children


def test_branch_matches_the_per_node_search():
    """One level of the block walk gives the per-node search's children,
    node by node and in branch order, for nodes of many sizes and needs."""
    rng = random.Random(1103)
    n = 150
    masks = _random_masks(rng, n, 0.5)
    adj = np.array([[m >> j & 1 for j in range(n)] for m in masks], dtype=bool)
    tab, _ = census._subproblem_table(adj, [np.arange(n)])
    assert len(tab) == 3
    cands = [0, (1 << n) - 1] + [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(100)]
    cands += [rng.getrandbits(n) for _ in range(100)]
    packed = np.array([[c >> 64 * w & (2**64 - 1) for c in cands] for w in range(3)], np.uint64)
    for need in (2, 3, 5, 8):
        base, got = census._branch(tab, np.zeros(len(cands), np.int64), packed, need)
        expected = [child for c in cands for child in _mcq_children(masks, c, need)]
        assert [sum(int(x) << 64 * w for w, x in enumerate(col)) for col in got.T] == expected
        assert base.tolist() == [0] * len(expected)


def test_triangle_count_on_three_word_sub_problems(monkeypatch):
    """A dense graph whose sub-problems are wider than 128 bits, so each
    table column is three 64-bit words; triangles recounted as trace(A^3)/6."""
    masks = _random_masks(random.Random(300), 300, 0.55)
    words = []
    subproblem_table = census._subproblem_table

    def watched(adj, subs):
        tab, base = subproblem_table(adj, subs)
        words.append(len(tab))
        return tab, base

    monkeypatch.setattr(census, "_subproblem_table", watched)
    a = np.array([[m >> j & 1 for j in range(300)] for m in masks], dtype=np.int64)
    triangles = int((a @ a * a).sum()) // 6
    assert census.count_disjoint_16(masks, size=3) == (triangles, True)
    assert words == [3]


def test_clique_count_deadline_is_checked_per_block(monkeypatch):
    """A clock that ticks once per reading: the deadline passes after the
    root block and the first block below it, so the count stops early.
    The blocks hold 4096 nodes, which the tick count assumes."""
    monkeypatch.setattr(census, "_CHUNK", 4096)
    masks = _random_masks(random.Random(200), 200, 0.5)
    full, exhausted = census.count_disjoint_16(masks, size=4)
    assert exhausted
    ticks = itertools.count()
    monkeypatch.setattr(census, "monotonic", lambda: next(ticks))
    count, exhausted = census.count_disjoint_16(masks, size=4, budget_seconds=2.5)
    assert exhausted is False
    assert 0 < count < full
    assert next(ticks) == 4


@pytest.mark.parametrize(
    "masks, size",
    [
        ([0b111, 0b111, 0b111], 3),  # a triangle with loops
        ([0b1111] * 4, 3),  # K4 with loops
        ([0b110, 0b101, 0b1011], 2),  # bit 3 of a 3-vertex mask, inside its byte
        ([0b110, 0b101, 0b011 | 1 << 20], 2),  # bit 20, past its byte
        ([0b010, 0b000, 0b000], 2),  # 0 ~ 1 but not 1 ~ 0
        ([-2, 0b101, 0b011], 2),  # a negative mask
        ([0b110, 0b101, 0b011], -1),  # a negative size
        ([0b110, 0b101, 0b011], -3),
    ],
)
def test_count_cliques_refuses_malformed_masks(masks, size):
    with pytest.raises(ValueError):
        census.count_disjoint_16(masks, size=size)


@pytest.mark.parametrize(
    "call, args",
    [
        (census.find_disjoint_16, ([0b110, 0b101, 0b011], -1)),  # a negative size
        (census.find_disjoint_16, ([0b10, 0b00], 2)),  # 0 ~ 1 but not 1 ~ 0
        (census.find_disjoint_16, ([0b111] * 3, 3)),  # a triangle with loops
        (census.clique_extension_exists, ([0b10, 0b00], [1])),
        (census.clique_extension_exists, ([0b111] * 3, [0])),
        (census.clique_extension_exists, ([0b110, 0b101, 0b011], [7])),  # outside the graph
        (census.clique_extension_exists, ([0b110, 0b101, 0b011], [0, 9])),
        (census.clique_extension_exists, ([0b10, 0b01, 0], [0, 2])),  # 0 and 2 not adjacent
        (census.clique_extension_exists, ([0b110, 0b101, 0b011], [0, 0])),  # a repeated vertex
    ],
    ids=[
        "find-negative-size", "find-asymmetric", "find-loops", "extend-asymmetric",
        "extend-loops", "extend-outside", "extend-outside-pair", "extend-non-clique",
        "extend-repeated",
    ],
)
def test_clique_search_refuses_malformed_input(call, args):
    """The same refusals as the count's, through the same check, and a
    clique to extend that is not one."""
    with pytest.raises(ValueError):
        call(*args)


@pytest.mark.parametrize("call", [census.find_disjoint_16, census.count_disjoint_16])
def test_clique_functions_refuse_a_non_integral_size(call):
    """The size is read with operator.index at entry, as exact reads its
    matrices: a clique of 2.5 vertices is refused, not searched."""
    with pytest.raises(TypeError):
        call([0b110, 0b101, 0b011], 2.5)


def _spy_blocks(monkeypatch) -> list[tuple[int, int, int, int, int]]:
    """Watch census._branch: (need, nodes, table words, children, fewest
    candidates of a node) of every block."""
    blocks = []
    branch = census._branch

    def watched(tab, base, cand, need):
        fewest = int(census._popcount(cand).min(initial=len(tab) * 64))
        kids = branch(tab, base, cand, need)
        blocks.append((need, len(base), len(tab), len(kids[0]), fewest))
        return kids

    monkeypatch.setattr(census, "_branch", watched)
    return blocks


def _assert_pooled_blocks(blocks: list[tuple[int, int, int, int, int]], chunk: int) -> None:
    """Every block holds at most chunk nodes, and per need at most one
    fewer. Replayed from the blocks, each pool but the roots' takes
    children only while it holds fewer than chunk nodes, gives no more
    nodes than it took, and ends empty."""
    held, partial = {}, []
    for need, nodes, _, kids, _ in blocks:
        assert 0 < nodes <= chunk
        if nodes < chunk:
            partial.append(need)
        if need in held:
            held[need] -= nodes
            assert held[need] >= 0, need
        if need > 2:
            assert held.get(need - 1, 0) < chunk, need - 1
            held[need - 1] = held.get(need - 1, 0) + kids
    assert len(partial) == len(set(partial)), partial
    assert not any(held.values()), held


def test_clique_walk_nodes_by_need_on_the_census_order(true_products, monkeypatch):
    """The walk on the census order branches the recorded number of nodes
    at every need, in full blocks but for the last of each need, and
    every node it branches has at least need candidates."""
    blocks = _spy_blocks(monkeypatch)
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["clique"]["count"]
    masks = census.disjointness_masks(true_products)
    assert census.count_disjoint_16(masks) == (expected, True)
    nodes = dict.fromkeys(range(15, 1, -1), 0)
    for need, k, _, _, fewest in blocks:
        nodes[need] += k
        assert fewest >= need, need
    assert nodes == {15: 552, 14: 22894, 13: 51147, 12: 4116, 11: 216, 10: 61,
                     **dict.fromkeys(range(9, 1, -1), 60)}
    _assert_pooled_blocks(blocks, census._CHUNK)


def test_clique_walk_pools_small_blocks(monkeypatch):
    """With 16-node blocks, graphs wider than 64 bits still give the
    ordered DFS count, in full blocks but for the last of each need."""
    monkeypatch.setattr(census, "_CHUNK", 16)
    blocks = _spy_blocks(monkeypatch)
    rng, widest = random.Random(1611), 0
    for n, density, sizes in ((80, 0.5, (3, 4, 5)), (130, 0.65, (3, 4))):
        masks = _random_masks(rng, n, density)
        for size in sizes:
            blocks.clear()
            expected = _ordered_dfs_cliques(masks, size)
            assert census.count_disjoint_16(masks, size=size) == (expected, True), (n, size)
            _assert_pooled_blocks(blocks, 16)
            widest = max(widest, max(words for _, _, words, _, _ in blocks))
    assert widest > 1


def test_branch_bit_index_is_exact():
    """_branch's bit index, census._lowest_bit: for every k < 64, the
    word 2^k and the word with every bit from k up set both read back
    low = 2^k and index k."""
    k = np.arange(64, dtype=np.int64)
    power = np.uint64(1) << k.astype(np.uint64)
    for words in (power, ~(power - np.uint64(1))):
        low, index = census._lowest_bit(words)
        assert low.dtype == np.uint64 and index.dtype == np.int64
        assert low.tolist() == power.tolist() and index.tolist() == k.tolist()


def test_popcount_matches_bit_count():
    """census._popcount sums each column's words as int.bit_count does:
    the empty and full words, every 2^k - 1 and random words."""
    rng = random.Random(64)
    ints = [0, 2**64 - 1] + [2**k - 1 for k in range(64)] + [rng.getrandbits(64) for _ in range(62)]
    words = np.array(ints, dtype=np.uint64).reshape(2, 64)
    expected = [sum(w.bit_count() for w in col) for col in words.T.tolist()]
    assert census._popcount(words).tolist() == expected


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
