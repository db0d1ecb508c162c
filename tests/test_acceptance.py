"""Acceptance suite: one test per contract criterion, exact tolerances.

Each test ends by printing a single `criterion NN: PASS` line (visible
with -s); a failing criterion shows up as the test's FAILED line with
the offending assert. Stages with runtime budgets are rebuilt locally
and timed fresh rather than read from the session fixtures.
"""

import json
import time

import numpy as np
import pytest

from conics800 import census, exact, golay, leech, ns, report
from conics800.lattices import short_vectors


def _pass(num: int, desc: str) -> None:
    print(f"criterion {num:02d}: PASS - {desc}")


def test_criterion_01_golay_census():
    t0 = time.monotonic()
    raw = golay.build_golay()
    dist = raw.weight_distribution()
    cover = golay.steiner_cover_counts(raw)
    elapsed = time.monotonic() - t0
    assert len(raw.words) == 4096
    assert dict(dist) == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    assert len(cover) == 42504
    assert int(cover.min()) == 1 and int(cover.max()) == 1
    assert elapsed < 5.0, f"golay stage took {elapsed:.2f}s"
    _pass(1, "4096 codewords, weight distribution (1,759,2576,759,1), "
             f"Steiner holds for all 42504 quintuples, {elapsed:.2f}s < 5s")


def test_criterion_02_frame_octads(code, frame):
    want = golay.mask_of((1, 2, 4, 5))
    matching = [
        w for w in code.words
        if golay.weight(w) == 8 and (w & golay.FIXED_MASK) == want
    ]
    assert len(matching) == 4
    assert sorted(matching) == sorted(frame.candidates)
    _pass(2, "exactly 4 octads meet {1,2,3,4,5} in {1,2,4,5}")


def test_criterion_03_leech_census(code):
    t0 = time.monotonic()
    _, cen = leech.census(code)
    elapsed = time.monotonic() - t0
    assert tuple(cen.shape_counts) == (98304, 97152, 1104)
    assert cen.total == 196560
    assert cen.distinct
    assert cen.negation_closed
    assert cen.all_norm_32
    assert elapsed < 10.0, f"leech census took {elapsed:.2f}s"
    _pass(3, f"shape counts (98304, 97152, 1104), total 196560, distinct, "
             f"negation-closed, raw norms 32, {elapsed:.2f}s < 10s")


def test_criterion_04_seed_gram():
    census.validate_seed()
    rows = [list(r) for r in census.SEED_ROWS]
    gram = [
        [sum(a * b for a, b in zip(ri, rj)) // 8 for rj in rows] for ri in rows
    ]
    assert gram == [list(r) for r in census.SEED_GRAM]
    assert exact.det_bareiss(gram) == 160
    _pass(4, "generator Gram reproduced entry-for-entry, det 160 by "
             "fraction-free oracle")


def test_criterion_05_conic_census(vectors, code):
    t0 = time.monotonic()
    found = census.find_conics(vectors)
    recs = census.classify_all(found, code)
    recount = census.recount_by_codewords(code)
    elapsed = time.monotonic() - t0
    assert len(found) == 800
    split = {"P1": 0, "P2": 0, "P3": 0, "P4": 0}
    for r in recs:
        split[r.pattern] += 1
    assert split == {"P1": 96, "P2": 96, "P3": 320, "P4": 288}
    pats = recount["patterns"]
    assert {p: d["underline"] for p, d in pats.items()} == {
        "P1": 16, "P2": 16, "P3": 10, "P4": 3
    }
    assert {p: d["signs_per_codeword"] for p, d in pats.items()} == {
        "P1": 1, "P2": 1, "P3": 32, "P4": 8
    }
    assert {p: d["recount"] for p, d in pats.items()} == split
    assert recount["total"] == 800
    assert elapsed < 30.0, f"conic census took {elapsed:.2f}s"
    _pass(5, f"800 conics, split (96, 96, 320, 288), combinatorial recount "
             f"agrees per row, {elapsed:.2f}s < 30s")


def test_criterion_06_frame_invariance():
    raw = golay.build_golay()
    splits = {}
    for choice in range(4):
        c2, _ = golay.normalize_frame(raw, choice)
        v2 = leech.all_minimal_vectors(c2)
        k2 = census.find_conics(v2)
        r2 = census.classify_all(k2, c2)
        s2 = {"P1": 0, "P2": 0, "P3": 0, "P4": 0}
        for r in r2:
            s2[r.pattern] += 1
        s2["total"] = len(k2)
        splits[choice] = s2
    want = {"P1": 96, "P2": 96, "P3": 320, "P4": 288, "total": 800}
    assert splits == {c: want for c in range(4)}
    _pass(6, "identical totals and splits for each of the 4 octad choices")


def test_criterion_07_kummer_16_clique(true_products):
    t0 = time.monotonic()
    masks = census.disjointness_masks(true_products)
    clique = census.find_disjoint_16(masks)
    elapsed = time.monotonic() - t0
    assert len(clique) == 16
    sub = true_products[np.ix_(clique, clique)]
    off = sub[~np.eye(16, dtype=bool)]
    assert off.shape == (240,)
    assert (off == 2).all()
    assert elapsed < 60.0, f"clique search took {elapsed:.2f}s"
    _pass(7, f"16-clique of pairwise-disjoint conics exhibited "
             f"(all 120 pairs at product 2), {elapsed:.2f}s < 60s")


def test_criterion_08_parity(s_lattice, n_lattice, true_products):
    assert ns.check_hbar_parity(s_lattice)
    assert ns.check_h_parity(n_lattice)
    n = n_lattice
    cc = np.einsum("ij,jk,ik->i", n.classes, n.gram, n.classes)
    ch = n.classes @ n.gram @ n.h
    assert (cc == -2).all()
    assert (ch == 2).all()
    _pass(8, "x.hbar even on S, h.x even on N, every conic class has "
             "c^2 = -2 and c.h = 2")


def test_criterion_09_discriminants(n_lattice):
    disc = ns.verify_discriminants(n_lattice)
    assert disc["group_orders"] == {"seed": 160, "N": 160, "T": 160}
    for name in (
        "seed_block_form",
        "N_block_form_a",
        "N_block_form_b",
        "neg_N_vs_T",
        "complement_identity",
    ):
        assert disc[name] == {"isomorphic": True, "witness_ok": True}, name
    _pass(9, "discriminant groups of order 160 match all stated block "
             "forms, -discr N = discr T, witnesses re-verified")


def test_criterion_10_bad_vectors(n_lattice):
    kind1, kind2 = ns.scan_N(n_lattice)
    assert kind1 == []
    assert kind2 == []
    p1_kind1, _ = ns.bad_vector_scan(ns.PLANTED_KIND1, (1, 0))
    _, p2_kind2 = ns.bad_vector_scan(ns.PLANTED_KIND2, (1, 0))
    assert len(p1_kind1) > 0
    assert len(p2_kind2) > 0
    _pass(10, "both bad-vector scans empty on N; planted controls caught")


@pytest.mark.heavy
def test_criterion_11_heavy_cross_check(basis):
    t0 = time.monotonic()
    gram = [[x // 8 for x in row] for row in
            exact.mat_mul(basis, exact.transpose(basis))]
    found4 = short_vectors(gram, 4)
    found2 = short_vectors(gram, 2)
    elapsed = time.monotonic() - t0
    assert len(found4) == 196560
    assert len(found2) == 0
    assert elapsed < 1800.0, f"heavy enumeration took {elapsed:.1f}s"
    _pass(11, f"independent enumeration: 196560 vectors at norm 4, none "
              f"at norm 2, {elapsed:.1f}s < 30min")


def test_criterion_12_determinism():
    outs = []
    for threads in (1, 2):
        state = report.Pipeline(octad_choice="lex", threads=threads)
        rep, ok = report.run_pipeline(state, "ns", heavy=False)
        assert ok
        outs.append(json.dumps(report.strip_volatile(rep), indent=2,
                               ensure_ascii=False))
    assert outs[0] == outs[1]
    _pass(12, "verify-all JSON byte-identical (timing excluded) across "
              "thread counts")
