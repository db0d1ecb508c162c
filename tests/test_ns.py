"""Tests for the rank-20 construction, extension, and scans."""

import math
import random
from itertools import product

import numpy as np
import pytest

from conics800 import census, exact, golay, ns
from conics800.errors import ConstructionError, NotPositiveDefiniteError
from conics800.lattices import IntegralLattice, orthogonal_complement, short_vectors


def test_S_shape_and_membership(s_lattice, lam, conics):
    assert s_lattice.rank == 20
    assert s_lattice.contains(list(ns.HBAR))
    assert all(s_lattice.contains(row) for row in conics)


def test_S_root_free_and_even(s_lattice):
    gram = s_lattice.gram_int()
    assert all(gram[i][i] % 2 == 0 for i in range(20))
    assert short_vectors(gram, 2) == []


def test_hbar_parity(s_lattice):
    assert ns.check_hbar_parity(s_lattice)


def test_hbar_parity_negative_control(s_lattice, vectors):
    # replace one basis row with a minimal vector pairing oddly with hbar
    hbar = np.array(ns.HBAR, dtype=np.int64)
    dots = vectors.astype(np.int64) @ hbar
    odd = vectors[(dots // 8) % 2 == 1]
    assert len(odd)
    corrupted = [list(r) for r in s_lattice.basis[:-1]] + [list(map(int, odd[0]))]
    bad = IntegralLattice(corrupted, ambient_scale=8)
    assert not ns.check_hbar_parity(bad)


def test_w_equals_seed_complement(s_lattice, lam):
    w = ns.hbar_perp(s_lattice)
    seed_complement = orthogonal_complement(ns.build_vtilde(lam), lam)
    assert w.solver.h == seed_complement.solver.h
    assert w.rank == 19
    assert exact.det_bareiss(w.gram_int()) == 160


def test_N_invariants(n_lattice):
    n = n_lattice
    gram = [[int(x) for x in row] for row in n.gram]
    assert exact.det_bareiss(gram) == -160
    assert exact.signature(gram) == (1, 19, 0)
    assert all(gram[i][i] % 2 == 0 for i in range(20))
    assert int(n.h @ n.gram @ n.h) == 4
    assert ns.check_h_parity(n)


def _doubled_sum_rows(n):
    """Doubled ambient rows [2w | 0] of W's basis and [0 | 2] of h."""
    return [[2 * x for x in row] + [0] for row in n.w.basis] + [[0] * 24 + [2]]


def test_extension_index_two(n_lattice):
    # the basis of (-W) + Zh in N's coordinates has determinant +-2: index 2
    solver = exact.LeftSolver(n_lattice.hnf2.tolist())
    coords = [solver.solve(row) for row in _doubled_sum_rows(n_lattice)]
    assert abs(exact.det_bareiss(coords)) == 2


def test_class_products(n_lattice, true_products):
    cls = n_lattice.classes
    gram = n_lattice.gram
    cc = cls @ gram @ cls.T
    assert (np.diagonal(cc) == -2).all()
    assert (cls @ gram @ n_lattice.h == 2).all()
    assert np.array_equal(cc, 2 - true_products)


def test_build_N_rejects_a_foreign_glue(s_lattice, conics, vectors):
    bad = conics.copy()
    bad[0] = vectors[0]
    with pytest.raises(ConstructionError):
        ns.build_N(s_lattice, bad)


def test_glue_independence(conics, n_lattice):
    assert ns.check_glue_independence(n_lattice, conics, other_index=1)
    assert ns.check_glue_independence(n_lattice, conics, other_index=400)


def test_discriminant_report(n_lattice):
    rep = ns.verify_discriminants(n_lattice)
    assert rep["group_orders"] == {"seed": 160, "N": 160, "T": 160}
    for name in ("seed_block_form", "N_block_form_a", "N_block_form_b",
                 "neg_N_vs_T", "complement_identity"):
        assert rep[name] == {"isomorphic": True, "witness_ok": True}


def test_bad_vector_scans_empty(n_lattice):
    kind1, kind2 = ns.scan_N(n_lattice)
    assert kind1 == []
    assert kind2 == []


def test_kind1_scan_is_the_root_scan_of_W(n_lattice, s_lattice):
    """h-perp in N is -W, and W lies in S, so the kind-1 scan is empty
    because S is root-free."""
    n = n_lattice
    gram = n.gram.tolist()
    gh = exact.mat_vec_mul(gram, n.h.tolist())
    k = exact.kernel_left([[x] for x in gh])
    neg = [[-x for x in row] for row in exact.mat_mul(exact.mat_mul(k, gram), exact.transpose(k))]
    # -W (doubled ambient rows [2w | 0]) lies in h-perp in N;
    # equal determinants make them equal.
    solver = exact.LeftSolver(n.hnf2.tolist())
    for row in _doubled_sum_rows(n)[:-1]:
        x = solver.solve(row)
        assert x is not None and sum(a * b for a, b in zip(x, gh)) == 0
    assert exact.det_bareiss(neg) == exact.det_bareiss(n.w.gram_int()) == 160
    assert all(s_lattice.contains(row) for row in n.w.basis)
    assert short_vectors(n.w.gram_int(), 2) == []
    assert ns.scan_N(n)[0] == []


def _rank20(block, entry):
    """Gram of block + diag(entry, ..., entry), rank 20."""
    g = [[int(i == j) * entry for j in range(20)] for i in range(20)]
    for i, row in enumerate(block):
        g[i][: len(row)] = row
    return g


def _in_golay_construction(x, code) -> bool:
    """x lies in the Golay-code lattice of SPLAG ch. 4 (11.8): all entries
    of one parity, the positions of x = 2 (even) or x = 1 (odd) mod 4 a
    codeword, and the entry sum 0 (even) or 4 (odd) mod 8."""
    odd = x[0] % 2
    if any(v % 2 != odd for v in x):
        return False
    mask = golay.mask_of(i + 1 for i, v in enumerate(x) if v % 4 == (1 if odd else 2))
    return mask in code and sum(x) % 8 == 4 * odd


def _congruent_to_hbar(rows, basis) -> bool:
    """Every doubled row [u | k] has u in the Leech lattice and
    u = k hbar mod 2 Leech. The lattice is unimodular at form x.y / 8, so
    x lies in it (in twice it) when every raw dot x.b with a basis row b
    is 0 mod 8 (mod 16)."""
    b = np.array(basis, dtype=np.int64).T
    u = np.asarray(rows, dtype=np.int64)[:, :-1]
    k = np.asarray(rows, dtype=np.int64)[:, -1:]
    hbar = np.array(ns.HBAR, dtype=np.int64)
    return bool(((u @ b) % 8 == 0).all() and (((u - k * hbar) @ b) % 16 == 0).all())


def test_saint_donat_scans_from_the_leech_lattice(n_lattice, s_lattice, lam, basis, code,
                                                  vectors):
    """Both bad-vector scans and S's root-freeness, proved from the Leech
    lattice with no short-vector walk (the argument is in
    ns.bad_vector_scan's docstring)."""
    # The Leech lattice has no roots: its basis lies in the Golay-code
    # lattice, whose minimum raw norm is 32 as the code's minimum weight is 8.
    assert all(_in_golay_construction(row, code) for row in basis)
    assert golay.min_nonzero_weight(code) == 8
    # so neither has S, which lies in it
    assert all(lam.contains(row) for row in s_lattice.basis)
    # every e = [u | k] in N has u = k hbar mod 2 Leech
    assert _congruent_to_hbar(n_lattice.hnf2, basis)
    # hbar's class mod 2 Leech holds only +-hbar among the minimal vectors
    hbar = np.array(ns.HBAR, dtype=np.int64)
    diff = (vectors.astype(np.int64) - hbar) @ np.array(basis, dtype=np.int64).T
    same = vectors[(diff % 16 == 0).all(axis=1)]
    assert sorted(map(tuple, same.tolist())) == sorted([ns.HBAR, tuple((-hbar).tolist())])
    # and neither [hbar | 1] nor [-hbar | 1] is in N
    solver = exact.LeftSolver(n_lattice.hnf2.tolist())
    assert solver.solve(list(ns.HBAR) + [1]) is None
    assert solver.solve((-hbar).tolist() + [1]) is None
    # negative control: a perturbed basis row breaks the congruence
    bad = n_lattice.hnf2.copy()
    bad[0][0] += 2
    assert not _congruent_to_hbar(bad, basis)


def test_planted_controls():
    k1, k2 = ns.bad_vector_scan(ns.PLANTED_KIND1, (1, 0))
    assert sorted(k1) == [(0, -1), (0, 1)]
    assert k2 == []
    k1b, k2b = ns.bad_vector_scan(ns.PLANTED_KIND2, (1, 0))
    assert k1b == []
    assert sorted(k2b) == [(0, 1), (1, -1)]
    for e in k2b:
        g = ns.PLANTED_KIND2
        ee = sum(e[i] * g[i][j] * e[j] for i in range(2) for j in range(2))
        eh = sum(e[i] * g[i][j] * (1, 0)[j] for i in range(2) for j in range(2))
        assert ee == 0 and eh == 2

    # The same controls at the real rank 20, with h = e1.
    e = [tuple(int(i == j) for j in range(20)) for i in range(20)]
    k1, k2 = ns.bad_vector_scan(_rank20([[4, 2], [2, 0]], -4), e[0])
    assert k1 == []
    assert sorted(k2) == [e[1], tuple(a - b for a, b in zip(e[0], e[1]))]
    # Here e.h = 4 e_1 is never 2, so the isotropic scan has no coset.
    k1, k2 = ns.bad_vector_scan(_rank20([[4]], -2), e[0])
    assert sorted(k1) == sorted(tuple(s * x for x in e[i]) for i in range(1, 20) for s in (1, -1))
    assert len(k1) == 38
    assert k2 == []


def test_N_has_exactly_800_conic_classes(n_lattice):
    """Every e in N with e.e = -2 and e.h = 2 is one of the 800 classes."""
    n = n_lattice
    found = ns.classes_of(n.gram, n.h, -2, 2)
    assert len(found) == 800
    assert set(found) == set(map(tuple, n.classes.tolist()))
    # h.N lies in 2Z, so N has no classes of odd degree (no lines).
    assert ns.classes_of(n.gram, n.h, -2, 1) == ns.classes_of(n.gram, n.h, -2, 3) == []


def test_conic_class_planted_controls():
    # [[4,2],[2,-2]], h = (1,0): e = (a, 1-2a) has e.e = -12a^2 + 12a - 2,
    # which is -2 exactly for a = 0, 1.
    assert sorted(ns.classes_of([[4, 2], [2, -2]], (1, 0), -2, 2)) == [(0, 1), (1, -1)]
    # Rank 20: [[4,2],[2,0]] + diag(-2, ...), h = e1. e = (a, 1-2a, z) has
    # e.e = -4a^2 + 4a - 2 z.z = -2 iff z.z = 1 + 2a(1-a): a = 0, 1 and
    # z = +-e_i for each of the 18 remaining coordinates, 72 classes.
    e = [tuple(int(i == j) for j in range(20)) for i in range(20)]
    found = ns.classes_of(_rank20([[4, 2], [2, 0]], -2), e[0], -2, 2)
    expected = {
        (a, 1 - 2 * a) + tuple(s * x for x in e[i][2:])
        for a in (0, 1) for i in range(2, 20) for s in (1, -1)
    }
    assert len(found) == len(expected) == 72
    assert set(found) == expected


def _box_classes(gram, h, norm, degree):
    """Oracle: every e of a box with e.e = norm and e.h = degree, in Python ints.

    Such an e has Q(e) = (e.h)^2 - 2 e.e = T = degree^2 - 2 norm, and a
    positive-definite Q bounds e_i^2 <= T (Q^-1)_ii = T adj(Q)_ii / det Q.
    """
    gh = exact.mat_vec_mul(gram, h)
    q = [[a * b - 2 * x for b, x in zip(gh, row)] for a, row in zip(gh, gram)]
    det, adj = exact.adjugate(q)
    t = degree * degree - 2 * norm
    bounds = [math.isqrt(t * adj[i][i] // det) for i in range(len(gram))]
    out = []
    for e in product(*(range(-b, b + 1) for b in bounds)):
        ge = exact.mat_vec_mul(gram, e)
        ee, eh = (sum(x * y for x, y in zip(v, ge)) for v in (e, h))
        if ee == norm and eh == degree:
            out.append(e)
    return sorted(out)


def test_classes_of_against_box_oracle():
    """Random Grams [[4, b], [b', C]] with h = e1 whose h-complement is
    negative definite (signature (1, n - 1)), at ranks 1 to 4."""
    rng = random.Random(89)
    grams, rejected = [], 0
    while len(grams) < 40:
        n = rng.randint(1, 4)
        b = [rng.randint(-3, 3) for _ in range(n - 1)]
        c = [[0] * (n - 1) for _ in range(n - 1)]
        for i in range(n - 1):
            c[i][i] = -2 * rng.randint(0, 3)
            for j in range(i):
                c[i][j] = c[j][i] = rng.randint(-3, 3)
        gram = [[4] + b] + [[bi] + row for bi, row in zip(b, c)]
        if exact.signature(gram) == (1, n - 1, 0):
            grams.append(gram)
        else:
            rejected += 1
    assert rejected
    found = {0: 0, 1: 0}
    for gram in grams:
        h = [1] + [0] * (len(gram) - 1)
        for norm in (-4, -2, 0):
            for degree in range(4):
                want = _box_classes(gram, h, norm, degree)
                assert sorted(ns.classes_of(gram, h, norm, degree)) == want
                found[degree % 2] += len(want)
    assert found[0] and found[1]
    # Outside the precondition Q is indefinite, and the walk refuses it.
    with pytest.raises(NotPositiveDefiniteError):
        ns.classes_of([[4, 0], [0, 2]], (1, 0), -2, 0)


def test_scan_rejects_wrong_polarization_norm():
    with pytest.raises(ConstructionError):
        ns.bad_vector_scan([[2, 0], [0, -2]], (1, 0))
    with pytest.raises(ConstructionError):
        ns.classes_of([[2, 0], [0, -2]], (1, 0), -2, 2)


def test_build_vtilde_checks(lam):
    vt = ns.build_vtilde(lam)
    assert vt.rank == 5
    assert vt.gram_int() == [list(r) for r in census.SEED_GRAM]
