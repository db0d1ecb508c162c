"""Tests for the rank-20 construction, extension, and scans."""

import dataclasses
import math
import random
from itertools import product

import numpy as np
import pytest

from conics800 import census, exact, golay, leech, ns
from conics800.errors import ConstructionError, NotPositiveDefiniteError, VerificationError
from conics800.lattices import (
    IntegralLattice,
    discriminant_form,
    norm_counts,
    orthogonal_complement,
    short_vectors,
)


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


def test_h_parity_refuses_a_product_that_could_wrap(n_lattice):
    """A Gram scaled by 2^58 still fits int64, but Gram . h would not:
    check_h_parity raises instead of reading wrapped entries. The bound
    is exact on both sides of 2^62."""
    wide = dataclasses.replace(n_lattice, gram=n_lattice.gram * 2**58)
    with pytest.raises(ConstructionError, match="int64 product"):
        ns.check_h_parity(wide)
    below = ns.int64_product(np.array([2**31]), np.array([2**31 - 1]))
    assert int(below) == 2**62 - 2**31
    with pytest.raises(ConstructionError, match="int64 product"):
        ns.int64_product(np.array([2**31]), np.array([-(2**31)]))


def _doubled_sum_rows(n):
    """Doubled ambient rows [2w | 0] of W's basis and [0 | 2] of h."""
    return [[2 * x for x in row] + [0] for row in n.w.basis] + [[0] * 24 + [2]]


def _gf2_kernel(rows: list[int]) -> list[int]:
    """The vectors x of GF(2)^k, as bitmasks, with sum_i x_i rows[i] = 0,
    for k rows given as bitmasks: elimination on rows tagged with their
    own index bits, shifted above every row bit."""
    shift = max(rows, default=0).bit_length()
    pending = [row | 1 << (shift + i) for i, row in enumerate(rows)]
    basis = []
    while pending:
        row = pending.pop()
        low = row & ((1 << shift) - 1)
        if not low:
            basis.append(row >> shift)
            continue
        pivot = low & -low
        pending = [r ^ row if r & pivot else r for r in pending]
    kernel = [0]
    for b in basis:
        kernel += [x ^ b for x in kernel]
    return kernel


def test_report_clique_is_a_kummer_set(n_lattice, true_products):
    """Sixteen disjoint smooth rational curves on a K3 surface have a sum
    divisible by 2 (Nikulin, Math. USSR Izv. 9, 1975), and their even
    subsets form the Reed-Muller code RM(1, 4): the empty set, 30 sets of
    8 and all 16. The report's clique passes this in N: the GF(2) kernel
    of its 16 class rows has dimension 5 and exactly those weights."""
    clique = census.find_disjoint_16(census.disjointness_masks(true_products))
    rows = [sum((int(x) & 1) << j for j, x in enumerate(n_lattice.classes[v])) for v in clique]
    kernel = _gf2_kernel(rows)
    assert len(kernel) == 2**5
    weights = {}
    for x in kernel:
        weights[x.bit_count()] = weights.get(x.bit_count(), 0) + 1
    assert weights == {0: 1, 8: 30, 16: 1}


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


def test_a_foreign_glue_builds_a_rank_21_N(s_lattice, conics, vectors):
    """Census row 0, a minimal vector outside S, as the glue: its doubled
    row is outside the span of W's rows and h's, so build_N returns an
    odd N of rank 21 for the rows to judge, and discriminant_form, N's
    one evenness check, refuses its Gram."""
    bad = conics.copy()
    bad[0] = vectors[0]
    n = ns.build_N(s_lattice, bad)
    gram = n.gram.tolist()
    assert n.rank == 21
    assert (exact.det_bareiss(gram), exact.signature(gram)) == (1216, (1, 20, 0))
    assert len(n.classes) < 800
    with pytest.raises(VerificationError, match="even"):
        discriminant_form(gram)


def test_a_glue_with_a_non_integral_gram_is_refused(s_lattice, conics):
    """e_1 as the glue: its doubled row (-2, -4, 0, ..., 0 | 1) has the
    product (32 - 20) / 32 with itself, so N has no integer Gram."""
    bad = conics.copy()
    bad[0] = 0
    bad[0, 0] = 1
    with pytest.raises(ConstructionError, match="non-integral"):
        ns.build_N(s_lattice, bad)


def _solved_one_by_one(s_lattice, conics):
    """The per-conic oracle: LeftSolver.solve of each doubled row over N's
    HNF, the rows outside N dropped."""
    solver, _ = ns._glue(ns.hbar_perp(s_lattice), conics[0])
    solved = (solver.solve(ns._doubled(conic)) for conic in conics.tolist())
    return solver, [x for x in solved if x is not None]


def test_place_matches_the_per_conic_solve(s_lattice, conics):
    """The batched placement is LeftSolver.solve on every conic, in the lex
    frame and in frame 2 (built from its own code)."""
    code2 = golay.normalize_frame(golay.build_golay(), 2)[0]
    vectors2 = leech.all_minimal_vectors(code2)
    s2 = ns.build_S(IntegralLattice(leech.extract_basis(vectors2), ambient_scale=8))
    for s, frame_conics in ((s_lattice, conics), (s2, census.find_conics(vectors2))):
        solver, expected = _solved_one_by_one(s, frame_conics)
        assert len(expected) == 800
        assert ns._place(solver.h, frame_conics).tolist() == expected
        assert ns.build_N(s, frame_conics).classes.tolist() == expected


def test_place_leaves_out_a_conic_outside_N(s_lattice, conics, vectors, n_lattice):
    """Conic 799 replaced by census row 0, whose doubled row is not in N:
    its class is left out, as solve leaves it out, and the rest stay."""
    planted = conics.copy()
    planted[799] = vectors[0]
    solver, expected = _solved_one_by_one(s_lattice, planted)
    assert solver.solve(ns._doubled(vectors[0].tolist())) is None
    classes = ns.build_N(s_lattice, planted).classes
    assert classes.tolist() == expected
    assert np.array_equal(classes, n_lattice.classes[:799])


@pytest.mark.parametrize("bound, refused", [(2**62 - 1, False), (2**62, True)])
def test_place_bound_guard(monkeypatch, s_lattice, conics, n_lattice, bound, refused):
    """The placement runs only while its int64 bound is below 2^62. On N's
    HNF, with conic entries up to 3 and hbar's up to 4, it is about 2^27."""
    solver, _ = ns._glue(ns.hbar_perp(s_lattice), conics[0])
    assert 2**26 < ns._placement_bound(solver.h, 2 * 3 + 4) < 2**27
    monkeypatch.setattr(ns, "_placement_bound", lambda hnf, entry_max: bound)
    if refused:
        with pytest.raises(ConstructionError):
            ns.build_N(s_lattice, conics)
    else:
        assert np.array_equal(ns.build_N(s_lattice, conics).classes, n_lattice.classes)


def test_N_conic_classes_counted_by_the_merged_walk(n_lattice):
    """The 800 classes through norm_counts, which shares no code with
    short_vectors' row walk past _prologue. On Q(e) = (e.h)^2 - 2 e.e,
    Q = 8 holds +-each conic class (e.e = -2, e.h = +-2), +-h, and the
    e.h = 0 vectors, which are W's norm-4 vectors (h.N lies in 2Z, and
    Q >= (e.h)^2 / 2 with equality only on the multiples of h)."""
    n = n_lattice
    gram, h = n.gram.tolist(), n.h.tolist()
    g = exact.mat_vec_mul(gram, h)
    q = [[a * b - 2 * x for b, x in zip(g, row)] for a, row in zip(g, gram)]
    at8, w4 = norm_counts(q, 8)[8], norm_counts(n.w.gram_int(), 4)[4]
    assert (at8, w4) == (11082, 9480)
    assert (at8 - w4 - 2) // 2 == 800


def test_build_N_refuses_no_conic_rows(s_lattice, conics):
    """The glue is conics[0]: with no rows build_N raises a named
    ValueError, not an IndexError."""
    with pytest.raises(ValueError, match="conic row to glue by"):
        ns.build_N(s_lattice, conics[:0])


def test_glue_independence_refuses_fewer_than_two_rows(n_lattice, conics):
    """The second glue is conics[1]: with one row the check raises a
    named ValueError, not an IndexError."""
    for rows in (conics[:0], conics[:1]):
        with pytest.raises(ValueError, match="second conic row"):
            ns.check_glue_independence(n_lattice, rows)


def test_glue_independence(conics, n_lattice):
    assert ns.check_glue_independence(n_lattice, conics)
    assert ns.check_glue_independence(n_lattice, conics[399:])


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


@pytest.mark.parametrize(
    "call, args",
    [
        (ns.classes_of, ([[4.5, 2], [2, -2]], (1, 0), -2, 2)),
        (ns.classes_of, ([[4, 2], [2, -2]], (1.5, 0), -2, 2)),
        (ns.bad_vector_scan, ([[4, 0], [0, -2.5]], (1, 0))),
        (ns.bad_vector_scan, ([[4, 0], [0, -2]], (1.9, 0))),
    ],
    ids=["classes-gram", "classes-h", "scan-gram", "scan-h"],
)
def test_scans_refuse_non_integral_input(call, args):
    """The Gram and h are read with operator.index: a float entry is
    refused, not truncated into an integral lattice with witnesses."""
    with pytest.raises(TypeError):
        call(*args)


@pytest.mark.parametrize(
    "gram", [[[4, 0, 7], [0, -2, 7]], [[4, 1], [0, -2]]], ids=["2x3", "asymmetric"]
)
def test_scans_refuse_a_misshapen_gram(gram):
    """The Gram is read through exact.copy_square: a 2 x 3 Gram was read
    as its left 2 x 2 block, and classes_of found (0, +-1) in it."""
    with pytest.raises(ValueError):
        ns.classes_of(gram, (1, 0), -2, 0)
    with pytest.raises(ValueError):
        ns.bad_vector_scan(gram, (1, 0))


def test_scan_rejects_wrong_polarization_norm():
    with pytest.raises(ConstructionError):
        ns.bad_vector_scan([[2, 0], [0, -2]], (1, 0))
    with pytest.raises(ConstructionError):
        ns.classes_of([[2, 0], [0, -2]], (1, 0), -2, 2)
    # An h of the wrong length is refused, not truncated or padded.
    with pytest.raises(ConstructionError):
        ns.classes_of([[4, 2], [2, -2]], (1, 0, 0), -2, 2)
    with pytest.raises(ConstructionError):
        ns.bad_vector_scan([[4, 0], [0, -2]], (1,))


def test_build_vtilde_checks(lam):
    vt = ns.build_vtilde(lam)
    assert vt.rank == 5
    assert vt.gram_int() == [list(r) for r in census.SEED_GRAM]
    # (4, 4, 0, ..., 0) is not in 8Z^24
    with pytest.raises(ConstructionError, match="seed row"):
        ns.build_vtilde(IntegralLattice([[8 * x for x in row] for row in exact.identity(24)], 8))
