"""Tests for lattices, discriminant forms, and short-vector search."""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conics800 import exact, lattices
from conics800.errors import ConstructionError, NotPositiveDefiniteError, VerificationError
from conics800.lattices import (
    FiniteQuadraticForm,
    IntegralLattice,
    count_vectors,
    discriminant_form,
    fqf_isomorphic,
    orthogonal_complement,
    short_vectors,
    verify_fqf_witness,
)


def _box_short_vectors(gram, targets, bound=8):
    """Oracle: one brute-force scan of an integer box, in Python ints,
    bucketing the vectors of each target norm, each bucket sorted."""
    n = len(gram)
    out = {target: [] for target in targets}
    for cand in product(range(-bound, bound + 1), repeat=n):
        norm = sum(cand[i] * gram[i][j] * cand[j] for i in range(n) for j in range(n))
        if norm in out:
            out[norm].append(list(cand))
    return {target: sorted(vs) for target, vs in out.items()}


def _random_posdef(rng, n):
    a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    m = exact.mat_mul(a, exact.transpose(a))
    for i in range(n):
        m[i][i] += rng.randint(1, 3)
    return m


def _scaled(gram, c):
    return [[c * x for x in row] for row in gram]


def test_short_vectors_against_box_oracle():
    rng = random.Random(17)
    grams = [_random_posdef(rng, rng.randint(1, 3)) for _ in range(40)]
    # Content 2 and 3: odd targets on 2G and targets 1, 2, 4 on 3G have no solution.
    scaled = [_scaled(gram, c) for c in (2, 3) for gram in grams]
    for gram in grams + [[[a]] for a in range(1, 6)] + scaled:
        box = _box_short_vectors(gram, (0, 1, 2, 3, 4))
        for target in (0, 1, 2, 3, 4):
            got = sorted(list(v) for v in short_vectors(gram, target))
            assert got == box[target]
            assert count_vectors(gram, target) == len(got)
        assert count_vectors(gram, Fraction(1, 2)) == len(short_vectors(gram, Fraction(1, 2)))


def test_short_vectors_identity_contract():
    got = short_vectors([[1, 0], [0, 1]], 1)
    assert sorted(map(list, got)) == [[-1, 0], [0, -1], [0, 1], [1, 0]]
    assert short_vectors([[1, 0], [0, 1]], 3) == []
    assert short_vectors([[1, 0], [0, 1]], Fraction(1, 2)) == []
    # Rank 0: only the empty vector, of norm 0.
    assert short_vectors([], 0) == [[]]
    assert short_vectors([], 1) == []
    assert count_vectors([], 0) == 1
    assert count_vectors([], 1) == 0


def test_short_vectors_map_back_guard_is_exact():
    """x' G x = (x0 + N x1)^2 + x1^2 = 1 has the solutions (+-1, 0) and
    (-+N, +-1): the map back reaches N, past int64 for N >= 2^63."""
    big = 2**40
    assert short_vectors([[1, big], [big, big * big + 1]], 1) == [
        [-big, 1], [1, 0], [big, -1], [-1, 0]
    ]
    for big in (2**63, 2**64):
        with pytest.raises(ConstructionError):
            short_vectors([[1, big], [big, big * big + 1]], 1)


# Cartan matrix of E8 (Bourbaki labels: chain 1-3-4-5-6-7-8, node 2 on 4).
E8_EDGES = {(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)}
E8_CARTAN = [
    [2 if i == j else -1 if (min(i, j), max(i, j)) in E8_EDGES else 0 for j in range(8)]
    for i in range(8)
]


def _e8_outputs():
    return [short_vectors(E8_CARTAN, t) for t in (2, 4, 6, 8)]


def test_short_vectors_e8_theta_counts():
    assert [len(rows) for rows in _e8_outputs()] == [240, 2160, 6720, 17520]
    assert [count_vectors(E8_CARTAN, t) for t in (2, 4, 6, 8)] == [240, 2160, 6720, 17520]
    # E8+E8+E8 at rank 24: 3 * 240 roots, and 3 * 2160 + 3 * 240^2 norm-4 vectors.
    cubed = [[E8_CARTAN[i % 8][j % 8] if i // 8 == j // 8 else 0 for j in range(24)]
             for i in range(24)]
    assert [count_vectors(cubed, t) for t in (2, 4)] == [720, 179280]


def test_short_vectors_rows_then_negatives():
    """The half-walk rows in walk order, then their negatives in the same order."""
    rows = short_vectors(E8_CARTAN, 2)
    half = len(rows) // 2
    assert all(rows[k + half] == [-x for x in rows[k]] for k in range(half))


def _random_unimodular(rng, n, steps=24):
    u = exact.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        exact._row_sub(u, i, j, rng.randint(-3, 3))
    return u


@pytest.mark.parametrize("seed", [41, 43, 47])
def test_short_vectors_unimodular_invariance(seed):
    """Solutions in the basis U B are x U^-1 for the solutions x in B."""
    u = _random_unimodular(random.Random(seed), 8)
    skewed = exact.mat_mul(exact.mat_mul(u, E8_CARTAN), exact.transpose(u))
    for target in (2, 4):
        mapped = sorted(exact.mat_mul([x], u)[0] for x in short_vectors(skewed, target))
        assert mapped == sorted(short_vectors(E8_CARTAN, target))
        assert count_vectors(skewed, target) == len(mapped)


@pytest.mark.parametrize("chunk", [1, 7])
def test_short_vectors_output_independent_of_chunk(monkeypatch, chunk):
    expected = _e8_outputs()
    monkeypatch.setattr(lattices, "_CHUNK", chunk)
    assert _e8_outputs() == expected


def test_isqrt_exact_up_to_the_walk_bound():
    # Near 2^60 the float root of k^2 - 1 rounds up to k.
    ks = [0, 1, 2, 3, 1000, 2**30, 2**30 + 12345, math.isqrt(2**61 - 1)]
    r = [x for k in ks for x in (k * k - 1, k * k, k * k + 1, k * k + 2 * k) if 0 <= x < 2**61]
    r += random.Random(53).sample(range(2**61), 200)
    assert lattices._isqrt(np.array(r, dtype=np.int64)).tolist() == [math.isqrt(x) for x in r]


def test_short_vectors_rejects_indefinite():
    p = 2**27 + 1
    for walk in (short_vectors, count_vectors):
        with pytest.raises(NotPositiveDefiniteError):
            walk([[1, 0], [0, -1]], 2)
        with pytest.raises(ConstructionError):
            walk([[Fraction(1, 2), 0], [0, 1]], 2)
        with pytest.raises(ConstructionError):
            walk([[2, 1], [0, 2]], 2)  # not symmetric
        # Leading minors near 2^81 exceed the int64 walk's bound.
        with pytest.raises(ConstructionError):
            walk([[p, 1], [1, p]], 2)


def test_integral_lattice_roundtrip():
    lat = IntegralLattice([[2, 0, 0], [0, 3, 0]], ambient_scale=1)
    assert lat.rank == 2
    assert lat.contains([2, 3, 0])
    assert not lat.contains([1, 0, 0])
    assert lat.solver.solve([4, 3, 0]) == [2, 1]
    assert lat.gram_int() == [[4, 0], [0, 9]]
    even = IntegralLattice([[2, 0], [0, 2]])
    cases = [[2, 2], [1, 0], np.array([4, -2]), (3, 3)]
    assert [even.contains(v) for v in cases] == [True, False, True, False]


def test_orthogonal_complement_properties():
    ambient = IntegralLattice(exact.identity(4))
    sub = IntegralLattice([[1, 1, 0, 0]])
    comp = orthogonal_complement(sub, ambient)
    assert comp.rank == 3
    for row in comp.basis:
        assert sum(a * b for a, b in zip(row, [1, 1, 0, 0])) == 0
    d, _ = exact.snf([list(r) for r in comp.basis])
    assert all(x == 1 for x in d[:3])
    # The empty sublattice: its complement is the ambient lattice itself.
    whole = orthogonal_complement(IntegralLattice([]), ambient)
    assert whole.basis == ambient.basis
    assert whole.ambient_scale == ambient.ambient_scale


def test_orthogonal_complement_of_one_vector():
    lat = IntegralLattice(exact.identity(3))
    sub = orthogonal_complement(IntegralLattice([[1, 1, 1]]), lat)
    assert sub.rank == 2
    for row in sub.basis:
        assert sum(row) == 0


def test_discriminant_form_order_equals_det():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 3)
        base = _random_posdef(rng, n)
        even = [[2 * x for x in row] for row in base]
        f = discriminant_form(even)
        assert f.group_order == abs(exact.det_bareiss(even))


def test_discriminant_polarization_identity():
    f = discriminant_form([[4, 2, 0, 0, 0], [2, 4, 2, 0, 1], [0, 2, 4, 2, -1],
                           [0, 0, 2, 4, 0], [0, 1, -1, 0, 4]])
    rng = random.Random(31)
    elems = list(f.elements())
    for _ in range(100):
        x = rng.choice(elems)
        y = rng.choice(elems)
        xy = tuple((a + b) % o for a, b, o in zip(x, y, f.orders))
        lhs = (f.q_of(xy) - f.q_of(x) - f.q_of(y)) % (2 * f.level)
        rhs = (2 * f.b_of(x, y)) % (2 * f.level)
        assert lhs == rhs


def test_fqf_blocks_match_diagonal_gram():
    f1 = discriminant_form([[8]])
    f2 = FiniteQuadraticForm.from_blocks((8, Fraction(1, 8)))
    ok, wit = fqf_isomorphic(f1, f2)
    assert ok and verify_fqf_witness(f1, f2, wit)


def test_fqf_reflexive_and_symmetric():
    f = discriminant_form([[4, 0], [0, 40]])
    ok, wit = fqf_isomorphic(f, f)
    assert ok and verify_fqf_witness(f, f, wit)
    g = FiniteQuadraticForm.from_blocks((4, Fraction(1, 4)), (40, Fraction(1, 40)))
    ok12, w12 = fqf_isomorphic(f, g)
    ok21, w21 = fqf_isomorphic(g, f)
    assert ok12 == ok21 is True
    assert verify_fqf_witness(f, g, w12) and verify_fqf_witness(g, f, w21)


def test_fqf_negative_pairs():
    f1 = FiniteQuadraticForm.from_blocks((8, Fraction(1, 8)))
    f2 = FiniteQuadraticForm.from_blocks((8, Fraction(-1, 8)))
    ok, _ = fqf_isomorphic(f1, f2)
    assert not ok
    f3 = FiniteQuadraticForm.from_blocks((3, Fraction(2, 3)))
    f4 = FiniteQuadraticForm.from_blocks((3, Fraction(4, 3)))
    ok2, _ = fqf_isomorphic(f3, f4)
    assert not ok2


def test_fqf_search_rejects_same_order_forms():
    """Z/4 + Z/2 + Z/2 and Z/4 + Z/4 share order 16 and level 4, so only
    the search tells them apart; Z/8 + Z/2 has order 16 but level 8."""
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    a = FiniteQuadraticForm.from_blocks((4, quarter), (2, half), (2, half))
    b = FiniteQuadraticForm.from_blocks((4, quarter), (4, quarter))
    assert (a.group_order, a.level) == (b.group_order, b.level) == (16, 4)
    assert fqf_isomorphic(a, b) == (False, None)
    assert fqf_isomorphic(b, a) == (False, None)
    c = FiniteQuadraticForm.from_blocks((8, Fraction(1, 8)), (2, half))
    assert (c.group_order, c.level) == (16, 8)
    assert fqf_isomorphic(c, b) == (False, None)


def test_fqf_negate_involution():
    f = FiniteQuadraticForm.from_blocks((4, Fraction(5, 4)), (5, Fraction(2, 5)))
    ok, wit = fqf_isomorphic(f.negate().negate(), f)
    assert ok and verify_fqf_witness(f.negate().negate(), f, wit)


def test_bad_witness_rejected():
    f = FiniteQuadraticForm.from_blocks((4, Fraction(1, 4)))
    assert verify_fqf_witness(f, f, [(2,)]) is False
    # On Z/8 with q(g) = 1/8, g -> 3g is an automorphism, but q(3g) = 9/8;
    # g -> 7g is one too, and q(7g) = 49/8 = 1/8 mod 2.
    z8 = FiniteQuadraticForm.from_blocks((8, Fraction(1, 8)))
    assert verify_fqf_witness(z8, z8, [(3,)]) is False
    assert verify_fqf_witness(z8, z8, [(7,)]) is True
    # Z/2 + Z/2 -> Z/4 sending the generators to 1 and 0: the images
    # generate, and every q numerator agrees (over levels 2 and 4), but
    # the map is no homomorphism.
    g = FiniteQuadraticForm.from_blocks((2, Fraction(1, 2)), (2, 0))
    assert [g.q_of(x) for x in g.elements()] == [0, 0, 1, 1]
    assert verify_fqf_witness(g, f, [(1,), (0,)]) is False
    assert fqf_isomorphic(g, f) == (False, None)
    # Z/4 + Z/2 -> Z/4 sending the generators to 1 and 2 is a surjective
    # homomorphism that preserves q (the form is pulled back along it),
    # but not injective.
    half = Fraction(1, 2)
    big = FiniteQuadraticForm.from_values([4, 2], [[Fraction(1, 4), half], [half, 1]])
    assert all(big.q_of(x) == f.q_of(((x[0] + 2 * x[1]) % 4,)) for x in big.elements())
    assert verify_fqf_witness(big, f, [(1,), (2,)]) is False


def test_form_rejects_invalid_input():
    with pytest.raises(ConstructionError):
        FiniteQuadraticForm.from_blocks((8, Fraction(1, 16)))  # not in (1/8)Z
    with pytest.raises(ConstructionError):
        FiniteQuadraticForm((2, 4), (1, 1), ((1, 0),))  # b has one row for two generators
    with pytest.raises(ConstructionError):
        FiniteQuadraticForm.from_blocks(([[0, Fraction(1, 2)], [0, 0]], 2))  # b not symmetric


def test_discriminant_form_preconditions():
    assert discriminant_form([[2, 1], [1, 2]]).group_order == 3
    with pytest.raises(VerificationError):
        discriminant_form([[1, 0], [0, 2]])  # odd diagonal
    with pytest.raises(VerificationError):
        discriminant_form([[2, 2], [2, 2]])  # singular
    with pytest.raises(ConstructionError):
        discriminant_form([[2, 1], [0, 2]])  # asymmetric
    with pytest.raises(VerificationError):
        discriminant_form([[2, Fraction(1, 2)], [Fraction(1, 2), 2]])  # non-integral
