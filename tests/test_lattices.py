"""Tests for lattices, discriminant forms, and short-vector search."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conics800 import exact, lattices
from conics800.errors import (
    ConstructionError,
    NotPositiveDefiniteError,
    UnsupportedSizeError,
    VerificationError,
)
from conics800.lattices import (
    FiniteQuadraticForm,
    IntegralLattice,
    discriminant_form,
    fqf_isomorphic,
    norm_counts,
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
            assert norm_counts(gram, target)[target] == len(got)
        for walk in (short_vectors, norm_counts):
            with pytest.raises(TypeError):
                walk(gram, Fraction(1, 2))


def test_short_vectors_identity_contract():
    got = short_vectors([[1, 0], [0, 1]], 1)
    assert sorted(map(list, got)) == [[-1, 0], [0, -1], [0, 1], [1, 0]]
    assert short_vectors([[1, 0], [0, 1]], 3) == []
    for walk in (short_vectors, norm_counts):
        with pytest.raises(TypeError):
            walk([[1, 0], [0, 1]], Fraction(1, 2))
    # Rank 0: only the empty vector, of norm 0.
    assert short_vectors([], 0) == [[]]
    assert short_vectors([], 1) == []
    assert norm_counts([], 0)[0] == 1
    assert norm_counts([], 1)[1] == 0


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


def test_walk_int64_bound_on_both_sides():
    """diag(1, P) at norm 1: the walk's int64 bound on its intermediates
    lies between P = 2305843006213062000 and P + 1."""
    p = 2305843006213062000
    assert sorted(short_vectors([[1, 0], [0, p]], 1)) == [[-1, 0], [1, 0]]
    assert norm_counts([[1, 0], [0, p]], 1)[1] == 2
    for walk in (short_vectors, norm_counts):
        with pytest.raises(ConstructionError):
            walk([[1, 0], [0, p + 1]], 1)


def _theta_power(k, top):
    """The q^0..q^top coefficients of theta(q)^k, theta = sum_m q^(m^2),
    in Python ints: the counts of vectors of each norm in Z^k."""
    theta = [0] * (top + 1)
    for m in range(-math.isqrt(top), math.isqrt(top) + 1):
        theta[m * m] += 1
    out = [1] + [0] * top
    for _ in range(k):
        out = [sum(out[a] * theta[s - a] for a in range(s + 1)) for s in range(top + 1)]
    return out


def test_norm_counts_identity_theta_series():
    """norm_counts on Z^k at T reads the q^T coefficient of theta^k. On
    Z^24 the counts at T = 75 and 76 pass 2^63 and still come out exact, as the
    leaves are summed in Python ints; at T = 77 a level's path total
    passes 2^63 and the count is refused."""
    for k, targets in ((4, range(41)), (8, range(41)), (24, [*range(13), 50, 67, 75, 76])):
        series = _theta_power(k, max(targets))
        counts = [norm_counts(exact.identity(k), t)[t] for t in targets]
        assert counts == [series[t] for t in targets]
    assert _theta_power(24, 76)[76] >= 2**63
    with pytest.raises(ConstructionError):
        norm_counts(exact.identity(24), 77)


@pytest.mark.parametrize("bound, refused", [(2**62 - 1, False), (2**62, True)])
def test_norm_counts_reduction_guard(monkeypatch, bound, refused):
    """The reduction's int64 bound is refused from 2^62 on. No Gram found
    brings it near: on 300 random Grams of rank 2 to 14 it stayed below
    1e-4 of the walk bound that _prologue refuses first."""
    monkeypatch.setattr(lattices, "_reduction_bound", lambda d, lam, t_max: bound)
    if refused:
        with pytest.raises(ConstructionError):
            norm_counts(E8_CARTAN, 2)
    else:
        assert norm_counts(E8_CARTAN, 2)[2] == 240


def test_norm_counts_matches_short_vectors_on_random_grams():
    """norm_counts(g, t)[t] == norm_counts(g, 12)[t]: one walk at 12 gives
    every count from 0 to 12, and each is the number of short_vectors rows."""
    rng = random.Random(61)
    for _ in range(30):
        gram = _random_posdef(rng, rng.randint(4, 8))
        counts = norm_counts(gram, 12)
        for target in range(13):
            alone = norm_counts(gram, target)[target]
            assert alone == counts[target] == len(short_vectors(gram, target))


def test_norm_counts_contract():
    """Norms that are not multiples of the content count 0, the empty Gram
    has only the empty vector, a negative top lists nothing, and top must
    be an integer, as a list index would."""
    assert norm_counts([[2, 0], [0, 2]], 5) == [1, 0, 4, 0, 4, 0]
    assert norm_counts([[4]], 3) == [1, 0, 0, 0]
    assert norm_counts([], 2) == [1, 0, 0]
    assert norm_counts([[1]], -1) == []
    for top in (Fraction(4), 4.0):
        with pytest.raises(TypeError):
            norm_counts([[1]], top)


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
    assert [norm_counts(E8_CARTAN, t)[t] for t in (2, 4, 6, 8)] == [240, 2160, 6720, 17520]
    # E8+E8+E8 at rank 24: 3 * 240 roots, and 3 * 2160 + 3 * 240^2 norm-4 vectors.
    cubed = [[E8_CARTAN[i % 8][j % 8] if i // 8 == j // 8 else 0 for j in range(24)]
             for i in range(24)]
    assert [norm_counts(cubed, t)[t] for t in (2, 4)] == [720, 179280]


def test_short_vectors_e8_output_pinned():
    """The E8 rows at norms 2, 4, 6 and 8 in walk order, pinned byte for byte."""
    digests = [hashlib.sha256(np.array(rows, dtype=np.int64).tobytes()).hexdigest()
               for rows in _e8_outputs()]
    assert digests == [
        "7f20d1f32ec4908e6025b94ed9cfdcfa42753a3e12c524a08b166601256d2b3e",
        "a7609d3c337a006e2b338149cf8670d7d114f6b8a8bb1a482f80d7379527b80a",
        "2a63b2151074dda0966e31ac848646150f4df9da9ee00743aa586ac9f35a8e24",
        "ab1427693df6b7f6b8a34b83750d16595d002fa3e78dcc525a834c1214f46679",
    ]


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
        assert norm_counts(skewed, target)[target] == len(mapped)


def test_isqrt_exact_up_to_the_walk_bound():
    # Near 2^60 the float root of k^2 - 1 rounds up to k.
    ks = [0, 1, 2, 3, 1000, 2**30, 2**30 + 12345, math.isqrt(2**61 - 1)]
    r = [x for k in ks for x in (k * k - 1, k * k, k * k + 1, k * k + 2 * k) if 0 <= x < 2**61]
    r += random.Random(53).sample(range(2**61), 200)
    assert lattices._isqrt(np.array(r, dtype=np.int64)).tolist() == [math.isqrt(x) for x in r]


def test_short_vectors_rejects_indefinite():
    p = 2**27 + 1
    for walk in (short_vectors, norm_counts):
        with pytest.raises(NotPositiveDefiniteError):
            walk([[1, 0], [0, -1]], 2)
        with pytest.raises(TypeError):
            walk([[Fraction(1, 2), 0], [0, 1]], 2)
        with pytest.raises(ValueError):
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


# Lattices that cannot be built, whose Gram is not integral, or that are
# asked about a vector of the wrong length, and the error.
BAD_LATTICES = {
    "dependent": (lambda: IntegralLattice([[1, 0], [2, 0]]), ConstructionError, "dependent"),
    "not-integral": (
        lambda: IntegralLattice([[1, 0], [0, 1]], ambient_scale=2).gram_int(),
        VerificationError, "not integral",
    ),
    # scale 0 divided by zero, and scale -8 read [[4, 4]] as the Gram [[-4]]
    "scale-0": (lambda: IntegralLattice([[1, 0]], ambient_scale=0), ValueError, "positive"),
    "scale-negative": (
        lambda: IntegralLattice([[4, 4]], ambient_scale=-8), ValueError, "positive"
    ),
    # A longer zero vector read as a member, and any other wrong length
    # raised a bare IndexError.
    "contains-shorter": (
        lambda: IntegralLattice([[2, 0], [0, 2]]).contains([2]), ValueError, "length 1 against .* 2"
    ),
    "contains-longer": (
        lambda: IntegralLattice([[2, 0], [0, 2]]).contains([2, 0, 0]),
        ValueError, "length 3 against .* 2",
    ),
    "contains-longer-zero": (
        lambda: IntegralLattice([[2, 0], [0, 2]]).contains([0, 0, 0]),
        ValueError, "length 3 against .* 2",
    ),
}


@pytest.mark.parametrize("case", list(BAD_LATTICES))
def test_integral_lattice_refuses(case):
    build, error, message = BAD_LATTICES[case]
    with pytest.raises(error, match=message):
        build()


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


def test_fqf_search_refuses_an_order_over_its_limit():
    # Z/10007, a prime order just over 10^4
    f = FiniteQuadraticForm.from_blocks((10007, Fraction(2, 10007)))
    with pytest.raises(UnsupportedSizeError):
        fqf_isomorphic(f, f)


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
    with pytest.raises(ValueError):
        discriminant_form([[2, 1], [0, 2]])  # asymmetric
    with pytest.raises(TypeError):
        discriminant_form([[2, Fraction(1, 2)], [Fraction(1, 2), 2]])  # non-integral


A2 = [[2, 1], [1, 2]]

# Matrices no reader takes, and the error each raises: entries that are
# not integers, even where their values are, and a ragged row.
BAD_MATRICES = {
    "float": ([[2.0, 1], [1, 2]], TypeError),
    "float64": (np.array(A2, dtype=np.float64), TypeError),
    "fraction": ([[Fraction(2), 1], [1, 2]], TypeError),
    "half": ([[2.5, 1], [1, 2]], TypeError),
    "ragged": ([[2, 1], [1]], ValueError),
}

# Every reader of a Gram or a basis. orthogonal_complement reads the first
# row as the sublattice's basis and the rest as the ambient's, so the
# ragged matrix gives it two lattices in different Z^n.
MATRIX_READERS = {
    "short_vectors": lambda m: short_vectors(m, 2),
    "norm_counts": lambda m: norm_counts(m, 2),
    "discriminant_form": discriminant_form,
    "det_bareiss": exact.det_bareiss,
    "adjugate": exact.adjugate,
    "signature": exact.signature,
    "lll_gram": exact.lll_gram,
    "IntegralLattice": IntegralLattice,
    "orthogonal_complement": lambda m: orthogonal_complement(
        IntegralLattice(m[:1]), IntegralLattice(m[1:])
    ),
}

# Walk targets that are not integers, even where their values are.
BAD_TARGETS = {"target_fraction": Fraction(2), "target_float": 2.0, "target_half": Fraction(1, 2)}

# case id -> (reader, its arguments, the error it raises)
READ_CASES = {
    **{
        f"{name}-{kind}": (reader, (matrix,), error)
        for name, reader in MATRIX_READERS.items()
        for kind, (matrix, error) in BAD_MATRICES.items()
    },
    **{
        f"{walk.__name__}-{kind}": (walk, (A2, target), TypeError)
        for walk in (short_vectors, norm_counts)
        for kind, target in BAD_TARGETS.items()
    },
}


@pytest.mark.parametrize("case", list(READ_CASES))
def test_gram_readers_refuse_non_integer_entries(case):
    """Every Gram or basis reader reads through exact.copy_matrix: an entry
    that is not an integer is a TypeError, not a value cast to one, and a
    ragged matrix is a ValueError. Both walks read their target with
    operator.index, so a target that is not an integer is a TypeError."""
    reader, args, error = READ_CASES[case]
    with pytest.raises(error):
        reader(*args)


# Integer matrices of the wrong shape, and the error each reader of a
# square or a symmetric matrix raises on them: ValueError, from
# exact.copy_square, which every such reader reads through. A
# determinant and an adjugate need no symmetry, and a basis reader takes
# both matrices.
NON_SQUARE = [[1, 2, 3], [4, 5, 6]]
ASYMMETRIC = [[2, 1], [0, 2]]
SHAPE_ERRORS = {
    "det_bareiss": {"non-square": ValueError},
    "adjugate": {"non-square": ValueError},
    **{
        name: {"non-square": ValueError, "asymmetric": ValueError}
        for name in ("signature", "lll_gram", "short_vectors", "norm_counts", "discriminant_form")
    },
}
SHAPE_CASES = {
    f"{name}-{kind}": (name, {"non-square": NON_SQUARE, "asymmetric": ASYMMETRIC}[kind], error)
    for name, errors in SHAPE_ERRORS.items()
    for kind, error in errors.items()
}


@pytest.mark.parametrize("case", list(SHAPE_CASES))
def test_square_readers_refuse_misshapen_matrices(case):
    """Without a shape check the exact core reads part of what it is given:
    det_bareiss read [[1, 2, 3], [4, 5, 6]] as -3, and signature and
    lll_gram read one triangle of an asymmetric matrix."""
    name, matrix, error = SHAPE_CASES[case]
    with pytest.raises(error):
        MATRIX_READERS[name](matrix)


def test_gram_readers_take_numpy_integers():
    gram = np.array([[2, 1], [1, 2]], dtype=np.int64)
    assert len(short_vectors(gram, 2)) == norm_counts(gram, 2)[2] == 6
    assert discriminant_form(gram).group_order == exact.det_bareiss(gram) == 3
