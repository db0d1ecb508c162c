"""Oracle tests for the exact integer linear algebra core.

Every nontrivial algorithm is checked against either a slower
independent implementation (cofactor determinants, box enumeration)
or against defining properties that determine the result uniquely
(HNF/SNF canonical forms, unimodular transforms).
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conics800 import exact
from conics800.errors import NotPositiveDefiniteError
from conics800.lattices import IntegralLattice


def _random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _det_cofactor(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det_cofactor(minor)
    return total


def _unimodular(rng, n, steps=12):
    u = exact.identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            exact._row_sub(u, i, j, rng.randint(-3, 3))
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        u[i], u[j] = u[j], u[i]
    return u


def _random_pd_gram(rng, n):
    """U B B' U' for a nonsingular integer B and a unimodular skew U."""
    while True:
        b = _random_matrix(rng, n, n, lo=-3, hi=3)
        if exact.det_bareiss(b):
            break
    u = _unimodular(rng, n)
    ub = exact.mat_mul(u, b)
    return exact.mat_mul(ub, exact.transpose(ub))


def _gram_schmidt_oracle(g):
    """Rational LDL': pivots p and mu with x'gx = sum_i p_i (x_i + sum_{k>i} mu[k][i] x_k)^2."""
    n = len(g)
    a = [[Fraction(x) for x in row] for row in g]
    pivots = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        pivots.append(a[i][i])
        for k in range(i + 1, n):
            mu[k][i] = a[i][k] / a[i][i]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] -= a[i][i] * mu[r][i] * mu[c][i]
    return pivots, mu


def _reduce(gram):
    """lll_gram's output with the reduced Gram h @ gram @ h.T in front."""
    h, d, lam = exact.lll_gram(gram)
    return exact.mat_mul(exact.mat_mul(h, gram), exact.transpose(h)), h, d, lam


def _assert_lll_reduced(gram):
    reduced, h, d, lam = _reduce(gram)
    n = len(gram)
    assert abs(exact.det_bareiss(h)) == 1
    # d and lam are the exact Gram-Schmidt data of the reduced Gram.
    assert d == [exact.det_bareiss([row[:i] for row in reduced[:i]]) for i in range(n + 1)]
    pivots, mu = _gram_schmidt_oracle(reduced)
    assert pivots == [Fraction(d[i + 1], d[i]) for i in range(n)]
    for k in range(n):
        for j in range(k):
            assert mu[k][j] == Fraction(lam[k][j], d[j + 1])
            assert 2 * abs(lam[k][j]) <= d[j + 1]
        if k:
            assert 100 * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) >= 99 * d[k] ** 2
    return reduced


def test_lll_gram_reduces_random_grams():
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randint(1, 7)
        gram = _random_pd_gram(rng, n)
        reduced = _assert_lll_reduced(gram)
        again, h, _, _ = _reduce(reduced)
        assert h == exact.identity(n) and again == reduced


def test_lll_gram_reduces_leech_gram(lam):
    gram = lam.gram_int()
    reduced = _assert_lll_reduced(gram)
    assert exact.det_bareiss(reduced) == exact.det_bareiss(gram) == 1
    assert exact.lll_gram(reduced)[0] == exact.identity(24)


def test_lll_gram_rejects_non_positive_definite(s_lattice, n_lattice):
    small = [[[1, 0], [0, -1]], [[1, 2], [2, 1]], [[1, 1], [1, 1]], [[0]], [[-2]]]
    rng = random.Random(89)
    for _ in range(40):
        n = rng.randint(1, 6)
        signs = [rng.choice((1, 1, -1, 0)) for _ in range(n)]
        signs[rng.randrange(n)] = rng.choice((-1, 0))
        diag = [[signs[i] * rng.randint(1, 6) if i == j else 0 for j in range(n)]
                for i in range(n)]
        u = _unimodular(rng, n)
        small.append(exact.mat_mul(exact.mat_mul(u, diag), exact.transpose(u)))
    # Rank 20: N is hyperbolic, -N has one negative direction, and S
    # pushed through a rank-19 map is positive semidefinite.
    n_gram = n_lattice.gram.tolist()
    s_gram = s_lattice.gram_int()
    fold = exact.identity(20)
    fold[19] = [1, 1] + [0] * 18
    folded = exact.mat_mul(exact.mat_mul(fold, s_gram), exact.transpose(fold))
    assert exact.signature(folded) == (19, 0, 1)
    for gram in small + [n_gram, [[-x for x in row] for row in n_gram], folded]:
        with pytest.raises(NotPositiveDefiniteError):
            exact.lll_gram(gram)
    _assert_lll_reduced(s_gram)


def test_det_bareiss_against_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, n)
        assert exact.det_bareiss(m) == _det_cofactor(m)


def test_hnf_canonical_under_unimodular_row_transforms():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = _random_matrix(rng, n, c)
        h1 = exact.hnf(m)
        u = _unimodular(rng, n)
        h2 = exact.hnf(exact.mat_mul(u, m))
        assert exact.nonzero_rows(h1) == exact.nonzero_rows(h2)


def test_hnf_transform_reproduces_hnf():
    """The H of the [M | I] elimination is the plain HNF, also when M is
    rank-deficient or has no columns, and U is unimodular with U M = H."""
    rng = random.Random(5)
    cases = [_random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(100)]
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(1, 3), rng.randint(1, 5))
        rows = m + [exact.mat_mul([[rng.randint(-3, 3) for _ in m]], m)[0]]
        rng.shuffle(rows)
        cases.append(rows)
    cases += [[[] for _ in range(n)] for n in (1, 2, 4)]
    deficient = 0
    for m in cases:
        h, u = exact.hnf(m, transform=True)
        assert exact.hnf(m) == h
        assert exact.mat_mul(u, m) == h
        assert abs(exact.det_bareiss(u)) == 1
        deficient += len(exact.nonzero_rows(h)) < len(m)
    assert deficient >= 60


def test_hnf_preserves_row_span():
    rng = random.Random(37)
    for _ in range(100):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h, u = exact.hnf(m, transform=True)
        assert exact.mat_mul(u, m) == h  # the rows of H lie in the span of M
        solver = exact.LeftSolver(exact.nonzero_rows(h))
        for row in m:
            assert solver.solve(row) is not None


def _maximal_minors_gcd(rows):
    return math.gcd(*(
        exact.det_bareiss([[row[j] for j in cols] for row in rows])
        for cols in combinations(range(len(rows[0])), len(rows))
    ))


def test_snf_defining_properties():
    """L is unimodular and L M = D Q, where Q's rows for the nonzero
    divisors have coprime maximal minors and the other rows of L M are
    zero. Such a Q extends to a unimodular matrix, so this is exactly
    L M R = diag(d) for some unimodular R. Diagonal inputs with negative
    and zero entries check that the first row pass leaves the divisors
    nonnegative with their zeros last."""
    rng = random.Random(59)
    cases = [_random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(200)]
    for _ in range(40):
        n, c = rng.randint(1, 5), rng.randint(1, 5)
        cases.append([[rng.randint(-6, 6) if i == j else 0 for j in range(c)] for i in range(n)])
    for m in cases:
        n, c = len(m), len(m[0])
        d, left = exact.snf(m)
        assert len(d) == min(n, c)
        assert len(left) == n and all(len(row) == n for row in left)
        assert abs(exact.det_bareiss(left)) == 1
        quotients = []
        for i, row in enumerate(exact.mat_mul(left, m)):
            di = d[i] if i < len(d) else 0
            if di == 0:
                assert not any(row)
            else:
                assert all(x % di == 0 for x in row)
                quotients.append([x // di for x in row])
        if quotients:
            assert _maximal_minors_gcd(quotients) == 1
        assert all(x >= 0 for x in d)
        for i in range(len(d) - 1):
            if d[i]:
                assert d[i + 1] % d[i] == 0
            else:
                assert d[i + 1] == 0


def test_snf_invariant_under_unimodular_transforms():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randint(2, 4)
        m = _random_matrix(rng, n, n)
        d1, _ = exact.snf(m)
        u = _unimodular(rng, n)
        v = _unimodular(rng, n)
        d2, _ = exact.snf(exact.mat_mul(exact.mat_mul(u, m), v))
        assert d1 == d2


def test_kernel_left_is_saturated_annihilator():
    """A full-rank saturated kernel basis that is its own HNF; with no
    columns, the kernel is everything."""
    rng = random.Random(67)
    cases = [_random_matrix(rng, rng.randint(2, 5), rng.randint(1, 4), lo=-4, hi=4)
             for _ in range(100)]
    cases.append([[] for _ in range(3)])
    for m in cases:
        k = exact.kernel_left(m)
        for row in k:
            assert all(x == 0 for x in exact.mat_mul([row], m)[0])
        assert len(k) == len(m) - exact.LeftSolver(m).rank
        if k:
            assert exact.nonzero_rows(exact.hnf(k)) == k
            d, _ = exact.snf(k)
            assert all(x == 1 for x in d[: len(k)])
    assert exact.kernel_left(cases[-1]) == exact.identity(3)


def _in_span(m, v):
    """Membership oracle: the HNF is canonical, so v lies in the row span
    of m iff adding it leaves the HNF's nonzero rows unchanged."""
    return exact.nonzero_rows(exact.hnf(m + [v])) == exact.nonzero_rows(exact.hnf(m))


def test_solve_left_roundtrip_and_unsolvable():
    rng = random.Random(71)
    for _ in range(100):
        n = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = _random_matrix(rng, n, c)
        x = [rng.randint(-5, 5) for _ in range(n)]
        v = exact.mat_mul([x], m)[0]
        solver = exact.LeftSolver(m)
        got = solver.solve(v)
        assert got is not None
        assert exact.mat_mul([got], solver.h)[0] == v
        assert solver.contains(v)
    assert exact.LeftSolver([[2, 0], [0, 2]]).solve([1, 0]) is None


def test_left_solver_solves_over_its_hnf():
    rng = random.Random(73)
    m = _random_matrix(rng, 4, 5)
    solver = exact.LeftSolver(m)
    assert solver.h == exact.hnf(m)
    for _ in range(50):
        x = [rng.randint(-5, 5) for _ in range(4)]
        v = exact.mat_mul([x], m)[0]
        a = solver.solve(v)
        assert exact.mat_mul([a], solver.h)[0] == v
        assert solver.contains(v)
    # Rank 4 in Z^5: most random right-hand sides lie outside the span.
    outside = 0
    for _ in range(50):
        v = [rng.randint(-5, 5) for _ in range(5)]
        a = solver.solve(v)
        assert solver.contains(v) == (a is not None) == _in_span(m, v)
        if a is not None:
            assert exact.mat_mul([a], solver.h)[0] == v
        outside += a is None
    assert outside


def test_left_solver_on_an_hnf_matrix():
    """A full-row-rank matrix that is its own HNF is solved in its own
    coordinates. They are unique, so they must be the ones the right-hand
    side was built from; a scrambled (non-HNF) basis of the same span has
    the same HNF, hence gives the same coordinates."""
    rng = random.Random(79)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = exact.nonzero_rows(exact.hnf(_random_matrix(rng, n, n + rng.randint(0, 2))))
        u = _unimodular(rng, len(m))
        scrambled = exact.LeftSolver(exact.mat_mul(u, m))
        solver = exact.LeftSolver(m)
        assert solver.h == scrambled.h == m
        for _ in range(10):
            x = [rng.randint(-5, 5) for _ in range(len(m))]
            v = exact.mat_mul([x], m)[0]
            assert solver.solve(v) == x == scrambled.solve(v)
    assert exact.LeftSolver([[2, 0], [0, 2]]).solve([1, 0]) is None


def test_adjugate_against_cofactor_oracle():
    rng = random.Random(83)
    singular = 0
    cases = [_random_matrix(rng, n, n, lo=-3, hi=3) for n in [1, 2, 3, 4, 5] * 40]
    # 4I - J has a vanishing leading 4 x 4 minor, so it needs a row swap.
    cases.append([[4 * (i == j) - 1 for j in range(8)] for i in range(8)])
    for m in cases:
        n = len(m)
        det = _det_cofactor(m)
        if det == 0:
            singular += 1
            with pytest.raises(ArithmeticError):
                exact.adjugate(m)
            continue
        d, adj = exact.adjugate(m)
        assert d == det
        assert exact.mat_mul(adj, m) == [[det * (i == j) for j in range(n)] for i in range(n)]
        if n <= 5:
            for i in range(n):
                for j in range(n):
                    minor = [row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j]
                    assert adj[i][j] == (-1) ** (i + j) * (_det_cofactor(minor) if minor else 1)
    assert singular


def test_signature_against_constructed_inertia():
    rng = random.Random(79)
    for _ in range(80):
        n = rng.randint(1, 5)
        signs = [rng.choice((1, -1, 0)) for _ in range(n)]
        diag = [[signs[i] * rng.randint(1, 6) if i == j else 0 for j in range(n)]
                for i in range(n)]
        u = _unimodular(rng, n)
        m = exact.mat_mul(exact.mat_mul(u, diag), exact.transpose(u))
        pos, neg, zero = exact.signature(m)
        assert pos == sum(1 for s in signs if s > 0)
        assert neg == sum(1 for s in signs if s < 0)
        assert zero == sum(1 for s in signs if s == 0)
    # Zero diagonals: a hyperbolic plane, a 3x3 form with no nonzero
    # diagonal entry to swap in (so it folds), and singular forms with
    # and without a fold (eigenvalues +-sqrt 2, 0 for the last).
    assert exact.signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert exact.signature([[0, 2, 1], [2, 0, 3], [1, 3, 0]]) == (1, 2, 0)
    assert exact.signature([[1, 1, 0], [1, 1, 0], [0, 0, 0]]) == (1, 0, 2)
    assert exact.signature([[0, 1, 1], [1, 0, 0], [1, 0, 0]]) == (1, 1, 1)


def test_snf_stops_after_its_pass_limit(monkeypatch):
    """An hnf that returns its input never diagonalizes [[1, 1], [0, 1]]:
    snf raises after 200 passes instead of looping."""

    def stuck(rows, transform=False):
        rows = exact.copy_matrix(rows)
        return (rows, exact.identity(len(rows))) if transform else rows

    monkeypatch.setattr(exact, "hnf", stuck)
    with pytest.raises(ArithmeticError, match="did not converge"):
        exact.snf([[1, 1], [0, 1]])


def test_snf_divisors_keep_units():
    assert exact.snf([[2, 0], [0, 3]])[0] == [1, 6]
    assert exact.snf(exact.identity(2))[0] == [1, 1]


def test_hnf_contract_example():
    h = exact.nonzero_rows(exact.hnf([[2, 4], [4, 2]]))
    assert h == [[2, 4], [0, 6]]


def test_snf_contract_example():
    seed = [[4, 2, 0, 0, 0], [2, 4, 2, 0, 1], [0, 2, 4, 2, -1],
            [0, 0, 2, 4, 0], [0, 1, -1, 0, 4]]
    d, _ = exact.snf(seed)
    assert d == [1, 1, 2, 2, 40]
    assert exact.det_bareiss(seed) == 160


def test_non_integer_entries_are_refused():
    """Entries are converted with operator.index, not int(): int() would
    read det [[1.5]] as 1, the signature of [[0.5]] as (0, 0, 1), the
    lattice row [0.5, 1] as [0, 1], and the Gram of [[4, 0]] over the
    ambient scale 8.5 as [[2]]. numpy integers still pass."""
    assert exact.det_bareiss([[np.int64(3), np.int8(1)], [1, 1]]) == 2
    assert IntegralLattice(np.array([[2, 1]], dtype=np.int8)).basis == [[2, 1]]
    assert IntegralLattice([[4, 0]], ambient_scale=np.int64(2)).gram_int() == [[8]]
    for bad in (1.5, 0.5, 2.0, Fraction(1, 2), Fraction(2)):
        calls = [
            lambda: exact.copy_matrix([[bad]]),
            lambda: exact.det_bareiss([[bad]]),
            lambda: exact.signature([[bad]]),
            lambda: exact.hnf([[bad, 1]]),
            lambda: exact.hnf([[bad, 1]], transform=True),
            lambda: exact.adjugate([[bad]]),
            lambda: exact.LeftSolver([[1, 0]]).solve([bad, 0]),
            lambda: IntegralLattice([[bad, 1]]),
            lambda: IntegralLattice([[4, 0]], ambient_scale=bad),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()
