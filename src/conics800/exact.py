"""Exact integer matrix algebra.

Everything here runs on Python's arbitrary-precision ints: Hermite
normal forms, where one elimination of the augmented rows ``[M | I]``
also yields the unimodular transform and the canonical left kernel;
the Smith normal form's divisors and left transform, which only the
discriminant-group generators read; determinants and adjugates from
one fraction-free Gauss-Jordan elimination; integer linear solves over
an HNF without zero rows; LLL reduction of positive-definite Gram
matrices (integral, so it also yields exact Gram-Schmidt data); and
exact signatures of symmetric forms by a symmetric fraction-free
elimination. Intermediate entries of the normal-form algorithms
routinely exceed machine words even for small inputs, so none of this
goes through numpy.

Matrices are plain lists of rows; rows are lists of ``int``. All
functions leave their inputs untouched, reading them through copy_matrix,
whose ``operator.index`` refuses a float or a Fraction rather than truncate it,
and which refuses a ragged matrix. The determinant, adjugate, signature
and LLL read theirs through copy_square, which refuses a matrix that is
not square, or for the last two not symmetric, with ValueError.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

from .errors import NotPositiveDefiniteError

IntMatrix = list[list[int]]


def copy_matrix(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Copy to plain Python ints (numpy scalars would wrap silently).
    Raises ValueError if the rows differ in length."""
    out = [[index(x) for x in row] for row in m]
    if any(len(row) != len(out[0]) for row in out):
        raise ValueError("matrix rows differ in length")
    return out


def copy_square(m: Sequence[Sequence[int]], symmetric: bool = False) -> IntMatrix:
    """copy_matrix of a square matrix, or of a symmetric one when asked.
    Raises ValueError otherwise."""
    out = copy_matrix(m)
    if out and len(out[0]) != len(out):
        raise ValueError("matrix is not square")
    if symmetric and any(out[i][j] != out[j][i] for i in range(len(out)) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    return out


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec_mul(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _row_sub(m, i, k, q) -> None:
    """row_i -= q * row_k, in place."""
    if q:
        ri, rk = m[i], m[k]
        for j in range(len(ri)):
            ri[j] -= q * rk[j]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = x*a + y*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _merge_row(pivots: dict, v: list[int]) -> None:
    """Fold row v into a pivot structure {col: row}, in place.

    The pivot rows stay a (not necessarily above-reduced) echelon set;
    a v that reduces to zero leaves no trace. Folding one row at a time
    against rows that are re-reduced between top-level calls keeps
    intermediate entries small; that is the whole point versus
    column-at-a-time elimination, which blows up.
    """
    n = len(v)
    c = 0
    while True:
        while c < n and v[c] == 0:
            c += 1
        if c == n:
            return
        if c not in pivots:
            pivots[c] = v if v[c] > 0 else [-a for a in v]
            return
        prow = pivots[c]
        p = prow[c]
        q, rem = divmod(v[c], p)
        if rem == 0:
            for j in range(c, n):
                v[j] -= q * prow[j]
        else:
            g, x, y = _xgcd(p, v[c])
            fp, fv = p // g, v[c] // g
            pivots[c] = [x * a + y * b for a, b in zip(prow, v)]
            v = [fp * b - fv * a for a, b in zip(prow, v)]


def _reduce_above(pivots: dict) -> None:
    """Reduce entries above every pivot into [0, pivot)."""
    cols = sorted(pivots)
    for idx, c in enumerate(cols):
        prow = pivots[c]
        p = prow[c]
        for jdx in range(idx):
            jrow = pivots[cols[jdx]]
            q = jrow[c] // p
            if q:
                for k in range(c, len(jrow)):
                    jrow[k] -= q * prow[k]


def hnf(rows: Sequence[Sequence[int]], transform: bool = False):
    """Row Hermite normal form.

    Returns ``H`` with pivot rows first (positive pivots, entries above a
    pivot reduced into ``[0, pivot)``) and zero rows at the bottom. With
    ``transform=True`` it eliminates the augmented rows ``[M | I]``
    instead (Cohen, GTM 138, 2.4) and splits the result into ``[H | U]``:
    ``U`` is unimodular with ``U @ M == H``, and the rows of ``U`` under
    the zero rows of ``H`` are the HNF basis of the left kernel of ``M``.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: dict = {}
    for i, v in enumerate(copy_matrix(rows)):
        if transform:
            v += [int(i == j) for j in range(m)]
        _merge_row(pivots, v)
        _reduce_above(pivots)
    out = [pivots[c] for c in sorted(pivots)]
    if transform:
        return [row[:n] for row in out], [row[n:] for row in out]
    return out + [[0] * n for _ in range(m - len(out))]


def nonzero_rows(m) -> IntMatrix:
    return [list(row) for row in m if any(row)]


def kernel_left(m) -> IntMatrix:
    """Basis of ``{x integer row : x @ m == 0}``, HNF-canonical.

    These are the rows of ``U`` under the zero rows of ``H`` in
    ``hnf(m, transform=True)``; the elimination of ``[M | I]`` leaves
    them in HNF already. The kernel of an integer matrix is saturated,
    so the returned basis spans a primitive sublattice of Z^rows.
    """
    h, u = hnf(m, transform=True)
    return [urow for hrow, urow in zip(h, u) if not any(hrow)]


class LeftSolver:
    """Reusable integer solver against the row HNF ``h`` of a fixed ``m``.

    ``h`` holds only the nonzero rows of ``hnf(m)``, computed once, so
    ``rank`` is its length. ``solve(v)`` is one reduction pass over it
    and returns the coordinates x with ``x @ h == v``, or None when v is
    not in the row span. When ``m`` is its own HNF, these are the
    coordinates over ``m`` itself. A v whose length is not the width of
    ``m`` raises ValueError; an ``m`` with no rows spans only the zero
    vector of any length.
    """

    def __init__(self, m):
        self._width = len(m[0]) if len(m) else None
        self.h = nonzero_rows(hnf(m))
        self._pivots = [next(j for j, x in enumerate(row) if x) for row in self.h]

    @property
    def rank(self) -> int:
        return len(self.h)

    def contains(self, v) -> bool:
        """Does v lie in the integer row span of m?"""
        return self.solve(v) is not None

    def solve(self, v):
        if self._width is not None and len(v) != self._width:
            raise ValueError(f"a vector of length {len(v)} against rows of length {self._width}")
        w = copy_matrix([v])[0]
        coeffs = [0] * len(self.h)
        for i, (row, c) in enumerate(zip(self.h, self._pivots)):
            if w[c] == 0:
                continue
            q, rem = divmod(w[c], row[c])
            if rem:
                return None
            coeffs[i] = q
            for j in range(c, len(w)):
                w[j] -= q * row[j]
        return None if any(w) else coeffs


def snf(m: Sequence[Sequence[int]]):
    """Smith normal form, left side: (divisors, L) with ``L`` unimodular
    and ``L @ M @ R`` diagonal for some unimodular ``R``.

    Divisors are nonnegative with d1 | d2 | ...; row i of ``L @ M`` is d_i
    times a row of a primitive set (zero when d_i = 0 or i >= len(d)).
    No caller reads R, so none is built. Diagonalizes by alternating row
    and column HNF passes, a row pass first (each keeps entries reduced,
    avoiding the coefficient blowup of naive scanning); only the row
    passes' transforms enter L. A pass leaves positive pivots at
    increasing positions and zero rows or columns last, so the diagonal
    it stops at is already nonnegative with its zeros last. Then repairs
    divisibility with the row half of a 2x2 unimodular block.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = copy_matrix(m)
    left = identity(rows)

    def is_diagonal():
        return all(
            a[i][j] == 0 for i in range(rows) for j in range(cols) if i != j
        )

    for _ in range(200):
        a, u = hnf(a, transform=True)
        left = mat_mul(u, left)
        if is_diagonal():
            break
        a = transpose(hnf(transpose(a)))
        if is_diagonal():
            break
    else:
        raise ArithmeticError("Smith normal form did not converge")

    # Enforce d_i | d_j for i < j: fold row j into row i, and the column
    # block [[x, -dj/g], [y, di/g]] would leave [[g, 0], [y dj, di dj/g]];
    # clearing (j, i) is a row operation again.
    k = min(rows, cols)
    changed = True
    while changed:
        changed = False
        for i in range(k):
            for j in range(i + 1, k):
                di, dj = a[i][i], a[j][j]
                if di and dj % di:
                    g, x, y = _xgcd(di, dj)
                    _row_sub(left, i, j, -1)  # row i += row j
                    _row_sub(left, j, i, y * dj // g)  # clear the (j, i) remnant
                    a[i][i], a[j][j] = g, di // g * dj
                    changed = True
    divisors = [a[i][i] for i in range(k)]
    return divisors, left


def _bareiss_jordan(a: IntMatrix, n: int) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) of the first n columns of the n rows a, in place. After step k
    every entry is a (k+1) x (k+1) minor, so each division is exact.
    Returns (sign, d): d I is left in the first n columns, d is the
    determinant of the row-swapped square part (0 when it is singular,
    1 when n = 0), and sign is that of the row swaps.
    """
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return sign, 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        rk = a[k]
        p = rk[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], rk)]
        prev = p
    return sign, prev


def det_bareiss(m: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant of a square integer matrix: 0 when it is
    singular, 1 for the 0 x 0 matrix."""
    sign, d = _bareiss_jordan(copy_square(m), len(m))
    return sign * d


def adjugate(m: Sequence[Sequence[int]]) -> tuple[int, IntMatrix]:
    """``(det m, adj m)`` of a nonsingular square integer matrix, so
    ``adj m @ m == det m * I``.

    _bareiss_jordan on ``[m | I]`` leaves ``[d I | d m^-1]`` up to the
    row swaps' sign. Raises ArithmeticError when m is singular.
    """
    n = len(m)
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(copy_square(m))]
    sign, d = _bareiss_jordan(a, n)
    if d == 0:
        raise ArithmeticError("adjugate of a singular matrix")
    return sign * d, [[sign * x for x in row[n:]] for row in a]


def signature(gram) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric matrix, exactly.

    Symmetric fraction-free elimination: a congruence diagonalization
    whose trailing block is kept as prev times the rational Schur
    complement, prev being the last pivot, so each division by it is
    exact (Bareiss, Math. Comp. 22, 1968). A zero diagonal entry is
    swapped, rows and columns together, with a later nonzero one in its
    column, or its row and column are folded into those of a later
    entry; a zero row of the trailing block counts as zero. Pivot p
    stands for the diagonal entry p / prev, positive when p * prev > 0.
    """
    n = len(gram)
    a = copy_square(gram, symmetric=True)
    pos = neg = zero = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0 and a[j][k] != 0), None)
            if swap is None:
                other = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if other is None:
                    zero += 1
                    continue
                # a[other][other] is 0 too, so the folded pivot is 2 a[other][k].
                for j in range(k, n):
                    a[k][j] += a[other][j]
                for i in range(k, n):
                    a[i][k] += a[i][other]
            else:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
        rk = a[k]
        p = rk[k]
        if p * prev > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k]
            a[i][k + 1:] = [(p * x - f * y) // prev for x, y in zip(a[i][k + 1:], rk[k + 1:])]
        prev = p
    return pos, neg, zero


def lll_gram(gram: Sequence[Sequence[int]]):
    """Integral LLL reduction of a positive-definite Gram matrix, delta = 99/100.

    Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 2.6.7
    (Lenstra, Lenstra & Lovasz 1982), run on the Gram matrix alone.
    Returns ``(h, d, lam)``: ``h`` is unimodular and the reduced Gram is
    ``G' = h @ gram @ h.T``; ``d[i]`` is the leading i x i minor of G'
    (``d[0] = 1``); and for ``j < i``, ``lam[i][j] / d[j + 1]`` is the
    Gram-Schmidt coefficient mu_ij of the reduced basis, whose squared
    Gram-Schmidt norms are ``d[i + 1] / d[i]``. So
    ``x' G' x = sum_i d[i+1]/d[i] * (x_i + sum_{k>i} mu_ki x_k)^2``.

    Every division below is exact. Raises NotPositiveDefiniteError when a
    computed minor is not positive, which by Sylvester's criterion
    happens exactly when the form is not positive definite.
    """
    g = copy_square(gram, symmetric=True)
    n = len(g)
    h = identity(n)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def add_row(k):
        # Row k is still e_k, so b_k . b_j is (h_j @ g)[k].
        for j in range(k + 1):
            u = sum(x * g[m][k] for m, x in enumerate(h[j]) if x)
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u <= 0:
                raise NotPositiveDefiniteError(f"leading minor {k + 1} is {u}")
            else:
                d[k + 1] = u

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            _row_sub(h, k, l, q)
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        h[k - 1], h[k] = h[k], h[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        mu = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
            lam[i][k - 1] = (b * t + mu * lam[i][k]) // d[k + 1]
        d[k] = b

    if n:
        add_row(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            add_row(k)
        size_reduce(k, k - 1)
        # Lovasz: d_{k+1} d_{k-1} >= (99/100) d_k^2 - lam_{k,k-1}^2.
        if 100 * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < 99 * d[k] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return h, d, lam
