"""Integral lattices, discriminant forms, and short-vector enumeration.

An IntegralLattice is a list of independent integer basis rows in an
ambient Z^n carrying the form x.y / ambient_scale (scale 8 for the
Leech coordinates, 1 for abstract lattices). Discriminant groups come
out of the Smith normal form of the Gram matrix; finite quadratic
forms are compared by a pruned search over generator images, and the
returned witness is re-verified exhaustively.

Short vectors use Fincke-Pohst: an exact rational Cholesky split gives
the layer bounds, the tree is expanded breadth-first in float64 with a
safety margin, and every surviving candidate is confirmed in exact
arithmetic before it is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import exact
from .errors import (
    ConstructionError,
    NotPositiveDefiniteError,
    UnsupportedSizeError,
    VerificationError,
)


def membership_mask(vectors: np.ndarray, hnf_rows: list[list[int]]) -> np.ndarray:
    """Boolean mask of rows lying in the integer row span of hnf_rows.

    hnf_rows must be reduced row-HNF (nonzero rows, positive pivots).
    int64 is safe: each reduction step at most doubles the running
    maximum entry, and the inputs here are tiny.
    """
    work = np.asarray(vectors, dtype=np.int64).copy()
    ok = np.ones(len(work), dtype=bool)
    for row in hnf_rows:
        c = next(j for j, v in enumerate(row) if v)
        q, r = np.divmod(work[:, c], row[c])
        ok &= r == 0
        work -= q[:, None] * np.array(row, dtype=np.int64)[None, :]
        work[~ok] = 0
    ok &= (work == 0).all(axis=1)
    return ok


class IntegralLattice:
    """A free Z-module of row vectors with form x.y / ambient_scale.

    Abstract lattices (known only through a Gram matrix) use from_gram,
    which takes the identity basis and pins the form explicitly.
    """

    def __init__(self, basis, ambient_scale: int = 1, gram_override=None):
        self.basis = [[int(x) for x in row] for row in basis]
        self.ambient_scale = int(ambient_scale)
        self._gram_override = gram_override
        if self.basis and exact.rank(self.basis) != len(self.basis):
            raise ConstructionError("lattice basis rows are dependent")

    @classmethod
    def from_gram(cls, gram) -> "IntegralLattice":
        g = [[Fraction(x) for x in row] for row in gram]
        if not exact.is_symmetric(g):
            raise ConstructionError("Gram matrix must be symmetric")
        return cls(exact.identity(len(g)), 1, gram_override=g)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return len(self.basis[0]) if self.basis else 0

    def gram(self) -> list[list[Fraction]]:
        if self._gram_override is not None:
            return [list(row) for row in self._gram_override]
        raw = exact.mat_mul(self.basis, exact.transpose(self.basis))
        return [[Fraction(x, self.ambient_scale) for x in row] for row in raw]

    def gram_int(self) -> list[list[int]]:
        g = self.gram()
        for row in g:
            for x in row:
                if x.denominator != 1:
                    raise VerificationError("Gram matrix is not integral")
        return [[int(x) for x in row] for row in g]

    def det(self) -> Fraction:
        return exact.det_exact(self.gram())

    def is_even(self) -> bool:
        g = self.gram()
        return all(
            x.denominator == 1 for row in g for x in row
        ) and all(g[i][i].numerator % 2 == 0 for i in range(self.rank))

    def contains(self, vector) -> bool:
        return exact.solve_left(self.basis, [int(x) for x in vector]) is not None

    def coordinates_of(self, vector):
        """Integer coordinates of an ambient vector over the basis, or None."""
        return exact.solve_left(self.basis, [int(x) for x in vector])

    def inner(self, x, y) -> Fraction:
        """Form value of two ambient vectors (coordinate vectors if abstract)."""
        if self._gram_override is not None:
            g = self._gram_override
            return sum(
                Fraction(x[i]) * g[i][j] * Fraction(y[j])
                for i in range(len(g))
                for j in range(len(g))
                if x[i] and y[j]
            ) + Fraction(0)
        return Fraction(sum(int(a) * int(b) for a, b in zip(x, y)), self.ambient_scale)


def orthogonal_complement(sub: IntegralLattice, ambient: IntegralLattice) -> IntegralLattice:
    """The saturated sublattice {x in ambient : x.s = 0 for all s in sub}."""
    if not sub.basis:
        return IntegralLattice(exact.copy_matrix(ambient.basis), ambient.ambient_scale)
    dots = exact.mat_mul(ambient.basis, exact.transpose(sub.basis))
    kernel = exact.kernel_left(dots)
    basis = exact.mat_mul(kernel, ambient.basis)
    return IntegralLattice(basis, ambient.ambient_scale)


def sublattice_orthogonal_to(lat: IntegralLattice, vector) -> IntegralLattice:
    """Saturated kernel of pairing against one ambient vector, inside lat."""
    dots = [[sum(int(a) * int(b) for a, b in zip(row, vector))] for row in lat.basis]
    kernel = exact.kernel_left(dots)
    return IntegralLattice(exact.mat_mul(kernel, lat.basis), lat.ambient_scale)


def _mod(x: Fraction, modulus: int) -> Fraction:
    r = x - (x / modulus).__floor__() * modulus
    return r


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """Finite quadratic form on a direct sum of cyclic groups.

    generator_orders need not form a divisor chain (block constructors
    produce e.g. orders (2,2,8,5)); q values live in Q/2Z normalized to
    [0,2), pairings b in Q/Z normalized to [0,1) with b(g,g) = q(g) mod Z.
    """

    orders: tuple[int, ...]
    q: tuple[Fraction, ...]
    b: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        k = len(self.orders)
        assert len(self.q) == k and len(self.b) == k and all(len(r) == k for r in self.b)

    @property
    def group_order(self) -> int:
        out = 1
        for d in self.orders:
            out *= d
        return out

    @staticmethod
    def from_blocks(*blocks) -> "FiniteQuadraticForm":
        """Assemble a direct sum: each block is (n, q) cyclic or (gram, n) even.

        (n, q): Z/n generated by g with q(g) = q mod 2Z.
        (matrix, n): the form on (Z/n)^k with q on unit generators given
        by the matrix diagonal and b by the off-diagonal halves.
        """
        orders: list[int] = []
        qs: list[Fraction] = []
        rows: list[list[Fraction]] = []

        def extend(new_orders, new_q, new_b):
            k = len(orders)
            for row in rows:
                row.extend([Fraction(0)] * len(new_orders))
            for i, _ in enumerate(new_orders):
                rows.append([Fraction(0)] * k + list(new_b[i]))
            orders.extend(new_orders)
            qs.extend(new_q)

        for block in blocks:
            first, second = block
            if isinstance(first, int):
                n, qv = first, Fraction(second)
                extend([n], [_mod(qv, 2)], [[_mod(qv, 1)]])
            else:
                matrix, n = first, second
                k = len(matrix)
                q_new = [_mod(Fraction(matrix[i][i]), 2) for i in range(k)]
                b_new = [[_mod(Fraction(matrix[i][j]), 1) for j in range(k)] for i in range(k)]
                extend([n] * k, q_new, b_new)
        return FiniteQuadraticForm(tuple(orders), tuple(qs), tuple(tuple(r) for r in rows))

    def negate(self) -> "FiniteQuadraticForm":
        return FiniteQuadraticForm(
            self.orders,
            tuple(_mod(-x, 2) for x in self.q),
            tuple(tuple(_mod(-x, 1) for x in row) for row in self.b),
        )

    def direct_sum(self, other: "FiniteQuadraticForm") -> "FiniteQuadraticForm":
        k, m = len(self.orders), len(other.orders)
        b = [[Fraction(0)] * (k + m) for _ in range(k + m)]
        for i in range(k):
            for j in range(k):
                b[i][j] = self.b[i][j]
        for i in range(m):
            for j in range(m):
                b[k + i][k + j] = other.b[i][j]
        return FiniteQuadraticForm(
            self.orders + other.orders, self.q + other.q, tuple(tuple(r) for r in b)
        )

    # Elements are integer tuples modulo the generator orders.
    def elements(self):
        return product(*(range(d) for d in self.orders))

    def element_order(self, x) -> int:
        out = 1
        for xi, d in zip(x, self.orders):
            out = math.lcm(out, d // math.gcd(d, xi))
        return out

    def q_of(self, x) -> Fraction:
        total = Fraction(0)
        k = len(self.orders)
        for i in range(k):
            if x[i]:
                total += x[i] * x[i] * self.q[i]
                for j in range(i + 1, k):
                    total += 2 * x[i] * x[j] * self.b[i][j]
        return _mod(total, 2)

    def b_of(self, x, y) -> Fraction:
        total = Fraction(0)
        k = len(self.orders)
        for i in range(k):
            if x[i]:
                for j in range(k):
                    if y[j]:
                        total += x[i] * y[j] * self.b[i][j]
        return _mod(total, 1)

    def invariant_factors(self) -> tuple[int, ...]:
        diag = [[self.orders[i] if i == j else 0 for j in range(len(self.orders))]
                for i in range(len(self.orders))]
        return tuple(d for d in exact.invariant_factors(diag) if d != 0) if self.orders else ()


def discriminant_form(lat: IntegralLattice) -> FiniteQuadraticForm:
    """The finite quadratic form on dual/lattice of an even lattice.

    With L G R = D (Smith form of the Gram), the rows of L divided by
    the divisors generate the discriminant group: generator i is
    (row i of L)/d_i of order d_i, and q, b are evaluated through G.
    """
    g = lat.gram_int()
    if not lat.is_even():
        raise VerificationError("discriminant_form requires an even lattice")
    if exact.det_bareiss(g) == 0:
        raise VerificationError("discriminant_form requires a nondegenerate lattice")
    divisors, left, _ = exact.snf(g)
    gens: list[list[Fraction]] = []
    orders: list[int] = []
    for i, d in enumerate(divisors):
        if d > 1:
            gens.append([Fraction(x, d) for x in left[i]])
            orders.append(d)
    k = len(gens)
    q = []
    b = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        gi_g = [sum(gens[i][t] * g[t][j] for t in range(len(g))) for j in range(len(g))]
        q.append(_mod(sum(x * y for x, y in zip(gi_g, gens[i])), 2))
        for j in range(k):
            b[i][j] = _mod(sum(x * y for x, y in zip(gi_g, gens[j])), 1)
    return FiniteQuadraticForm(tuple(orders), tuple(q), tuple(tuple(r) for r in b))


FQF_ORDER_LIMIT = 10**4


def _subgroup_is_everything(form: FiniteQuadraticForm, images) -> bool:
    """Do the image tuples generate the whole group of `form`?"""
    k = len(form.orders)
    rows = [[form.orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    rows += [list(x) for x in images]
    divisors, _, _ = exact.snf(rows)
    quotient = 1
    for d in divisors:
        quotient *= d if d else 1
    return quotient == 1


def fqf_isomorphic(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm):
    """(found, witness): witness maps each f1 generator to an f2 tuple.

    Pruned depth-first search over images: candidate images must match
    the generator's order and q value, pair correctly (b) with all
    previously placed images, and the full image set must generate f2.
    """
    if f1.group_order > FQF_ORDER_LIMIT or f2.group_order > FQF_ORDER_LIMIT:
        raise UnsupportedSizeError(
            f"fqf_isomorphic limited to order {FQF_ORDER_LIMIT}, "
            f"got {f1.group_order} and {f2.group_order}"
        )
    if f1.group_order != f2.group_order:
        return False, None
    if f1.invariant_factors() != f2.invariant_factors():
        return False, None
    # Bucket the elements of f2 by (order, q) once.
    buckets: dict[tuple[int, Fraction], list[tuple[int, ...]]] = {}
    for x in f2.elements():
        buckets.setdefault((f2.element_order(x), f2.q_of(x)), []).append(x)
    gens1 = [tuple(1 if j == i else 0 for j in range(len(f1.orders))) for i in range(len(f1.orders))]
    images: list[tuple[int, ...]] = []

    def place(i: int) -> bool:
        if i == len(gens1):
            return _subgroup_is_everything(f2, images)
        key = (f1.orders[i], f1.q[i])
        for cand in buckets.get(key, ()):
            if all(
                f2.b_of(cand, images[j]) == _mod(f1.b[i][j], 1) for j in range(i)
            ):
                images.append(cand)
                if place(i + 1):
                    return True
                images.pop()
        return False

    if place(0):
        return True, list(images)
    return False, None


def verify_fqf_witness(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm, witness) -> bool:
    """Exhaustively confirm the witness is a q-preserving isomorphism.

    Checks bijectivity through subgroup generation and q agreement on
    every element of f1 (b agreement follows by polarization).
    """
    if witness is None or len(witness) != len(f1.orders):
        return False
    if not _subgroup_is_everything(f2, witness):
        return False
    k2 = len(f2.orders)
    for x in f1.elements():
        img = tuple(
            sum(x[i] * witness[i][j] for i in range(len(x))) % f2.orders[j] for j in range(k2)
        )
        if f2.q_of(img) != f1.q_of(x):
            return False
    return True


def _cholesky_exact(g) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Diagonal d and unit upper triangular u with x'gx = sum d_i (x_i + sum_j>i u_ij x_j)^2."""
    n = len(g)
    a = [[Fraction(x) for x in row] for row in g]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise NotPositiveDefiniteError(f"pivot {i} is {d[i]}")
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for r in range(i + 1, n):
            for c in range(r, n):
                a[r][c] -= d[i] * u[i][r] * u[i][c]
                a[c][r] = a[r][c]
    return d, u


def short_vectors(gram, norm_target, coset_shift=None, mode: str = "exact") -> list[list[int]]:
    """All integer x with (x+shift)' G (x+shift) equal to (or at most) norm_target.

    G must be positive definite (int or Fraction entries). Fincke-Pohst
    layer bounds run in float64 with a padded radius; every candidate
    is re-verified exactly, so the floats only ever cost speed, never
    correctness. Output is lexicographically sorted. With a coset shift
    the returned rows are the integer parts x.
    """
    if mode not in ("exact", "atmost"):
        raise ValueError(f"unknown mode {mode!r}")
    n = len(gram)
    target = Fraction(norm_target)
    if target < 0:
        return []
    shift = [Fraction(x) for x in (coset_shift or [0] * n)]
    d_exact, u_exact = _cholesky_exact(gram)
    d = np.array([float(x) for x in d_exact])
    u = np.array([[float(x) for x in row] for row in u_exact])
    shift_f = np.array([float(x) for x in shift])
    pad = float(target) * 1e-9 + 1e-9
    budget = float(target) + pad

    # Level-BFS from the last coordinate upward; partial[:, i] holds x_i.
    partial = np.zeros((1, n), dtype=np.int64)
    remaining = np.array([budget])
    for i in range(n - 1, -1, -1):
        centers = partial[:, i + 1 :] @ u[i, i + 1 :] + (
            shift_f[i + 1 :] @ u[i, i + 1 :] if i + 1 < n else 0.0
        )
        centers = centers + shift_f[i]
        radius = np.sqrt(np.maximum(remaining, 0.0) / d[i])
        lo = np.ceil(-centers - radius - 1e-9).astype(np.int64)
        hi = np.floor(-centers + radius + 1e-9).astype(np.int64)
        counts = np.maximum(hi - lo + 1, 0)
        keep = counts > 0
        if not keep.any():
            return []
        partial, remaining = partial[keep], remaining[keep]
        lo, hi, counts, centers = lo[keep], hi[keep], counts[keep], centers[keep]
        reps = np.repeat(np.arange(len(partial)), counts)
        offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        values = lo[reps] + offsets
        new_partial = partial[reps]
        new_partial[:, i] = values
        used = d[i] * (values + centers[reps]) ** 2
        remaining = remaining[reps] - used
        ok = remaining >= -pad
        partial, remaining = new_partial[ok], remaining[ok]
        if len(partial) == 0:
            return []

    # Exact confirmation of every candidate: with y = denom*x + shift_num,
    # (x+shift)' G (x+shift) == target  <=>  y' (gden*G) y == target*denom^2*gden.
    out = []
    g_frac = [[Fraction(x) for x in row] for row in gram]
    denom = 1
    for s in shift:
        denom = denom * s.denominator // math.gcd(denom, s.denominator)
    gden = 1
    for row in g_frac:
        for x in row:
            gden = gden * x.denominator // math.gcd(gden, x.denominator)
    gi = np.array([[int(x * gden) for x in row] for row in g_frac], dtype=np.int64)
    shift_arr = np.array([int(s * denom) for s in shift], dtype=np.int64)
    target_scaled = target * denom * denom * gden
    y_bound = int(np.abs(partial).max(initial=0)) * denom + int(np.abs(shift_arr).max(initial=0))
    if n * n * int(np.abs(gi).max(initial=0)) * y_bound * y_bound >= 2**62:
        raise ConstructionError("short_vectors: entries too large for the int64 verifier")
    for start in range(0, len(partial), 1 << 20):
        block = partial[start : start + (1 << 20)]
        y = block * denom + shift_arr
        norms = np.einsum("ij,jk,ik->i", y, gi, y)
        if target_scaled.denominator == 1:
            if mode == "exact":
                good = norms == int(target_scaled)
            else:
                good = norms <= int(target_scaled)
        else:
            good = np.zeros(len(block), dtype=bool)
        out.extend(list(map(int, row)) for row in block[good])
    if mode == "atmost" and all(s == 0 for s in shift):
        out = [row for row in out if any(row)]
    return sorted(out)
