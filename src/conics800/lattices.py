"""Integral lattices, discriminant forms, and short-vector enumeration.

An IntegralLattice is a list of independent integer basis rows in an
ambient Z^n carrying the form x.y / ambient_scale (scale 8 for the
Leech coordinates). It builds the row HNF of its basis once, as an
exact solver; its rank check, membership and canonical basis all read
that one HNF, in Python ints. Everything else here reads an integer
Gram matrix.
Discriminant groups come out of the Smith normal form of the Gram
matrix; finite quadratic forms are compared by a pruned search over
generator images, and the returned witness is re-verified exhaustively.

Short vectors come from an exact Fincke-Pohst walk over an LLL-reduced
basis: the integral LLL of the Gram matrix yields the leading minors and
Gram-Schmidt numerators that make every layer bound an integer
comparison. The tree is walked depth-first over bounded blocks, each
expanded a level at a time, so memory follows the block size and depth,
not the widest level.
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
    UnsupportedSizeError,
    VerificationError,
)


class IntegralLattice:
    """A free Z-module of integer row vectors with form x.y / ambient_scale.

    `solver` is the exact solver over the basis; `solver.h` is its HNF.
    """

    def __init__(self, basis, ambient_scale: int = 1):
        self.basis = [[int(x) for x in row] for row in basis]
        self.ambient_scale = int(ambient_scale)
        self.solver = exact.LeftSolver(self.basis)
        if self.solver.rank != len(self.basis):
            raise ConstructionError("lattice basis rows are dependent")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram_int(self) -> list[list[int]]:
        raw = exact.mat_mul(self.basis, exact.transpose(self.basis))
        if any(x % self.ambient_scale for row in raw for x in row):
            raise VerificationError("Gram matrix is not integral")
        return [[x // self.ambient_scale for x in row] for row in raw]

    def contains(self, vector) -> bool:
        return self.solver.contains(vector)


def orthogonal_complement(sub: IntegralLattice, ambient: IntegralLattice) -> IntegralLattice:
    """The saturated sublattice {x in ambient : x.s = 0 for all s in sub}."""
    if not sub.basis:
        return IntegralLattice(exact.copy_matrix(ambient.basis), ambient.ambient_scale)
    dots = exact.mat_mul(ambient.basis, exact.transpose(sub.basis))
    kernel = exact.kernel_left(dots)
    basis = exact.mat_mul(kernel, ambient.basis)
    return IntegralLattice(basis, ambient.ambient_scale)


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


def discriminant_form(gram) -> FiniteQuadraticForm:
    """The finite quadratic form on dual/lattice of an even lattice,
    given by its integer Gram matrix G.

    With L G R = D (Smith form of G), the rows of L divided by the
    divisors generate the discriminant group: generator i is
    (row i of L)/d_i of order d_i, and q, b are evaluated through G.
    """
    g = [[int(x) for x in row] for row in gram]
    if g != [list(row) for row in gram]:
        raise VerificationError("Gram matrix is not integral")
    if not exact.is_symmetric(g):
        raise ConstructionError("Gram matrix must be symmetric")
    if any(g[i][i] % 2 for i in range(len(g))):
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


# Frontier rows expanded together at one level of the Fincke-Pohst walk.
_CHUNK = 4096


def _isqrt(r: np.ndarray) -> np.ndarray:
    """floor(sqrt(r)) for int64 0 <= r < 2^61. The float64 root is then within
    2^-21 of the true one, so its floor is off by at most one each way."""
    s = np.sqrt(r.astype(np.float64)).astype(np.int64)
    s -= s * s > r
    s += (s + 1) * (s + 1) <= r
    return s


def short_vectors(gram, norm_target, coset_shift=None) -> list[list[int]]:
    """All integer x with (x+shift)' G (x+shift) equal to norm_target.

    G must be a positive-definite integer Gram (NotPositiveDefiniteError
    otherwise). Output is lexicographically sorted. With a (rational)
    coset shift the returned rows are the integer parts x.

    The walk is exact, over an LLL-reduced basis: ``exact.lll_gram`` of
    G/c (c the gcd of G's entries) gives a unimodular H, G' = H (G/c) H',
    its leading minors d_i and Gram-Schmidt numerators lam. With D the
    shift's denominator, z = D (y + s H^-1) is integral and needs
    z' G' z = T' = T D^2 / c, so there is no solution unless T' is an
    integer. With t_i = d_{i+1} z_i + sum_{j>i} lam[j][i] z_j, the
    integers A_n = 0, A_i = (d_i A_{i+1} + t_i^2) / d_{i+1} are d_i times
    the partial norm of levels >= i (a Schur-complement form), so y_i is
    admitted iff t_i^2 <= d_i (d_{i+1} T' - A_{i+1}) and a leaf is kept
    iff A_0 = T'; rows map back as x = y H. Admitted nodes have
    t_i^2 <= d_i d_{i+1} T', which bounds every int64 intermediate of
    the walk before it starts.

    Without a shift the walk visits only rows whose last nonzero
    coordinate is positive (one subtree per top level k, from the zero
    prefix with y_k >= 1), then adds their negatives and, if T' = 0, the
    zero row. It goes depth-first over blocks of at most _CHUNK frontier
    rows, each expanded one level at a time, and a row at level i stores
    only its n - i filled coordinates, so live memory follows the depth
    and block size, not the widest level of the tree.
    """
    g = [[int(x) for x in row] for row in gram]
    if g != [list(row) for row in gram] or not exact.is_symmetric(g):
        raise ConstructionError("short_vectors requires a symmetric integer Gram matrix")
    n = len(g)
    target = Fraction(norm_target)
    if target < 0:
        return []
    if n == 0:
        return [[]] if target == 0 else []
    shift = [Fraction(x) for x in (coset_shift or [0] * n)]
    denom = math.lcm(*(s.denominator for s in shift))
    shift_num = [int(s * denom) for s in shift]
    content = math.gcd(*(x for row in g for x in row)) or 1
    h, d, lam = exact.lll_gram([[x // content for x in row] for row in g])
    goal, rest = divmod(target * denom * denom, content)
    if rest:
        return []
    half = not any(shift_num)
    # x + s = (y + s H^-1) H, and H is unimodular, so r = denom * s H^-1 is integral.
    r = [0] * n if half else exact.solve_left(h, shift_num)
    # t_i = m_i y_i + e_i, where e_i = y_{>i} . cols_i + e0_i.
    m = [d[i + 1] * denom for i in range(n)]
    e0 = [d[i + 1] * r[i] + sum(lam[j][i] * r[j] for j in range(i + 1, n)) for i in range(n)]
    # |t_i| <= isqrt(d_i d_{i+1} T') bounds |e_i|, hence |y_i|, level by level.
    y_max, top = [0] * n, 0
    for i in range(n - 1, -1, -1):
        t_max = math.isqrt(d[i] * d[i + 1] * goal)
        e_max = abs(e0[i]) + denom * sum(abs(lam[j][i]) * y_max[j] for j in range(i + 1, n))
        y_max[i] = (t_max + e_max) // m[i]
        top = max(top, 2 * (t_max + 1) ** 2, t_max + e_max, m[i])
    if top >= 2**62:
        raise ConstructionError("short_vectors: entries too large for the int64 walk")
    cols = [np.array([denom * lam[j][i] for j in range(i + 1, n)], np.int64) for i in range(n)]
    leaves: list[np.ndarray] = []

    def expand(partial: np.ndarray, above: np.ndarray, i: int, lo_min=None) -> None:
        """Fill y_i for a block whose rows hold y_{i+1}, ..., y_{n-1} and A_{i+1}."""
        if i < 0:
            leaves.append(partial[above == goal])
            return
        e = partial @ cols[i] + e0[i]
        t_top = _isqrt(d[i] * (d[i + 1] * goal - above))
        lo = -((t_top + e) // m[i])
        hi = (t_top - e) // m[i]
        if lo_min is not None:
            lo = np.maximum(lo, lo_min)
        counts = np.maximum(hi - lo + 1, 0)
        reps = np.repeat(np.arange(len(partial)), counts)
        values = lo[reps] + np.arange(len(reps)) - np.repeat(np.cumsum(counts) - counts, counts)
        t = m[i] * values + e[reps]
        below = (d[i] * above[reps] + t * t) // d[i + 1]
        child = np.empty((len(reps), n - i), dtype=np.int64)
        child[:, 0] = values
        child[:, 1:] = partial[reps]
        for start in range(0, len(child), _CHUNK):
            expand(child[start : start + _CHUNK], below[start : start + _CHUNK], i - 1)

    if half:
        for k in range(n - 1, -1, -1):
            expand(np.zeros((1, n - 1 - k), np.int64), np.zeros(1, np.int64), k, lo_min=1)
    else:
        expand(np.zeros((1, 0), np.int64), np.zeros(1, np.int64), n - 1)
    found = np.concatenate(leaves) if leaves else np.zeros((0, n), dtype=np.int64)
    leaves.clear()  # frees the leaf blocks before the copies below
    if half:
        found = np.concatenate([found, -found, np.zeros((int(goal == 0), n), dtype=np.int64)])

    # Map back to the original coordinates, x = y H, in int64.
    h_arr = np.array(h, dtype=np.int64)
    if int(np.abs(found).max(initial=0)) * int(np.abs(h_arr).sum(axis=0).max(initial=0)) >= 2**62:
        raise ConstructionError("short_vectors: entries too large for the int64 map back")
    rows = found @ h_arr
    del found
    return rows[np.lexsort(rows.T[::-1])].tolist()
