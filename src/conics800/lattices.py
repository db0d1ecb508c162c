"""Integral lattices, discriminant forms, and short-vector enumeration.

An IntegralLattice is a list of independent integer basis rows in an
ambient Z^n carrying the form x.y / ambient_scale (scale 8 for the
Leech coordinates). It builds the row HNF of its basis once, as an
exact solver; its rank check, membership and canonical basis all read
that one HNF, in Python ints. Everything else here reads an integer
Gram matrix.
Discriminant groups come out of the Smith normal form of the Gram
matrix; finite quadratic forms are integer numerators over the level
(the exponent of the group), so q, b and every comparison of them are
plain ints. Forms are compared by a pruned search over generator
images, and the returned witness is re-verified exhaustively.

Short vectors of a positive-definite integer Gram come from one exact
Fincke-Pohst walk over an LLL-reduced basis (_half_walk): the integral
LLL of the Gram matrix yields the leading minors and Gram-Schmidt
numerators that make every layer bound an integer comparison, and the
walk visits one row of each +-x pair. The tree is walked depth-first
over bounded blocks, each expanded a level at a time, and yields each
block of leaves as soon as it reaches it, so the walk itself holds one
block per level of the current path. It has two consumers:
short_vectors maps each block back onto its output list, and
count_vectors only counts the leaves, building no row at all.
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

    `solver` holds the basis's HNF `solver.h` and solves over it.
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
    dots = exact.mat_mul(ambient.basis, exact.transpose(sub.basis))
    kernel = exact.kernel_left(dots)
    basis = exact.mat_mul(kernel, ambient.basis)
    return IntegralLattice(basis, ambient.ambient_scale)


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """Finite quadratic form on a direct sum of cyclic groups, in integers.

    generator_orders need not form a divisor chain (block constructors
    produce e.g. orders (2,2,8,5)). With the level N = lcm(orders), q(g_i)
    is q[i]/N in Q/2Z and b(g_i, g_j) is b[i][j]/N in Q/Z, stored as
    numerators normalized to [0, 2N) and [0, N), with b[i][i] = q[i] mod N.
    """

    orders: tuple[int, ...]
    q: tuple[int, ...]
    b: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = len(self.orders)
        if len(self.q) != k or len(self.b) != k or any(len(r) != k for r in self.b):
            raise ConstructionError("form values do not match the number of generators")

    @property
    def group_order(self) -> int:
        return math.prod(self.orders)

    @property
    def level(self) -> int:
        return math.lcm(*self.orders)

    @staticmethod
    def from_values(orders, values) -> "FiniteQuadraticForm":
        """The form with q(g_i) = values[i][i] mod 2Z and b(g_i, g_j) =
        values[i][j] mod Z, for a symmetric rational matrix of values.
        Raises ConstructionError unless every value lies in (1/level)Z."""
        level = math.lcm(*orders)
        nums = [[Fraction(v) * level for v in row] for row in values]
        if any(x.denominator != 1 for row in nums for x in row):
            raise ConstructionError(f"form values are not all in (1/{level})Z")
        b = tuple(tuple(int(x) % level for x in row) for row in nums)
        if any(row[j] != b[j][i] for i, row in enumerate(b) for j in range(i)):
            raise ConstructionError("form values are not symmetric mod Z")
        q = tuple(int(row[i]) % (2 * level) for i, row in enumerate(nums))
        return FiniteQuadraticForm(tuple(orders), q, b)

    @staticmethod
    def from_blocks(*blocks) -> "FiniteQuadraticForm":
        """Assemble a direct sum: each block is (n, q) cyclic or (gram, n) even.

        (n, q): Z/n generated by g with q(g) = q mod 2Z.
        (matrix, n): the form on (Z/n)^k with q on unit generators given
        by the matrix diagonal and b by the off-diagonal halves.
        """
        orders: list[int] = []
        values: list[list] = []
        for first, second in blocks:
            matrix, n = ([[second]], first) if isinstance(first, int) else (first, second)
            for row in values:
                row.extend([0] * len(matrix))
            values += [[0] * len(orders) + list(row) for row in matrix]
            orders += [n] * len(matrix)
        return FiniteQuadraticForm.from_values(orders, values)

    def negate(self) -> "FiniteQuadraticForm":
        n = self.level
        return FiniteQuadraticForm(
            self.orders,
            tuple(-x % (2 * n) for x in self.q),
            tuple(tuple(-x % n for x in row) for row in self.b),
        )

    # Elements are integer tuples modulo the generator orders.
    def elements(self):
        return product(*(range(d) for d in self.orders))

    def element_order(self, x) -> int:
        out = 1
        for xi, d in zip(x, self.orders):
            out = math.lcm(out, d // math.gcd(d, xi))
        return out

    def _pair(self, x, y) -> int:
        """x V y' for V with diagonal q and off-diagonal b: q(x) is
        _pair(x, x) mod 2N, and b(x, y) is _pair(x, y) mod N because
        b[i][i] = q[i] mod N."""
        return sum(
            xi * yj * (self.q[i] if i == j else self.b[i][j])
            for i, xi in enumerate(x) if xi
            for j, yj in enumerate(y) if yj
        )

    def q_of(self, x) -> int:
        """Numerator of q(x) over the level, in [0, 2N)."""
        return self._pair(x, x) % (2 * self.level)

    def b_of(self, x, y) -> int:
        """Numerator of b(x, y) over the level, in [0, N)."""
        return self._pair(x, y) % self.level

    def invariant_factors(self) -> tuple[int, ...]:
        return exact.invariant_factors(_diagonal(self.orders))


def _diagonal(orders) -> list[list[int]]:
    return [[d if i == j else 0 for j in range(len(orders))] for i, d in enumerate(orders)]


def discriminant_form(gram) -> FiniteQuadraticForm:
    """The finite quadratic form on dual/lattice of an even lattice,
    given by its integer Gram matrix G.

    With L G R = D (Smith form of G; only L is needed), the rows of L
    divided by the divisors generate the discriminant group: generator i
    is (row i of L)/d_i of order d_i, and q, b are evaluated through G.
    G is degenerate exactly when a divisor is 0.
    """
    g = [[int(x) for x in row] for row in gram]
    if g != [list(row) for row in gram]:
        raise VerificationError("Gram matrix is not integral")
    if not exact.is_symmetric(g):
        raise ConstructionError("Gram matrix must be symmetric")
    if any(g[i][i] % 2 for i in range(len(g))):
        raise VerificationError("discriminant_form requires an even lattice")
    divisors, left = exact.snf(g)
    if 0 in divisors:
        raise VerificationError("discriminant_form requires a nondegenerate lattice")
    gens = [(row, d) for row, d in zip(left, divisors) if d > 1]
    lg = exact.mat_mul([row for row, _ in gens], g)
    values = [
        [Fraction(sum(x * y for x, y in zip(lg[i], gj)), di * dj) for gj, dj in gens]
        for i, (_, di) in enumerate(gens)
    ]
    return FiniteQuadraticForm.from_values([d for _, d in gens], values)


FQF_ORDER_LIMIT = 10**4


def _subgroup_is_everything(form: FiniteQuadraticForm, images) -> bool:
    """Do the image tuples generate the whole group of `form`?"""
    return not exact.invariant_factors(_diagonal(form.orders) + [list(x) for x in images])


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
    # Equal invariant factors give equal levels, so numerators compare directly.
    if f1.invariant_factors() != f2.invariant_factors():
        return False, None
    # Bucket the elements of f2 by (order, q) once.
    buckets: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for x in f2.elements():
        buckets.setdefault((f2.element_order(x), f2.q_of(x)), []).append(x)
    images: list[tuple[int, ...]] = []

    def place(i: int) -> bool:
        if i == len(f1.orders):
            return _subgroup_is_everything(f2, images)
        key = (f1.orders[i], f1.q[i])
        for cand in buckets.get(key, ()):
            if all(f2.b_of(cand, images[j]) == f1.b[i][j] for j in range(i)):
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

    Checks that the map is a homomorphism (each image's order divides
    its generator's), bijective (equal group orders, images generate
    f2), and preserves q on every element of f1 (b follows by
    polarization). Equal groups have equal levels, so numerators compare.
    """
    if witness is None or len(witness) != len(f1.orders):
        return False
    if f1.group_order != f2.group_order:
        return False
    if any(d % f2.element_order(w) for d, w in zip(f1.orders, witness)):
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


def _half_walk(gram, norm_target):
    """Check G, reduce it, and start the walk: returns (zero, h, leaves).

    zero says whether T' = 0, so that the zero row is a solution; h is
    the unimodular LLL transform H (empty when nothing is walked); and
    leaves is a generator of the admitted leaf blocks of y, int64 arrays
    of at most _CHUNK rows in walk order, one row of each +-y pair.
    Every check runs before this returns, the walk only as leaves is
    consumed.

    The walk is exact, over an LLL-reduced basis: ``exact.lll_gram`` of
    G/c (c the gcd of G's entries) gives H, G' = H (G/c) H', its leading
    minors d_i and Gram-Schmidt numerators lam. The solutions are
    x = y H with y' G' y = T' = T / c, so there is none unless T' is an
    integer. With t_i = d_{i+1} y_i + sum_{j>i} lam[j][i] y_j, the
    integers A_n = 0, A_i = (d_i A_{i+1} + t_i^2) / d_{i+1} are d_i times
    the partial norm of levels >= i (a Schur-complement form), so y_i is
    admitted iff t_i^2 <= d_i (d_{i+1} T' - A_{i+1}) and a leaf is kept
    iff A_0 = T'. Admitted nodes have t_i^2 <= d_i d_{i+1} T', which
    bounds every int64 intermediate of the walk before it starts.

    The walk visits only rows whose last nonzero coordinate is positive
    (one subtree per top level k, from the zero prefix with y_k >= 1).
    It goes depth-first over blocks of at most _CHUNK frontier rows,
    each expanded one level at a time, and a row at level i stores only
    its n - i filled coordinates, so live memory is one block per level
    of the current path.
    """
    g = [[int(x) for x in row] for row in gram]
    if g != [list(row) for row in gram] or not exact.is_symmetric(g):
        raise ConstructionError("short_vectors requires a symmetric integer Gram matrix")
    n = len(g)
    content = math.gcd(*(x for row in g for x in row)) or 1
    goal, rest = divmod(Fraction(norm_target), content)
    if goal < 0 or rest or n == 0:
        return goal == 0 and not rest, [], iter(())
    h, d, lam = exact.lll_gram([[x // content for x in row] for row in g])
    # t_i = d_{i+1} y_i + e_i with e_i = y_{>i} . cols_i; |t_i| <= isqrt(d_i d_{i+1} T')
    # bounds |e_i|, hence |y_i|, level by level.
    y_max, top = [0] * n, 0
    for i in range(n - 1, -1, -1):
        t_max = math.isqrt(d[i] * d[i + 1] * goal)
        e_max = sum(abs(lam[j][i]) * y_max[j] for j in range(i + 1, n))
        y_max[i] = (t_max + e_max) // d[i + 1]
        top = max(top, 2 * (t_max + 1) ** 2, t_max + e_max, d[i + 1])
    if top >= 2**62:
        raise ConstructionError("short_vectors: entries too large for the int64 walk")
    cols = [np.array([lam[j][i] for j in range(i + 1, n)], np.int64) for i in range(n)]

    def expand(partial: np.ndarray, above: np.ndarray, i: int, lo_min=None):
        """Fill y_i for a block whose rows hold y_{i+1}, ..., y_{n-1} and A_{i+1}."""
        if i < 0:
            y = partial[above == goal]
            if len(y):
                yield y
            return
        e = partial @ cols[i]
        t_top = _isqrt(d[i] * (d[i + 1] * goal - above))
        lo = -((t_top + e) // d[i + 1])
        hi = (t_top - e) // d[i + 1]
        if lo_min is not None:
            lo = np.maximum(lo, lo_min)
        counts = np.maximum(hi - lo + 1, 0)
        reps = np.repeat(np.arange(len(partial)), counts)
        values = lo[reps] + np.arange(len(reps)) - np.repeat(np.cumsum(counts) - counts, counts)
        t = d[i + 1] * values + e[reps]
        below = (d[i] * above[reps] + t * t) // d[i + 1]
        child = np.empty((len(reps), n - i), dtype=np.int64)
        child[:, 0] = values
        child[:, 1:] = partial[reps]
        for start in range(0, len(child), _CHUNK):
            yield from expand(child[start : start + _CHUNK], below[start : start + _CHUNK], i - 1)

    def leaves():
        for k in range(n - 1, -1, -1):
            root = np.zeros((1, n - 1 - k), np.int64)
            yield from expand(root, np.zeros(1, np.int64), k, lo_min=1)

    return goal == 0, h, leaves()


def short_vectors(gram, norm_target) -> list[list[int]]:
    """All integer x with x' G x equal to norm_target.

    G must be a positive-definite integer Gram (NotPositiveDefiniteError
    otherwise). Output is in the walk's deterministic order, not sorted:
    the half walk's rows (see _half_walk) mapped back in walk order, then
    their negatives in the same order, then the zero row if T' = 0.
    Each block of leaves is mapped back, x = y H in int64, as soon as the
    walk reaches it and appended to the output list (its negatives to a
    second list, joined at the end), so live memory is the output list
    plus one block per level: no array of all leaves or of all mapped
    rows exists. The map back is guarded in Python ints: |x_c| <= max|y|
    * sum_j |H_jc| must stay below 2^62.
    """
    zero, h, leaves = _half_walk(gram, norm_target)
    # |x_c| <= max|y| * sum_j |H_jc|; bounded in Python ints before H enters int64.
    h_sum = max((sum(abs(row[c]) for row in h) for c in range(len(h))), default=0)
    h_arr = np.array(h, dtype=np.int64) if h_sum < 2**62 else None
    found: list[list[int]] = []
    negated: list[list[int]] = []
    for y in leaves:
        if h_arr is None or int(np.abs(y).max()) * h_sum >= 2**62:
            raise ConstructionError("short_vectors: entries too large for the int64 map back")
        x = y @ h_arr
        found.extend(x.tolist())
        negated.extend((-x).tolist())  # -y maps to -x
    found += negated
    if zero:
        found.append([0] * len(h))
    return found


def count_vectors(gram, norm_target) -> int:
    """The number of integer x with x' G x equal to norm_target, which is
    len(short_vectors(gram, norm_target)), with the same checks and raises.

    It counts the same half walk's leaves and builds no row: H is
    unimodular, so x = y H is a bijection and needs no map back. Each
    leaf stands for itself and its negative; the zero row adds one when
    T' = 0.
    """
    zero, _, leaves = _half_walk(gram, norm_target)
    return 2 * sum(len(y) for y in leaves) + zero
