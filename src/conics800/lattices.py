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

Short vectors of a positive-definite integer Gram come from exact
Fincke-Pohst walks over an LLL-reduced basis. Both walks share one
prologue (_prologue): the input checks, the content step, the integral
LLL of the Gram matrix, whose leading minors and Gram-Schmidt numerators
make every layer bound an integer comparison, and the int64 bound. Both
visit one row of each +-x pair, and both read their target with
operator.index. short_vectors lists rows: it walks the subtree of each
top level in turn, a level at a time, and maps the subtree's leaves back
onto its output list as soon as it reaches them. The counting walk
(_norm_walk) builds no row: it walks all subtrees together, a level at a
time, and merges the nodes whose subtrees must hold equally many leaves
of each norm: those with equal partial norms whose centres agree modulo
the shifts of the coordinates still to fill. A walk at T admits every
vector of norm at most T, so it counts its leaves by norm: norm_counts
returns the count of every norm from 0 to T.
"""

from __future__ import annotations

import math
import operator
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
    Raises ValueError unless ambient_scale is positive.
    """

    def __init__(self, basis, ambient_scale: int = 1):
        self.basis = exact.copy_matrix(basis)
        self.ambient_scale = operator.index(ambient_scale)
        if self.ambient_scale <= 0:
            raise ValueError("ambient_scale must be positive")
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
    """The saturated sublattice {x in ambient : x.s = 0 for all s in sub}.
    Raises ValueError unless both lie in the same Z^n."""
    if len({len(row) for row in sub.basis + ambient.basis}) > 1:
        raise ValueError("the lattices lie in different Z^n")
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


def discriminant_form(gram) -> FiniteQuadraticForm:
    """The finite quadratic form on dual/lattice of an even lattice,
    given by its integer Gram matrix G.

    With L G R = D (Smith form of G; only L is needed), the rows of L
    divided by the divisors generate the discriminant group: generator i
    is (row i of L)/d_i of order d_i, and q, b are evaluated through G.
    G is degenerate exactly when a divisor is 0. G is read through
    exact.copy_square, so an entry that is not an integer (a float or a
    Fraction, even 2.0) raises TypeError, and one that is not square
    and symmetric ValueError. Evenness and nondegeneracy are preconditions
    (VerificationError); verify_discriminants makes this N's one check.
    """
    g = exact.copy_square(gram, symmetric=True)
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
    """Do the image tuples generate `form`'s group? Exactly when they and
    the rows diag(orders) span Z^k: the first k rows of their HNF are I."""
    k = len(form.orders)
    diagonal = [[d if i == j else 0 for j in range(k)] for i, d in enumerate(form.orders)]
    return exact.hnf(diagonal + [list(x) for x in images])[:k] == exact.identity(k)


def fqf_isomorphic(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm):
    """(found, witness): witness maps each f1 generator to an f2 tuple.

    Pruned depth-first search over images: candidate images must match
    the generator's order and q value, pair correctly (b) with all
    previously placed images, and the full image set must generate f2.
    Images of the generators' orders make the map a homomorphism, and
    generating makes it onto; with equal group orders it is bijective.
    """
    if f1.group_order > FQF_ORDER_LIMIT or f2.group_order > FQF_ORDER_LIMIT:
        raise UnsupportedSizeError(
            f"fqf_isomorphic limited to order {FQF_ORDER_LIMIT}, "
            f"got {f1.group_order} and {f2.group_order}"
        )
    # Equal levels let numerators compare directly; the search decides the rest.
    if (f1.group_order, f1.level) != (f2.group_order, f2.level):
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


def _isqrt(r: np.ndarray) -> np.ndarray:
    """floor(sqrt(r)) for int64 0 <= r < 2^61, from the float64 root s.

    With k = isqrt(r), s is never below k, so one downward step is exact
    (Goldberg, ACM Computing Surveys 23(1), 1991): rounding is monotonic,
    so fl(r) >= fl(k^2) >= k^2 (1 - 2^-53) and sqrt(fl(r)) > k - ulp(k)/2,
    which rounds to at least k. (For k a power of two, k^2 is a double and
    fl(r) >= k^2 outright.) Likewise r < (k + 1)^2 keeps s <= k + 1.
    """
    s = np.sqrt(r.astype(np.float64)).astype(np.int64)
    s -= s * s > r
    return s


def _prologue(gram, target: int):
    """Check G and reduce it, for both walks: returns (c, walk), where c
    is the content of G, the gcd of its entries (1 for the zero or empty
    Gram). Both walks run on G' at T' = floor(target / c), so they admit
    every x with x' G x <= target.

    walk is None when there is nothing to walk (T' < 0, or n = 0), and
    otherwise (goal, h, d, lam, t_max): the target T', the unimodular LLL
    transform H, the leading minors and Gram-Schmidt numerators of G',
    and the bounds t_max[i] >= |t_i| on admitted nodes.

    ``exact.lll_gram`` of G/c gives H, G' = H (G/c) H', its leading
    minors d_i and Gram-Schmidt numerators lam. The x with x' G x = c a
    are x = y H with y' G' y = a. With t_i = d_{i+1} y_i + e_i and the
    centre e_i = sum_{j>i} lam[j][i] y_j, the integers A_n = 0,
    A_i = (d_i A_{i+1} + t_i^2) / d_{i+1} are d_i times the partial norm
    of levels >= i (a Schur-complement form), so y_i is admitted iff
    t_i^2 <= d_i (d_{i+1} T' - A_{i+1}), and a leaf's norm is A_0.
    Admitted nodes have t_i^2 <= d_i d_{i+1} T', which bounds every int64
    intermediate of the row walk before it starts (top < 2^62).
    G is copied once, through exact.copy_square, so an entry that is not
    an integer (a float or a Fraction, even 2.0) raises TypeError, and a
    matrix that is not square and symmetric ValueError. target is an int:
    each walk reads it with operator.index first.
    """
    g = exact.copy_square(gram, symmetric=True)
    n = len(g)
    content = math.gcd(*(x for row in g for x in row)) or 1
    goal = target // content
    if goal < 0 or n == 0:
        return content, None
    h, d, lam = exact.lll_gram([[x // content for x in row] for row in g])
    # |t_i| <= isqrt(d_i d_{i+1} T') bounds |e_i|, hence |y_i|, level by level.
    y_max, t_max, top = [0] * n, [0] * n, 0
    for i in range(n - 1, -1, -1):
        t_max[i] = math.isqrt(d[i] * d[i + 1] * goal)
        e_max = sum(abs(lam[j][i]) * y_max[j] for j in range(i + 1, n))
        y_max[i] = (t_max[i] + e_max) // d[i + 1]
        top = max(top, 2 * (t_max[i] + 1) ** 2, t_max[i] + e_max, d[i + 1])
    if top >= 2**62:
        raise ConstructionError("entries too large for the int64 walk")
    return content, (goal, h, d, lam, t_max)


def _children(goal, d, i, cent, above, root=False):
    """The admitted y_i of a block of nodes at level i: (reps, values,
    below), where child r has the parent reps[r], y_i = values[r] and
    A_i = below[r]. Node r holds its centre e_i in cent[r] and its A_{i+1}
    in above[r]. With root set, the last node is the zero prefix of top
    level i, whose y_i starts at 1: the walks visit one row of each +-y
    pair, the one whose last nonzero coordinate is positive."""
    t_top = _isqrt(d[i] * (d[i + 1] * goal - above))
    lo = -((t_top + cent) // d[i + 1])
    hi = (t_top - cent) // d[i + 1]
    if root:
        lo[-1] = max(lo[-1], 1)
    counts = np.maximum(hi - lo + 1, 0)
    reps = np.repeat(np.arange(len(counts)), counts)
    values = lo[reps] + np.arange(len(reps)) - np.repeat(np.cumsum(counts) - counts, counts)
    t = d[i + 1] * values + cent[reps]
    return reps, values, (d[i] * above[reps] + t * t) // d[i + 1]


def short_vectors(gram, norm_target) -> list[list[int]]:
    """All integer x with x' G x equal to norm_target.

    G must be a positive-definite integer Gram (NotPositiveDefiniteError
    otherwise), read by _prologue. norm_target is read with
    operator.index, so a target that is not an integer (a float or a
    Fraction, even 2.0) raises TypeError. Output is in the walk's
    deterministic order, not sorted: the walked rows mapped back in walk
    order, then their negatives in the same order, then the zero row if
    norm_target = 0.

    The walk visits only rows y whose last nonzero coordinate is positive:
    one subtree per top level k, from n - 1 down, each grown from the zero
    prefix with y_k >= 1. A subtree is walked a level at a time: each
    level's rows, y_i, ..., y_{n-1} with their A_i, are the children
    _children gives the level above, in order of parent and then y_i, and
    the walk stops at an empty level. So live memory is the output lists
    plus one level of the current root's subtree: no array of all leaves
    or of all mapped rows exists. The leaves with A_0 = T' are mapped
    back, x = y H in int64, and appended to the output, and their
    negatives to a second list, joined at the end. The map back is
    guarded in Python ints: |x_c| <= max|y| * sum_j |H_jc| must stay
    below 2^62.
    """
    target = operator.index(norm_target)
    content, walk = _prologue(gram, target)
    if target % content:
        return []
    if walk is None:  # target < 0, or n = 0, where only the empty x exists
        return [[]] if target == 0 else []
    goal, h, d, lam, _ = walk
    n = len(h)
    cols = [np.array([lam[j][i] for j in range(i + 1, n)], np.int64) for i in range(n)]
    h_sum = max(sum(abs(row[c]) for row in h) for c in range(n))
    h_arr = np.array(h, dtype=np.int64) if h_sum < 2**62 else None
    found: list[list[int]] = []
    negated: list[list[int]] = []
    for k in range(n - 1, -1, -1):
        # rows holds y_{i+1..n-1} at level i, and above their A_{i+1}.
        rows, above = np.zeros((1, n - 1 - k), np.int64), np.zeros(1, np.int64)
        for i in range(k, -1, -1):
            if not len(above):
                break
            reps, values, above = _children(goal, d, i, rows @ cols[i], above, root=i == k)
            rows = np.concatenate([values[:, None], rows[reps]], axis=1)
        rows = rows[above == goal]  # the leaves y
        if not len(rows):
            continue
        # y != 0, so max|y| >= 1: this also refuses h_sum >= 2^62 before h_arr is read.
        if int(np.abs(rows).max()) * h_sum >= 2**62:
            raise ConstructionError("short_vectors: entries too large for the int64 map back")
        rows = rows @ h_arr  # x = y H, rebound so that no root's arrays outlive it
        found.extend(rows.tolist())
        np.negative(rows, out=rows)  # -y maps to -x
        negated.extend(rows.tolist())
    found += negated
    if target == 0:
        found.append([0] * n)
    return found


def _reduction_bound(d, lam, t_max) -> int:
    """A bound, in Python ints, on every int64 value _norm_walk's
    reduction forms: the children's centres, the quotients times the
    rows r_l, and the differences.

    A parent at level i has 0 <= e_i < d_{i+1}, so its children have
    |y_i| <= t_max[i] // d_{i+1} + 1 and centres |e_j| < d_{j+1} +
    |lam[i][j]| |y_i|. Reducing e_l then takes q_l = floor(e_l / d_{l+1}),
    |q_l| <= |e_l| // d_{l+1} + 1, and adds at most |q_l lam[l][j]| to
    each |e_j| with j < l, while |q_l d_{l+1}| <= |e_l| + d_{l+1}.
    """
    bound = 0
    for i in range(len(t_max) - 1, 0, -1):
        b = [d[j + 1] + abs(lam[i][j]) * (t_max[i] // d[i + 1] + 1) for j in range(i)]
        for l in range(i - 1, -1, -1):
            q = b[l] // d[l + 1] + 1
            for j in range(l):
                b[j] += q * abs(lam[l][j])
            bound = max(bound, b[l] + d[l + 1])
    return bound


def norm_counts(gram, top) -> list[int]:
    """counts[t], the number of integer x with x' G x = t, for every t from
    0 to top: one merged walk at T' = floor(top / c), c the content of G,
    whose leaves are counted by norm; a norm that is not a multiple of c
    counts 0. top is read with operator.index, as short_vectors reads its
    target, so a non-integer raises TypeError; the Gram's checks and
    raises are short_vectors'.

    The walk at top builds every node of partial norm at most top, so a
    count at one large norm costs as much as counting every smaller one:
    on Z^2 at top = 10^10 its last level alone has about pi 10^10 / 2
    children, and it does not return within minutes.
    """
    top = operator.index(top)
    content, walk = _prologue(gram, top)
    if walk is None:  # top < 0, or n = 0, where only the empty x exists
        return [int(t == 0) for t in range(top + 1)]
    per = _norm_walk(walk)
    return [0 if t % content else per.get(t // content, 0) for t in range(top + 1)]


def _norm_walk(walk) -> dict[int, int]:
    """counts[a], the number of y with y' G' y = a, for each a from 0 to T'
    that has one.

    H is unimodular, so x = y H is a bijection and these are the counts
    of the x. The walk at T' admits every node whose partial norm is at
    most T', so its leaves are the y with y' G' y <= T', one of each +-y
    pair, each with its norm A_0. It walks one level at a time and merges
    the nodes whose subtrees must hold equally many leaves of each norm.
    A node at level i (y_{>i} filled) is a state: its partial centres
    e_0..e_i (the sums over the filled coordinates) and A_{i+1}. Shifting
    y_0..y_i by an integer vector z is a bijection on the node's subtree
    that keeps each leaf's norm and adds sum_l z_l r_l to the centres,
    where r_l[j] = lam[l][j] for j < l and r_l[l] = d_{l+1}. So the
    subtree's leaf counts depend only on the state with its centres
    reduced modulo the rows r_l, which is done top-down so that
    0 <= e_j < d_{j+1}. Each state carries an int64 weight, the number of
    y-prefixes that reach it: children get their parent's weight, and
    states equal after reduction merge, their weights adding. The roots
    are the zero prefixes of each top level k with y_k >= 1, as in the row
    walk, so counts[a] is 2 (total weight of the leaves with A_0 = a) for
    a > 0, and counts[0] = 1, the zero row. Live memory is one level's
    states and their children.

    Exactness: the reduction's int64 intermediates are bounded in Python
    ints before the walk (_reduction_bound, below 2^18 on the Leech Gram
    at norm 4), and must stay below 2^62. Above the leaves, a count is
    refused (ConstructionError) unless each level's path total, the
    weight its children carry, is below 2^63: that total is an exact
    Python-int sum over the level's parents, and every weight and every
    sum of merged weights is at most it, so none wraps. The leaves are
    summed by norm in Python ints.
    """
    goal, _, d, lam, t_max = walk
    n = len(d) - 1
    if _reduction_bound(d, lam, t_max) >= 2**62:
        raise ConstructionError("norm_counts: entries too large for the int64 reduction")
    # rows[l] = r_l, the change in e_0..e_l when y_l grows by one
    rows = [np.array(lam[l][:l] + [d[l + 1]], np.int64) for l in range(n)]
    cent = np.zeros((n, 0), np.int64)  # one column per state, e_0..e_i
    above = weight = np.zeros(0, np.int64)
    for i in range(n - 1, -1, -1):
        cent = np.concatenate([cent, np.zeros((i + 1, 1), np.int64)], axis=1)
        above, weight = np.append(above, 0), np.append(weight, 1)
        reps, values, below = _children(goal, d, i, cent[i], above, root=True)
        if i == 0:
            break
        counts = np.bincount(reps, minlength=len(weight))
        if sum(map(operator.mul, weight.tolist(), counts.tolist())) >= 2**63:
            raise ConstructionError("norm_counts: path count too large for int64 weights")
        child = np.take(cent[:i], reps, axis=1) + rows[i][:i, None] * values
        for l in range(i - 1, -1, -1):
            child[: l + 1] -= rows[l][:, None] * (child[l] // d[l + 1])
        # Merge equal states: sort their key columns, then sum each run's weights.
        keys = np.concatenate([child, below[None]])
        order = np.lexsort(keys)
        keys = keys[:, order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
        first = np.flatnonzero(new)
        cent, above = keys[:i, first], keys[i, first]
        weight = np.add.reduceat(weight[reps[order]], first)
    weights = weight.tolist()
    counts = {0: 1}
    for a in np.unique(below).tolist():
        leaves = np.bincount(reps[below == a], minlength=len(weights))
        counts[a] = 2 * sum(map(operator.mul, weights, leaves.tolist()))
    return counts
