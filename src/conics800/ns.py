"""Construction of the polarized rank-20 lattice carrying the 800 classes.

Pipeline: inside the 24-dimensional even unimodular lattice, the five
seed generators span a rank-5 sublattice Vt containing the degree
vector hbar. S is the orthogonal complement of hbar's complement in Vt,
a positive-definite rank-20 lattice containing hbar and all 800 conic
vectors. The target lattice N is the index-2 extension of
M = (-(hbar-perp in S)) + Zh, h*h = 4, glued by c0 = l0 - hbar/2 + h/2;
each conic l then gives a class c(l) with c*c = -2 and c*h = 2. N lies
in M/2, so each of its vectors is a doubled ambient row in Z^24 + Zh:
N's basis is the HNF of such rows, and one exact solver over it places
h and every class.

Every class question in N (all e with given e*e and e*h) is one
short-vector walk of the positive-definite form Q(e) = (e*h)^2 - 2 e*e:
classes_of counts all conic classes, and bad_vector_scan answers both
bad-vector questions with a single walk.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .census import SEED_GRAM, SEED_ROWS
from .errors import ConstructionError
from .lattices import (
    FiniteQuadraticForm,
    IntegralLattice,
    discriminant_form,
    fqf_isomorphic,
    orthogonal_complement,
    short_vectors,
    verify_fqf_witness,
)

HBAR = SEED_ROWS[0]

# Transcendental side: diag(4, 40).
T_GRAM = ((4, 0), (0, 40))

# Expected block forms of the discriminant groups, as (block, ...) specs
# accepted by FiniteQuadraticForm.from_blocks.
_HALF = Fraction(1, 2)
BLOCKS_VT = (([[1, _HALF], [_HALF, 1]], 2), (8, Fraction(1, 8)), (5, Fraction(2, 5)))
BLOCKS_N_A = ((4, Fraction(5, 4)), (8, Fraction(1, 8)), (5, Fraction(2, 5)))
BLOCKS_N_B = ((4, Fraction(-1, 4)), (8, Fraction(-5, 8)), (5, Fraction(2, 5)))

# Hand-built negative controls for the bad-vector scans: in the first,
# (0,1) is a norm -2 vector orthogonal to h = (1,0); in the second,
# (0,1) is isotropic with e*h = 2.
PLANTED_KIND1 = ((4, 0), (0, -2))
PLANTED_KIND2 = ((4, 2), (2, 0))


@dataclass(frozen=True)
class PolarizedLattice:
    """Rank-20 lattice of signature (1,19) with polarization and classes.

    All coordinates refer to N's canonical basis hnf2, the 20 x 25 HNF
    of doubled ambient rows (see _glue); gram is the exact integer Gram.
    classes holds each conic class that lies in N, in conic order.
    w is the positive-definite W = hbar-perp in S the extension glues.
    """

    gram: np.ndarray
    h: np.ndarray
    classes: np.ndarray
    hnf2: np.ndarray
    w: IntegralLattice

    @property
    def rank(self) -> int:
        return len(self.gram)


def build_vtilde(leech: IntegralLattice) -> IntegralLattice:
    """The rank-5 seed sublattice of the ambient lattice."""
    for row in SEED_ROWS:
        if not leech.contains(list(row)):
            raise ConstructionError(f"seed row not in the ambient lattice: {row}")
    return IntegralLattice([list(r) for r in SEED_ROWS], ambient_scale=8)


def build_S(leech: IntegralLattice) -> IntegralLattice:
    """S, the complement in the ambient lattice of hbar's complement in
    the seed lattice.

    Nothing here is checked: the report's rows judge S's rank and that
    it holds hbar. S lies in the ambient lattice, so it is even when
    that is. A conic outside S has a class outside N, which the class
    rows catch.
    """
    vt = build_vtilde(leech)
    vbar = orthogonal_complement(IntegralLattice([list(HBAR)], 8), vt)
    return orthogonal_complement(vbar, leech)


def check_hbar_parity(s: IntegralLattice) -> bool:
    """True iff x.hbar is even for every basis vector x of s."""
    dots = exact.mat_vec_mul([list(r) for r in s.basis], list(HBAR))
    return all(d % (2 * s.ambient_scale) == 0 for d in dots)


def hbar_perp(s: IntegralLattice) -> IntegralLattice:
    """W = hbar-perp in S.

    S is the complement of hbar's complement in the seed lattice, and
    complements in the ambient lattice are saturated, so W is the full
    seed complement there.
    """
    return orthogonal_complement(IntegralLattice([list(HBAR)], 8), s)


def _doubled(conic) -> list[int]:
    """Doubled ambient row [2l - hbar | 1] of the class c = l - hbar/2 + h/2."""
    return [2 * int(x) - b for x, b in zip(conic, HBAR)] + [1]


def _glue(w: IntegralLattice, conic):
    """Index-2 extension N of (-W) + Zh glued by c0 = l - hbar/2 + h/2.

    w is hbar_perp's W. Returns (solver, gram): solver is the LeftSolver
    of the doubled ambient rows [2w | 0] of W's basis, [0 | 2] of h and
    _doubled(l) of c0, and its HNF solver.h is N's canonical basis; gram
    is N's integer Gram in it, and a non-integral one raises
    ConstructionError. Nothing else is checked, as the rows judge N: a
    glue row outside S gives a rank-21 N (N_rank), and discriminant_form
    checks N's evenness. The index is 2 when det N = -160 (N_det) and
    |det W| = 160 (the complement identity row): det((-W) + Zh) =
    -4 det W is the index squared times det N.
    """
    rows = [[2 * x for x in row] + [0] for row in w.basis]
    rows += [[0] * len(HBAR) + [2], _doubled(conic)]
    solver = exact.LeftSolver(rows)
    h2 = solver.h
    # [u | k].[u' | k'] = (scale k k' - u.u') / scale on doubled rows.
    scale = 4 * w.ambient_scale
    weighted = [[-x for x in row[:-1]] + [scale * row[-1]] for row in h2]
    scaled = exact.mat_mul(weighted, exact.transpose(h2))
    if any(x % scale for row in scaled for x in row):
        raise ConstructionError("extension Gram is non-integral")
    return solver, [[x // scale for x in row] for row in scaled]


def build_N(s: IntegralLattice, conics: np.ndarray) -> PolarizedLattice:
    """Index-2 extension of (-(hbar-perp in S)) + Zh glued by the first conic.

    The glue vector is c0 = l0 - hbar/2 + h/2 for l0 = conics[0], so
    conics must hold a row (ValueError otherwise). Raises otherwise only
    when N's Gram is not integral (see _glue); h's doubled row [0 | 2]
    is one of the rows whose HNF is N's basis, so h always lies in N. h
    is solved over that basis by _glue's solver, and every class at once
    by _place. A conic class outside N is left out of
    classes, so the report's class rows fail. N's rank, determinant,
    signature and class products are returned for the report to judge,
    whatever they are: a glue row outside S gives a rank-21 N.
    """
    if len(conics) < 1:
        raise ValueError("build_N needs a conic row to glue by")
    w = hbar_perp(s)
    solver, gram = _glue(w, conics[0])
    h_coords = solver.solve([0] * len(HBAR) + [2])
    classes = _place(solver.h, conics)

    return PolarizedLattice(
        gram=np.array(gram, dtype=np.int64),
        h=np.array(h_coords, dtype=np.int64),
        classes=classes,
        hnf2=np.array(solver.h, dtype=np.int64),
        w=w,
    )


def _placement_bound(hnf, entry_max: int) -> int:
    """A bound, in Python ints, on every int64 value _place forms from rows
    whose entries are at most entry_max in size. Pivot row i, with pivot
    p_i, takes q = floor(w_c / p_i), so |q| <= b // |p_i| + 1 while every
    entry is at most b, and then each entry grows by at most |q| times
    the row's largest entry."""
    bound = entry_max
    for row in hnf:
        pivot = next(x for x in row if x)
        bound += (bound // abs(pivot) + 1) * max(map(abs, row))
    return bound


def _place(hnf, conics: np.ndarray) -> np.ndarray:
    """The coordinates over hnf of the class of each conic whose doubled
    row [2l - hbar | 1] lies in the integer row span of hnf, in conic
    order: LeftSolver.solve over that HNF, for every row at once.

    The doubled rows are held by coordinate, one int64 array over the
    conics per column. One pass takes the pivot rows in order: q is the
    floor quotient at the pivot, and each nonzero entry of the pivot row
    takes q times itself off its own column. A row with a nonzero
    remainder at some pivot, or a nonzero entry left at the end, is not
    in the span and is left out, as solve returns None for it; on the
    other rows each step is solve's. Before the rows are formed,
    _placement_bound bounds every value from the rows' largest entry and
    must stay below 2^62 (ConstructionError otherwise), so none wraps.
    """
    entry_max = 2 * _abs_max(conics) + max(map(abs, HBAR))  # hbar != 0, so it is >= 1
    if _placement_bound(hnf, entry_max) >= 2**62:
        raise ConstructionError("entries too large for the int64 class placement")
    rest = np.ones((len(HBAR) + 1, len(conics)), dtype=np.int64)
    rest[:-1] = conics.T
    rest[:-1] *= 2
    rest[:-1] -= np.array(HBAR, dtype=np.int64)[:, None]
    coords = np.zeros((len(conics), len(hnf)), dtype=np.int64)
    kept = np.ones(len(conics), dtype=bool)
    for i, row in enumerate(hnf):
        c = next(j for j, x in enumerate(row) if x)
        coords[:, i], remainder = np.divmod(rest[c], row[c])
        kept &= remainder == 0
        for j in range(c, len(row)):
            if row[j]:
                rest[j] -= row[j] * coords[:, i]
    return coords[kept & ~rest.any(axis=0)]


def check_glue_independence(n: PolarizedLattice, conics: np.ndarray) -> bool:
    """Glue the extension of n's W by conics[1] instead of conics[0]; the
    canonical basis (hence the Gram) must come out identical. conics must
    hold two rows (ValueError otherwise)."""
    if len(conics) < 2:
        raise ValueError("check_glue_independence needs a second conic row to glue by")
    solver, gram = _glue(n.w, conics[1])
    return bool(np.array_equal(solver.h, n.hnf2) and np.array_equal(gram, n.gram))


def int64_product(*factors: np.ndarray) -> np.ndarray:
    """The product of int64 factors, left to right. Before each step a
    check in Python ints bounds its entries, |(A B)_ij| <= max|A| *
    max|B| * (inner length), and raises ConstructionError unless the
    bound is below 2^62, so no product wraps."""
    product, bound = factors[0], _abs_max(factors[0])
    for f in factors[1:]:
        bound *= _abs_max(f) * len(f)
        if bound >= 2**62:
            raise ConstructionError("entries too large for an int64 product")
        product = product @ f
    return product


def _abs_max(a: np.ndarray) -> int:
    return max(-int(a.min(initial=0)), int(a.max(initial=0)))


def check_h_parity(n: PolarizedLattice) -> bool:
    """True iff h.x is even for every basis vector x of N."""
    return not (int64_product(n.gram, n.h) % 2).any()


def verify_discriminants(n: PolarizedLattice) -> dict:
    """All discriminant-group isomorphisms, with re-verified witnesses.

    Compares: discr of the seed lattice against its 2+8+5 block form;
    discr N against both stated block forms; -discr N against discr of
    the transcendental model diag(4,40); and the complement identity
    discr(W) = -discr(seed) inside the unimodular ambient. Returns the
    group orders and, per comparison, whether an isomorphism was found
    and whether its witness re-verifies.
    """
    d_vt = discriminant_form([list(r) for r in SEED_GRAM])
    d_w = discriminant_form(n.w.gram_int())
    d_n = discriminant_form(n.gram.tolist())
    d_t = discriminant_form([list(r) for r in T_GRAM])

    report: dict = {"group_orders": {
        "seed": d_vt.group_order,
        "N": d_n.group_order,
        "T": d_t.group_order,
    }}

    pairs = {
        "seed_block_form": (d_vt, FiniteQuadraticForm.from_blocks(*BLOCKS_VT)),
        "N_block_form_a": (d_n, FiniteQuadraticForm.from_blocks(*BLOCKS_N_A)),
        "N_block_form_b": (d_n, FiniteQuadraticForm.from_blocks(*BLOCKS_N_B)),
        "neg_N_vs_T": (d_n.negate(), d_t),
        "complement_identity": (d_w, d_vt.negate()),
    }
    for name, (f1, f2) in pairs.items():
        ok, witness = fqf_isomorphic(f1, f2)
        report[name] = {"isomorphic": ok, "witness_ok": verify_fqf_witness(f1, f2, witness)}
    return report


def _q_walk(gram, h, target, degrees) -> dict[int, list[tuple[int, ...]]]:
    """For each e.h in degrees, every e with that e.h and with
    Q(e) = (e.h)^2 - 2 e.e equal to target, from one short-vector walk of
    Q (see classes_of). short_vectors returns exactly the e with
    e Q e' = target, and Q = g g' - 2G for g = G h gives e Q e' =
    (e.h)^2 - 2 e.e, so every returned e is a witness. The Gram is read
    through exact.copy_square and h with operator.index, so a non-integral
    entry raises TypeError, and a Gram that is not square and symmetric
    ValueError."""
    gram = exact.copy_square(gram, symmetric=True)
    h = [operator.index(x) for x in h]
    if len(h) != len(gram):
        raise ConstructionError("polarization h does not match the Gram matrix")
    gh = exact.mat_vec_mul(gram, h)
    if sum(a * b for a, b in zip(h, gh)) != 4:
        raise ConstructionError("polarization does not have h.h = 4")
    q = [[a * b - 2 * x for b, x in zip(gh, row)] for a, row in zip(gh, gram)]
    found: dict[int, list[tuple[int, ...]]] = {d: [] for d in degrees}
    for e in short_vectors(q, target):
        eh = sum(a * b for a, b in zip(e, gh))
        if eh in found:
            found[eh].append(tuple(e))
    return found


def classes_of(gram, h, norm, degree) -> list[tuple[int, ...]]:
    """All e with e.e = norm and e.h = degree, in the lattice's coordinates.

    Works on any integral lattice with h.h = 4 whose h-complement is
    negative definite. With g = G h, the form Q(e) = (e.h)^2 - 2 e.e has
    the integral Gram g g' - 2G. Writing e = (e.h/4) h + k with k in the
    rational h-complement gives Q(e) = (e.h)^2 / 2 - 2 k.k, so Q is
    positive definite exactly when the h-complement is negative definite.
    Every wanted e has Q(e) = degree^2 - 2 norm, so the answer is the
    rows of one walk of Q at that value with e.h = degree; Q then fixes
    e.e = norm.
    """
    return _q_walk(gram, h, degree * degree - 2 * norm, (degree,))[degree]


def bad_vector_scan(gram, h_coords):
    """classes_of for (e.e = -2, e.h = 0) and for (e.e = 0, e.h = 2).

    These are the bad classes of Saint-Donat's very-ampleness conditions
    for a degree-4 polarization; both lists are expected empty for the
    constructed lattice and non-empty for the planted controls. Both
    kinds have Q = 4, and Q >= (e.h)^2 / 2 leaves e.h in {0, +-1, +-2},
    so one walk answers both: e.h = 0 is kind 1, e.h = 2 is kind 2, and
    e.h = -2 (the negatives of kind 2) is dropped.

    For the constructed N both lists are also empty by an argument with
    no walk (Conway & Sloane, SPLAG, ch. 4 §11). Each e in N is a
    doubled row [u | k] with e.h = 2k and e.e = k^2 - u.u/32, and each
    basis row has u in the Leech lattice and u = k hbar mod 2 Leech. Kind
    1 has k = 0 and u.u = 64, so u/2 is a root of the Leech lattice,
    which has none. Kind 2 has k = 1 and u.u = 32, so u is a minimal
    vector in hbar's class mod 2 Leech; that class holds only +-hbar,
    and neither [+-hbar | 1] lies in N.
    """
    found = _q_walk(gram, h_coords, 4, (0, 2))
    return found[0], found[2]


def scan_N(n: PolarizedLattice):
    """Bad-vector scan of the constructed lattice."""
    return bad_vector_scan(n.gram.tolist(), n.h.tolist())
