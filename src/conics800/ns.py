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

Every class question in N (all e with given e*e and e*h) goes through
one coset scan, classes_of: the two bad-vector scans, and the count of
all conic classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .census import SEED_GRAM, SEED_ROWS
from .errors import ConstructionError, VerificationError
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

# det W for W = hbar-perp in S: hbar_perp checks it, _glue's index check reads it.
W_DET = 160

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


def build_S(leech: IntegralLattice, conics: np.ndarray) -> IntegralLattice:
    """Orthogonal complement construction of the rank-20 lattice S.

    Hard-errors unless S has rank 20, contains hbar and every conic,
    and is even.
    """
    vt = build_vtilde(leech)
    vbar = orthogonal_complement(IntegralLattice([list(HBAR)], 8), vt)
    if vbar.rank != 4:
        raise ConstructionError(f"hbar-complement in the seed lattice has rank {vbar.rank}")
    s = orthogonal_complement(vbar, leech)
    if s.rank != 20:
        raise ConstructionError(f"S has rank {s.rank}, expected 20")
    if not s.contains(list(HBAR)):
        raise ConstructionError("hbar does not lie in S")
    if not all(s.contains(row) for row in conics):
        raise ConstructionError("some conic vector does not lie in S")
    gram = s.gram_int()
    if any(gram[i][i] % 2 for i in range(len(gram))):
        raise VerificationError("S is not an even lattice")
    return s


def check_hbar_parity(s: IntegralLattice) -> bool:
    """True iff x.hbar is even for every basis vector x of s."""
    dots = exact.mat_vec_mul([list(r) for r in s.basis], list(HBAR))
    return all(d % (2 * s.ambient_scale) == 0 for d in dots)


def hbar_perp(s: IntegralLattice, leech: IntegralLattice) -> IntegralLattice:
    """W = hbar-perp in S; checked equal to the full seed complement."""
    w = orthogonal_complement(IntegralLattice([list(HBAR)], 8), s)
    if w.rank != 19:
        raise ConstructionError(f"hbar-perp in S has rank {w.rank}, expected 19")
    vt = build_vtilde(leech)
    vt_perp = orthogonal_complement(vt, leech)
    if w.solver.h != vt_perp.solver.h:
        raise VerificationError("hbar-perp in S differs from the seed-complement in the ambient")
    if exact.det_bareiss(w.gram_int()) != W_DET:
        raise VerificationError(f"hbar-perp in S does not have determinant {W_DET}")
    return w


def _doubled(conic) -> list[int]:
    """Doubled ambient row [2l - hbar | 1] of the class c = l - hbar/2 + h/2."""
    return [2 * int(x) - b for x, b in zip(conic, HBAR)] + [1]


def _glue(w: IntegralLattice, conic):
    """Index-2 extension N of (-W) + Zh glued by c0 = l - hbar/2 + h/2.

    w is hbar_perp's W, whose determinant W_DET that function checks.
    Returns (h2, gram): h2 is the HNF of the doubled ambient rows [2w | 0]
    of W's basis, [0 | 2] of h and _doubled(l) of c0, N's canonical
    basis; gram is N's integer Gram in it. Hard-errors on a defective
    basis, a non-integral or odd extension, or an index other than 2.
    """
    rows = [[2 * x for x in row] + [0] for row in w.basis]
    rows += [[0] * len(HBAR) + [2], _doubled(conic)]
    h2 = exact.nonzero_rows(exact.hnf(rows))
    if len(h2) != w.rank + 1:
        raise ConstructionError("extension basis is defective")

    # [u | k].[u' | k'] = (scale k k' - u.u') / scale on doubled rows.
    scale = 4 * w.ambient_scale
    weighted = [[-x for x in row[:-1]] + [scale * row[-1]] for row in h2]
    scaled = exact.mat_mul(weighted, exact.transpose(h2))
    if any(x % scale for row in scaled for x in row):
        raise ConstructionError("extension Gram is non-integral")
    gram = [[x // scale for x in row] for row in scaled]
    if any(gram[i][i] % 2 for i in range(len(gram))):
        raise VerificationError("extension lattice is not even")
    # det((-W) + Zh) = -4 det W is the index squared times det N.
    index_sq = Fraction(-4 * W_DET, exact.det_bareiss(gram))
    if index_sq != 4:
        raise VerificationError(f"extension index squared is {index_sq}, expected 4")
    return h2, gram


def build_N(s: IntegralLattice, leech: IntegralLattice, conics: np.ndarray) -> PolarizedLattice:
    """Index-2 extension of (-(hbar-perp in S)) + Zh glued by the first conic.

    The glue vector is c0 = l0 - hbar/2 + h/2 for l0 = conics[0].
    Hard-errors when the extension cannot be built exactly (see _glue)
    or when a conic class escapes it; h's doubled row [0 | 2] is one of
    the rows whose HNF is N's basis, so h always lies in N. Its
    determinant, signature and class products are returned for the
    report to judge.
    """
    w = hbar_perp(s, leech)
    h2, gram = _glue(w, conics[0])

    n_solver = exact.LeftSolver(h2)
    h_coords = n_solver.solve([0] * len(HBAR) + [2])

    classes = []
    for i, conic in enumerate(conics.tolist()):
        xi = n_solver.solve(_doubled(conic))
        if xi is None:
            raise ConstructionError(f"class of conic {i} does not lie in N")
        classes.append(xi)

    return PolarizedLattice(
        gram=np.array(gram, dtype=np.int64),
        h=np.array(h_coords, dtype=np.int64),
        classes=np.array(classes, dtype=np.int64),
        hnf2=np.array(h2, dtype=np.int64),
        w=w,
    )


def check_glue_independence(
    n: PolarizedLattice, conics: np.ndarray, other_index: int = 1
) -> bool:
    """Glue the extension of n's W by a different conic; the canonical
    basis (hence the Gram) must come out identical."""
    h2, gram = _glue(n.w, conics[other_index])
    return bool(np.array_equal(h2, n.hnf2) and np.array_equal(gram, n.gram))


def check_h_parity(n: PolarizedLattice) -> bool:
    """True iff h.x is even for every basis vector x of N."""
    return not (n.gram @ n.h % 2).any()


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


def classes_of(gram, h, norm, degree) -> list[tuple[int, ...]]:
    """All e with e.e = norm and e.h = degree, in the lattice's coordinates.

    Works on any integral lattice with h.h = 4 whose h-complement is
    negative definite. Any e0 with e0.h = degree seeds the search;
    without one there is no such e. With K the saturated h-complement,
    e = e0 + xK, and e - (degree/4) h = (x + s)K, where s is 1/4 the
    K-coordinates of 4 e0 - degree h. Its square is norm - degree^2/4,
    so the x are one short-vector search on -K G K' in that coset.
    Every e is re-checked exactly.
    """
    gram = [[int(x) for x in row] for row in gram]
    h = [int(x) for x in h]
    gh = exact.mat_vec_mul(gram, h)
    if sum(a * b for a, b in zip(h, gh)) != 4:
        raise ConstructionError("polarization does not have h.h = 4")
    e0 = exact.solve_left([[x] for x in gh], [degree])
    if e0 is None:
        return []
    k = exact.kernel_left([[x] for x in gh])
    neg = [[-x for x in row] for row in exact.mat_mul(exact.mat_mul(k, gram), exact.transpose(k))]
    # 4 e0 - degree h is orthogonal to h, so it lies in the saturated K.
    coords = exact.solve_left(k, [4 * a - degree * b for a, b in zip(e0, h)])
    shift = [Fraction(x, 4) for x in coords]
    found = []
    for x in short_vectors(neg, Fraction(degree * degree, 4) - norm, coset_shift=shift):
        e = [a + b for a, b in zip(e0, exact.vec_mat_mul(x, k))]
        ge = exact.mat_vec_mul(gram, e)
        if sum(a * b for a, b in zip(e, ge)) != norm or sum(a * b for a, b in zip(h, ge)) != degree:
            raise VerificationError(f"class scan returned a non-witness {e}")
        found.append(tuple(e))
    return found


def bad_vector_scan(gram, h_coords):
    """classes_of for (e.e = -2, e.h = 0) and for (e.e = 0, e.h = 2).

    These are the bad classes of Saint-Donat's very-ampleness conditions
    for a degree-4 polarization; both lists are expected empty for the
    constructed lattice and non-empty for the planted controls.
    """
    return classes_of(gram, h_coords, -2, 0), classes_of(gram, h_coords, 0, 2)


def scan_N(n: PolarizedLattice):
    """Bad-vector scan of the constructed lattice."""
    return bad_vector_scan(n.gram.tolist(), n.h.tolist())
