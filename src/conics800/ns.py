"""Construction of the polarized rank-20 lattice carrying the 800 classes.

Pipeline: inside the 24-dimensional even unimodular lattice, the five
seed generators span a rank-5 sublattice Vt containing the degree
vector hbar. S is the orthogonal complement of hbar's complement in Vt,
a positive-definite rank-20 lattice containing hbar and all 800 conic
vectors. The target lattice N is the index-2 extension of
(-(hbar-perp in S)) + Zh, h*h = 4, glued by c0 = l0 - hbar/2 + h/2;
each conic l then gives a class c(l) with c*c = -2 and c*h = 2.
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

    All coordinates refer to the canonical basis obtained from the HNF
    of the doubled glue coordinates; gram is the exact integer Gram.
    w is the positive-definite W = hbar-perp in S the extension glues.
    """

    gram: np.ndarray
    h: np.ndarray
    classes: np.ndarray
    hnf2: np.ndarray
    w: IntegralLattice
    glue_index: int

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


def check_hbar_parity(s: IntegralLattice, hbar=HBAR) -> bool:
    """True iff x.hbar is even for every basis vector x of s."""
    dots = exact.mat_vec_mul([list(r) for r in s.basis], list(hbar))
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
    if exact.det_bareiss(w.gram_int()) != 160:
        raise VerificationError("hbar-perp in S does not have determinant 160")
    return w


def _w_coords_doubled(w: IntegralLattice, conic) -> list[int]:
    """Integer coordinates of 2l - hbar in the basis of W."""
    target = [2 * int(x) - h for x, h in zip(conic, HBAR)]
    coords = w.solver.solve(target)
    if coords is None:
        raise ConstructionError(f"2l - hbar escapes hbar-perp for conic {tuple(conic)}")
    return coords


def _glue(w: IntegralLattice, conic):
    """Index-2 extension of (-W) + Zh glued by c0 = l - hbar/2 + h/2.

    Returns (h2, gram): the HNF of the doubled coordinates of the
    extension in the basis of the orthogonal sum (its canonical basis),
    and the extension's integer Gram in that basis. Hard-errors on a
    non-integral extension or a wrong determinant, glue norm or index.
    """
    gw = w.gram_int()
    rank_w = len(gw)
    n_dim = rank_w + 1
    m0 = [[-gw[i][j] for j in range(rank_w)] + [0] for i in range(rank_w)]
    m0.append([0] * rank_w + [4])
    if exact.det_bareiss(m0) != -640:
        raise VerificationError("orthogonal-sum determinant is not -640")

    glue2 = _w_coords_doubled(w, conic) + [1]  # doubled coordinates of c0
    pairings = exact.vec_mat_mul(glue2, m0)
    if any(p % 2 for p in pairings):
        raise ConstructionError("glue vector pairs non-integrally with the sum")
    self4 = sum(a * b for a, b in zip(glue2, pairings))
    if self4 != -8:
        raise VerificationError(f"glue vector has (2c)^2 = {self4}, expected -8")

    doubled = [[2 * (i == j) for j in range(n_dim)] for i in range(n_dim)] + [glue2]
    h2 = exact.nonzero_rows(exact.hnf(doubled))
    if len(h2) != n_dim:
        raise ConstructionError("extension basis is defective")
    index_sq = 4 ** n_dim // (exact.det_bareiss(h2)) ** 2
    if index_sq != 4:
        raise VerificationError(f"extension index squared is {index_sq}, expected 4")

    gram4 = exact.mat_mul(exact.mat_mul(h2, m0), exact.transpose(h2))
    if any(x % 4 for row in gram4 for x in row):
        raise ConstructionError("extension Gram is non-integral")
    gram = [[x // 4 for x in row] for row in gram4]
    if any(gram[i][i] % 2 for i in range(n_dim)):
        raise VerificationError("extension lattice is not even")
    return h2, gram


def build_N(
    s: IntegralLattice,
    leech: IntegralLattice,
    conics: np.ndarray,
    glue_index: int = 0,
) -> PolarizedLattice:
    """Index-2 extension of (-(hbar-perp in S)) + Zh glued by one conic.

    The glue vector is c0 = l0 - hbar/2 + h/2 for the conic at
    glue_index. Hard-errors when the extension cannot be built exactly
    (see _glue) or when h or a conic class escapes it; its determinant,
    signature and class products are returned for the report to judge.
    """
    w = hbar_perp(s, leech)
    h2, gram = _glue(w, conics[glue_index])

    n_solver = exact.LeftSolver(h2)
    h_coords = n_solver.solve([0] * w.rank + [2])
    if h_coords is None:
        raise ConstructionError("polarization vector escapes the extension basis")

    classes = []
    for i in range(len(conics)):
        ui = _w_coords_doubled(w, conics[i])
        xi = n_solver.solve(ui + [1])
        if xi is None:
            raise ConstructionError(f"class of conic {i} does not lie in N")
        classes.append(xi)

    return PolarizedLattice(
        gram=np.array(gram, dtype=np.int64),
        h=np.array(h_coords, dtype=np.int64),
        classes=np.array(classes, dtype=np.int64),
        hnf2=np.array(h2, dtype=np.int64),
        w=w,
        glue_index=glue_index,
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


def bad_vector_scan(gram, h_coords):
    """All e with (e.e = -2, e.h = 0) and all e with (e.e = 0, e.h = 2).

    Works on any even lattice with h.h = 4 whose h-complement is
    negative definite. Decomposes e = (e.h/4) h + f and enumerates f
    in the appropriate (coset of the) complement by definite
    short-vector search; the coset comes from integer solves only.
    Returns two lists of integer vectors in the lattice's own
    coordinates; both are expected empty for the constructed lattice
    and non-empty for the planted controls.
    """
    gram = [list(map(int, row)) for row in gram]
    h = [int(x) for x in h_coords]
    gh = exact.mat_vec_mul(gram, h)
    if sum(a * b for a, b in zip(h, gh)) != 4:
        raise ConstructionError("polarization does not have h.h = 4")
    k = exact.kernel_left([[x] for x in gh])
    if len(k) != len(gram) - 1:
        raise ConstructionError("h-complement has unexpected rank")
    kgk = exact.mat_mul(exact.mat_mul(k, gram), exact.transpose(k))
    neg = [[-x for x in row] for row in kgk]

    kind1 = []
    for x in short_vectors(neg, 2):
        e = exact.vec_mat_mul(list(x), k)
        kind1.append(tuple(e))

    # Any e0 with e0.h = 2 seeds the coset; without one, kind 2 is empty.
    # 2 e0 - h is an integer vector orthogonal to h, so it lies in the
    # saturated kernel k, and the shift (e0 - h/2) in k-coordinates is
    # half its integer coordinates.
    kind2 = []
    e0 = exact.solve_left([[x] for x in gh], [2])
    if e0 is not None:
        sigma = [Fraction(x, 2) for x in exact.solve_left(k, [2 * a - b for a, b in zip(e0, h)])]
        for x in short_vectors(neg, 1, coset_shift=sigma):
            e = [a + b for a, b in zip(e0, exact.vec_mat_mul(list(x), k))]
            kind2.append(tuple(e))

    for e in kind1:
        ge = exact.mat_vec_mul(gram, list(e))
        if sum(a * b for a, b in zip(e, ge)) != -2 or sum(a * b for a, b in zip(h, ge)) != 0:
            raise VerificationError("kind-1 scan returned a non-witness")
    for e in kind2:
        ge = exact.mat_vec_mul(gram, list(e))
        if sum(a * b for a, b in zip(e, ge)) != 0 or sum(a * b for a, b in zip(h, ge)) != 2:
            raise VerificationError("kind-2 scan returned a non-witness")
    return kind1, kind2


def scan_N(n: PolarizedLattice):
    """Bad-vector scan of the constructed lattice."""
    return bad_vector_scan(n.gram.tolist(), n.h.tolist())
