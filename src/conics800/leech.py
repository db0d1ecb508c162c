"""Minimal vectors of the Leech lattice, coordinatized over the Golay code.

Vectors live in Z^24 with the inner product <x, y> = (x . y) / 8, so a
raw dot product of 32 means norm 4. The 196560 norm-4 vectors come in
three shapes, each parametrized by Golay data:

  * shape31: one entry -3s, the rest +-1; signs +1 exactly on a
    codeword o, and the special position k flips sign (so it carries
    -3 when k is in o, +3 when it is not). 4096 x 24 = 98304 vectors.
  * shape20: +-2 on the eight positions of an octad, zero elsewhere,
    with an even number of +2 entries. 759 x 2^7 = 97152 vectors.
  * shape40: +-4 on two positions, zero elsewhere. C(24,2) x 4 = 1104.

Enumeration order is fixed: shape31 by (codeword mask ascending, special
position ascending), shape20 by (octad mask ascending, sign index 0..127
over the seven smallest positions, last sign forced by parity), shape40
by (position pair lexicographic, signs (+,+), (+,-), (-,+), (-,-)).

Every decision here is exact integer arithmetic: the census checks sort
and compare the int8 rows, and the basis exchange tracks an integer
adjugate with int64 scans under an overflow guard. No float and no
BLAS/LAPACK call is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import exact
from .errors import ConstructionError
from .golay import GolayCode, positions_of

RAW_NORM = 32

SHAPE31_COUNT = 98304
SHAPE20_COUNT = 97152
SHAPE40_COUNT = 1104
MINIMAL_COUNT = 196560

# Raw basis determinant of the coordinate lattice: true Gram has det 1
# at scale 1/8, so |det B|^2 = 8^24.
RAW_BASIS_DET = 8**12

# Rows per int64 block of the extract_basis scan.
_CHUNK = 512


def shape31_vectors(code: GolayCode) -> np.ndarray:
    """All 98304 shape31 vectors, int8, in canonical order."""
    words = np.array(code.words, dtype=np.uint32)
    bits = (words[:, None] >> np.arange(24, dtype=np.uint32)[None, :]) & 1
    signs = np.where(bits == 1, 1, -1).astype(np.int8)  # +1 on the codeword
    out = np.repeat(signs, 24, axis=0)
    rows = np.arange(len(words) * 24)
    cols = np.tile(np.arange(24), len(words))
    out[rows, cols] = -3 * out[rows, cols]  # the special position carries -3 * sign
    return out


def shape20_vectors(code: GolayCode) -> np.ndarray:
    """All 97152 shape20 vectors, int8, in canonical order."""
    octads = sorted(code.octads)
    out = np.zeros((len(octads) * 128, 24), dtype=np.int8)
    g = np.arange(128, dtype=np.uint8)
    head = np.where((g[:, None] >> np.arange(7, dtype=np.uint8)[None, :]) & 1 == 1, -2, 2).astype(
        np.int8
    )
    plus_head = (head == 2).sum(axis=1)
    last = np.where(plus_head % 2 == 1, 2, -2).astype(np.int8)  # force even +2 count
    block = np.concatenate([head, last[:, None]], axis=1)
    for i, o in enumerate(octads):
        pos = [p - 1 for p in positions_of(o)]
        out[i * 128 : (i + 1) * 128, pos] = block
    return out


def shape40_vectors() -> np.ndarray:
    """All 1104 shape40 vectors, int8, in canonical order."""
    out = np.zeros((1104, 24), dtype=np.int8)
    r = 0
    for i, j in combinations(range(24), 2):
        for si, sj in ((4, 4), (4, -4), (-4, 4), (-4, -4)):
            out[r, i] = si
            out[r, j] = sj
            r += 1
    return out


def all_minimal_vectors(code: GolayCode) -> np.ndarray:
    """The 196560 minimal vectors: shape31 block, then shape20, then shape40."""
    return np.concatenate([shape31_vectors(code), shape20_vectors(code), shape40_vectors()])


@dataclass(frozen=True)
class MinimalVectorCensus:
    total: int
    shape_counts: tuple[int, int, int]
    all_norm_32: bool
    distinct: bool
    negation_closed: bool


def census(code: GolayCode) -> tuple[np.ndarray, MinimalVectorCensus]:
    """Enumerate all minimal vectors and check the census invariants.

    Shapes are counted off the vectors by their largest entry: 3 for
    shape31, 2 for shape20, 4 for shape40. Norms are int32 sums of the
    int8 rows' squares.

    One sort decides both set checks. Flipping each byte's top bit maps
    an entry x to x + 128, so the rows' three big-endian 8-byte words
    sort them lexicographically by entry; and for entries in [-127, 127]
    negation maps x + 128 to 256 - (x + 128), strictly decreasing, so it
    reverses that order. Hence the rows are distinct exactly when no two
    adjacent sorted rows are equal, and the rows are closed under
    negation (as a multiset) exactly when the sorted rows equal the
    negated sorted rows read backwards.
    """
    vectors = all_minimal_vectors(code)
    by_largest = np.bincount(np.abs(vectors).max(axis=1), minlength=5)
    # int8 entries: each sum is at most 24 * 127^2 = 387096, inside int32.
    norms = np.einsum("ij,ij->i", vectors, vectors, dtype=np.int32)
    words = (vectors.view(np.uint8) ^ 0x80).view(">u8")
    ordered = vectors[np.lexsort(words.T[::-1])]
    report = MinimalVectorCensus(
        total=len(vectors),
        shape_counts=tuple(int(by_largest[m]) for m in (3, 2, 4)),
        all_norm_32=bool((norms == RAW_NORM).all()),
        distinct=bool((ordered[1:] != ordered[:-1]).any(axis=1).all()),
        negation_closed=bool(np.array_equal(ordered, -ordered[::-1])),
    )
    return vectors, report


def extract_basis(vectors: np.ndarray) -> list[list[int]]:
    """24 minimal vectors spanning the lattice, found by exchange.

    ``vectors`` is the census: its first 24 rows, -1 + 4e_k, are
    independent and span a sublattice of index 20480. Scanning on, the
    first vector with a non-integral coordinate c_j, |c_j| < 1, against
    the current rows replaces row j (the highest such j), which
    multiplies the integer index by |c_j|. A full-rank sublattice M of
    the lattice L has det M = [L : M]^2 det L, so the rows span L
    exactly when their raw determinant is 8^12.

    All of it is exact. With B the current rows, d = det B and the
    integer adjugate A = d B^-1 (exact.adjugate, once), a vector v has
    coordinates c = N / d with N = v A, so c_j is non-integral with
    |c_j| < 1 exactly when 0 < |N_j| < |d|. Exchanging row j for v gives
    det' = N_j and, by the rank-one update of B^-1,
    A' = (N_j A - A[:, j] (x) (N - d e_j)) / d, an exact division since
    A' is again an adjugate. So the stop test reads the tracked d. The
    scan past the last exchange is an int64 product in blocks of _CHUNK
    rows, each after a check that no product can leave int64. Returns
    the rows as Python ints, in census order.
    """
    det, adj = exact.adjugate(vectors[:24].tolist())
    idx, pos = list(range(24)), 24
    while abs(det) != RAW_BASIS_DET:
        amax = max(max(map(abs, row)) for row in adj)
        for start in range(pos, len(vectors), _CHUNK):
            block = vectors[start : start + _CHUNK].astype(np.int64)
            l1 = int(np.abs(block).sum(axis=1).max())
            if max(l1 * amax, abs(det)) >= 2**63:
                raise ConstructionError("leech: basis exchange would overflow int64")
            num = block @ np.array(adj, dtype=np.int64)
            swap = (num != 0) & (np.abs(num) < abs(det))
            hits = np.flatnonzero(swap.any(axis=1))
            if len(hits):
                break
        else:
            raise ConstructionError("leech: minimal vectors did not span the lattice")
        j = int(np.flatnonzero(swap[hits[0]])[-1])
        n = num[hits[0]].tolist()
        nj = n[j]
        n[j] -= det
        adj = [[(nj * a - row[j] * b) // det for a, b in zip(row, n)] for row in adj]
        det = nj
        hit = start + int(hits[0])
        idx[j], pos = hit, hit + 1
    return vectors[sorted(idx)].tolist()
