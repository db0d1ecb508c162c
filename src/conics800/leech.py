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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import exact
from .errors import ConstructionError
from .golay import GolayCode, positions_of

RAW_NORM = 32
TRUE_NORM = 4

SHAPE31_COUNT = 98304
SHAPE20_COUNT = 97152
SHAPE40_COUNT = 1104
MINIMAL_COUNT = 196560

# Raw basis determinant of the coordinate lattice: true Gram has det 1
# at scale 1/8, so |det B|^2 = 8^24.
RAW_BASIS_DET = 8**12

# Rows per float coordinate block in extract_basis.
_CHUNK = 4096


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


def _row_view(arr: np.ndarray) -> np.ndarray:
    """Each row as one fixed-width byte key.

    Keys sort by bytes, not by value; census only needs equal rows to
    give equal keys.
    """
    a = np.ascontiguousarray(arr)
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()


def census(code: GolayCode) -> tuple[np.ndarray, MinimalVectorCensus]:
    """Enumerate all minimal vectors and check the census invariants.

    Shapes are counted off the vectors by their largest entry: 3 for
    shape31, 2 for shape20, 4 for shape40.
    """
    vectors = all_minimal_vectors(code)
    by_largest = np.bincount(np.abs(vectors).max(axis=1), minlength=5)
    wide = vectors.astype(np.int64)
    norms_ok = bool(((wide * wide).sum(axis=1) == RAW_NORM).all())
    view = _row_view(vectors)
    order = np.argsort(view)
    sorted_view = view[order]
    distinct = bool((sorted_view[1:] != sorted_view[:-1]).all())
    neg_view = _row_view(-vectors)
    idx = np.searchsorted(sorted_view, neg_view)
    idx = np.clip(idx, 0, len(sorted_view) - 1)
    negation_closed = bool((sorted_view[idx] == neg_view).all())
    report = MinimalVectorCensus(
        total=len(vectors),
        shape_counts=tuple(int(by_largest[m]) for m in (3, 2, 4)),
        all_norm_32=norms_ok,
        distinct=distinct,
        negation_closed=negation_closed,
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
    exactly when their raw determinant is 8^12; that test is exact.
    Floats only pick the swaps: coordinates have denominators dividing
    the index, so a non-integral one sits at least 1/20480 from an
    integer. Returns the rows as Python ints, in census order.
    """
    idx, pos = list(range(24)), 24
    while abs(exact.det_bareiss(vectors[idx].tolist())) != RAW_BASIS_DET:
        inv = np.linalg.inv(vectors[idx].astype(np.float64))
        for start in range(pos, len(vectors), _CHUNK):
            # Cast first: int8 @ float64 runs numpy's slow mixed-type loop.
            coords = vectors[start : start + _CHUNK].astype(np.float64) @ inv
            swap = (np.abs(coords - np.rint(coords)) > 1e-6) & (np.abs(coords) < 1)
            hits = np.flatnonzero(swap.any(axis=1))
            if len(hits):
                break
        else:
            raise ConstructionError("leech: minimal vectors did not span the lattice")
        hit = start + int(hits[0])
        idx[int(np.flatnonzero(swap[hits[0]])[-1])] = hit
        pos = hit + 1
    return vectors[sorted(idx)].tolist()
