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
the int8 rows by a hashed key and compare their bytes, and the basis
exchange tracks an integer adjugate with int64 scans under an overflow
guard. No float and no BLAS/LAPACK call is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exact
from .errors import ConstructionError
from .golay import GolayCode

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

# Odd multipliers of the census row key, and the rows per census part.
_KEY_MULTIPLIERS = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9], dtype=np.uint64
)
_PART = 1 << 14


def all_minimal_vectors(code: GolayCode) -> np.ndarray:
    """The 196560 minimal vectors as int8 rows in canonical order: the
    shape31 block, then shape20, then shape40.

    The rows are written into one array. Each codeword's 24 shape31 rows
    are its sign row repeated, with the diagonal scaled by -3. Each
    octad's 128 shape20 rows are one fixed sign block, written into the
    octad's eight columns, which come from the words' bit matrix. The
    octads follow in the order of code.words, which GolayCode keeps
    sorted, so they come in ascending mask order.
    """
    words = np.array(code.words, dtype="<u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(words, axis=1, count=24, bitorder="little")
    octads = np.nonzero(bits[bits.sum(axis=1, dtype=np.int64) == 8])[1].reshape(-1, 8)
    i, j = np.triu_indices(24, 1)  # the shape40 pairs in lexicographic order
    n31, n20 = len(bits) * 24, len(octads) * 128
    out = np.zeros((n31 + n20 + len(i) * 4, 24), dtype=np.int8)

    signs = np.where(bits, np.int8(1), np.int8(-1))  # +1 on the codeword
    shape31 = out[:n31].reshape(-1, 24, 24)
    shape31[:] = signs[:, None, :]
    shape31.reshape(-1, 24 * 24)[:, ::25] *= np.int8(-3)  # the special position

    g = np.arange(128)[:, None] >> np.arange(7)
    head = np.where(g & 1 == 1, -2, 2)
    last = np.where((head == 2).sum(axis=1) % 2 == 1, 2, -2)  # force even +2 count
    block = np.concatenate([head, last[:, None]], axis=1).astype(np.int8)
    # (octad, column, sign index): the octad's columns take the block's
    shape20 = out[n31 : n31 + n20].reshape(-1, 128, 24).transpose(0, 2, 1)
    shape20[np.arange(len(octads))[:, None], octads] = block.T

    shape40 = out[n31 + n20 :].reshape(-1, 4, 24)
    pairs = np.arange(len(i))
    shape40[pairs, :, i] = (4, 4, -4, -4)
    shape40[pairs, :, j] = (4, -4, 4, -4)
    return out


@dataclass(frozen=True)
class MinimalVectorCensus:
    total: int
    shape_counts: tuple[int, int, int]
    all_norm_32: bool
    distinct: bool
    negation_closed: bool


def census(code: GolayCode) -> tuple[np.ndarray, MinimalVectorCensus]:
    """Enumerate all minimal vectors and check the census invariants.

    Shapes are counted off the vectors by their largest |entry|: 3 for
    shape31, 2 for shape20, 4 for shape40. It is the larger of a column's
    maximum and its negated minimum, widened to int16 first, so an entry
    -128 reads 128 and matches no shape. The largest |entry| and the
    norm (an int32 sum of squares) are taken over the 24 columns of a
    transposed copy of each part of _PART rows.

    The set checks sort the rows once each way, by (key, words): the
    uint64 key _row_key mixes a row's three 8-byte words, and the words
    order the rows that share a key (_value_order). That is a total
    order on row values, so equal rows are adjacent, and since equal rows
    have equal keys, the rows are distinct exactly when no two adjacent
    rows that share a key have equal words. The rows are closed under
    negation (as a multiset) exactly when the rows in this order equal
    the negated rows in theirs. An entry -128 has no int8 negation, so
    a row that holds one makes negation_closed False. Every reading is
    exact whatever the keys are: a shared key costs time, not a result.
    """
    vectors = all_minimal_vectors(code)
    by_largest = np.zeros(129, dtype=np.int64)
    all_norm_32 = True
    for s in range(0, len(vectors), _PART):
        columns = np.ascontiguousarray(vectors[s : s + _PART].T)
        low = columns.min(axis=0).astype(np.int16)
        largest = np.maximum(columns.max(axis=0), -low, dtype=np.int16)
        by_largest += np.bincount(largest, minlength=129)
        # int8 entries: each sum is at most 24 * 128^2 = 393216, inside int32.
        norms = np.einsum("ij,ij->j", columns, columns, dtype=np.int32)
        all_norm_32 = all_norm_32 and bool((norms == RAW_NORM).all())
    order, tied = _value_order(vectors, 1)
    pairs = _words(vectors, 1, order[tied]) == _words(vectors, 1, order[tied + 1])
    closed = not by_largest[128]
    if closed:
        # Row order[p] must equal minus row neg_order[p]. partner maps
        # neg_order[p] to order[p], so the negated rows are compared with
        # their partners in place, a part at a time.
        neg_order, _ = _value_order(vectors, -1)
        partner = np.empty_like(order)
        partner[neg_order] = order
        words = _words(vectors, 1, slice(None))
        closed = all(
            np.array_equal(
                np.take(words, partner[s : s + _PART], axis=0),
                _words(vectors, -1, slice(s, s + _PART)),
            )
            for s in range(0, len(vectors), _PART)
        )
    report = MinimalVectorCensus(
        total=len(vectors),
        shape_counts=tuple(int(by_largest[m]) for m in (3, 2, 4)),
        all_norm_32=all_norm_32,
        distinct=not pairs.all(axis=1).any(),
        negation_closed=closed,
    )
    return vectors, report


def _row_key(words: np.ndarray) -> np.ndarray:
    """One uint64 key per row of three 8-byte words: the words folded in
    by odd multipliers and xor-shifts. uint64 array arithmetic wraps
    modulo 2^64 without a warning (a numpy scalar product would warn)."""
    key = words[:, 0] * _KEY_MULTIPLIERS[0]
    for j in (1, 2):
        key ^= key >> np.uint64(29)
        key += words[:, j]
        key *= _KEY_MULTIPLIERS[j]
    key ^= key >> np.uint64(32)
    return key


def _words(vectors: np.ndarray, sign: int, idx) -> np.ndarray:
    """The native 8-byte words of the rows sign * vectors[idx]."""
    rows = -vectors[idx] if sign < 0 else vectors[idx]
    return np.ascontiguousarray(rows).view(np.uint64)


def _value_order(vectors: np.ndarray, sign: int):
    """(order, tied) for the rows sign * vectors: order sorts them by
    (key, words), and tied holds each position i whose row shares its key
    with row i + 1. The keys are freed on return.

    One argsort orders the keys, and only the rows in runs of a shared key
    are then re-sorted, by (key, words), in the positions the runs take.
    The keys are computed in parts of _PART rows, so a negated copy of
    all rows never exists.
    """
    keys = np.empty(len(vectors), dtype=np.uint64)
    for s in range(0, len(vectors), _PART):
        keys[s : s + _PART] = _row_key(_words(vectors, sign, slice(s, s + _PART)))
    order = np.argsort(keys)
    keys = keys[order]
    tied = np.flatnonzero(keys[1:] == keys[:-1])
    if len(tied):
        at = np.union1d(tied, tied + 1)
        words = _words(vectors, sign, order[at])
        order[at] = order[at][np.lexsort((words[:, 2], words[:, 1], words[:, 0], keys[at]))]
    return order, tied


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
    rows, each after a check that no product can leave int64, against an
    int64 copy of A made once per exchange. Returns the rows as Python
    ints, in census order.
    """
    det, adj = exact.adjugate(vectors[:24].tolist())
    idx, pos = list(range(24)), 24
    while abs(det) != RAW_BASIS_DET:
        amax = max(max(map(abs, row)) for row in adj)
        adj64 = None
        for start in range(pos, len(vectors), _CHUNK):
            block = vectors[start : start + _CHUNK].astype(np.int64)
            l1 = int(np.abs(block).sum(axis=1).max())
            if max(l1 * amax, abs(det)) >= 2**63:
                raise ConstructionError("leech: basis exchange would overflow int64")
            if adj64 is None:
                adj64 = np.array(adj, dtype=np.int64)
            num = block @ adj64
            swap = (num != 0) & (np.abs(num) < np.int64(abs(det)))
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
