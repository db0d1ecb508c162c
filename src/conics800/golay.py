"""The extended binary Golay code on 24 points.

Codewords are subsets of {1, ..., 24} stored as 24-bit masks (position i
is bit i-1). The code is built from a fixed generator matrix — the
length-23 quadratic-residue code extended by an overall parity bit —
and then certified (by the report) through its testable invariants:
weight distribution (1, 759, 2576, 759, 1), complement closure, and the
Steiner property S(5, 8, 24); it is linear by construction, as the span
of its basis. Construction provenance is irrelevant once those hold;
there is only one such code up to coordinate permutation.

Frame normalization fixes the coordinates the rest of the pipeline
works in: the quintuple (1,2,3,4,5), a preferred octad
{1,2,4,5,6,7,8,9} meeting it in {1,2,4,5}, and their union {1,...,9}.
A Frame records the candidate octads found and which one was placed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import ConstructionError

OMEGA = tuple(range(1, 25))
FULL_MASK = (1 << 24) - 1

# Generator polynomial of the [23, 12, 7] quadratic-residue code:
# x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1, as a coefficient bitmask.
_QR23_GEN = sum(1 << e for e in (0, 2, 4, 5, 6, 10, 11))

FIXED = (1, 2, 3, 4, 5)
FIXED_MASK = sum(1 << (p - 1) for p in FIXED)
FRAME_OCTAD = frozenset({1, 2, 4, 5, 6, 7, 8, 9})
FRAME_OCTAD_MASK = sum(1 << (p - 1) for p in FRAME_OCTAD)


def mask_of(positions: Iterable[int]) -> int:
    """Bitmask of a set of 1-based positions."""
    m = 0
    for p in positions:
        if not 1 <= p <= 24:
            raise ValueError(f"position {p} outside 1..24")
        m |= 1 << (p - 1)
    return m


def positions_of(mask: int) -> tuple[int, ...]:
    return tuple(p for p in OMEGA if mask >> (p - 1) & 1)


def weight(mask: int) -> int:
    return mask.bit_count()


def mask_to_string(mask: int) -> str:
    """24-character 0/1 string, position 1 first."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(24))


@dataclass(frozen=True)
class GolayCode:
    """All 4096 codewords (sorted masks) plus a 12-row generator basis."""

    words: tuple[int, ...]
    basis: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "_wordset", frozenset(self.words))

    def __contains__(self, mask: int) -> bool:
        return mask in self._wordset

    @property
    def octads(self) -> tuple[int, ...]:
        return tuple(w for w in self.words if weight(w) == 8)

    def weight_distribution(self) -> dict[int, int]:
        dist: dict[int, int] = {}
        for w in self.words:
            dist[weight(w)] = dist.get(weight(w), 0) + 1
        return dist


def _expand_basis(basis: Sequence[int]) -> tuple[int, ...]:
    words = [0]
    for b in basis:
        words += [w ^ b for w in words]
    return tuple(sorted(words))


def build_golay() -> GolayCode:
    """Construct the code from its generator rows; the report judges its invariants."""
    basis = []
    for i in range(12):
        row23 = _QR23_GEN << i
        parity = row23.bit_count() & 1
        basis.append(row23 | parity << 23)
    return GolayCode(words=_expand_basis(basis), basis=tuple(basis))


def codewords_meeting(
    code: GolayCode, window: int, pattern: int, weight_filter: int | None = None
) -> list[int]:
    """Codewords o with ``o & window == pattern`` (bit masks), optionally
    of fixed weight.

    Output is sorted (ascending masks; code.words is sorted already).
    """
    if pattern & ~window:
        raise ValueError("pattern must be contained in window")
    return [
        o
        for o in code.words
        if o & window == pattern and (weight_filter is None or weight(o) == weight_filter)
    ]


def steiner_cover_counts(code: GolayCode) -> np.ndarray:
    """For each of the C(24,5)=42504 quintuples, in colex order, the number
    of octads containing it.

    Each octad's C(8,5)=56 five-subsets are ranked in colex order (the
    subset c_1 < ... < c_5 of 0..23 has rank sum_k C(c_k, k)) and counted.
    """
    points = np.array([positions_of(o) for o in code.octads], dtype=np.int64).reshape(-1, 8) - 1
    quints = points[:, list(combinations(range(8), 5))]
    binom = np.array([[math.comb(c, k) for k in range(1, 6)] for c in range(24)], dtype=np.int64)
    ranks = binom[quints, np.arange(5)].sum(axis=-1)
    return np.bincount(ranks.ravel(), minlength=42504)


@dataclass(frozen=True)
class Frame:
    """Normalized coordinate frame: the candidate octads and the one placed."""

    candidates: tuple[int, ...]  # the octads meeting the quintuple in {1,2,4,5}
    choice: int  # index into candidates actually used


def _permutation_placing_octad(octad_mask: int) -> list[int]:
    """perm[old-1] = new position; sends the octad to {1,2,4,5,6,7,8,9}.

    The four smallest octad elements go to 1,2,4,5; the smallest
    non-element to 3; the remaining four octad elements to 6..9 in
    order; everything else to 10..24 in order.
    """
    members = list(positions_of(octad_mask))
    rest = [p for p in OMEGA if p not in set(members)]
    perm = [0] * 24
    for old, new in zip(members[:4], (1, 2, 4, 5)):
        perm[old - 1] = new
    perm[rest[0] - 1] = 3
    for old, new in zip(members[4:], (6, 7, 8, 9)):
        perm[old - 1] = new
    for old, new in zip(rest[1:], range(10, 25)):
        perm[old - 1] = new
    return perm


def _apply_permutation(code: GolayCode, perm: Sequence[int]) -> GolayCode:
    def move(mask: int) -> int:
        out = 0
        for p in range(24):
            if mask >> p & 1:
                out |= 1 << (perm[p] - 1)
        return out

    basis = tuple(move(b) for b in code.basis)
    return GolayCode(words=_expand_basis(basis), basis=basis)


def frame_candidates(code: GolayCode) -> list[int]:
    """Octads meeting {1,2,3,4,5} in exactly {1,2,4,5}, ascending by mask."""
    return codewords_meeting(code, FIXED_MASK, mask_of((1, 2, 4, 5)), weight_filter=8)


def normalize_frame(code: GolayCode, octad_choice: int | None = None) -> tuple[GolayCode, Frame]:
    """Relabel coordinates so a chosen octad becomes {1,2,4,5,6,7,8,9}.

    Stage one places the lexicographically least octad; stage two (only
    when ``octad_choice`` is given) re-relabels, fixing 1..5 pointwise,
    so that the chosen one of the four candidate octads meeting
    {1,2,3,4,5} in {1,2,4,5} lands on the frame octad. Choice 0 is the
    lex-least candidate, which equals the stage-one octad, so it is a
    no-op; the default behaves identically to choice 0. The report's
    frame_octad_candidates row judges how many candidates were found.
    Raises ValueError on a choice outside 0..3 and ConstructionError on
    a choice beyond the candidates found.
    """
    least = min(code.octads)
    normalized = _apply_permutation(code, _permutation_placing_octad(least))
    candidates = frame_candidates(normalized)
    choice = 0 if octad_choice is None else octad_choice
    if not 0 <= choice < 4:
        raise ValueError(f"octad choice {choice} out of range 0..3")
    if choice >= len(candidates):
        raise ConstructionError(f"golay: only {len(candidates)} frame candidates")
    chosen = candidates[choice]
    if chosen != FRAME_OCTAD_MASK:
        # The chosen octad meets {1..5} in {1,2,4,5}, so this placing
        # permutation fixes 1..5 pointwise and moves it onto the frame.
        normalized = _apply_permutation(normalized, _permutation_placing_octad(chosen))
        candidates = frame_candidates(normalized)
    return normalized, Frame(candidates=tuple(candidates), choice=choice)


def export_codewords(code: GolayCode, path) -> None:
    """All 4096 words, one 24-char 0/1 line each, lexicographic by string."""
    lines = sorted(mask_to_string(w) for w in code.words)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def export_basis(code: GolayCode, path) -> None:
    """The 12 generator rows in construction order, 0/1 lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(mask_to_string(b) for b in code.basis) + "\n")


def is_complement_closed(code: GolayCode) -> bool:
    return all(FULL_MASK ^ w in code for w in code.words)


def min_nonzero_weight(code: GolayCode) -> int:
    return min(weight(w) for w in code.words if w)
