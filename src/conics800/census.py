"""The 800 conic vectors: filter, classify, recount, intersect.

A conic is a minimal vector l with true products (2, 1, 0, 0, 0)
against the five fixed generators below. One table, PROFILES, looks up
each conic's pattern from its entries on positions 1-9, and
WINDOW_CONDITIONS gives each pattern's codeword window; a conic that
fits neither is left unclassified, and the report's pattern_split row
shows it. An independent recount then reproduces the same numbers from
the Golay code alone by counting codewords with prescribed
intersections with {1,...,9}, so the same 800 arrives by two routes
that share nothing but the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from time import monotonic

import numpy as np

from . import exact
from .errors import ConstructionError, VerificationError
from .golay import GolayCode, codewords_meeting, mask_of
from .lattices import IntegralLattice

# Generator rows in raw Leech coordinates (form = dot/8):
# degree vector hbar, its companion a, and three fine-tuning vectors.
SEED_ROWS = (
    (4, 4) + (0,) * 22,
    (0, 4, 4) + (0,) * 21,
    (0, 0, 4, 4) + (0,) * 20,
    (0, 0, 0, 4, 4) + (0,) * 19,
    (-2, 2, 0, -2, 2, 2, 2, 2, 2) + (0,) * 15,
)
SEED_NAMES = ("hbar", "a", "u1", "u2", "u3")

# True Gram matrix the rows must reproduce; det 160.
SEED_GRAM = (
    (4, 2, 0, 0, 0),
    (2, 4, 2, 0, 1),
    (0, 2, 4, 2, -1),
    (0, 0, 2, 4, 0),
    (0, 1, -1, 0, 4),
)
SEED_DET = 160

# Raw dot products selecting a conic: true (2, 1, 0, 0, 0).
CONIC_RAW_DOTS = (16, 8, 0, 0, 0)

CONIC_COUNT = 800
PATTERN_COUNTS = {"P1": 96, "P2": 96, "P3": 320, "P4": 288}

NINE_MASK = mask_of(range(1, 10))
MOVABLE_POSITIONS = (6, 7, 8, 9)

# Codeword-side window conditions on o & {1..9}, with the expected
# per-window codeword counts and sign/choice multipliers. A conic's
# window is "fixed" plus its movable pair.
WINDOW_CONDITIONS = {
    "P1": {"fixed": (1, 4), "per_pair": 16, "octads_only": False, "signs": 1},
    "P2": {"fixed": (2, 3, 5), "per_pair": 16, "octads_only": False, "signs": 1},
    "P3": {"fixed": (1, 2), "per_pair": 10, "octads_only": True, "signs": 32},
    "P4": {"fixed": (1, 2), "per_pair": 3, "octads_only": True, "signs": 8},
}

# Pattern of a conic by its entries on positions 1-5 and its sorted
# entries on the movable positions.
PROFILES = {
    ((1, 3, -1, 1, -1), (-1, -1, 1, 1)): "P1",
    ((3, 1, 1, -1, 1), (-1, -1, 1, 1)): "P2",
    ((2, 2, 0, 0, 0), (0, 0, 0, 0)): "P3",
    ((2, 2, 0, 0, 0), (-2, 0, 0, 2)): "P4",
}


def seed_gram() -> list[list[int]]:
    """True Gram of the seed rows (raw products / 8)."""
    return IntegralLattice(SEED_ROWS, 8).gram_int()


def validate_seed() -> None:
    gram = seed_gram()
    if gram != [list(r) for r in SEED_GRAM]:
        raise VerificationError(f"seed Gram mismatch: {gram}")
    if exact.det_bareiss(gram) != SEED_DET:
        raise VerificationError("seed Gram determinant is not 160")


@dataclass(frozen=True)
class ConicRecord:
    l: tuple[int, ...]
    pattern: str
    movable_pair: tuple[int, int] | None  # sorted for P1/P2, ordered (+2,-2) for P4
    codeword: int  # inducing codeword mask (the sign codeword or the octad)
    special_position: int | None  # the -3*sign position for shape31 conics


def find_conics(vectors: np.ndarray, threads: int = 1) -> np.ndarray:
    """Filter the conic vectors and return them lexicographically sorted.

    Each seed row in turn keeps the rows with the wanted product: an
    int16 product over the seed row's support, on the rows that passed
    the rows before it (4600 of the 196560 pass the first). int16 is
    exact for any int8 rows, since |v . s| <= 127 * 24 * 4 < 2^15.
    `threads` is accepted and ignored: every step runs in one thread.
    """
    found = vectors
    for row, want in zip(SEED_ROWS, CONIC_RAW_DOTS):
        support = np.flatnonzero(row)
        weights = np.array(row, dtype=np.int16)[support]
        found = found[found[:, support].astype(np.int16) @ weights == want]
    return found[np.lexsort(found.T[::-1])]


def classify(l, code: GolayCode) -> ConicRecord | None:
    """Pattern tag, movable pair, and inducing codeword of one conic, or
    None when the conic matches no pattern.

    PROFILES picks the pattern from the entries on positions 1-5 and the
    sorted entries on the movable positions, so a conic without its
    movable pair matches none. The inducing codeword is the support
    (shape 2^8) or the set of +1 entries (shape 3 1^23: both heads carry
    +3, whose sign is -1). The movable pair is the codeword's movable
    positions, the +2 first for P4. A codeword outside the code, or one
    that meets {1..9} outside the pattern's window, also gives None:
    the pattern_split row judges the result.
    """
    l = tuple(map(int, l))
    pattern = PROFILES.get((l[:5], tuple(sorted(l[p - 1] for p in MOVABLE_POSITIONS))))
    if pattern is None:
        return None
    cond = WINDOW_CONDITIONS[pattern]
    octad = cond["octads_only"]
    codeword = sum(1 << i for i, x in enumerate(l) if (x if octad else x == 1))
    movable = [p for p in MOVABLE_POSITIONS if codeword >> (p - 1) & 1]
    pair = tuple(sorted(movable, key=lambda p: -l[p - 1]))
    if codeword not in code or codeword & NINE_MASK != mask_of(cond["fixed"] + pair):
        return None
    return ConicRecord(l, pattern, pair or None, codeword, None if octad else l.index(3) + 1)


def classify_all(conics: np.ndarray, code: GolayCode) -> list[ConicRecord]:
    """The records of the conics that classify; the others are dropped."""
    records = (classify(row.tolist(), code) for row in conics)
    return [r for r in records if r is not None]


def pattern_split(records: list[ConicRecord]) -> dict[str, int]:
    """Number of records of each pattern, in pattern order."""
    split = {p: 0 for p in PATTERN_COUNTS}
    for r in records:
        split[r.pattern] += 1
    return split


def recount_by_codewords(code: GolayCode) -> dict:
    """Recompute the pattern counts from the code alone.

    For each pattern the recount multiplies the number of codewords
    meeting {1..9} in the stated window by the number of sign/position
    choices each codeword carries, and "underline" is the codeword count
    the windows share (the sorted distinct counts if they disagree).
    """
    pairs = list(combinations(MOVABLE_POSITIONS, 2))
    report: dict = {"patterns": {}, "correspondence": {}}
    total = 0
    for pattern, cond in WINDOW_CONDITIONS.items():
        weight = 8 if cond["octads_only"] else None
        entries = []
        recount = 0
        for pair in [()] if pattern == "P3" else pairs:
            window = cond["fixed"] + pair
            n = len(codewords_meeting(code, NINE_MASK, mask_of(window), weight))
            entries.append({"window": sorted(window), "codewords": n})
            # P4 pairs are ordered (+2, -2): both orders share the octad condition.
            recount += (2 if pattern == "P4" else 1) * n * cond["signs"]
        counts = sorted({e["codewords"] for e in entries})
        report["patterns"][pattern] = {
            "underline": counts[0] if len(counts) == 1 else counts,
            "signs_per_codeword": cond["signs"],
            "recount": recount,
            "windows": entries,
        }
        fixed = ",".join(str(x) for x in cond["fixed"])
        movable = "" if pattern == "P3" else ",p,q"
        kind = "octads" if cond["octads_only"] else "codewords"
        report["correspondence"][pattern] = (
            f"{kind} meeting {{1..9}} in {{{fixed}{movable}}}"
        )
        total += recount
    report["total"] = total
    return report


def intersection_data(conics: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
    """True pairwise products (800x800 int matrix) and the i<j histogram."""
    raw = conics.astype(np.int64) @ conics.astype(np.int64).T
    if (raw % 8).any():
        raise ConstructionError("conic pairwise products are not multiples of 8")
    true = raw // 8
    n = len(conics)
    iu = np.triu_indices(n, k=1)
    vals, counts = np.unique(np.asarray(true[iu]), return_counts=True)
    hist = {int(v): int(c) for v, c in zip(vals, counts)}
    return true, hist


def disjointness_masks(true_products: np.ndarray) -> list[int]:
    """Adjacency bitmasks: i ~ j iff the classes are disjoint (l_i.l_j = 2)."""
    adj = true_products == 2
    np.fill_diagonal(adj, False)
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in adj]


def find_disjoint_16(masks: list[int], size: int = 16) -> list[int]:
    """Lexicographically least clique of the given size, by ordered DFS;
    empty when none exists. A child is entered only if it and its later
    neighbours can still fill the clique, so nodes need no bound."""
    n = len(masks)
    full = (1 << n) - 1

    def dfs(clique: list[int], cand: int) -> list[int] | None:
        if len(clique) == size:
            return clique
        c = cand
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            if len(clique) + 1 + (masks[v] & c).bit_count() >= size:
                got = dfs(clique + [v], masks[v] & c)
                if got:
                    return got
        return None

    return dfs([], full) or []


def clique_extension_exists(masks: list[int], clique: list[int]) -> bool:
    """One pass: is any vertex outside the clique adjacent to all of it?"""
    cm = 0
    for v in clique:
        cm |= 1 << v
    for v in range(len(masks)):
        if not cm >> v & 1 and masks[v] & cm == cm:
            return True
    return False


def count_disjoint_16(masks: list[int], size: int = 16, budget_seconds: float = 60.0):
    """(count, exhausted): number of size-cliques found within the budget.

    A colouring-bound search on bitsets, in the style of Tomita's MCQ
    (Tomita & Seki, DMTCS 2003; Tomita et al., TCS 2006). At each node
    the candidates are greedily split into colour classes (independent
    sets); a clique of `need` more vertices uses `need` distinct
    colours, so only vertices of colour number >= need are branched on,
    in reverse colour order, each cleared from the candidates after its
    branch. Every clique is counted once, at its first branched vertex.
    `exhausted` is False when the deadline cut the search short.
    """
    deadline = monotonic() + budget_seconds
    non = [~(m | 1 << v) for v, m in enumerate(masks)]
    count = 0

    def expand(need: int, cand: int) -> bool:
        nonlocal count
        if need <= 1:
            count += cand.bit_count() if need else 1
            return True
        if monotonic() > deadline:
            return False
        branch = []
        uncol = cand
        colour = 0
        while uncol:
            colour += 1
            q = uncol
            while q:
                low = q & -q
                v = low.bit_length() - 1
                q &= non[v]
                uncol ^= low
                if colour >= need:
                    branch.append(v)
        for v in reversed(branch):
            if not expand(need - 1, cand & masks[v]):
                return False
            cand ^= 1 << v
        return True

    exhausted = expand(size, (1 << len(masks)) - 1)
    return count, exhausted
