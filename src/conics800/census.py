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

import operator
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

# Candidate rows per part of find_conics, and conic rows per block of
# intersection_data: each part's or block's temporaries stay under 1 MB.
_PART = 1 << 14
_ROWS = 64


def seed_gram() -> list[list[int]]:
    """True Gram of the seed rows (raw products / 8)."""
    return IntegralLattice(SEED_ROWS, 8).gram_int()


def validate_seed() -> None:
    """Raise on a seed Gram or determinant mismatch; no stage calls it, as rows judge both."""
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


def _integer_rows(rows) -> np.ndarray:
    """rows as a 2-D array of 24-wide rows whose dtype casts safely to
    int64. A float dtype or entry (even 2.0) is a TypeError, another
    shape a ValueError."""
    rows = np.asarray(rows)
    if not np.can_cast(rows.dtype, np.int64):
        raise TypeError(f"conic rows must hold integers, not {rows.dtype}")
    if rows.ndim != 2 or rows.shape[1] != 24:
        raise ValueError(f"conic rows must be 24 wide, not of shape {rows.shape}")
    return rows


def find_conics(vectors: np.ndarray, threads: int = 1) -> np.ndarray:
    """Filter the conic vectors and return them lexicographically sorted.

    The rows are read in parts of _PART rows. In each part every seed row
    in turn keeps the rows with the wanted product: an int64 product over
    the seed row's support, on the rows that passed the rows before it
    (4600 of the 196560 pass the first), so no int64 copy of all rows
    exists. `threads` is accepted and ignored: every step runs in one
    thread. Raises TypeError unless the rows hold integers, and
    ValueError unless they are 24 wide with every entry in
    [-2^59, 2^59): each seed row's weights sum to at most 16 in absolute
    value, so every product then stays inside int64.
    """
    rows = _integer_rows(vectors)
    if int(rows.min(initial=0)) < -(2**59) or int(rows.max(initial=0)) >= 2**59:
        raise ValueError("conic candidate entries must lie in [-2^59, 2^59)")
    supports = [np.flatnonzero(row) for row in SEED_ROWS]
    weights = [np.array(row, dtype=np.int64)[at] for row, at in zip(SEED_ROWS, supports)]
    parts = [rows[:0]]
    for s in range(0, len(rows), _PART):
        found = rows[s : s + _PART]
        for at, w, want in zip(supports, weights, CONIC_RAW_DOTS):
            found = found[found[:, at].astype(np.int64) @ w == want]
        parts.append(found)
    found = np.concatenate(parts)
    return found[np.lexsort(found.T[::-1])]


def classify_all(conics: np.ndarray, code: GolayCode) -> list[ConicRecord]:
    """Pattern tag, movable pair and inducing codeword of each conic that
    classifies, in row order; the others are dropped.

    PROFILES picks the pattern from the entries on positions 1-5 and the
    sorted entries on the movable positions, so a conic without its
    movable pair matches none. The inducing codeword is the support
    (shape 2^8) or the set of +1 entries (shape 3 1^23: both heads carry
    +3, whose sign is -1, and the first +3 is the special position). The
    movable pair is the codeword's movable positions, the +2 first for
    P4. A codeword outside the code, one that meets {1..9} outside the
    pattern's window, or a shape 3 1^23 pattern's row with no +3 entry
    is left out: the pattern_split row judges the result.

    Every step is a pass over all rows: the profiles are compared as one
    array, the masks are a product with the bit weights, membership is a
    binary search in the sorted words. PROFILES and WINDOW_CONDITIONS are
    read at each call. Raises TypeError unless the rows hold integers,
    and ValueError unless they are 24 wide.
    """
    rows = _integer_rows(conics).astype(np.int64)
    names = list(PROFILES.values())
    keys = np.array([head + tail for head, tail in PROFILES], dtype=np.int64)
    conds = [WINDOW_CONDITIONS[name] for name in names]
    movable = np.array(MOVABLE_POSITIONS) - 1
    profile = np.concatenate([rows[:, :5], np.sort(rows[:, movable], axis=1)], axis=1)
    at, which = np.nonzero((profile[:, None, :] == keys.reshape(len(names), 9)).all(axis=2))

    l = rows[at]
    octad = np.array([c["octads_only"] for c in conds], dtype=bool)[which]
    bits = np.where(octad[:, None], l != 0, l == 1)
    codeword = bits @ (np.int64(1) << np.arange(24, dtype=np.int64))
    words = np.array(code.words, dtype=np.int64)  # sorted, as GolayCode keeps them
    in_code = words[np.searchsorted(words, codeword).clip(max=len(words) - 1)] == codeword
    fixed = np.array([mask_of(c["fixed"]) for c in conds], dtype=np.int64)[which]
    in_window = (codeword & NINE_MASK) == (fixed | (codeword & mask_of(MOVABLE_POSITIONS)))
    threes = l == 3
    keep = in_code & in_window & (octad | threes.any(axis=1))

    # The movable pair, ordered by -l with ties in position order; the
    # positions off the codeword sort last, past every entry.
    on = bits[:, movable]
    order = np.argsort(np.where(on, -l[:, movable], 1 << 62), axis=1, kind="stable")
    pairs = np.array(MOVABLE_POSITIONS)[order]
    return [
        ConicRecord(tuple(row), names[w], tuple(pair[:n]) or None, c, None if o else s + 1)
        for row, w, pair, n, c, o, s in zip(
            l[keep].tolist(),
            which[keep].tolist(),
            pairs[keep].tolist(),
            on[keep].sum(axis=1).tolist(),
            codeword[keep].tolist(),
            octad[keep].tolist(),
            threes[keep].argmax(axis=1).tolist(),
        )
    ]


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
    """True pairwise products (n x n int32 matrix) and the i<j histogram.

    The entries must fit in 8 bits, so every raw product is at most
    24 * 128^2 = 393216 in size and every true product at most 49152:
    int32 holds both exactly. C C^T is built in blocks of _ROWS rows, each
    an exact int64 product checked for multiples of 8 and shifted into
    the int32 output, so the only full-size array is the output. The
    matrix is exactly symmetric: each off-diagonal value is counted twice
    over the whole matrix, and the i<j histogram is (the counts of all
    entries - the counts of the diagonal) / 2. The counts are kept for
    every value from the least product to the greatest, under 10^5 of
    them whatever the rows, and taken a block at a time. Raises TypeError
    unless the rows hold integers, and ValueError unless they are 24
    wide with every entry in [-128, 127].
    """
    rows = _integer_rows(conics).astype(np.int64)
    if rows.min(initial=0) < -128 or rows.max(initial=0) > 127:
        raise ValueError("conic entries must lie in [-128, 127]")
    n = len(rows)
    true = np.empty((n, n), dtype=np.int32)
    for s in range(0, n, _ROWS):
        raw = rows[s : s + _ROWS] @ rows.T
        if (raw & 7).any():
            raise ConstructionError("conic pairwise products are not multiples of 8")
        true[s : s + _ROWS] = raw >> 3
    low = int(true.min(initial=0))
    counts = np.zeros(int(true.max(initial=0)) - low + 1, dtype=np.int64)
    for s in range(0, n, _ROWS):
        block = true[s : s + _ROWS].astype(np.int64) - low
        counts += np.bincount(block.ravel(), minlength=len(counts))
    counts -= np.bincount(np.diagonal(true).astype(np.int64) - low, minlength=len(counts))
    hist = {int(v) + low: int(counts[v]) // 2 for v in np.flatnonzero(counts)}
    return true, hist


def disjointness_masks(true_products: np.ndarray) -> list[int]:
    """Adjacency bitmasks: i ~ j iff the classes are disjoint (l_i.l_j = 2)."""
    adj = true_products == 2
    np.fill_diagonal(adj, False)
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def find_disjoint_16(masks: list[int], size: int = 16) -> list[int]:
    """Lexicographically least clique of the given size, by ordered DFS;
    empty when none exists. A child is entered only if it and its later
    neighbours can still fill the clique, so nodes need no bound.

    `masks` must be a loop-free symmetric adjacency on n = len(masks)
    bits, and `size` non-negative (ValueError otherwise).
    """
    _adjacency(masks, size)
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
    """One pass: is any vertex outside the clique adjacent to all of it?
    `masks` as for find_disjoint_16, and `clique` distinct vertices of
    the graph, pairwise adjacent (ValueError otherwise)."""
    _adjacency(masks)
    cm = 0
    for v in map(operator.index, clique):
        # masks[v] has no bit v, so a repeated vertex fails here too
        if not 0 <= v < len(masks) or masks[v] & cm != cm:
            raise ValueError(f"{list(clique)} is not a clique of the graph")
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
    sets); a clique of `need` more vertices uses `need` distinct colours,
    so only vertices of colour >= need are branched on, in reverse colour
    order, each cleared from the candidates after its branch. Every
    clique is counted once, at its first branched vertex.

    Each top-level branch v is its own small problem: its candidates
    (the neighbours of v not yet cleared), by degree within that set,
    descending and stable, are renumbered 0..k-1 in one shared uint64
    table (_subproblem_table), so every deeper bitset is k bits wide (115
    on average on the conic graph) and follows MCQ's degree order.

    Below the root the search is level-synchronous and bit-parallel, in
    the style of San Segundo, Rodriguez-Losada & Jimenez (Computers & OR
    38(2), 2011), in integer numpy operations. Nodes wait in one pool per
    need. _branch advances a block of at most _CHUNK = 8192 nodes of one
    need by one level, and the children join the next need's pool; at
    need 1 their candidates are counted. The walk branches the deepest
    pool holding _CHUNK nodes, else the shallowest holding any (every
    pool above it is empty, so none can arrive there): every block is
    full but the last of each need. A pool takes children only while it
    holds fewer than _CHUNK nodes, so beyond the roots it never holds
    more than _CHUNK - 1 nodes plus one block's children. Colours,
    branches and nodes are those of a per-node search. The deadline is
    checked once per block; `exhausted` is False when it cut the search.

    `masks` must be a loop-free symmetric adjacency on n = len(masks)
    bits, and `size` non-negative (ValueError otherwise).
    """
    deadline = monotonic() + budget_seconds
    n = len(masks)
    adj = _adjacency(masks, size)
    if size <= 1:
        return (n if size else 1), True
    # The root colouring on n-bit ints: the vertices of colour >= size.
    non = [~(m | 1 << v) for v, m in enumerate(masks)]
    branch, uncol, colour = [], (1 << n) - 1, 0
    while uncol:
        colour += 1
        q = uncol
        while q:
            low = q & -q
            v = low.bit_length() - 1
            q &= non[v]
            uncol ^= low
            if colour >= size:
                branch.append(v)
    alive, subs = np.ones(n, dtype=bool), []
    for v in reversed(branch):
        sub = np.flatnonzero(adj[v] & alive)
        alive[v] = False
        degree = adj.take(sub, 0).take(sub, 1).sum(axis=1, dtype=np.int64)
        subs.append(sub[np.argsort(-degree, kind="stable")])
    tab, base = _subproblem_table(adj, subs)
    widths = np.array([len(sub) for sub in subs], dtype=np.int64)
    full = np.arange(64 * len(tab), dtype=np.int64) < widths[:, None]
    roots = np.packbits(full, axis=1, bitorder="little").view("<u8").T.copy()
    # pools[need]: the nodes of that need not yet branched, one (base, cand)
    count, pools = 0, [(base[:0], roots[:, :0])] * size
    need, kids = size - 1, (base, roots)
    while True:
        if need == 1:
            count += int(_popcount(kids[1]).sum())
        else:
            pools[need] = tuple(np.concatenate(pair, axis=-1) for pair in zip(pools[need], kids))
        del kids  # so that only the pool holds the children while the next block branches
        held = [len(pool[0]) for pool in pools]
        ready = [k for k in range(2, size) if held[k] >= _CHUNK]
        left = [k for k in range(2, size) if held[k]]
        if not left:
            return count, True
        need = ready[0] if ready else left[-1]
        b, c = pools[need]
        pools[need] = b[_CHUNK:], c[:, _CHUNK:]
        if monotonic() > deadline:
            return count, False
        kids = _branch(tab, b[:_CHUNK], c[:, :_CHUNK], need)
        need -= 1


# Nodes per clique-search block: 18 counts took 256/201/193/193/193 ms (medians) at 2^11..2^15.
_CHUNK = 8192

_DEBRUIJN = np.uint64(0x03F79D71B4CB0A89)
_DEBRUIJN_BIT = np.argsort([(int(_DEBRUIJN) << k) % 2**64 >> 58 for k in range(64)]).astype(np.int64)


def _adjacency(masks: list[int], size: int = 0) -> np.ndarray:
    """The n x n bool matrix of masks, n = len(masks); ValueError unless
    they are a loop-free symmetric adjacency on n bits and the clique
    size is non-negative. The size is read with operator.index, so a
    non-integral size raises TypeError."""
    if operator.index(size) < 0:
        raise ValueError(f"a clique cannot have negative size {size}")
    n = len(masks)
    width = (n + 7) // 8
    if not any(m >> n for m in masks):
        rows = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
        adj = np.unpackbits(rows.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)
        if not adj.diagonal().any() and (adj == adj.T).all():
            return adj
    raise ValueError("masks must be a loop-free symmetric adjacency on len(masks) bits")


def _subproblem_table(adj: np.ndarray, subs: list[np.ndarray]):
    """(tab, base): every sub-problem's closed neighbourhoods in one table.

    Sub-problem s owns columns base[s] + i, i < len(subs[s]), of tab: W =
    ceil(K / 64) uint64 rows for the widest K, word-major so that one word
    of many nodes is one contiguous read. Column base[s] + i has bit j
    (word j // 64, bit j % 64) set iff j = i or subs[s][i] ~ subs[s][j].
    """
    widths = [len(sub) for sub in subs]
    base = np.cumsum([0] + widths[:-1], dtype=np.int64)
    words = -(-max(widths, default=0) // 64) or 1
    tab = np.zeros((words, sum(widths)), "<u8")
    for sub, start in zip(subs, base):
        block = np.zeros((len(sub), 64 * words), dtype=bool)
        block[:, : len(sub)] = adj.take(sub, 0).take(sub, 1)
        np.fill_diagonal(block, True)
        tab[:, start : start + len(sub)] = np.packbits(block, axis=1, bitorder="little").view("<u8").T
    return tab, base


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each column of a W x m uint64 array, as int64: each word
    sums its bit pairs, nibbles and bytes (Warren, Hacker's Delight, 5-1)."""
    x = words - (words >> np.uint64(1) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (x >> np.uint64(2) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x *= np.uint64(0x0101010101010101)
    return (x >> np.uint64(56)).sum(axis=0, dtype=np.int64)


def _branch(tab: np.ndarray, base: np.ndarray, cand: np.ndarray, need: int):
    """The children (base, cand) of a block of nodes of one need.

    Node r searches the sub-problem at column base[r] of tab with the
    candidates in column r of cand (W x m, word-major). Each step colours
    one vertex of every node still colouring, greedily: an empty class q
    restarts as the uncoloured vertices, its lowest vertex v (_lowest_bit)
    takes the colour, and q &= ~tab[v], v's closed neighbourhood. From
    colour need on, every vertex is branched on: v's child keeps its
    neighbours coloured before it (those after it were branched on and
    cleared first). Children come node by node, in reverse colour order.

    A node takes one step per candidate: sorted by candidate count,
    descending, the nodes still colouring are a prefix. A node with fewer
    than need candidates has no child, and the count makes none: a vertex
    of colour c >= need has a neighbour in each earlier class, so its
    child has need - 1 candidates or more, and a root of colour >= size
    keeps size - 1, as roots are cleared in reverse colour order.
    """
    pop = _popcount(cand)
    order = np.argsort(-pop, kind="stable")
    pop, start, cand = pop.take(order), base.take(order), cand.take(order, axis=1)
    m = len(order)
    uncol, q = cand.copy(), np.zeros_like(cand)
    colour, nodes = np.zeros(m, dtype=np.int64), np.arange(m, dtype=np.int64)
    parents, kids = [nodes[:0]], [cand[:, :0]]
    for a in np.searchsorted(-pop, -np.arange(pop[0] if m else 0, dtype=np.int64)):
        qa, ua = q[:, :a], uncol[:, :a]
        some = qa[0].copy()
        for w in range(1, len(q)):
            some |= qa[w]
        fresh = some == np.uint64(0)
        colour[:a] += fresh
        qa |= ua & np.negative(fresh.astype(np.uint64))
        # q's first nonzero word is the number of zero words before it (q != 0)
        zero = qa[0] == np.uint64(0)
        word = zero.astype(np.int64)
        for w in range(1, len(q) - 1):
            zero &= qa[w] == np.uint64(0)
            word += zero
        at = word * np.int64(m)
        at += nodes[:a]
        low, idx = _lowest_bit(q.reshape(-1).take(at))
        idx += start[:a]
        idx += word << np.int64(6)
        nbr = tab.take(idx, axis=1)
        b = np.flatnonzero(colour[:a] >= need)
        if len(b):
            parents.append(b)
            # ua still holds v, so the child is v's neighbours coloured before it
            kid = nbr.take(b, 1)
            kid &= cand.take(b, 1) ^ ua.take(b, 1)
            kids.append(kid)
        qa &= ~nbr
        uncol.reshape(-1)[at] ^= low
    parent = order.take(np.concatenate(parents))
    # reversed, the children are in descending step; a stable sort by parent keeps that
    back = len(parent) - 1 - np.argsort(parent[::-1], kind="stable")
    return base.take(parent.take(back)), np.concatenate(kids, axis=1).take(back, axis=1)


def _lowest_bit(words: np.ndarray):
    """(low, k) for nonzero uint64 words: low = words & -words = 2^k, the
    lowest set bit, and k as int64. low * _DEBRUIJN's top 6 bits differ for
    each k < 64 and index k in _DEBRUIJN_BIT (Leiserson, Prokop & Randall, 1998)."""
    low = words & np.negative(words)
    return low, _DEBRUIJN_BIT.take((low * _DEBRUIJN >> np.uint64(58)).view(np.int64))
