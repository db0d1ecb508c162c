"""Stage runners and the machine-readable verification report.

Each stage appends named checks to its report section, each one as soon
as the value it judges is computed. Every check carries its expected
value, the computed value, a pass flag and a semantic source tag saying
where the expected value gets its authority:

- construction:        direct property of the object just built
- exhaustive-scan:     full enumeration over the relevant finite set
- independent-recount: second computation sharing no code path with
                       the first
- determinant-oracle:  fraction-free determinant recomputation
- enumeration-oracle:  independent short-vector enumeration
- block-form-witness:  isomorphism to a stated block form, witness
                       re-verified element by element
- negative-control:    planted counterexample that must be caught

The checks are the only judge of the claims they name: the library
returns what it builds (a glue row outside S gives a rank-21 N for
N_rank to read), and raises only on a broken input contract (entries,
shapes, symmetry, ranges, sizes, choices, h.h = 4) or an unmet
precondition of a construction: an independent basis; an integral,
even (discriminant_form is N's one evenness check), nondegenerate or
positive-definite Gram; seed rows in the ambient lattice; a frame
candidate for the octad choice; minimal vectors that span; int64
bounds; size and pass limits. A stage error ends the run: the report
keeps every check computed before it, the failing stage's partial
section included, and its "error" record is the one account of it.

The JSON serialization is byte-stable for fixed flags except for the
"elapsed" fields; the thread count is accepted but changes nothing, and
it is not recorded in the JSON.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, census, exact, golay, leech, ns
from .lattices import IntegralLattice, norm_counts
from .lattices import short_vectors  # noqa: F401 (perfbench's tracer test reads it here)

SCHEMA = "conics800-report/1"

HEAVY_NORM_TARGET = 4
HEAVY_EXPECTED = leech.MINIMAL_COUNT

# Classes per block of the class products.
_CLASS_ROWS = 64


def check(name: str, expected, computed, source: str) -> dict:
    """One row; both values are already JSON values (no tuple or numpy)."""
    return {
        "name": name,
        "expected": expected,
        "computed": computed,
        "pass": expected == computed,
        "source": source,
    }


@dataclass
class Pipeline:
    """The run's flags and the objects a later stage reads."""

    octad_choice: str = "lex"
    threads: int = 1
    raw_code: golay.GolayCode | None = None
    code: golay.GolayCode | None = None
    frame: golay.Frame | None = None
    vectors: np.ndarray | None = None
    lam: IntegralLattice | None = None
    leech_gram: list | None = None
    conics: np.ndarray | None = None
    true_products: np.ndarray | None = None

    def choice_arg(self) -> int | None:
        return None if self.octad_choice == "lex" else int(self.octad_choice)


def stage_golay(state: Pipeline, section: dict) -> None:
    add = section["checks"].append
    state.raw_code = golay.build_golay()
    state.code, state.frame = golay.normalize_frame(state.raw_code, state.choice_arg())
    code = state.code
    add(check("codeword_count", 4096, len(set(code.words)), "construction"))
    add(
        check(
            "weight_distribution",
            {"0": 1, "8": 759, "12": 2576, "16": 759, "24": 1},
            {str(w): c for w, c in sorted(code.weight_distribution().items())},
            "exhaustive-scan",
        )
    )
    add(check("min_nonzero_weight", 8, golay.min_nonzero_weight(code), "exhaustive-scan"))
    add(check("complement_closed", True, golay.is_complement_closed(code), "exhaustive-scan"))
    cover = golay.steiner_cover_counts(code)
    add(
        check(
            "steiner_every_quintuple_once",
            [1, 1],
            [int(cover.min()), int(cover.max())],
            "exhaustive-scan",
        )
    )
    add(check("frame_octad_candidates", 4, len(state.frame.candidates), "exhaustive-scan"))


def stage_leech(state: Pipeline, section: dict) -> None:
    add = section["checks"].append
    state.vectors, cen = leech.census(state.code)
    add(
        check(
            "shape_counts",
            [leech.SHAPE31_COUNT, leech.SHAPE20_COUNT, leech.SHAPE40_COUNT],
            list(cen.shape_counts),
            "construction",
        )
    )
    add(check("total_minimal_vectors", leech.MINIMAL_COUNT, cen.total, "construction"))
    add(check("all_raw_norms_32", True, cen.all_norm_32, "exhaustive-scan"))
    add(check("no_duplicates", True, cen.distinct, "exhaustive-scan"))
    add(check("negation_closed", True, cen.negation_closed, "exhaustive-scan"))
    basis = leech.extract_basis(state.vectors)
    add(
        check(
            "basis_from_minimal_vectors",
            True,
            all(sum(x * x for x in row) == leech.RAW_NORM for row in basis),
            "construction",
        )
    )
    state.lam = IntegralLattice(basis, ambient_scale=8)
    state.leech_gram = gram = state.lam.gram_int()
    add(check("basis_gram_determinant", 1, exact.det_bareiss(gram), "determinant-oracle"))
    add(
        check(
            "basis_gram_even_diagonal",
            True,
            all(gram[i][i] % 2 == 0 for i in range(24)),
            "exhaustive-scan",
        )
    )


def stage_conics(state: Pipeline, section: dict, clique_mode: str = "first") -> None:
    add = section["checks"].append
    seed_gram = census.seed_gram()
    add(check("seed_gram", [list(r) for r in census.SEED_GRAM], seed_gram, "construction"))
    add(check("seed_gram_det", census.SEED_DET, exact.det_bareiss(seed_gram), "determinant-oracle"))
    state.conics = census.find_conics(state.vectors)
    state.vectors = None  # its last reader: the frames below build their own rows
    add(check("conic_count", census.CONIC_COUNT, len(state.conics), "exhaustive-scan"))
    records = census.classify_all(state.conics, state.code)
    add(
        check(
            "pattern_split",
            census.PATTERN_COUNTS,
            census.pattern_split(records),
            "exhaustive-scan",
        )
    )
    recount = census.recount_by_codewords(state.code)
    add(
        check(
            "recount_underlined_factors",
            {p: c["per_pair"] for p, c in census.WINDOW_CONDITIONS.items()},
            {p: d["underline"] for p, d in recount["patterns"].items()},
            "independent-recount",
        )
    )
    add(
        check(
            "recount_totals",
            census.PATTERN_COUNTS,
            {p: d["recount"] for p, d in recount["patterns"].items()},
            "independent-recount",
        )
    )
    add(check("recount_grand_total", census.CONIC_COUNT, recount["total"], "independent-recount"))
    state.true_products, hist = census.intersection_data(state.conics)
    add(check("pairwise_products_max_2", True, max(hist) <= 2, "exhaustive-scan"))
    add(
        check(
            "self_products_4",
            True,
            bool((np.diagonal(state.true_products) == 4).all()),
            "exhaustive-scan",
        )
    )
    add(
        check(
            "intersection_histogram",
            {"-2": 400, "0": 72240, "1": 174720, "2": 72240},
            {str(k): v for k, v in sorted(hist.items())},
            "exhaustive-scan",
        )
    )
    masks = census.disjointness_masks(state.true_products)
    clique = census.find_disjoint_16(masks)
    add(check("disjoint_16_clique_found", 16, len(clique), "exhaustive-scan"))
    sub = state.true_products[np.ix_(clique, clique)]
    off = sub[~np.eye(len(clique), dtype=bool)]
    add(check("clique_pairwise_products_2", True, bool((off == 2).all()), "exhaustive-scan"))
    add(
        check(
            "clique_not_extendable",
            False,
            census.clique_extension_exists(masks, clique),
            "exhaustive-scan",
        )
    )

    # Frame invariance: the same split for every one of the 4 choices.
    # The run's own frame ("lex" is choice 0) reuses the split above, and
    # every other frame re-normalizes the raw code stage_golay built.
    splits = {
        str(choice): census.pattern_split(records)
        if choice == state.frame.choice
        else _frame_split(state.raw_code, choice)
        for choice in range(4)
    }
    add(
        check(
            "frame_invariance_splits",
            {str(c): census.PATTERN_COUNTS for c in range(4)},
            splits,
            "independent-recount",
        )
    )

    section["clique"] = [int(i) for i in clique]
    if clique_mode == "all":
        count, exhausted = census.count_disjoint_16(masks)
        section["clique_count"] = {"count": count, "exhausted": exhausted}


def _frame_split(raw_code: golay.GolayCode, choice: int) -> dict[str, int]:
    """The pattern split of one frame's conics, from its own minimal
    vectors; the rows are freed on return, before the next frame builds
    its own."""
    code, _ = golay.normalize_frame(raw_code, choice)
    conics = census.find_conics(leech.all_minimal_vectors(code))
    return census.pattern_split(census.classify_all(conics, code))


def _class_products(n: ns.PolarizedLattice, true_products: np.ndarray) -> tuple[bool, bool]:
    """(every class self-product is -2, the class products are 2 minus
    the true products), read in blocks of _CLASS_ROWS classes, each an
    int64_product of its classes, N's Gram and every class, so no
    class-by-class matrix exists. 2 - true_products keeps the int32 of
    intersection_data, exact as every true product is at most 49152 in
    size, and is formed a block at a time."""
    cls = n.classes
    self_ok, complementary = True, len(cls) == len(true_products)
    for s in range(0, len(cls), _CLASS_ROWS):
        block = ns.int64_product(cls[s : s + _CLASS_ROWS], n.gram, cls.T)
        self_ok = self_ok and bool((block.diagonal(s) == -2).all())
        complementary = complementary and np.array_equal(
            block, 2 - true_products[s : s + _CLASS_ROWS]
        )
    return self_ok, complementary


def stage_ns(state: Pipeline, section: dict) -> None:
    add = section["checks"].append
    s = ns.build_S(state.lam)
    add(check("S_rank", 20, s.rank, "construction"))
    add(check("S_contains_hbar", True, s.contains(list(ns.HBAR)), "construction"))
    add(check("S_root_free", 0, norm_counts(s.gram_int(), 2)[2], "enumeration-oracle"))
    add(check("hbar_parity_in_S", True, ns.check_hbar_parity(s), "exhaustive-scan"))
    n = ns.build_N(s, state.conics)
    n_gram = n.gram.tolist()
    add(check("N_rank", 20, n.rank, "construction"))
    add(check("N_det", -160, exact.det_bareiss(n_gram), "determinant-oracle"))
    add(check("N_signature", [1, 19, 0], list(exact.signature(n_gram)), "construction"))
    add(check("h_self_product", 4, int(ns.int64_product(n.h, n.gram, n.h)), "construction"))
    add(check("h_parity_in_N", True, ns.check_h_parity(n), "exhaustive-scan"))
    cls = n.classes
    add(check("classes_in_N", census.CONIC_COUNT, len(cls), "construction"))
    self_ok, complementary = _class_products(n, state.true_products)
    ch = ns.int64_product(cls, n.gram, n.h)
    add(check("class_self_products_-2", True, self_ok, "exhaustive-scan"))
    add(check("class_h_products_2", True, bool((ch == 2).all()), "exhaustive-scan"))
    add(check("class_products_complementary", True, complementary, "exhaustive-scan"))
    add(
        check(
            "glue_choice_independent",
            True,
            ns.check_glue_independence(n, state.conics),
            "independent-recount",
        )
    )
    disc = ns.verify_discriminants(n)
    add(
        check(
            "discriminant_orders",
            {"seed": 160, "N": 160, "T": 160},
            disc["group_orders"],
            "construction",
        )
    )
    for name in [k for k in disc if k != "group_orders"]:
        add(
            check(
                f"discriminant_{name}",
                {"isomorphic": True, "witness_ok": True},
                disc[name],
                "block-form-witness",
            )
        )
    kind1, kind2 = ns.scan_N(n)
    add(check("bad_vectors_norm-2_h-orthogonal", 0, len(kind1), "enumeration-oracle"))
    add(check("bad_vectors_isotropic_degree2", 0, len(kind2), "enumeration-oracle"))
    planted1, _ = ns.bad_vector_scan(ns.PLANTED_KIND1, (1, 0))
    add(check("planted_control_exceptional", True, len(planted1) > 0, "negative-control"))
    _, planted2 = ns.bad_vector_scan(ns.PLANTED_KIND2, (1, 0))
    add(check("planted_control_isotropic", True, len(planted2) > 0, "negative-control"))


def stage_heavy(state: Pipeline, section: dict) -> None:
    """Independent short-vector enumeration over the 24x24 basis Gram.

    The rows judge counts only, so both come from one norm_counts walk
    at norm 4: an exact walk after the same prologue as short_vectors,
    which merges the nodes with equal reduced states, builds no row, and
    counts its leaves by norm, so norm 2 is read off the same walk.
    """
    add = section["checks"].append
    counts = norm_counts(state.leech_gram, HEAVY_NORM_TARGET)
    count4 = counts[HEAVY_NORM_TARGET]
    add(check("norm_4_vector_count", HEAVY_EXPECTED, count4, "enumeration-oracle"))
    add(check("norm_2_vector_count", 0, counts[2], "enumeration-oracle"))


STAGE_ORDER = ("golay", "leech", "conics", "ns")


def run_pipeline(
    state: Pipeline,
    upto: str,
    heavy: bool = False,
    clique_mode: str = "first",
) -> tuple[dict, bool]:
    """Run stages in order up to `upto` (inclusive), then the optional
    heavy cross-check; earlier stages are each stage's preconditions,
    so their sections are part of the report too.

    Each stage appends its rows to a fresh section {"checks": []},
    timed here, whose "pass" is true when the stage returned and every
    row passes. A stage that raises any Exception ends the run: its
    section keeps the rows computed before the raise, and the report
    reads overall false and names the stage, the error's type and its
    message under "error". KeyboardInterrupt and SystemExit are not
    Exceptions: they pass through unrecorded, and no report is returned.
    """
    runners = {
        "golay": stage_golay,
        "leech": stage_leech,
        "conics": lambda st, sec: stage_conics(st, sec, clique_mode),
        "ns": stage_ns,
        "heavy": stage_heavy,
    }
    names = STAGE_ORDER[: STAGE_ORDER.index(upto) + 1] + (("heavy",) if heavy else ())
    sections: dict = {}
    overall = True
    error = None
    for name in names:
        section = sections[name] = {"checks": []}
        t0 = time.monotonic()
        try:
            runners[name](state, section)
        except Exception as exc:
            error = {"stage": name, "type": type(exc).__name__, "message": str(exc)}
        section["pass"] = error is None and all(c["pass"] for c in section["checks"])
        section["elapsed"] = round(time.monotonic() - t0, 3)
        overall = overall and section["pass"]
        if error is not None:
            break
    report = {
        "schema": SCHEMA,
        "environment": {
            "version": __version__,
            "octad_choice": state.octad_choice,
        },
        "stages": sections,
        "overall": overall,
    }
    if error is not None:
        report["error"] = error
    return report, overall


def serialize(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"


def strip_volatile(obj):
    """Drop the elapsed fields; used for determinism comparisons."""
    if isinstance(obj, dict):
        return {k: strip_volatile(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


def format_row(c: dict, label: str) -> str:
    """One check as a line: its mark, label and computed value, and its
    expected value when it fails."""
    line = f"[{'PASS' if c['pass'] else 'FAIL'}] {label}: {c['computed']}"
    if not c["pass"]:
        line += f"  (expected {c['expected']})"
    return line


def print_human(report: dict, stream) -> None:
    env = report["environment"]
    print(f"schema {report['schema']}  version {env['version']}  "
          f"octad-choice {env['octad_choice']}", file=stream)
    for stage, section in report["stages"].items():
        print(f"\n[{stage}]  elapsed {section['elapsed']}s", file=stream)
        for c in section["checks"]:
            print("  " + format_row(c, c["name"]), file=stream)
        if "clique" in section:
            print(f"  clique: {section['clique']}", file=stream)
        if "clique_count" in section:
            print(f"  clique_count: {section['clique_count']}", file=stream)
    if "error" in report:
        err = report["error"]
        print(f"\n[{err['stage']}]  {err['type']}: {err['message']}", file=stream)
    print(f"\noverall: {'PASS' if report['overall'] else 'FAIL'}", file=stream)
