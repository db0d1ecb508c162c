"""Stage runners and the machine-readable verification report.

Each stage returns an ordered report section of named checks, every
check carrying its expected value, the computed value, a pass flag and
a semantic source tag saying where the expected value gets its
authority:

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
builds objects and returns computed values, and raises only when an
object cannot be built or a claim without a check fails. Such an error
ends the run, and the report keeps the sections finished before it.

The JSON serialization is byte-stable for fixed flags except for the
"elapsed" fields; the thread count is accepted but changes nothing, and
it is not recorded in the JSON.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, census, exact, golay, leech, ns
from .errors import Conics800Error
from .lattices import IntegralLattice, short_vectors

SCHEMA = "conics800-report/1"

HEAVY_NORM_TARGET = 4
HEAVY_EXPECTED = leech.MINIMAL_COUNT


def _plain(value):
    """Make a value JSON-stable: tuples to lists, numpy to python."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    return value


def check(name: str, expected, computed, source: str) -> dict:
    expected = _plain(expected)
    computed = _plain(computed)
    return {
        "name": name,
        "expected": expected,
        "computed": computed,
        "pass": expected == computed,
        "source": source,
    }


@dataclass
class Pipeline:
    """Shared state threaded through the verification stages."""

    octad_choice: str = "lex"
    threads: int = 1
    code: golay.GolayCode | None = None
    frame: golay.Frame | None = None
    vectors: np.ndarray | None = None
    lam: IntegralLattice | None = None
    leech_gram: list | None = None
    conics: np.ndarray | None = None
    records: list | None = None
    true_products: np.ndarray | None = None
    hist: dict | None = None
    s: IntegralLattice | None = None
    n: ns.PolarizedLattice | None = None
    sections: dict = field(default_factory=dict)
    error: Conics800Error | None = None

    def choice_arg(self) -> int | None:
        return None if self.octad_choice == "lex" else int(self.octad_choice)


def _finish(section: dict, t0: float) -> tuple[dict, bool]:
    ok = all(c["pass"] for c in section["checks"])
    section["pass"] = ok
    section["elapsed"] = round(time.monotonic() - t0, 3)
    return section, ok


def stage_golay(state: Pipeline) -> tuple[dict, bool]:
    t0 = time.monotonic()
    raw = golay.build_golay()
    state.code, state.frame = golay.normalize_frame(raw, state.choice_arg())
    code = state.code
    dist = code.weight_distribution()
    cover = golay.steiner_cover_counts(code)
    cover_min, cover_max = int(cover.min()), int(cover.max())
    checks = [
        check("codeword_count", 4096, len(code.words), "construction"),
        check(
            "weight_distribution",
            {"0": 1, "8": 759, "12": 2576, "16": 759, "24": 1},
            {str(w): c for w, c in sorted(dist.items())},
            "exhaustive-scan",
        ),
        check("min_nonzero_weight", 8, golay.min_nonzero_weight(code), "exhaustive-scan"),
        check("complement_closed", True, golay.is_complement_closed(code), "exhaustive-scan"),
        check(
            "steiner_every_quintuple_once",
            [1, 1],
            [cover_min, cover_max],
            "exhaustive-scan",
        ),
        check("frame_octad_candidates", 4, len(state.frame.candidates), "exhaustive-scan"),
    ]
    return _finish({"checks": checks}, t0)


def stage_leech(state: Pipeline) -> tuple[dict, bool]:
    t0 = time.monotonic()
    state.vectors, cen = leech.census(state.code)
    basis = leech.extract_basis(state.vectors)
    state.lam = IntegralLattice(basis, ambient_scale=8)
    state.leech_gram = gram = state.lam.gram_int()
    checks = [
        check(
            "shape_counts",
            [leech.SHAPE31_COUNT, leech.SHAPE20_COUNT, leech.SHAPE40_COUNT],
            list(cen.shape_counts),
            "construction",
        ),
        check("total_minimal_vectors", leech.MINIMAL_COUNT, cen.total, "construction"),
        check("all_raw_norms_32", True, cen.all_norm_32, "exhaustive-scan"),
        check("no_duplicates", True, cen.distinct, "exhaustive-scan"),
        check("negation_closed", True, cen.negation_closed, "exhaustive-scan"),
        check(
            "basis_from_minimal_vectors",
            True,
            all(sum(x * x for x in row) == leech.RAW_NORM for row in basis),
            "construction",
        ),
        check("basis_gram_determinant", 1, exact.det_bareiss(gram), "determinant-oracle"),
        check(
            "basis_gram_even_diagonal",
            True,
            all(gram[i][i] % 2 == 0 for i in range(24)),
            "exhaustive-scan",
        ),
    ]
    return _finish({"checks": checks}, t0)


def stage_conics(state: Pipeline, clique_mode: str = "first") -> tuple[dict, bool]:
    t0 = time.monotonic()
    seed_gram = census.seed_gram()
    state.conics = census.find_conics(state.vectors)
    state.records = census.classify_all(state.conics, state.code)
    recount = census.recount_by_codewords(state.code, state.records)
    state.true_products, state.hist = census.intersection_data(state.conics)
    masks = census.disjointness_masks(state.true_products)
    clique = census.find_disjoint_16(masks)
    sub = state.true_products[np.ix_(clique, clique)]
    off = sub[~np.eye(len(clique), dtype=bool)]

    checks = [
        check("seed_gram", census.SEED_GRAM, seed_gram, "construction"),
        check("seed_gram_det", census.SEED_DET, exact.det_bareiss(seed_gram), "determinant-oracle"),
        check("conic_count", census.CONIC_COUNT, len(state.conics), "exhaustive-scan"),
        check(
            "pattern_split",
            census.PATTERN_COUNTS,
            census.pattern_split(state.records),
            "exhaustive-scan",
        ),
        check(
            "recount_underlined_factors",
            {"P1": 16, "P2": 16, "P3": 10, "P4": 3},
            {p: d["underline"] for p, d in recount["patterns"].items()},
            "independent-recount",
        ),
        check(
            "recount_totals",
            census.PATTERN_COUNTS,
            {p: d["recount"] for p, d in recount["patterns"].items()},
            "independent-recount",
        ),
        check("recount_grand_total", census.CONIC_COUNT, recount["total"], "independent-recount"),
        check(
            "pairwise_products_max_2",
            True,
            max(state.hist) <= 2,
            "exhaustive-scan",
        ),
        check(
            "self_products_4",
            True,
            bool((np.diagonal(state.true_products) == 4).all()),
            "exhaustive-scan",
        ),
        check(
            "intersection_histogram",
            {"-2": 400, "0": 72240, "1": 174720, "2": 72240},
            {str(k): v for k, v in sorted(state.hist.items())},
            "exhaustive-scan",
        ),
        check("disjoint_16_clique_found", 16, len(clique), "exhaustive-scan"),
        check(
            "clique_pairwise_products_2",
            True,
            bool((off == 2).all()),
            "exhaustive-scan",
        ),
        check(
            "clique_not_extendable",
            False,
            census.clique_extension_exists(masks, clique),
            "exhaustive-scan",
        ),
    ]

    # Frame invariance: the same split for every one of the 4 choices.
    # The run's own frame ("lex" is choice 0) reuses the split above.
    raw = golay.build_golay()
    splits = {}
    for choice in range(4):
        if choice == state.frame.choice:
            splits[str(choice)] = census.pattern_split(state.records)
            continue
        c2, _ = golay.normalize_frame(raw, choice)
        v2 = leech.all_minimal_vectors(c2)
        k2 = census.find_conics(v2)
        splits[str(choice)] = census.pattern_split(census.classify_all(k2, c2))
    checks.append(
        check(
            "frame_invariance_splits",
            {str(c): census.PATTERN_COUNTS for c in range(4)},
            splits,
            "independent-recount",
        )
    )

    section = {"checks": checks, "clique": [int(i) for i in clique]}
    if clique_mode == "all":
        count, exhausted = census.count_disjoint_16(masks)
        section["clique_count"] = {"count": count, "exhausted": exhausted}
    return _finish(section, t0)


def stage_ns(state: Pipeline) -> tuple[dict, bool]:
    t0 = time.monotonic()
    state.s = ns.build_S(state.lam, state.conics)
    state.n = ns.build_N(state.s, state.lam, state.conics)
    n = state.n
    disc = ns.verify_discriminants(n)
    kind1, kind2 = ns.scan_N(n)
    planted1 = ns.bad_vector_scan(ns.PLANTED_KIND1, (1, 0))
    planted2 = ns.bad_vector_scan(ns.PLANTED_KIND2, (1, 0))
    cls = n.classes
    ch = cls @ n.gram @ n.h
    cc = cls @ n.gram @ cls.T
    n_gram = n.gram.tolist()
    checks = [
        check("S_rank", 20, state.s.rank, "construction"),
        check("S_contains_hbar", True, state.s.contains(list(ns.HBAR)), "construction"),
        check(
            "S_root_free",
            0,
            len(short_vectors(state.s.gram_int(), 2)),
            "enumeration-oracle",
        ),
        check("hbar_parity_in_S", True, ns.check_hbar_parity(state.s), "exhaustive-scan"),
        check("N_rank", 20, n.rank, "construction"),
        check("N_det", -160, exact.det_bareiss(n_gram), "determinant-oracle"),
        check("N_signature", [1, 19, 0], list(exact.signature(n_gram)), "construction"),
        check("h_self_product", 4, int(n.h @ n.gram @ n.h), "construction"),
        check("h_parity_in_N", True, ns.check_h_parity(n), "exhaustive-scan"),
        check("classes_in_N", census.CONIC_COUNT, len(cls), "construction"),
        check("class_self_products_-2", True, bool((cc.diagonal() == -2).all()), "exhaustive-scan"),
        check("class_h_products_2", True, bool((ch == 2).all()), "exhaustive-scan"),
        check(
            "class_products_complementary",
            True,
            bool(np.array_equal(cc, 2 - state.true_products)),
            "exhaustive-scan",
        ),
        check(
            "glue_choice_independent",
            True,
            ns.check_glue_independence(n, state.conics, other_index=1),
            "independent-recount",
        ),
        check(
            "discriminant_orders",
            {"seed": 160, "N": 160, "T": 160},
            disc["group_orders"],
            "construction",
        ),
    ]
    for name in (
        "seed_block_form",
        "N_block_form_a",
        "N_block_form_b",
        "neg_N_vs_T",
        "complement_identity",
    ):
        checks.append(
            check(
                f"discriminant_{name}",
                {"isomorphic": True, "witness_ok": True},
                disc[name],
                "block-form-witness",
            )
        )
    checks += [
        check("bad_vectors_norm-2_h-orthogonal", 0, len(kind1), "enumeration-oracle"),
        check("bad_vectors_isotropic_degree2", 0, len(kind2), "enumeration-oracle"),
        check(
            "planted_control_exceptional",
            True,
            len(planted1[0]) > 0,
            "negative-control",
        ),
        check(
            "planted_control_isotropic",
            True,
            len(planted2[1]) > 0,
            "negative-control",
        ),
    ]
    return _finish({"checks": checks}, t0)


def stage_heavy(state: Pipeline) -> tuple[dict, bool]:
    """Independent short-vector enumeration over the 24x24 basis Gram."""
    t0 = time.monotonic()
    found4 = short_vectors(state.leech_gram, HEAVY_NORM_TARGET)
    found2 = short_vectors(state.leech_gram, 2)
    checks = [
        check("norm_4_vector_count", HEAVY_EXPECTED, len(found4), "enumeration-oracle"),
        check("norm_2_vector_count", 0, len(found2), "enumeration-oracle"),
    ]
    return _finish({"checks": checks}, t0)


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

    A stage that raises a package error ends the run: the report keeps
    the sections finished before it, reads overall false, and names
    the stage and the error under "error"; state.error holds it.
    """
    runners = {
        "golay": stage_golay,
        "leech": stage_leech,
        "conics": lambda st: stage_conics(st, clique_mode),
        "ns": stage_ns,
        "heavy": stage_heavy,
    }
    names = STAGE_ORDER[: STAGE_ORDER.index(upto) + 1] + (("heavy",) if heavy else ())
    overall = True
    error = None
    for name in names:
        try:
            section, ok = runners[name](state)
        except Conics800Error as exc:
            state.error = exc
            error = {"stage": name, "type": type(exc).__name__, "message": str(exc)}
            overall = False
            break
        state.sections[name] = section
        overall = overall and ok
    report = {
        "schema": SCHEMA,
        "environment": {
            "version": __version__,
            "octad_choice": state.octad_choice,
        },
        "stages": dict(state.sections),
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


def print_human(report: dict, stream) -> None:
    env = report["environment"]
    print(f"schema {report['schema']}  version {env['version']}  "
          f"octad-choice {env['octad_choice']}", file=stream)
    for stage, section in report["stages"].items():
        print(f"\n[{stage}]  elapsed {section['elapsed']}s", file=stream)
        for c in section["checks"]:
            mark = "PASS" if c["pass"] else "FAIL"
            line = f"  [{mark}] {c['name']}: {c['computed']}"
            if not c["pass"]:
                line += f"  (expected {c['expected']})"
            print(line, file=stream)
        if "clique" in section:
            print(f"  clique: {section['clique']}", file=stream)
        if "clique_count" in section:
            print(f"  clique_count: {section['clique_count']}", file=stream)
    if "error" in report:
        err = report["error"]
        print(f"\n[{err['stage']}]  {err['type']}: {err['message']}", file=stream)
    print(f"\noverall: {'PASS' if report['overall'] else 'FAIL'}", file=stream)
