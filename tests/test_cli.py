"""CLI behavior: exit codes, output selection, JSON determinism."""

import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conics800 import census, cli, golay, leech, ns, report

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_golay_subcommand(capsys, tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["golay", "--stats", "--json", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "codeword_count" in captured
    data = json.loads(out.read_text())
    assert data["schema"] == report.SCHEMA
    assert data["overall"] is True
    assert set(data["stages"]) == {"golay"}


def test_golay_exports(tmp_path):
    words = tmp_path / "w.txt"
    basis = tmp_path / "b.txt"
    assert cli.main(["golay", "--export", str(words), "--export-basis", str(basis)]) == 0
    assert len(words.read_text().splitlines()) == 4096
    assert len(basis.read_text().splitlines()) == 12


@pytest.mark.parametrize("flag", ["--json", "--export", "--export-basis"])
def test_an_output_file_that_cannot_be_opened_exits_3(flag, capsys, tmp_path):
    """The run ends with exit 3 and one stderr line that names the file,
    not a traceback and exit 1, the code of a failed check. The JSON is
    written before golay's export files, so it is there when they fail."""
    missing = tmp_path / "missing" / "out.txt"
    out = tmp_path / "g.json"
    argv = ["golay", flag, str(missing)] + ([] if flag == "--json" else ["--json", str(out)])
    assert cli.main(argv) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"cannot write {missing}: ")
    if flag != "--json":
        assert json.loads(out.read_text())["overall"] is True


def test_leech_counts_line(capsys):
    assert cli.main(["leech", "--counts"]) == 0
    out = capsys.readouterr().out
    assert "total_minimal_vectors: 196560" in out
    assert "[98304, 97152, 1104]" in out


# Each listing flag and the rows it prints, in place of the full listing.
LISTINGS = {
    "golay --stats": ["golay.codeword_count", "golay.weight_distribution"],
    "golay --steiner": ["golay.steiner_every_quintuple_once"],
    "golay --stats --steiner": [
        "golay.codeword_count", "golay.weight_distribution", "golay.steiner_every_quintuple_once",
    ],
    "leech --counts": ["leech.shape_counts", "leech.total_minimal_vectors"],
}


@pytest.mark.parametrize("command", list(LISTINGS))
def test_listing_flags_print_only_their_rows(command, capsys):
    assert cli.main(command.split()) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"[PASS] {row}" for row in LISTINGS[command]]


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        cli.main(["conics", "--octad-choice", "9"])
    assert exc2.value.code == 2


def test_verification_failure_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(leech, "MINIMAL_COUNT", 196561)
    assert cli.main(["leech"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out and "overall: FAIL" in out


def test_planted_conic_loss_exit_1(monkeypatch, tmp_path):
    find_conics = census.find_conics

    def drop_first(vectors, threads=1):
        return find_conics(vectors, threads=threads)[1:]

    monkeypatch.setattr(census, "find_conics", drop_first)
    out = tmp_path / "r.json"
    assert cli.main(["conics", "--json", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["overall"] is False
    assert "error" not in data
    checks = {c["name"]: c for c in data["stages"]["conics"]["checks"]}
    count = checks["conic_count"]
    assert (count["pass"], count["expected"], count["computed"]) == (False, 800, 799)
    split = checks["pattern_split"]
    assert split["pass"] is False
    assert sum(split["expected"].values()) == 800
    assert sum(split["computed"].values()) == 799


def test_construction_failure_exit_3(monkeypatch, capsys, tmp_path):
    from conics800.errors import ConstructionError

    def boom(vectors):
        raise ConstructionError("synthetic failure")

    monkeypatch.setattr(leech, "extract_basis", boom)
    out = tmp_path / "r.json"
    assert cli.main(["leech", "--json", str(out)]) == 3
    assert "construction failed" in capsys.readouterr().err
    data = json.loads(out.read_text())
    assert data["overall"] is False
    assert set(data["stages"]) == {"golay", "leech"}
    assert data["stages"]["golay"]["pass"] is True
    # the census rows are computed before extract_basis and stay
    kept = data["stages"]["leech"]
    assert [c["name"] for c in kept["checks"]] == [
        "shape_counts", "total_minimal_vectors", "all_raw_norms_32",
        "no_duplicates", "negation_closed",
    ]
    assert all(c["pass"] for c in kept["checks"])
    assert kept["pass"] is False
    assert data["error"] == {
        "stage": "leech", "type": "ConstructionError", "message": "synthetic failure"
    }


def test_verification_error_exit_1(monkeypatch, capsys, tmp_path):
    from conics800.errors import VerificationError

    def boom(vectors):
        raise VerificationError("synthetic mismatch")

    monkeypatch.setattr(leech, "extract_basis", boom)
    out = tmp_path / "r.json"
    assert cli.main(["leech", "--json", str(out)]) == 1
    assert "verification failed" in capsys.readouterr().err
    data = json.loads(out.read_text())
    assert data["overall"] is False
    kept = data["stages"]["leech"]
    assert [c["name"] for c in kept["checks"]] == [
        "shape_counts", "total_minimal_vectors", "all_raw_norms_32",
        "no_duplicates", "negation_closed",
    ]
    assert all(c["pass"] for c in kept["checks"])
    assert data["error"] == {
        "stage": "leech", "type": "VerificationError", "message": "synthetic mismatch"
    }


# One library call per stage, the command that reaches it, and the rows
# its stage computes before the call. report.norm_counts is called by
# S_root_free too, so the heavy case runs "leech --heavy", past no ns stage.
STAGE_CALLS = {
    "golay": (
        golay, "steiner_cover_counts", "golay",
        ["codeword_count", "weight_distribution", "min_nonzero_weight", "complement_closed"],
    ),
    "leech": (
        leech, "extract_basis", "leech",
        ["shape_counts", "total_minimal_vectors", "all_raw_norms_32", "no_duplicates",
         "negation_closed"],
    ),
    "conics": (
        census, "intersection_data", "conics",
        ["seed_gram", "seed_gram_det", "conic_count", "pattern_split",
         "recount_underlined_factors", "recount_totals", "recount_grand_total"],
    ),
    "ns": (ns, "build_N", "ns", ["S_rank", "S_contains_hbar", "S_root_free", "hbar_parity_in_S"]),
    "heavy": (report, "norm_counts", "leech --heavy", []),
}


@pytest.fixture(scope="module")
def passing_sections():
    rep, ok = report.run_pipeline(report.Pipeline("lex"), "ns", heavy=True)
    assert ok
    return report.strip_volatile(rep)["stages"]


@pytest.mark.parametrize("error", [ValueError, TypeError, MemoryError])
@pytest.mark.parametrize("stage", list(STAGE_CALLS))
def test_any_stage_error_writes_the_report_and_exits_3(
    stage, error, monkeypatch, capsys, tmp_path, passing_sections
):
    """An error that is not a VerificationError, raised by any library
    call, ends the run through the report's error record: the JSON keeps
    the sections before the stage whole and the stage's rows computed
    before the raise, and the exit code is 3."""
    module, name, command, kept = STAGE_CALLS[stage]

    def planted(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr(module, name, planted)
    out = tmp_path / "r.json"
    assert cli.main(command.split() + ["--json", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"stage {stage}: {error.__name__}: planted" in err
    data = json.loads(out.read_text())
    assert data["error"] == {"stage": stage, "type": error.__name__, "message": "planted"}
    assert data["overall"] is False
    stages = report.strip_volatile(data)["stages"]
    *earlier, last = stages
    assert last == stage
    assert {s: stages[s] for s in earlier} == {s: passing_sections[s] for s in earlier}
    assert stages[stage]["checks"] == passing_sections[stage]["checks"][: len(kept)]
    assert [c["name"] for c in stages[stage]["checks"]] == kept
    assert stages[stage]["pass"] is False


def test_keyboard_interrupt_passes_through_unrecorded(monkeypatch, tmp_path):
    def planted(conics):
        raise KeyboardInterrupt

    monkeypatch.setattr(census, "intersection_data", planted)
    out = tmp_path / "r.json"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["conics", "--json", str(out)])
    assert not out.exists()


def test_verify_all_skip_heavy_matches_reference(tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["verify-all", "--skip-heavy", "--json", str(out)]) == 0
    data = report.strip_volatile(json.loads(out.read_text(encoding="utf-8")))
    digest = hashlib.sha256(report.serialize(data).encode("utf-8")).hexdigest()
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["certify"]["light"]["lex"]
    assert digest == expected


def _duplicate_vector(monkeypatch, vectors):
    all_minimal_vectors = leech.all_minimal_vectors

    def planted(code):
        found = all_minimal_vectors(code)
        found[1] = found[0]
        return found

    monkeypatch.setattr(leech, "all_minimal_vectors", planted)


def _ns_conics(name, edit):
    """A plant in the conic input of ns.<name>, which reads a copy of the
    conics after edit(conics, vectors)."""

    def plant(monkeypatch, vectors):
        call = getattr(ns, name)
        monkeypatch.setattr(
            ns, name, lambda first, conics: call(first, edit(conics.copy(), vectors))
        )

    return plant


def _census_row_0_at(index):
    """Census row 0 at index. That row is a minimal vector outside S, not
    a conic: at index 0 it is build_N's glue row, at index 1
    check_glue_independence's, and elsewhere one conic of build_N's."""

    def edit(conics, vectors):
        conics[index] = vectors[0]
        return conics

    return edit


def _conic_799_as_2l_799_minus_l_798(conics, vectors):
    # v = 2 l_799 - l_798 has the class 2 c_799 - c_798, in N with c.h = 2;
    # c.c = v.hbar - v.v = 2 - (20 - 4 l_799.l_798), never -2 for distinct
    # conics, and its products with the other classes move too
    conics[799] = 2 * conics[799] - conics[798]
    return conics


def _swap_798_799(conics, vectors):
    # every class keeps c.c = -2 and c.h = 2, but classes 798 and 799
    # meet the others as conics 799 and 798 do
    conics[[798, 799]] = conics[[799, 798]]
    return conics


def _three_frame_candidates(monkeypatch, vectors):
    frame_candidates = golay.frame_candidates
    monkeypatch.setattr(golay, "frame_candidates", lambda code: frame_candidates(code)[:3])


def _generator_rows(edit):
    """A plant in the golay rows' input: normalize_frame reads the raw
    code spanned by the generator rows after edit."""

    def plant(monkeypatch, vectors):
        build_golay = golay.build_golay

        def planted():
            basis = tuple(edit(list(build_golay().basis)))
            return golay.GolayCode(words=golay._expand_basis(basis), basis=basis)

        monkeypatch.setattr(golay, "build_golay", planted)

    return plant


def _basis_input(edit):
    """A plant in the basis rows' input: extract_basis reads a copy of
    the census rows after edit. Its first 24 rows are -1 + 4e_k."""

    def plant(monkeypatch, vectors):
        extract_basis = leech.extract_basis
        monkeypatch.setattr(leech, "extract_basis", lambda rows: extract_basis(edit(rows.copy())))

    return plant


def _first_row_plus_second(rows):
    # -1 + 4e_1 becomes -2 + 4e_1 + 4e_2, of raw norm 96: the first 24 rows
    # still span the same sublattice, and the exchange keeps this row
    rows[0] += rows[1]
    return rows


def _root_8_z24(rows):
    # (2, 2) and (2, -2) on each pair of positions: a basis of sqrt(8) Z^24,
    # odd and unimodular at scale 1/8, so the exchange stops at once
    rows[:24] = 0
    for k in range(0, 24, 2):
        rows[k, k : k + 2] = (2, 2)
        rows[k + 1, k : k + 2] = (2, -2)
    return rows


def _seed_gram_entry(monkeypatch, vectors):
    gram = [list(row) for row in census.SEED_GRAM]
    gram[0][1] = gram[1][0] = 3
    monkeypatch.setattr(census, "SEED_GRAM", tuple(map(tuple, gram)))


def _no_p2_profile(monkeypatch, vectors):
    p2 = next(k for k, p in census.PROFILES.items() if p == "P2")
    monkeypatch.delitem(census.PROFILES, p2)


def _e8_cubed_gram(monkeypatch, vectors):
    """The heavy stage reads E8+E8+E8 in place of the Leech Gram: even,
    unimodular and of rank 24 too, but with 720 roots and 179280 vectors
    of norm 4."""
    edges = {(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)}
    e8 = [[2 if i == j else -1 if (min(i, j), max(i, j)) in edges else 0 for j in range(8)]
          for i in range(8)]
    gram = [[e8[i % 8][j % 8] if i // 8 == j // 8 else 0 for j in range(24)] for i in range(24)]
    stage_leech = report.stage_leech

    def planted(state, section):
        stage_leech(state, section)
        state.leech_gram = gram

    monkeypatch.setattr(report, "stage_leech", planted)


def _root_in_s_gram(monkeypatch, vectors):
    """S_root_free reads S's Gram with its first basis row made a root
    orthogonal to the others: [[2]] plus the Gram of the other 19 rows.
    Those span a sublattice of root-free S, so +-e_0 are its only roots.
    Every other row reads S's basis, which is unchanged."""
    build_s = ns.build_S

    def planted(lam):
        s = build_s(lam)
        gram = s.gram_int()
        rooted = [[2] + [0] * (len(gram) - 1)] + [[0] + row[1:] for row in gram[1:]]
        s.gram_int = lambda: rooted
        return s

    monkeypatch.setattr(ns, "build_S", planted)


def _clique_graph(edit):
    """A plant in the clique rows' graph input: disjointness_masks reads
    a copy of the true products after edit. The lexicographically least
    16-clique of the real graph is conics 0-15."""

    def plant(monkeypatch, vectors):
        disjointness_masks = census.disjointness_masks
        monkeypatch.setattr(
            census, "disjointness_masks", lambda products: disjointness_masks(edit(products.copy()))
        )

    return plant


def _swap_15_16(products):
    order = list(range(len(products)))
    order[15], order[16] = 16, 15
    return products[np.ix_(order, order)]


def _join_799_to_first_16(products):
    products[799, :16] = products[:16, 799] = 2
    return products


def _census_rows(edit):
    """A plant in the census rows' input: census() reads the rows of
    all_minimal_vectors after edit. The last four rows are the shape40
    vectors on positions 23 and 24, signs (+,+), (+,-), (-,+), (-,-)."""

    def plant(monkeypatch, vectors):
        all_minimal_vectors = leech.all_minimal_vectors
        monkeypatch.setattr(
            leech, "all_minimal_vectors", lambda code: edit(all_minimal_vectors(code))
        )

    return plant


def _append_pair_outside_the_shapes(rows):
    # +-(5, 1^7): norm 32 and a distinct, negation-closed pair, but 5 is
    # nobody's largest entry, so no shape count moves
    x = np.zeros((1, 24), dtype=np.int8)
    x[0, :8] = [5, 1, 1, 1, 1, 1, 1, 1]
    return np.concatenate([rows, x, -x])


def _norm_48_pair(rows):
    # +-(4, 4) on positions 23, 24 become +-(4, 4, 4) on 22-24
    rows[-4] = rows[-1] = 0
    rows[-4, 21:] = 4
    rows[-1, 21:] = -4
    return rows


def _unpaired_row(rows):
    # -(4, 4) on positions 23, 24 becomes (4, 1^16): the same largest
    # entry and norm, with no negative among the rows
    rows[-1] = 0
    rows[-1, 0] = 4
    rows[-1, 1:17] = 1
    return rows


def _drop_last_conic(monkeypatch, vectors):
    # in every frame, so the splits lose a P2 conic too
    find_conics = census.find_conics
    monkeypatch.setattr(
        census, "find_conics", lambda vectors, threads=1: find_conics(vectors, threads=threads)[:-1]
    )


def _products_of(edit):
    """A plant in the product rows' input: intersection_data reads a copy
    of the conics after edit. Conic 799 is outside the least 16-clique,
    conics 0-15, and extends it in no edit below."""

    def plant(monkeypatch, vectors):
        intersection_data = census.intersection_data
        monkeypatch.setattr(
            census, "intersection_data", lambda conics: intersection_data(edit(conics.copy()))
        )

    return plant


def _conic_799_repeats_798(conics):
    conics[799] = conics[798]
    return conics


def _conic_799_zero(conics):
    conics[799] = 0
    return conics


def _conic_799_negated(conics):
    conics[799] = -conics[799]
    return conics


def _frame_3_unnormalized(monkeypatch, vectors):
    """Frame 3 of the splits reads the raw code, in the coordinates it was
    built in, in place of its normalized code."""
    normalize_frame = golay.normalize_frame

    def planted(code, octad_choice=None):
        if octad_choice == 3:
            return code, normalize_frame(code, 3)[1]
        return normalize_frame(code, octad_choice)

    monkeypatch.setattr(golay, "normalize_frame", planted)


def _bad_lattice(w_gram, kind):
    """A rank-20 Gram, with h = e_0 and h.h = 4, that holds two bad
    vectors of one kind and none of the other. W18 is the Gram of the
    first 18 basis rows of W = hbar-perp in S: they span part of root-free
    W, so W18 is positive definite, and even with no root. Kind 1 is
    [4] + -([2] + W18): e.h = 4 e_0, so e.h = 0 leaves -([2] + W18), whose
    only vectors of norm -2 are +-e_1, and e.h = 2 has no solution. Kind 2
    is [[4, 2], [2, 0]] + -W18: with e = (a, b, w), e.h = 4a + 2b. At
    e.h = 2, e.e = 4a(1 - a) - w.W18.w is 0 only at e_1 and e_0 - e_1; at
    e.h = 0, e.e = -4a^2 - w.W18.w is never -2. Both h-complements are
    negative definite, as the scan needs."""
    w18 = [row[:18] for row in w_gram[:18]]
    head = [[4, 0], [0, -2]] if kind == 1 else [[4, 2], [2, 0]]
    gram = [row + [0] * 18 for row in head] + [[0, 0] + [-x for x in row] for row in w18]
    return gram, [1] + [0] * 19


def _scan_input(kind):
    """A plant in the bad-vector scan's input: scan_N reads _bad_lattice
    in place of N. Every other row reads N, which is unchanged."""

    def plant(monkeypatch, vectors):
        scan_N = ns.scan_N

        def planted(n):
            gram, h = _bad_lattice(n.w.gram_int(), kind)
            return scan_N(dataclasses.replace(n, gram=np.array(gram), h=np.array(h)))

        monkeypatch.setattr(ns, "scan_N", planted)

    return plant


def test_bad_lattices_hold_their_bad_vectors(n_lattice):
    """The scan finds exactly the planted vectors of each _bad_lattice,
    and each has the e.e and e.h of its kind, read off the Gram directly."""
    planted = {1: ([(0, 1) + (0,) * 18, (0, -1) + (0,) * 18], []),
               2: ([], [(0, 1) + (0,) * 18, (1, -1) + (0,) * 18])}
    for kind, expected in planted.items():
        gram, h = _bad_lattice(n_lattice.w.gram_int(), kind)
        found = ns.bad_vector_scan(gram, h)
        assert tuple(map(sorted, found)) == tuple(map(sorted, expected))
        for (norm, degree), vs in zip(((-2, 0), (0, 2)), found):
            for e in vs:
                ge = [sum(x * y for x, y in zip(row, e)) for row in gram]
                assert sum(x * y for x, y in zip(e, ge)) == norm
                assert sum(x * y for x, y in zip(h, ge)) == degree


_DISC_OK = {"isomorphic": True, "witness_ok": True}
_DISC_FAIL = {"isomorphic": False, "witness_ok": False}

_SPLIT = census.PATTERN_COUNTS

# Rows no planted fault can reach, with the reason.
UNREACHABLE = {
    "h_self_product": "h.h = 4 follows from h's doubled row [0 | 2] by the "
    "doubled-row Gram formula whatever N is",
    "class_h_products_2": "c.h = 2 for every class N holds: c's doubled row "
    "[2l - hbar | 1] meets h's [0 | 2] in 2 by the doubled-row Gram formula "
    "whatever l is, and a class outside N is left out of the classes",
}

_GOLAY_WEIGHTS = {"0": 1, "8": 759, "12": 2576, "16": 759, "24": 1}

# One planted fault per row: (command line, plant, exit code, error type,
# the row's expected and computed values, every row that fails).
PLANTED = {
    # the first 11 generator rows span a [24, 11] subcode
    "codeword_count": (
        "golay", _generator_rows(lambda rows: rows[:11]), 1, None, 4096, 2048,
        {
            "codeword_count", "weight_distribution", "complement_closed",
            "steiner_every_quintuple_once", "frame_octad_candidates",
        },
    ),
    # the last generator row repeats the first: 4096 words, each of a
    # [24, 11] subcode twice, so 2048 distinct words. The Steiner row reads only the code, and a
    # code that keeps the other golay rows is the Golay code (unique up to
    # a permutation), which is Steiner: so it shares this plant.
    "weight_distribution": (
        "golay", _generator_rows(lambda rows: rows[:11] + rows[:1]), 1, None,
        _GOLAY_WEIGHTS, {"0": 2, "8": 1012, "12": 2576, "16": 506},
        {
            "codeword_count", "weight_distribution", "complement_closed",
            "steiner_every_quintuple_once", "frame_octad_candidates",
        },
    ),
    "steiner_every_quintuple_once": (
        "golay", _generator_rows(lambda rows: rows[:11] + rows[:1]), 1, None, [1, 1], [0, 2],
        {
            "codeword_count", "weight_distribution", "complement_closed",
            "steiner_every_quintuple_once", "frame_octad_candidates",
        },
    ),
    # the generator polynomial without its x^11 term has a word of weight 4
    "min_nonzero_weight": (
        "golay", lambda mp, v: mp.setattr(golay, "_QR23_GEN", golay._QR23_GEN ^ (1 << 11)),
        1, None, 8, 4,
        {
            "weight_distribution", "min_nonzero_weight", "complement_closed",
            "steiner_every_quintuple_once", "frame_octad_candidates",
        },
    ),
    "complement_closed": (
        "golay", lambda mp, v: mp.setattr(golay, "FULL_MASK", (1 << 23) - 1), 1, None, True, False,
        {"complement_closed"},
    ),
    "basis_from_minimal_vectors": (
        "leech", _basis_input(_first_row_plus_second), 1, None, True, False,
        {"basis_from_minimal_vectors"},
    ),
    # the exchange stops at the first 24 rows' own determinant, 20480 * 8^12:
    # they span a sublattice of index 20480
    "basis_gram_determinant": (
        "leech", lambda mp, v: mp.setattr(leech, "RAW_BASIS_DET", 20480 * 8**12), 1, None,
        1, 20480**2, {"basis_gram_determinant"},
    ),
    "basis_gram_even_diagonal": (
        "leech", _basis_input(_root_8_z24), 1, None, True, False,
        {"basis_from_minimal_vectors", "basis_gram_even_diagonal"},
    ),
    "frame_octad_candidates": (
        "golay", _three_frame_candidates, 1, None, 4, 3, {"frame_octad_candidates"},
    ),
    "shape_counts": (
        "leech", lambda mp, v: mp.setattr(leech, "SHAPE40_COUNT", 1105), 1, None,
        [98304, 97152, 1105], [98304, 97152, 1104], {"shape_counts"},
    ),
    "total_minimal_vectors": (
        "leech", _census_rows(_append_pair_outside_the_shapes), 1, None, 196560, 196562,
        {"total_minimal_vectors"},
    ),
    "all_raw_norms_32": (
        "leech", _census_rows(_norm_48_pair), 1, None, True, False, {"all_raw_norms_32"},
    ),
    "negation_closed": (
        "leech", _census_rows(_unpaired_row), 1, None, True, False, {"negation_closed"},
    ),
    "norm_4_vector_count": (
        "leech --heavy", lambda mp, v: mp.setattr(report, "HEAVY_EXPECTED", 196561),
        1, None, 196561, 196560, {"norm_4_vector_count"},
    ),
    "norm_2_vector_count": (
        "leech --heavy", _e8_cubed_gram, 1, None, 0, 720,
        {"norm_2_vector_count", "norm_4_vector_count"},
    ),
    "seed_gram": (
        "conics", _seed_gram_entry, 1, None,
        [[4, 3, 0, 0, 0], [3, 4, 2, 0, 1], [0, 2, 4, 2, -1], [0, 0, 2, 4, 0], [0, 1, -1, 0, 4]],
        [[4, 2, 0, 0, 0], [2, 4, 2, 0, 1], [0, 2, 4, 2, -1], [0, 0, 2, 4, 0], [0, 1, -1, 0, 4]],
        {"seed_gram"},
    ),
    "seed_gram_det": (
        "conics", lambda mp, v: mp.setattr(census, "SEED_DET", 161), 1, None, 161, 160,
        {"seed_gram_det"},
    ),
    # the P2 conics classify nowhere, in every frame; the recount reads
    # the code alone, and the ns stage still runs
    "pattern_split": (
        "ns", _no_p2_profile, 1, None, census.PATTERN_COUNTS,
        {"P1": 96, "P2": 0, "P3": 320, "P4": 288},
        {"pattern_split", "frame_invariance_splits"},
    ),
    "recount_underlined_factors": (
        "conics", lambda mp, v: mp.setitem(census.WINDOW_CONDITIONS["P3"], "per_pair", 11),
        1, None, {"P1": 16, "P2": 16, "P3": 11, "P4": 3}, {"P1": 16, "P2": 16, "P3": 10, "P4": 3},
        {"recount_underlined_factors"},
    ),
    "recount_totals": (
        "conics", lambda mp, v: mp.setitem(census.WINDOW_CONDITIONS["P1"], "signs", 2),
        1, None, census.PATTERN_COUNTS, {"P1": 192, "P2": 96, "P3": 320, "P4": 288},
        {"recount_totals", "recount_grand_total"},
    ),
    "conic_count": (
        "conics", _drop_last_conic, 1, None, 800, 799,
        {"conic_count", "pattern_split", "intersection_histogram", "frame_invariance_splits"},
    ),
    # two equal conics meet in l.l = 4
    "pairwise_products_max_2": (
        "conics", _products_of(_conic_799_repeats_798), 1, None, True, False,
        {"pairwise_products_max_2", "intersection_histogram"},
    ),
    "self_products_4": (
        "conics", _products_of(_conic_799_zero), 1, None, True, False,
        {"self_products_4", "intersection_histogram"},
    ),
    # -l_799 meets the others in -2, -1, 0 and 2: within the bound of 2
    "intersection_histogram": (
        "conics", _products_of(_conic_799_negated), 1, None,
        {"-2": 400, "0": 72240, "1": 174720, "2": 72240},
        {"-2": 578, "-1": 440, "0": 72240, "1": 174280, "2": 72062},
        {"intersection_histogram"},
    ),
    "frame_invariance_splits": (
        "conics", _frame_3_unnormalized, 1, None,
        {str(c): _SPLIT for c in range(4)},
        {"0": _SPLIT, "1": _SPLIT, "2": _SPLIT, "3": {"P1": 48, "P2": 48, "P3": 128, "P4": 80}},
        {"frame_invariance_splits"},
    ),
    # disjoint read as l_i.l_j = -2: a perfect matching, with no 16-clique;
    # the empty clique then extends by any vertex
    "disjoint_16_clique_found": (
        "conics", _clique_graph(lambda products: -products), 1, None, 16, 0,
        {"disjoint_16_clique_found", "clique_not_extendable"},
    ),
    # the graph's labels 15 and 16 swapped: its least clique holds conic 16
    "clique_pairwise_products_2": (
        "conics", _clique_graph(_swap_15_16), 1, None, True, False,
        {"clique_pairwise_products_2"},
    ),
    # conic 799 joined to all of conics 0-15 in the graph
    "clique_not_extendable": (
        "conics", _clique_graph(_join_799_to_first_16), 1, None, False, True,
        {"clique_not_extendable"},
    ),
    "no_duplicates": (
        "leech", _duplicate_vector, 3, "ArithmeticError", True, False,
        {"no_duplicates", "negation_closed"},
    ),
    "S_rank": (
        "ns", lambda mp, v: mp.setattr(ns, "SEED_ROWS", ns.SEED_ROWS[:4]), 1, None, 20, 21,
        {
            "S_rank", "N_rank", "N_det", "N_signature", "discriminant_orders",
            "discriminant_N_block_form_a", "discriminant_N_block_form_b",
            "discriminant_neg_N_vs_T", "discriminant_complement_identity",
        },
    ),
    "S_root_free": ("ns", _root_in_s_gram, 1, None, 0, 2, {"S_root_free"}),
    "S_contains_hbar": (
        "ns", lambda mp, v: mp.setattr(ns, "HBAR", (2, 2) + (0,) * 22),
        3, "ConstructionError", True, False,
        {"S_contains_hbar", "hbar_parity_in_S"},
    ),
    "classes_in_N": (
        "ns", _ns_conics("build_N", _census_row_0_at(5)), 1, None, 800, 799,
        {"classes_in_N", "class_products_complementary"},
    ),
    # glued by a row outside S, N has rank 21 and one class, its glue's, of
    # norm other than -2; N is odd, so discriminant_form stops the stage
    "N_rank": (
        "ns", _ns_conics("build_N", _census_row_0_at(0)), 1, "VerificationError", 20, 21,
        {
            "N_rank", "N_det", "N_signature", "classes_in_N", "class_self_products_-2",
            "class_products_complementary", "glue_choice_independent",
        },
    ),
    "class_self_products_-2": (
        "ns", _ns_conics("build_N", _conic_799_as_2l_799_minus_l_798), 1, None, True, False,
        {"class_self_products_-2", "class_products_complementary"},
    ),
    "class_products_complementary": (
        "ns", _ns_conics("build_N", _swap_798_799), 1, None, True, False,
        {"class_products_complementary"},
    ),
    "glue_choice_independent": (
        "ns", _ns_conics("check_glue_independence", _census_row_0_at(1)), 1, None, True, False,
        {"glue_choice_independent"},
    ),
    # discr N has q = 5/4 on its 4-part; a form with q = 1/4 there is not isomorphic
    "discriminant_N_block_form_a": (
        "ns",
        lambda mp, v: mp.setattr(ns, "BLOCKS_N_A", ((4, Fraction(1, 4)),) + ns.BLOCKS_N_A[1:]),
        1, None, _DISC_OK, _DISC_FAIL,
        {"discriminant_N_block_form_a"},
    ),
    # form b with q = 1/4 in place of -1/4 on its 4-part is not isomorphic to discr N
    "discriminant_N_block_form_b": (
        "ns",
        lambda mp, v: mp.setattr(ns, "BLOCKS_N_B", ((4, Fraction(1, 4)),) + ns.BLOCKS_N_B[1:]),
        1, None, _DISC_OK, _DISC_FAIL,
        {"discriminant_N_block_form_b"},
    ),
    # a generator of the seed's 5-part has q in {2/5, 8/5}, never 4/5
    "discriminant_seed_block_form": (
        "ns",
        lambda mp, v: mp.setattr(ns, "BLOCKS_VT", ns.BLOCKS_VT[:-1] + ((5, Fraction(4, 5)),)),
        1, None, _DISC_OK, _DISC_FAIL,
        {"discriminant_seed_block_form"},
    ),
    "bad_vectors_norm-2_h-orthogonal": (
        "ns", _scan_input(1), 1, None, 0, 2, {"bad_vectors_norm-2_h-orthogonal"},
    ),
    "bad_vectors_isotropic_degree2": (
        "ns", _scan_input(2), 1, None, 0, 2, {"bad_vectors_isotropic_degree2"},
    ),
    # diag(4, -4) with h = (1, 0): h-perp is Z(0, 1) of norm -4, so there is
    # no root orthogonal to h, and e.h = 4 e_1 is never 2
    "planted_control_exceptional": (
        "ns", lambda mp, v: mp.setattr(ns, "PLANTED_KIND1", ((4, 0), (0, -4))),
        1, None, True, False,
        {"planted_control_exceptional"},
    ),
    "planted_control_isotropic": (
        "ns", lambda mp, v: mp.setattr(ns, "PLANTED_KIND2", ((4, 0), (0, -4))),
        1, None, True, False,
        {"planted_control_isotropic"},
    ),
}


# Rows of a full lex run with neither a case in PLANTED nor a reason in
# UNREACHABLE. Each new case removes its row here; a new row needs a case.
UNCOVERED = {
    "recount_grand_total", "hbar_parity_in_S", "N_det", "N_signature",
    "h_parity_in_N", "discriminant_orders",
    "discriminant_neg_N_vs_T", "discriminant_complement_identity",
}


def test_unreachable_rows_have_no_plant():
    assert not set(UNREACHABLE) & set(PLANTED)


def test_rows_without_a_case_are_the_pinned_set():
    """A full lex run's rows are distinct, every PLANTED and UNREACHABLE
    name is one of them, and the rest are exactly UNCOVERED."""
    rep, ok = report.run_pipeline(report.Pipeline("lex"), "ns", heavy=True)
    assert ok
    rows = [c["name"] for sec in rep["stages"].values() for c in sec["checks"]]
    assert len(rows) == len(set(rows))
    assert set(PLANTED) | set(UNREACHABLE) <= set(rows)
    assert set(rows) - set(PLANTED) - set(UNREACHABLE) == UNCOVERED


@pytest.mark.parametrize("row", list(PLANTED))
def test_planted_fault_fails_its_row(row, monkeypatch, tmp_path, vectors):
    command, plant, exit_code, error, expected, computed, failing = PLANTED[row]
    plant(monkeypatch, vectors)
    out = tmp_path / "r.json"
    assert cli.main(command.split() + ["--json", str(out)]) == exit_code
    data = json.loads(out.read_text())
    assert data["overall"] is False
    assert data.get("error", {}).get("type") == error
    rows = {c["name"]: c for sec in data["stages"].values() for c in sec["checks"]}
    assert (rows[row]["pass"], rows[row]["expected"], rows[row]["computed"]) == (
        False, expected, computed
    )
    assert {name for name, c in rows.items() if not c["pass"]} == failing
    if error is None:  # a failing row does not stop the run
        last = "heavy" if "--heavy" in command else command.split()[0]
        assert list(data["stages"])[-1] == last


def test_json_determinism_across_threads(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["conics", "--threads", "1", "--json", str(a)]) == 0
    assert cli.main(["conics", "--threads", "3", "--json", str(b)]) == 0
    ra = report.strip_volatile(json.loads(a.read_text()))
    rb = report.strip_volatile(json.loads(b.read_text()))
    sa = json.dumps(ra, indent=2, ensure_ascii=False)
    sb = json.dumps(rb, indent=2, ensure_ascii=False)
    assert sa == sb


def test_octad_choice_flag(tmp_path):
    out = tmp_path / "c.json"
    assert cli.main(["conics", "--octad-choice", "2", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["environment"]["octad_choice"] == "2"
    conics_checks = {c["name"]: c for c in data["stages"]["conics"]["checks"]}
    assert conics_checks["pattern_split"]["pass"] is True


def test_clique_all_mode(tmp_path):
    out = tmp_path / "k.json"
    assert cli.main(["conics", "--clique", "all", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["clique"]["count"]
    cc = data["stages"]["conics"]["clique_count"]
    assert cc == {"count": expected, "exhausted": True}
