"""CLI behavior: exit codes, output selection, JSON determinism."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

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


def test_leech_counts_line(capsys):
    assert cli.main(["leech", "--counts"]) == 0
    out = capsys.readouterr().out
    assert "total_minimal_vectors: 196560" in out
    assert "[98304, 97152, 1104]" in out


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


def _foreign_class(monkeypatch, vectors):
    # census row 0 is a minimal vector, not a conic
    build_N = ns.build_N

    def planted(s, conics):
        bad = conics.copy()
        bad[5] = vectors[0]
        return build_N(s, bad)

    monkeypatch.setattr(ns, "build_N", planted)


def _three_frame_candidates(monkeypatch, vectors):
    frame_candidates = golay.frame_candidates
    monkeypatch.setattr(golay, "frame_candidates", lambda code: frame_candidates(code)[:3])


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


_DISC_OK = {"isomorphic": True, "witness_ok": True}
_DISC_FAIL = {"isomorphic": False, "witness_ok": False}

# One planted fault per row: (command line, plant, exit code, error type,
# the row's expected and computed values, every row that fails). Not in
# the table: h_self_product, since h.h = 4 follows from h's doubled row
# [0 | 2] by the doubled-row Gram formula whatever N is.
PLANTED = {
    "frame_octad_candidates": (
        "golay", _three_frame_candidates, 1, None, 4, 3, {"frame_octad_candidates"},
    ),
    "shape_counts": (
        "leech", lambda mp, v: mp.setattr(leech, "SHAPE40_COUNT", 1105), 1, None,
        [98304, 97152, 1105], [98304, 97152, 1104], {"shape_counts"},
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
    "S_contains_hbar": (
        "ns", lambda mp, v: mp.setattr(ns, "HBAR", (2, 2) + (0,) * 22),
        3, "ConstructionError", True, False,
        {"S_contains_hbar", "hbar_parity_in_S"},
    ),
    "classes_in_N": (
        "ns", _foreign_class, 1, None, 800, 799,
        {"classes_in_N", "class_products_complementary"},
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
