"""CLI behavior: exit codes, output selection, JSON determinism."""

import json
from pathlib import Path

import pytest

from conics800 import census, cli, leech, report

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
    assert set(data["stages"]) == {"golay"}
    assert data["stages"]["golay"]["pass"] is True
    assert data["error"] == {
        "stage": "leech", "type": "ConstructionError", "message": "synthetic failure"
    }


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
