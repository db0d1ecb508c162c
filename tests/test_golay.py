"""Tests for the [24,12,8] code construction and frame normalization."""

import random

import pytest

from conics800 import golay
from conics800.errors import ConstructionError


def test_weight_distribution(code):
    assert code.weight_distribution() == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def test_codeword_count_and_min_weight(code):
    assert len(code.words) == 4096
    assert golay.min_nonzero_weight(code) == 8


def test_linearity_under_xor(code):
    rng = random.Random(3)
    words = code.words
    for _ in range(500):
        a = rng.choice(words)
        b = rng.choice(words)
        assert a ^ b in code


def test_complement_closure(code):
    assert golay.is_complement_closed(code)


def test_steiner_system(code):
    cover = golay.steiner_cover_counts(code)
    assert len(cover) == 42504
    assert cover.min() == 1 and cover.max() == 1
    # Negative control: two "octads" sharing the five points 20..24. That
    # quintuple, last in colex order, is covered twice; most are not covered.
    shared = golay.mask_of(range(20, 25))
    words = (shared | golay.mask_of((1, 2, 3)), shared | golay.mask_of((4, 5, 6)))
    cover = golay.steiner_cover_counts(golay.GolayCode(words=words, basis=()))
    assert len(cover) == 42504
    assert cover.max() == 2 and cover.min() == 0
    assert cover[-1] == 2 and cover.sum() == 2 * 56


def test_octad_count(code):
    assert len(code.octads) == 759


def test_frame_candidates(code, frame):
    cands = golay.frame_candidates(code)
    assert len(cands) == 4
    assert golay.FRAME_OCTAD_MASK in cands
    assert frame.candidates == tuple(sorted(cands))
    for mask in cands:
        assert mask & golay.FIXED_MASK == golay.mask_of((1, 2, 4, 5))
        assert golay.weight(mask) == 8


def test_normalize_frame_idempotent(code):
    again, _ = golay.normalize_frame(code)
    assert again.words == code.words


def test_normalize_frame_choices_all_valid():
    raw = golay.build_golay()
    splits = set()
    for choice in range(4):
        normalized, _ = golay.normalize_frame(raw, octad_choice=choice)
        assert normalized.weight_distribution() == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
        assert golay.FRAME_OCTAD_MASK in normalized
        splits.add(normalized.words)
    # choices give permuted but equally valid codes
    assert len(splits) >= 1


def test_normalize_frame_bad_choice(monkeypatch):
    raw = golay.build_golay()
    with pytest.raises((IndexError, ValueError)):
        golay.normalize_frame(raw, octad_choice=7)
    # choice 3 beyond three candidates found
    frame_candidates = golay.frame_candidates
    monkeypatch.setattr(golay, "frame_candidates", lambda code: frame_candidates(code)[:3])
    with pytest.raises(ConstructionError, match="only 3 frame candidates"):
        golay.normalize_frame(raw, octad_choice=3)


def test_codewords_meeting_window(code):
    nine = golay.mask_of(range(1, 10))
    total = 0
    by_pattern = {}
    for pattern in range(512):
        sub = golay.codewords_meeting(code, nine, pattern)
        by_pattern[pattern] = len(sub)
        total += len(sub)
        for w in sub:
            assert w & nine == pattern
    assert total == 4096
    with pytest.raises(ValueError):
        golay.codewords_meeting(code, nine, golay.mask_of((10,)))


def test_mask_positions_roundtrip():
    for positions in [(1,), (1, 24), (2, 3, 5, 8, 13, 21)]:
        mask = golay.mask_of(positions)
        assert golay.positions_of(mask) == tuple(positions)
        assert golay.weight(mask) == len(positions)
    for outside in (0, 25):
        with pytest.raises(ValueError, match="outside 1..24"):
            golay.mask_of([outside])


def test_mask_to_string():
    s = golay.mask_to_string(golay.mask_of((1, 3, 24)))
    assert len(s) == 24
    assert s[0] == "1" and s[1] == "0" and s[2] == "1" and s[23] == "1"


def test_export_codewords(code, tmp_path):
    p = tmp_path / "words.txt"
    golay.export_codewords(code, p)
    lines = p.read_text().splitlines()
    assert len(lines) == 4096
    assert lines == sorted(lines)
    assert all(len(x) == 24 and set(x) <= {"0", "1"} for x in lines)


def test_export_basis(code, tmp_path):
    p = tmp_path / "basis.txt"
    golay.export_basis(code, p)
    lines = p.read_text().splitlines()
    assert len(lines) == 12
    masks = [int(x[::-1], 2) for x in lines]
    assert all(m in code for m in masks)
