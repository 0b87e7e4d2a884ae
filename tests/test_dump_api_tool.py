"""Tests for tools/dump_api.py: check/update flows and determinism."""

from __future__ import annotations

import pytest

import tools.dump_api as dump_api


@pytest.fixture()
def golden(tmp_path, monkeypatch):
    """Redirect the golden file to a throwaway path."""
    path = tmp_path / "api_surface.txt"
    monkeypatch.setattr(dump_api, "GOLDEN", path)
    return path


def test_dump_surface_is_deterministic_and_sorted():
    first = dump_api.dump_surface()
    second = dump_api.dump_surface()
    assert first == second
    assert first == sorted(first)
    assert len(first) > 100  # the frozen v2 surface is substantial
    assert any(line.startswith("repro.CrowdRTSE ") for line in first)


def test_update_then_check_roundtrip(golden, capsys):
    assert dump_api.main(["--update"]) == 0
    assert golden.is_file()
    assert dump_api.main(["--check"]) == 0
    out = capsys.readouterr().out
    assert "matches" in out


def test_check_fails_on_drift_with_diff_on_stderr(golden, capsys):
    assert dump_api.main(["--update"]) == 0
    lines = golden.read_text().splitlines()
    removed = lines.pop(0)
    golden.write_text("\n".join(lines) + "\n")

    assert dump_api.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert f"+{removed}" in err  # the live-only line shows in the diff
    assert "--update" in err  # tells the caller how to accept the change


def test_check_fails_when_golden_missing(golden, capsys):
    assert dump_api.main(["--check"]) == 1
    assert "missing" in capsys.readouterr().err


def test_default_mode_prints_surface(golden, capsys):
    assert dump_api.main([]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == dump_api.dump_surface()


def test_live_golden_matches_repo(capsys):
    """The checked-in golden file must match this interpreter's surface."""
    assert dump_api.main(["--check"]) == 0
