import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import pairs  # noqa: E402
from pairs import verdict  # noqa: E402

PARENT = [1.00, 1.02, 1.04, 1.06, 1.08, 1.01, 1.03, 1.05, 1.07, 1.09]  # IQR 0.045


def test_ten_wins_with_a_gap_above_the_iqr_hold():
    result = verdict(PARENT, [p - 0.10 for p in PARENT])
    assert (result.wins, result.pairs) == (10, 10)
    assert result.gap == pytest.approx(0.10) and result.gap > result.parent_iqr
    assert result.holds


def test_eight_wins_fail():
    change = [p - 0.10 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]]
    result = verdict(PARENT, change)
    assert result.wins == 8 and result.gap > result.parent_iqr
    assert not result.holds


def test_a_gap_inside_the_iqr_fails():
    result = verdict(PARENT, [p - 0.01 for p in PARENT])
    assert result.wins == 10 and 0 < result.gap < result.parent_iqr
    assert not result.holds


def test_ties_count_for_neither_side_and_higher_can_be_better():
    assert verdict(PARENT, PARENT).wins == 0
    assert verdict(PARENT, [p + 0.10 for p in PARENT], lower_is_better=False).holds


def _argv(pairs_count):
    return ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "nsf-place",
            "--seed", "1", "--pairs", str(pairs_count), "--seconds", "0"]


def test_fewer_than_two_pairs_are_rejected_before_any_run(monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(pairs.subprocess, "run", no_run)
    for count in ("1", "0", "-3"):
        with pytest.raises(SystemExit) as exit_info:
            pairs.main(_argv(count))
        assert exit_info.value.code == 2
        assert f"--pairs must be at least 2, got {count}" in capsys.readouterr().err


def test_a_run_with_empty_output_is_not_correct(monkeypatch):
    monkeypatch.setattr(
        pairs.subprocess, "run",
        lambda command, **kwargs: subprocess.CompletedProcess(command, 0, stdout="", stderr=""),
    )
    with pytest.raises(SystemExit) as exit_info:
        pairs.main(_argv(2))
    assert str(exit_info.value).startswith(f"error: a run in {ROOT} is not correct")
