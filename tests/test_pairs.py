import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

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
