import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_record_holds_every_pair_and_one_claim_per_end_to_end_metric(monkeypatch, tmp_path):
    # the parent's pass_s is 1.0, 1.1, ...; the change's is half of it, and
    # its other metrics tie with the parent's
    counts = {}

    def fake_run(command, cwd, **kwargs):
        side = "change" if Path(cwd) == tmp_path else "parent"
        counts[side] = counts.get(side, 0) + 1
        pass_s = (0.9 + 0.1 * counts[side]) * (0.5 if side == "change" else 1.0)
        metrics = {"pass_s": pass_s, "peak_rss_mb": 40.0, "setup_s": 0.3}
        line = json.dumps({"correct": True, "metrics": {
            name: {"value": value} for name, value in metrics.items()}})
        # run.py's line, with a reference time of 20 ms plus the run's number
        reference = (f"  reference kernel: median {20 + counts[side]:.3f} ms over 9 runs; "
                     f"pass_s {pass_s:.4f} s wall, scaled to a 20 ms kernel below")
        return subprocess.CompletedProcess(command, 0, stdout=f"log\n{reference}\n{line}\n",
                                           stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    record = tmp_path / "pairs.json"
    argv = _argv(3)
    argv[argv.index("--change") + 1] = str(tmp_path)
    assert pairs.main(argv + ["--record", str(record)]) == 0

    written = json.loads(record.read_text())
    assert written["settings"] == {"workload": "nsf-place", "seed": 1, "pairs": 3, "seconds": 0.0}
    host = written["machine"]
    assert set(host) == {"nproc", "cpu", "python", "numpy"}
    assert 1 <= host["nproc"] <= os.cpu_count() and host["cpu"]
    assert (host["python"], host["numpy"]) == (platform.python_version(), np.__version__)
    assert [p["first"] for p in written["pairs"]] == ["parent", "change", "parent"]
    assert [p["parent"]["pass_s"] for p in written["pairs"]] == pytest.approx([1.0, 1.1, 1.2])
    assert [p["change"]["pass_s"] for p in written["pairs"]] == pytest.approx([0.5, 0.55, 0.6])
    assert [p["reference_ms"] for p in written["pairs"]] == [
        {"parent": 21.0, "change": 21.0}, {"parent": 22.0, "change": 22.0},
        {"parent": 23.0, "change": 23.0},
    ]
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert list(written["end_to_end"]) == names
    claim = written["end_to_end"]["pass_s"]
    assert claim["parent"] == pytest.approx({"q1": 1.05, "median": 1.1, "q3": 1.15})
    assert claim["change"]["median"] == pytest.approx(0.55)
    assert (claim["wins"], claim["pairs"], claim["claimable"]) == (3, 3, True)
    rss = written["end_to_end"]["peak_rss_mb"]
    assert (rss["wins"], rss["claimable"]) == (0, False)


def test_a_run_without_a_reference_time_is_rejected(monkeypatch):
    line = json.dumps({"correct": True, "metrics": {"pass_s": {"value": 1.0}}})
    monkeypatch.setattr(
        pairs.subprocess, "run",
        lambda command, **kwargs: subprocess.CompletedProcess(
            command, 0, stdout=f"log\n{line}\n", stderr=""),
    )
    with pytest.raises(SystemExit) as exit_info:
        pairs.main(_argv(2))
    assert str(exit_info.value).startswith(f"error: a run in {ROOT} printed no reference-kernel time")
