"""Paired benchmark runs of two checkouts, and the rule for claiming a gain.

    python tools/pairs.py --parent DIR --change DIR --workload nsf-place \
        --seed 13 --pairs 10 --seconds 4

runs ``perfbench/run.py`` untraced in each checkout once per pair, with
the side that runs first alternating from pair to pair, so that a host
whose speed drifts favours neither.  It stops at the first run that does
not report ``correct: true``.  For each end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles, the pairs
the change won (ties count for neither side) and whether a gain may be
claimed: the change wins at least nine tenths of the pairs, and its median
beats the parent's by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Verdict:
    wins: int
    pairs: int
    gap: float  # parent median minus change median, positive when the change is better
    parent_iqr: float
    holds: bool


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool = True) -> Verdict:
    """The claim rule on paired values: ``parent[i]`` and ``change[i]``
    come from pair i."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equal lists of at least two paired values")
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    gap = sign * (p2 - statistics.median(change))
    holds = wins >= 0.9 * len(parent) and gap > p3 - p1
    return Verdict(wins, len(parent), gap, p3 - p1, holds)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines() if done.returncode == 0 else []
    result = json.loads(lines[-1]) if lines else {}
    if result.get("correct") is not True:
        sys.exit(f"error: a run in {checkout} is not correct:\n{done.stdout}{done.stderr}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True, help="run length of each run")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2, got {args.pairs}")

    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(reversed(sides))
        for side in order:
            runs[side].append(_run(sides[side], args.workload, args.seed, args.seconds))
        print(f"pair {pair + 1}: " + ", ".join(
            f"{side} pass_s {runs[side][-1]['pass_s']:.6g}" for side in order), flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    for metric in metrics:
        name = metric["name"]
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        result = verdict(parent, change, metric["better"] == "lower")
        p1, p2, p3 = quartiles(parent)
        c1, c2, c3 = quartiles(change)
        print(f"  {name} ({metric['unit']}): parent {p2:.6g} [{p1:.6g}, {p3:.6g}] -> "
              f"change {c2:.6g} [{c1:.6g}, {c3:.6g}] ({(c2 - p2) / p2:+.1%}); "
              f"change better in {result.wins}/{result.pairs}; "
              f"gain claimable: {'yes' if result.holds else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
