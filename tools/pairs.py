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
``--record PATH`` also writes the run as JSON: the settings, the machine
(processors available, CPU model, Python and numpy versions), every pair's
metrics and reference-kernel time for both sides, and per end-to-end
metric each side's median and quartiles, the wins and whether the claim
holds.  The reference-kernel time is the median that ``perfbench/run.py``
prints for the run (``reference kernel: median ... ms``), the host's speed
while that run was timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass
from importlib.metadata import version
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


def machine() -> dict:
    """The host both sides ran on, read as ``perfbench/run.py`` reads it:
    the processors this process may use, the CPU model, and the Python and
    numpy versions that run the benchmark."""
    lines = Path("/proc/cpuinfo").read_text().splitlines()
    models = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": models[0] if models else platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
    }


_REFERENCE = re.compile(r"reference kernel: median ([0-9.]+) ms")


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, float]:
    """One untraced run: its end-to-end metrics and its reference-kernel
    time in ms."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines() if done.returncode == 0 else []
    result = json.loads(lines[-1]) if lines else {}
    if result.get("correct") is not True:
        sys.exit(f"error: a run in {checkout} is not correct:\n{done.stdout}{done.stderr}")
    reference = _REFERENCE.search(done.stdout)
    if reference is None:
        sys.exit(f"error: a run in {checkout} printed no reference-kernel time:\n{done.stdout}")
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    return metrics, float(reference.group(1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True, help="run length of each run")
    parser.add_argument("--record", type=Path, help="write the run and its verdicts here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2, got {args.pairs}")

    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    references: dict[str, list[float]] = {side: [] for side in sides}
    firsts = []
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(reversed(sides))
        firsts.append(order[0])
        for side in order:
            values, reference_ms = _run(sides[side], args.workload, args.seed, args.seconds)
            runs[side].append(values)
            references[side].append(reference_ms)
        print(f"pair {pair + 1}: " + ", ".join(
            f"{side} pass_s {runs[side][-1]['pass_s']:.6g}" for side in order), flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    claims = {}
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
        claims[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": {"q1": p1, "median": p2, "q3": p3},
            "change": {"q1": c1, "median": c2, "q3": c3},
            "wins": result.wins,
            "pairs": result.pairs,
            "claimable": result.holds,
        }
    if args.record:
        record = {
            "settings": {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                         "seconds": args.seconds},
            "machine": machine(),
            "pairs": [
                {"first": first, "parent": parent, "change": change,
                 "reference_ms": {"parent": parent_ms, "change": change_ms}}
                for first, parent, change, parent_ms, change_ms in zip(
                    firsts, runs["parent"], runs["change"], references["parent"],
                    references["change"])
            ],
            "end_to_end": claims,
        }
        args.record.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
