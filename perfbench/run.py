"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ring-sweep --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics and the tracing overhead.  Every run writes its result record
under ``perfbench/out/``, and a traced run also writes its spans there.
``README.md`` in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 3  # set-ups per run; setup_s is their median
REFERENCE_S = 0.020  # nominal wall time of one run of the reference kernel
REFERENCE_REPEATS = 3  # reference runs after each call and each set-up
UNTRACED_SHARE = 1 / 3  # share of a traced run spent untraced, for the overhead


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_seconds(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to the point where it
    has imported eonspectra and built the workload's inputs."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1]) - start


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in (src / "eonspectra").rglob("*") if p.is_file()):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine(seed: int, threads: str | None) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "EONSPECTRA_THREADS": threads,
        "seed": seed,
    }


def _recurrence(rho: float) -> list[float]:
    busy = 1.0 - rho
    values = [0.0, 0.0]
    for f in range(2, 18):
        values.append(rho * rho + values[f - 1] * busy + values[f - 2] * busy * rho)
    return values


def _reference_kernel() -> float:
    """Fixed pure-Python work that shares no code with eonspectra: calls,
    float recurrences, dict and tuple traffic, a heap and bit operations,
    the mix the program's hot loops are made of.  Every end-to-end time is
    scaled by this kernel's speed, so it must never change."""
    memo: dict = {}
    heap: list = []
    total = 0.0
    for i in range(3200):
        values = _recurrence((i % 97) / 97.0)
        key = (i % 1499, i % 7)
        memo[key] = memo.get(key, 0.0) + values[-1]
        heapq.heappush(heap, (values[-1], i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
        mask = (i * 2654435761) & 0xFFFF
        while mask:
            mask &= mask - 1
            total += 1.0
    return total


def _reference_times() -> list[float]:
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return times


def _run_passes(run_pass, inputs, seed, seconds, tracer=None, counters=None):
    """Repeat passes until ``seconds`` have gone by (at least one).

    Returns the passes, each pass's sample scaled by the reference runs
    made just before it and after each of its calls, and every reference
    time.
    """
    refs = _reference_times()
    every_ref = list(refs)

    def between():
        times = _reference_times()
        refs.extend(times)
        every_ref.extend(times)

    passes, scaled = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is None:
            passes.append(run_pass(inputs, seed, between=between))
        else:
            with tracer.span("pass"):
                passes.append(run_pass(inputs, seed, tracer, between))
            counters.append(dict(tracer.counters))
            tracer.counters.clear()
        scaled.append(_scale(passes[-1].sample_s, refs))
        del refs[:-REFERENCE_REPEATS]  # the last call's runs also precede the next pass
        if time.perf_counter() >= deadline:
            return passes, scaled, every_ref


def _scale(seconds: float, refs: list[float]) -> float:
    """``seconds`` on a machine where the reference kernel takes
    ``REFERENCE_S``.  The host's speed drifts by tens of percent within
    minutes; kernel runs made during and around a measurement measure the
    speed it ran at."""
    return seconds * REFERENCE_S / statistics.median(refs)


def main(argv=None) -> int:
    args = _parse(argv)
    # the workloads run at the program's default worker count
    threads = os.environ.pop("EONSPECTRA_THREADS", None)
    sys.path.insert(0, str(HERE))
    try:
        import workloads
        from tracing import Tracer
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 1
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    build, run_pass = workloads.WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    inputs = build(args.seed, tracer)
    if args.trace:
        counters: list[dict] = []
        plain, plain_scaled, _ = _run_passes(
            run_pass, inputs, args.seed, args.seconds * UNTRACED_SHARE
        )
        traced, traced_scaled, refs = _run_passes(
            run_pass, inputs, args.seed, args.seconds * (1 - UNTRACED_SHARE), tracer, counters
        )
        passes = plain + traced
    else:
        setup, before = [], _reference_times()
        for _ in range(SETUP_PROBES):
            wall = _setup_seconds(args.workload, args.seed)
            after = _reference_times()
            setup.append(_scale(wall, before + after))
            before = after
        passes, scaled, refs = _run_passes(run_pass, inputs, args.seed, args.seconds)

    # failures: per operation, plus passes whose outputs differ from the first
    failed_ops = sum(len({op for op, _ in p.failures}) for p in passes)
    failures = sorted({f"{op}: {why}" for p in passes for op, why in p.failures})
    for i, p in enumerate(passes[1:], start=2):
        if p.outputs != passes[0].outputs:
            failed_ops += 1
            failures.append(f"pass {i}: outputs differ from pass 1")

    record = {
        "workload": args.workload,
        "machine": _machine(args.seed, threads),
        "outputs": passes[0].outputs,
        "closed_form_gap": passes[0].closed_form_gap,
        "failures": failures,
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-{_source_digest(workloads.SRC)}.json"
    if record_path.exists():
        earlier = json.loads(record_path.read_text())
        if earlier["outputs"] != record["outputs"]:
            failed_ops += 1
            failures.append("outputs differ from an earlier run of the same code and seed")
            record["failures"] = failures
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    attempted = sum(p.attempted for p in passes)
    calls: dict[str, list[float]] = {}
    for p in passes:
        for label, wall in p.calls:
            calls.setdefault(label, []).append(wall)

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} operations, "
          f"{failed_ops} failed (failed_ratio {failed_ops / attempted:.4g})")
    for why in failures:
        print(f"  FAILED {why}")
    for label, walls in calls.items():
        print(f"  {label}: median {statistics.median(walls):.4f} s wall over {len(walls)} calls")
    raw = statistics.median(p.sample_s for p in passes)
    print(f"  reference kernel: median {statistics.median(refs) * 1e3:.3f} ms over {len(refs)} runs; "
          f"pass_s {raw:.4f} s wall, scaled to a {REFERENCE_S * 1e3:g} ms kernel below")
    print(f"  closed_form_gap {record['closed_form_gap']!r} (reported, not gated)")
    print(f"  record {record_path.relative_to(HERE.parent)}")

    if args.trace:
        metrics = tracer.layer_metrics(counters)
        metrics["check.closed_form_gap"] = record["closed_form_gap"]
        metrics["trace.overhead"] = (
            statistics.median(traced_scaled) / statistics.median(plain_scaled) - 1
        )
        metrics["machine.reference_ms"] = statistics.median(refs) * 1e3
        trace_path = OUT / f"trace-{args.workload}.npz"
        tracer.save(trace_path)
        print(f"  spans {trace_path.relative_to(HERE.parent)}; tracing overhead "
              f"{metrics['trace.overhead']:+.1%} on pass_s")
        units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_s": statistics.median(scaled),
        }
        print(f"  setup_s: median of {len(setup)} set-ups; pass_s: median of {len(passes)} passes")
        units = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    print(json.dumps({
        "correct": failed_ops == 0,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def _benchmark() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
