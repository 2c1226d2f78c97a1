"""Tests of the benchmark's own machinery (run with
``python -m pytest perfbench``): tracing changes no output, every wrapped
name is put back, and the output checks catch bad results."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

import workloads  # first: puts the checkout's src/ on the import path
import run
import tracing


def _originals():
    return [getattr(module, attr) for _, module, attr in tracing._WRAPPED]


SMALL = {
    "ring-sweep": lambda seed, tracer: workloads.build_ring_sweep(seed, tracer, nodes=12),
    "nsf-place": workloads.build_nsf_place,
    "nsf-sim": lambda seed, tracer: workloads.build_nsf_sim(seed, tracer, offered=3000),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_pass_gives_the_untraced_outputs(name):
    _, run_pass = workloads.WORKLOADS[name]
    before = _originals()
    plain = run_pass(SMALL[name](7, None), 7)

    tracer = tracing.Tracer()
    inputs = SMALL[name](7, tracer)
    with tracer.span("pass"):
        traced = run_pass(inputs, 7, tracer)
    metrics = tracer.layer_metrics([dict(tracer.counters)])

    assert traced.outputs == plain.outputs
    assert plain.failures == traced.failures == []
    assert _originals() == before
    assert all(math.isfinite(v) for v in metrics.values())
    layer = {"ring-sweep": "lightpath.calls", "nsf-place": "placement.evaluations",
             "nsf-sim": "simulator.admits"}[name]
    assert metrics[layer] > 0


def test_wrapped_names_are_restored_when_a_call_raises():
    before = _originals()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert _originals() != before
            raise RuntimeError
    assert _originals() == before


def test_span_self_times_exclude_children():
    tracer = tracing.Tracer()
    inputs = workloads.build_ring_sweep(3, None, nodes=12)
    with tracer.span("pass"):
        workloads.ring_sweep_pass(inputs, 3, tracer)
    metrics = tracer.layer_metrics([dict(tracer.counters)])
    assert metrics["analyzer.solves"] == len(inputs.settings) == 3
    assert 0 < metrics["lightpath.self_s"] < metrics["analyzer.iteration_ms"] * metrics[
        "analyzer.iterations"] / 1e3
    assert metrics["runprob.busy_s"] > 0
    assert metrics["lightpath.subsets"] >= metrics["lightpath.calls"]


def test_checks_reject_a_non_converged_or_moved_solve():
    inputs = workloads.build_ring_sweep(3, None, nodes=12)
    case = inputs.cases[0]
    config = workloads.AnalysisConfig(epsilon=1e-6, damping=0.5, seed=3)
    result = workloads.fixed_point(inputs.graph, case.demands, {}, config, case.routes, case.stats)
    assert workloads._check_solve(inputs.graph, case, "simple", result) == []

    stalled = replace(result, converged=False)
    assert any("not converged" in p for p in workloads._check_solve(inputs.graph, case, "simple", stalled))
    moved = replace(result, phis={lid: phi * 0.5 for lid, phi in result.phis.items()})
    problems = workloads._check_solve(inputs.graph, case, "simple", moved)
    assert any("not a fixed point" in p for p in problems)
    assert any("closed form" in p for p in problems)


def test_traced_run_writes_the_untraced_record(capsys, monkeypatch):
    monkeypatch.delenv("EONSPECTRA_THREADS", raising=False)
    before = _originals()
    results = []
    for trace in ("0", "1"):
        args = ["--workload", "nsf-place", "--seed", "5", "--seconds", "0", "--trace", trace]
        assert run.main(args) == 0
        results.append(json.loads(capsys.readouterr().out.strip().splitlines()[-1]))
    # the second run compares its outputs with the record the first one wrote
    assert [r["correct"] for r in results] == [True, True]
    assert [r["failed"] for r in results] == [0, 0]
    assert _originals() == before
