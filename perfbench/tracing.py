"""In-memory spans at the boundaries between eonspectra's modules.

A traced call replaces a library name in the namespace of the module that
calls it with a wrapper that records one span (name, start, end, parent)
per call.  Spans live in flat arrays while the run lasts and are written
out once at the end.  The per-layer metrics are derived from them per
pass, where a pass is one ``pass`` span opened by the benchmark.
"""

from __future__ import annotations

import statistics
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import eonspectra.analyzer
import eonspectra.lightpath
import eonspectra.placement
import eonspectra.simulator
from eonspectra.lightpath import SIMPLE_NODE

SPAN_NAMES = (
    "pass",
    "route_all",
    "crossing_stats",
    "fixed_point",
    "place_heuristic",
    "simulate",
    "demand_blocking",
    "phi_update",
    "lightpath_blocking",
    "run_probability",
    "admit",
    "release",
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# (span name, module whose namespace is patched, attribute); every
# attribute is the name under which that module calls into the next layer
_WRAPPED = (
    ("run_probability", eonspectra.lightpath, "run_probability"),
    ("lightpath_blocking", eonspectra.analyzer, "lightpath_blocking"),
    ("demand_blocking", eonspectra.analyzer, "demand_blocking"),
    ("phi_update", eonspectra.analyzer, "phi_update"),
    ("fixed_point", eonspectra.placement, "fixed_point"),
    ("admit", eonspectra.simulator, "admit"),
    ("release", eonspectra.simulator, "release"),
)


def _count_subsets(tracer, result, args):
    # lightpath_blocking(min_run, path, archs, ...): the power set of the
    # path's interior converters has 2^k members
    path, archs = args[1], args[2]
    k = sum(1 for node in path.nodes[1:-1] if archs.get(node, SIMPLE_NODE).converts)
    tracer.counters["lightpath.subsets"] += 1 << k


def count_iterations(tracer, result, args):
    tracer.counters["analyzer.iterations"] += result.iterations


def count_fallbacks(tracer, result, args):
    tracer.counters["simulator.fallback_admissions"] += result.fallback_admissions


def _count_admission(tracer, result, args):
    if result is not None:
        state = args[0]
        tracer.counters["simulator.accepts"] += 1
        tracer.counters["simulator.conversions"] += len(state.connections[result].segments) - 1


_AFTER = {
    "lightpath_blocking": _count_subsets,
    "fixed_point": count_iterations,
    "admit": _count_admission,
}


class Tracer:
    """Span recorder.  Counters hold per-call facts that no span duration
    carries (iterations, subsets, conversions); the benchmark reads and
    clears them at the end of each pass."""

    def __init__(self):
        self.kind = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: defaultdict[str, int] = defaultdict(int)

    def call(self, name, fn, *args, after=None, **kwargs):
        """Run ``fn`` inside a span called ``name``.  ``span`` inlined: this
        runs once per wrapped call, hundreds of thousands of times a pass."""
        index = len(self.kind)
        self.kind.append(_ID[name])
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[index] = perf_counter()
            self._stack.pop()
        if after is not None:
            after(self, result, args)
        return result

    @contextmanager
    def span(self, name):
        index = len(self.kind)
        self.kind.append(_ID[name])
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[index] = perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Replace every wrapped name with a span-recording wrapper, and
        put the originals back on exit, also when the body raises."""
        saved = [(module, attr, getattr(module, attr)) for _, module, attr in _WRAPPED]
        try:
            for (name, module, attr), (_, _, original) in zip(_WRAPPED, saved):
                setattr(module, attr, self._wrapper(name, original))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _wrapper(self, name, fn):
        call, after = self.call, _AFTER.get(name)

        def wrapper(*args, **kwargs):
            return call(name, fn, *args, after=after, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def save(self, path):
        """Write every span as flat arrays (``names`` indexes ``kind``)."""
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            kind=np.frombuffer(self.kind, dtype=np.uint8),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def layer_metrics(self, pass_counters: list[dict]) -> dict[str, float]:
        """Per-layer metrics: the median over traced passes of each pass's
        totals.  ``pass_counters`` holds the counters of each pass, in
        pass order."""
        kind = np.frombuffer(self.kind, dtype=np.uint8).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent_kind = np.where(parent >= 0, kind[np.maximum(parent, 0)], -1)
        roots = np.flatnonzero(kind == _ID["pass"])
        if len(roots) != len(pass_counters):
            raise ValueError("one counter snapshot per traced pass is required")
        owner = np.searchsorted(roots, np.arange(len(kind)), side="right") - 1

        def select(name, under=None):
            mask = (kind == _ID[name]) & (owner >= 0)
            if under is not None:
                mask &= parent_kind == _ID[under]
            return mask

        def total(name, under=None):
            mask = select(name, under)
            return np.bincount(owner[mask], weights=dur[mask], minlength=len(roots))

        def calls(name, under=None):
            return np.bincount(owner[select(name, under)], minlength=len(roots)).astype(float)

        def ratio(num, den):
            return np.divide(num, den, out=np.zeros_like(num, dtype=float), where=den > 0)

        def counter(key):
            return np.array([float(c.get(key, 0)) for c in pass_counters])

        setup = owner < 0
        per_pass = {
            "runprob.calls": calls("run_probability"),
            "runprob.busy_s": total("run_probability"),
            "lightpath.calls": calls("lightpath_blocking"),
            "lightpath.self_s": total("lightpath_blocking")
            - total("run_probability", under="lightpath_blocking"),
            "lightpath.subsets": counter("lightpath.subsets"),
            "analyzer.solves": calls("fixed_point"),
            "analyzer.iterations": counter("analyzer.iterations"),
            "analyzer.iteration_ms": 1e3
            * ratio(total("fixed_point"), counter("analyzer.iterations")),
            "analyzer.self_s": total("fixed_point")
            - total("demand_blocking", under="fixed_point"),
            "analyzer.phi_update_s": total("phi_update"),
            "placement.evaluations": ratio(
                calls("fixed_point", under="place_heuristic"), calls("place_heuristic")
            ),
            "placement.self_s": total("place_heuristic")
            - total("fixed_point", under="place_heuristic"),
            "simulator.admits": calls("admit"),
            "simulator.accept_ratio": ratio(counter("simulator.accepts"), calls("admit")),
            "simulator.admit_busy_s": total("admit"),
            "simulator.release_busy_s": total("release"),
            "simulator.loop_self_s": total("simulate")
            - total("admit", under="simulate")
            - total("release", under="simulate"),
            "simulator.conversions_per_accept": ratio(
                counter("simulator.conversions"), counter("simulator.accepts")
            ),
            "simulator.fallback_admissions": counter("simulator.fallback_admissions"),
        }
        metrics = {
            "topology.route_all_s": float(dur[setup & (kind == _ID["route_all"])].sum()),
            "topology.crossing_stats_s": float(dur[setup & (kind == _ID["crossing_stats"])].sum()),
        }
        for key, values in per_pass.items():
            metrics[key] = float(statistics.median(values.tolist()))
        return metrics
