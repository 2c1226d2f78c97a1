"""The benchmark's workloads: inputs built from the seed, one pass of
library calls, and the checks on what the calls return.

Every workload is a closed sequence of calls in one process: a pass makes
each call once and returns its outputs, the wall time of each call and the
failures found.  ``README.md`` in this directory says why each workload
exists.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import eonspectra  # noqa: E402
import eonspectra.placement  # noqa: E402

if Path(eonspectra.__file__).resolve().parent != SRC / "eonspectra":
    raise ImportError(f"eonspectra was imported from {eonspectra.__file__}, not from {SRC}")

from eonspectra import (  # noqa: E402
    AnalysisConfig,
    SimConfig,
    blocking_full_conversion,
    blocking_without_conversion,
    crossing_stats,
    fixed_point,
    phi_update,
    place_heuristic,
    route_all,
    simulate,
)
from eonspectra.cli import parse_arch_sweep, parse_converter_spec  # noqa: E402
from eonspectra.fixtures import generate_demands, nsf14  # noqa: E402
from eonspectra.topology import load_topology  # noqa: E402
from tracing import count_fallbacks, count_iterations  # noqa: E402

EPSILON = 1e-6
DAMPING = 0.5
FIXED_POINT_TOL = 1e-3  # max |phi_update(blockings) - phi| of a returned fixed point
SIMPLE_TOL = 1e-12  # simple-setting blockings against the continuity closed form
GAP_FLOOR = 1e-9  # closed-form gaps below this are reported as 0
POISSON_SIGMAS = 6.0


@dataclass
class Case:
    """One demand set with its routes and crossing statistics."""

    label: str
    demands: list
    routes: list
    stats: object


@dataclass
class Inputs:
    graph: object
    cases: list[Case]
    settings: list[tuple[str, dict]] = field(default_factory=list)
    sim_offered: int = 0


@dataclass
class PassResult:
    outputs: list[dict] = field(default_factory=list)
    calls: list[tuple[str, float]] = field(default_factory=list)  # (label, wall s)
    failures: list[tuple[str, str]] = field(default_factory=list)  # (operation, reason)
    attempted: int = 0
    sample_s: float = 0.0  # this pass's contribution to pass_s
    closed_form_gap: float = 0.0


def _call(tracer, name, fn, *args, after=None):
    if tracer is None:
        return fn(*args)
    with tracer.installed():
        return tracer.call(name, fn, *args, after=after)


def _timed(out: PassResult, label, between, tracer, name, fn, *args, after=None):
    """Make one operation: returns its result and wall time, or records
    its failure and returns (None, 0)."""
    out.attempted += 1
    start = perf_counter()
    try:
        result = _call(tracer, name, fn, *args, after=after)
    except Exception as exc:  # a failed operation is counted, not fatal
        out.failures.append((label, f"{type(exc).__name__}: {exc}"))
        return None, 0.0
    wall = perf_counter() - start
    out.calls.append((label, wall))
    if between is not None:
        between()
    return result, wall


def _case(graph, label, demands, tracer) -> Case:
    routes = _call(tracer, "route_all", route_all, graph, demands)
    stats = _call(tracer, "crossing_stats", crossing_stats, graph, routes)
    return Case(label, demands, routes, stats)


def ring_topology(seed: int, nodes: int = 28, span: int = 3, slot_count: int = 16):
    """A ring of unit-weight links plus a chord of ``span`` ring steps at
    every other ring position (``nodes / 2`` chords).

    The seed shuffles which node label sits at each ring position, so the
    chords join seeded label pairs while every seed gives an isomorphic
    graph: the hop-count profile, and with it the power-set work of a
    converter-setting solve, does not move with the seed.
    """
    labels = np.random.default_rng(seed).permutation(nodes)
    pairs = [(i, (i + 1) % nodes) for i in range(nodes)]
    pairs += [(i, (i + span) % nodes) for i in range(0, nodes, 2)]
    return load_topology(
        {
            "name": f"ring{nodes}",
            "slot_count": slot_count,
            "nodes": list(range(nodes)),
            "edges": [
                {"a": int(labels[a]), "b": int(labels[b]), "weight": 1.0} for a, b in pairs
            ],
        }
    )


# ---------------------------------------------------------------------------
# ring-sweep: one fixed point per converter setting on the ring


RING_SETTINGS = "simple,share_per_node:2,full"


def build_ring_sweep(seed: int, tracer=None, nodes: int = 28) -> Inputs:
    graph = ring_topology(seed, nodes)
    demands = generate_demands(graph, seed=seed, slots_range=(1, 4), traffic_target=0.3)
    return Inputs(
        graph, [_case(graph, "T=0.3", demands, tracer)], parse_arch_sweep(RING_SETTINGS, graph)
    )


def _check_solve(graph, case, spec, result) -> list[str]:
    problems = []
    if not result.converged:
        problems.append(f"not converged after {result.iterations} iterations")
    values = result.demand_blockings + [result.network_blocking_prob]
    if not all(math.isfinite(b) and 0.0 <= b <= 1.0 for b in values):
        problems.append("a blocking is not a finite probability")
        return problems
    fresh = phi_update(case.demands, case.routes, result.demand_blockings, graph)
    residual = max(abs(fresh[lid] - phi) for lid, phi in result.phis.items())
    if residual > FIXED_POINT_TOL:
        problems.append(f"not a fixed point: max |phi_update - phi| = {residual:.3e}")
    if spec == "simple":
        for demand, route, blocking in zip(case.demands, case.routes, result.demand_blockings):
            (slots,) = demand.slot_pmf
            hops = [result.phis[link.id] for link in route.links]
            closed = blocking_without_conversion(slots, graph.slot_count, hops)
            if abs(blocking - closed) > SIMPLE_TOL:
                problems.append(f"simple blocking {blocking!r} != closed form {closed!r}")
                break
    return problems


def closed_form_gap(graph, case, result) -> float:
    """Largest |blocking - blocking_full_conversion| over the demands of an
    all-full solve, at the link states the solve returned."""
    gap = 0.0
    for demand, route, blocking in zip(case.demands, case.routes, result.demand_blockings):
        (slots,) = demand.slot_pmf
        hops = [result.phis[link.id] for link in route.links]
        gap = max(gap, abs(blocking - blocking_full_conversion(slots, graph.slot_count, hops)))
    return gap if gap >= GAP_FLOOR else 0.0


def ring_sweep_pass(inputs: Inputs, seed: int, tracer=None, between=None) -> PassResult:
    out = PassResult()
    graph, (case,) = inputs.graph, inputs.cases
    config = AnalysisConfig(epsilon=EPSILON, damping=DAMPING, seed=seed)
    for spec, archs in inputs.settings:
        label = f"fixed_point[{spec}]"
        result, wall = _timed(
            out, label, between, tracer, "fixed_point", fixed_point, graph, case.demands,
            archs, config, case.routes, case.stats, after=count_iterations,
        )
        if result is None:
            continue
        # per iteration: the iteration count moves with the seed (see README)
        out.sample_s += wall / max(result.iterations, 1)
        out.outputs.append(
            {
                "setting": spec,
                "network_blocking": result.network_blocking_prob,
                "iterations": result.iterations,
            }
        )
        out.failures += [(label, p) for p in _check_solve(graph, case, spec, result)]
        if spec == "full":
            out.closed_form_gap = closed_form_gap(graph, case, result)
    return out


# ---------------------------------------------------------------------------
# nsf-place: greedy converter placement on NSF-14


PLACE_INVENTORY = "full,full,share_per_node:1"
PLACE_TRAFFIC = (0.2, 0.3)


def build_nsf_place(seed: int, tracer=None) -> Inputs:
    graph = nsf14()
    cases = [
        _case(
            graph, f"T={t}",
            generate_demands(graph, seed=seed, slots_range=(1, 3), traffic_target=t),
            tracer,
        )
        for t in PLACE_TRAFFIC
    ]
    return Inputs(graph, cases)


@contextmanager
def _counting_solves(iterations: list[int]):
    """Collect the iteration count of every solve ``place_heuristic``
    makes, by wrapping the name it calls; the original is put back on exit."""
    original = eonspectra.placement.fixed_point

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    eonspectra.placement.fixed_point = counted
    try:
        yield
    finally:
        eonspectra.placement.fixed_point = original


def _check_placement(graph, k: int, result) -> list[str]:
    problems = []
    expected = sum(graph.node_count - i for i in range(k))
    if result.evaluations != expected:
        problems.append(f"{result.evaluations} evaluations, expected {expected}")
    if len(result.assignment) != k:
        problems.append(f"{len(result.assignment)} distinct nodes, expected {k}")
    if not result.all_converged:
        problems.append("a trial evaluation did not converge")
    if not (math.isfinite(result.achieved_blocking) and 0.0 <= result.achieved_blocking <= 1.0):
        problems.append(f"achieved blocking {result.achieved_blocking!r} is not a probability")
    return problems


def nsf_place_pass(inputs: Inputs, seed: int, tracer=None, between=None) -> PassResult:
    out = PassResult()
    graph = inputs.graph
    config = AnalysisConfig(epsilon=EPSILON, damping=DAMPING, seed=seed)
    inventory = parse_converter_spec(PLACE_INVENTORY)
    for case in inputs.cases:
        label = f"place_heuristic[{case.label}]"
        iterations: list[int] = []
        with _counting_solves(iterations):
            result, wall = _timed(
                out, label, between, tracer, "place_heuristic", place_heuristic, graph,
                case.demands, inventory, config,
            )
        if result is None:
            continue
        # per fixed-point iteration, as on the ring (see README)
        out.sample_s += wall / max(sum(iterations), 1)
        out.outputs.append(
            {
                "traffic": case.label,
                "assignment": {
                    str(graph.label_of(node)): f"{arch.kind}:{arch.n_sc}" if arch.n_sc else arch.kind
                    for node, arch in sorted(result.assignment.items())
                },
                "achieved_blocking": result.achieved_blocking,
                "baseline_blocking": result.baseline_blocking,
            }
        )
        out.failures += [(label, p) for p in _check_placement(graph, len(inventory), result)]
    return out


# ---------------------------------------------------------------------------
# nsf-sim: one-replication simulations on NSF-14


SIM_SETTINGS = "simple,share_per_node:1,share_per_link:1,full"
SIM_OFFERED = 60_000  # expected offered requests after warm-up, per call


def build_nsf_sim(seed: int, tracer=None, offered: int = SIM_OFFERED) -> Inputs:
    graph = nsf14()
    demands = generate_demands(graph, seed=seed, slots_range=(1, 3), traffic_target=0.4)
    return Inputs(
        graph, [_case(graph, "T=0.4", demands, tracer)], parse_arch_sweep(SIM_SETTINGS, graph),
        offered,
    )


def nsf_sim_pass(inputs: Inputs, seed: int, tracer=None, between=None) -> PassResult:
    out = PassResult()
    graph, (case,) = inputs.graph, inputs.cases
    total_rate = sum(d.rate for d in case.demands)
    warmup = 10.0 * max(d.hold for d in case.demands)
    config = SimConfig(seed=seed, warmup=warmup, horizon=warmup + inputs.sim_offered / total_rate)
    mean = total_rate * (config.horizon - config.warmup)
    for spec, archs in inputs.settings:
        label = f"simulate[{spec}]"
        result, wall = _timed(
            out, label, between, tracer, "simulate", simulate, graph, case.demands, archs,
            config, case.routes, after=count_fallbacks,
        )
        if result is None:
            continue
        out.sample_s += wall
        out.outputs.append(
            {
                "setting": spec,
                "offered_total": result.offered_total,
                "blocked_total": result.blocked_total,
            }
        )
        if any(b > o for b, o in zip(result.demand_blocked, result.demand_offered)):
            out.failures.append((label, "a demand blocked more than it offered"))
        if abs(result.offered_total - mean) > POISSON_SIGMAS * math.sqrt(mean):
            out.failures.append((label, f"offered {result.offered_total}, Poisson mean {mean:.1f}"))
    return out


WORKLOADS = {
    "ring-sweep": (build_ring_sweep, ring_sweep_pass),
    "nsf-place": (build_nsf_place, nsf_place_pass),
    "nsf-sim": (build_nsf_sim, nsf_sim_pass),
}
