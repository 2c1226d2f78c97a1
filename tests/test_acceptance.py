"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Monte Carlo checks use
frozen seeds so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from eonspectra.analyzer import AnalysisConfig, fixed_point
from eonspectra.fixtures import nsf14, nsf14_demands, sixnode, sixnode_demands
from eonspectra.lightpath import (
    FULL,
    SHARE_PER_LINK,
    SHARE_PER_NODE,
    NodeArchitecture,
    blocking_full_at,
    blocking_full_conversion,
    blocking_without_conversion,
    crossing_stats,
    lightpath_blocking,
    uniform_architectures,
)
from eonspectra.placement import place_brute_force, place_heuristic
from eonspectra.runprob import run_probability, run_probability_bruteforce
from eonspectra.simulator import SimConfig, simulate
from eonspectra.topology import DemandSpec, route_all

from oracles import erlang_b, mc_segmented_blocking


def report(number, name, ok, detail):
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# criterion 1 ------------------------------------------------------------------


def test_c1_run_probability_oracle_equivalence():
    start = time.perf_counter()
    rhos = [round(0.05 * k, 2) for k in range(21)]
    worst = 0.0
    checks = 0
    for slots in range(1, 19):
        for min_run in range(1, slots + 1):
            for rho in rhos:
                a = run_probability(min_run, slots, rho)
                b = run_probability_bruteforce(min_run, slots, rho)
                worst = max(worst, abs(a - b))
                checks += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    report(1, "run-probability oracle equivalence", ok,
           f"{checks} checks, worst |diff| = {worst:.2e}, {elapsed:.2f}s")


# criterion 2 ------------------------------------------------------------------


def test_c2_scenario_formulas_match_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(20260811)
    samples = 10**6
    worst_z = 0.0
    failures = []
    for instance in range(50):
        hops = int(rng.integers(1, 6))
        slot_count = int(rng.integers(2, 17))
        min_run = int(rng.integers(1, min(slot_count, 4) + 1))
        phis = rng.uniform(0.5, 0.98, hops)
        interior = tuple(p for p in range(2, hops + 1) if rng.random() < 0.5)
        layouts = [
            (1, hops + 1),                      # no conversion
            tuple(range(1, hops + 2)),          # conversion everywhere
            (1,) + interior + (hops + 1,),      # conversion at a subset
        ]
        analytic = [
            blocking_without_conversion(min_run, slot_count, phis),
            blocking_full_conversion(min_run, slot_count, phis),
            blocking_full_at(min_run, slot_count, layouts[2], phis),
        ]
        estimates = mc_segmented_blocking(min_run, slot_count, layouts, phis, samples, rng)
        for tag, a, m in zip(("s1", "s2", "s3"), analytic, estimates):
            se = math.sqrt(max(a * (1 - a), 0.0) / samples)
            if abs(a - m) > 3 * se + 1e-12:
                failures.append((instance, tag, a, m))
            if se > 0:
                worst_z = max(worst_z, abs(a - m) / se)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(2, "scenario formulas vs slot-mask Monte Carlo", ok,
           f"150 checks over 50 instances, worst z = {worst_z:.2f}, "
           f"{elapsed:.1f}s; failures: {failures[:3]}")


# criterion 3 ------------------------------------------------------------------


def test_c3_engine_collapses_to_closed_forms():
    from eonspectra.topology import Link, NetworkGraph, RoutedPath

    rng = np.random.default_rng(31)
    worst = 0.0
    checked = 0
    for _ in range(200):
        hops = int(rng.integers(1, 7))
        slot_count = int(rng.integers(2, 13))
        min_run = int(rng.integers(1, min(slot_count, 4) + 1))
        links = [Link(h + 1, h + 1, h + 2, 1.0) for h in range(hops)]
        graph = NetworkGraph(labels=list(range(1, hops + 2)), links=links,
                             slot_count=slot_count)
        path = RoutedPath(nodes=tuple(range(1, hops + 2)), links=tuple(links))
        stats = crossing_stats(graph, [])
        phis = {h + 1: float(x) for h, x in enumerate(rng.uniform(0.2, 1.0, hops))}
        hop_probs = tuple(phis[h + 1] for h in range(hops))

        # empty layout
        got = lightpath_blocking(min_run, path, {}, phis, stats, slot_count)
        worst = max(worst, abs(got - blocking_without_conversion(min_run, slot_count, hop_probs)))
        checked += 1

        # all-full interior
        archs = {n: NodeArchitecture(FULL) for n in range(2, hops + 1)}
        got = lightpath_blocking(min_run, path, archs, phis, stats, slot_count)
        worst = max(worst, abs(got - blocking_full_conversion(min_run, slot_count, hop_probs)))
        checked += 1

        # full converters at a random subset
        interior = tuple(p for p in range(2, hops + 1) if rng.random() < 0.5)
        archs = {path.nodes[p - 1]: NodeArchitecture(FULL) for p in interior}
        got = lightpath_blocking(min_run, path, archs, phis, stats, slot_count)
        layout = (1,) + interior + (hops + 1,)
        worst = max(worst, abs(got - blocking_full_at(min_run, slot_count, layout, hop_probs)))
        checked += 1

    ok = worst <= 1e-12 and checked >= 300
    report(3, "special-case collapse of the general engine", ok,
           f"{checked} checks, worst |diff| = {worst:.2e}")


# criterion 4 ------------------------------------------------------------------


def test_c4_simulator_matches_erlang_b():
    from eonspectra.topology import load_topology

    start = time.perf_counter()
    rows = []
    failures = []
    for slot_count in (1, 2, 5):
        graph = load_topology({
            "name": "pair", "slot_count": slot_count, "nodes": [1, 2],
            "edges": [{"a": 1, "b": 2, "weight": 1, "directed": True}],
        })
        for load in (0.5, 1.0, 2.0):
            demands = [DemandSpec(1, 2, load, 1.0, {1: 1.0})]
            config = SimConfig(seed=42, warmup=50.0, horizon=50.0 + 110_000 / load,
                               replications=1)
            result = simulate(graph, demands, {}, config)
            expected = erlang_b(slot_count, load)
            se = math.sqrt(expected * (1 - expected) / result.offered_total)
            z = abs(result.network_blocking_prob - expected) / se
            rows.append(f"F={slot_count} A={load}: sim={result.network_blocking_prob:.5f} "
                        f"erlang={expected:.5f} z={z:.2f} n={result.offered_total}")
            if result.offered_total < 100_000 or z > 3.0:
                failures.append(rows[-1])
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    report(4, "loss-system oracle (Erlang-B)", ok,
           f"9 points in {elapsed:.1f}s; failures: {failures}")


# criterion 5 ------------------------------------------------------------------


def test_c5_rank_order_and_factor_agreement_on_nsf():
    graph = nsf14()
    base = nsf14_demands(graph)
    routes = route_all(graph, base)
    from eonspectra.topology import network_traffic

    base_traffic = network_traffic(graph, base, routes)
    targets = [0.25, 0.30, 0.35, 0.40, 0.50]
    settings = [
        ("simple", {}),
        ("share_per_node", uniform_architectures(graph, NodeArchitecture(SHARE_PER_NODE, 1))),
        ("share_per_link", uniform_architectures(graph, NodeArchitecture(SHARE_PER_LINK, 1))),
        ("full", uniform_architectures(graph, NodeArchitecture(FULL))),
    ]
    config = AnalysisConfig(epsilon=1e-6, seed=1, damping=0.5, max_iter=2000)
    total_rate = sum(d.rate for d in base)
    max_hold = max(d.hold for d in base)

    table = {}  # (target, setting) -> (analytic, simulated)
    problems = []
    for target in targets:
        scale = target / base_traffic
        demands = [
            DemandSpec(d.src, d.dst, d.rate * scale, d.hold, d.slot_pmf) for d in base
        ]
        sim_config = SimConfig(
            seed=7,
            warmup=10.0 * max_hold,
            horizon=10.0 * max_hold + 120_000 / (total_rate * scale),
            replications=2,
        )
        for name, archs in settings:
            analytic = fixed_point(graph, demands, archs, config, routes=routes)
            if not analytic.converged:
                problems.append(f"analytic not converged at T={target} {name}")
            sim = simulate(graph, demands, archs, sim_config, routes=routes)
            table[(target, name)] = (analytic.network_blocking_prob, sim.network_blocking_prob)
            print(f"    T={target:.2f} {name:15s} analytic={analytic.network_blocking_prob:.5f} "
                  f"simulated={sim.network_blocking_prob:.5f} "
                  f"(offered {sim.offered_total})")

    order = [name for name, _ in settings]
    for target in targets:
        for kind in (0, 1):  # analytic, simulated
            values = [table[(target, name)][kind] for name in order]
            if not all(a >= b - 1e-12 for a, b in zip(values, values[1:])):
                problems.append(
                    f"{'analytic' if kind == 0 else 'simulated'} order broken at T={target}: {values}"
                )
    for name in order:
        for kind in (0, 1):
            values = [table[(target, name)][kind] for target in targets]
            if not all(a <= b + 1e-12 for a, b in zip(values, values[1:])):
                problems.append(
                    f"{'analytic' if kind == 0 else 'simulated'} not monotone for {name}: {values}"
                )
    worst_factor = 0.0
    for (target, name), (analytic, simulated) in table.items():
        if simulated >= 1e-2:
            factor = max(analytic / simulated, simulated / analytic)
            worst_factor = max(worst_factor, factor)
            if factor > 2.0:
                problems.append(f"factor {factor:.2f} at T={target} {name}")
    ok = not problems
    report(5, "rank order and analytic/simulated agreement", ok,
           f"{len(targets)} traffic points x 4 settings, worst factor = "
           f"{worst_factor:.2f}; problems: {problems[:4]}")


# criterion 6 ------------------------------------------------------------------


def test_c6_placement_optimality_desk_scale():
    graph = sixnode()
    demands = sixnode_demands(graph)
    inventory = [NodeArchitecture(FULL), NodeArchitecture(SHARE_PER_LINK, 1)]
    config = AnalysisConfig(epsilon=1e-6, seed=1)
    greedy = place_heuristic(graph, demands, inventory, config)
    oracle = place_brute_force(graph, demands, inventory, config)
    gap = abs(greedy.achieved_blocking - oracle.achieved_blocking)

    # regression on the bundled NSF fixture (fixture-dependent, not a
    # literature ground truth: the weight set is this package's choice)
    nsf = nsf14()
    nsf_demands_list = nsf14_demands(nsf)
    nsf_inventory = [
        NodeArchitecture(FULL),
        NodeArchitecture(FULL),
        NodeArchitecture(SHARE_PER_NODE, 1),
    ]
    nsf_result = place_heuristic(nsf, nsf_demands_list, nsf_inventory, config)
    placed = {node: arch.kind for node, arch in sorted(nsf_result.assignment.items())}
    expected_placement = {4: FULL, 9: FULL, 13: SHARE_PER_NODE}
    regression_ok = placed == expected_placement and nsf_result.achieved_blocking == pytest.approx(
        0.0667809, abs=2e-4
    )

    ok = gap <= 1e-9 and regression_ok
    report(6, "placement optimality at desk scale", ok,
           f"six-node K=2: greedy == oracle within {gap:.2e} "
           f"(P_B = {greedy.achieved_blocking:.7f}); NSF regression placement {placed}, "
           f"achieved {nsf_result.achieved_blocking:.7f}, baseline {nsf_result.baseline_blocking:.7f}")


# criterion 7 ------------------------------------------------------------------


def test_c7_heuristic_evaluation_counts():
    config = AnalysisConfig(epsilon=1e-4, max_iter=60, seed=1)
    graph6 = sixnode()
    demands6 = sixnode_demands(graph6)
    res6 = place_heuristic(graph6, demands6, [NodeArchitecture(FULL)] * 2, config)
    expected6 = 6 * 2 - (2 * 1) // 2

    graph14 = nsf14()
    demands14 = nsf14_demands(graph14)
    inventory14 = [
        NodeArchitecture(FULL),
        NodeArchitecture(FULL),
        NodeArchitecture(SHARE_PER_NODE, 1),
    ]
    res14 = place_heuristic(graph14, demands14, inventory14, config)
    expected14 = 14 * 3 - (3 * 2) // 2

    ok = res6.evaluations == expected6 == 11 and res14.evaluations == expected14 == 39
    report(7, "heuristic evaluation count", ok,
           f"(|V|,K)=(6,2): {res6.evaluations} (want {expected6}); "
           f"(14,3): {res14.evaluations} (want {expected14})")


# criterion 8 ------------------------------------------------------------------


def test_c8_fixed_point_robustness_on_nsf():
    graph = nsf14()
    demands = nsf14_demands(graph)
    settings = [
        ("simple", {}),
        ("share_per_node", uniform_architectures(graph, NodeArchitecture(SHARE_PER_NODE, 1))),
        ("share_per_link", uniform_architectures(graph, NodeArchitecture(SHARE_PER_LINK, 1))),
        ("full", uniform_architectures(graph, NodeArchitecture(FULL))),
    ]
    problems = []
    spreads = {}
    slowest = 0.0
    for name, archs in settings:
        values = []
        for seed in (1, 2, 3):
            start = time.perf_counter()
            result = fixed_point(
                graph, demands, archs, AnalysisConfig(epsilon=1e-6, max_iter=1000, seed=seed)
            )
            elapsed = time.perf_counter() - start
            slowest = max(slowest, elapsed)
            if not result.converged:
                problems.append(f"{name} seed {seed} did not converge")
            if elapsed >= 30.0:
                problems.append(f"{name} seed {seed} took {elapsed:.1f}s")
            values.append(result.network_blocking_prob)
        spreads[name] = max(values) - min(values)
        if spreads[name] > 1e-5:
            problems.append(f"{name} seed spread {spreads[name]:.2e}")
    ok = not problems
    report(8, "fixed-point robustness", ok,
           f"spreads: {{ {', '.join(f'{k}: {v:.1e}' for k, v in spreads.items())} }}, "
           f"slowest run {slowest:.2f}s; problems: {problems}")
