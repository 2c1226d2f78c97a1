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
    blocking_full_conversion,
    blocking_without_conversion,
    crossing_stats,
    lightpath_blocking,
    uniform_architectures,
)
from eonspectra.placement import place_brute_force, place_heuristic
from eonspectra.runprob import run_probability
from eonspectra.simulator import SimConfig, simulate
from eonspectra.topology import DemandSpec, route_all, scale_demands

from oracles import (
    blocking_full_at,
    erlang_b,
    mc_segmented_blocking,
    one_link_chain,
    run_probability_bruteforce,
)


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


C4_BATCHES = 100


def _batch_counts(lines: list[str], warmup: float, horizon: float, batches: int, demand=None):
    """Offers and blocks of each of ``batches`` equal-time batches after
    warm-up, read from the simulator's event trace: of every demand, or of
    demand number ``demand`` alone."""
    tag = " arrival " if demand is None else f" arrival demand={demand} "
    arrivals = [line.split() for line in lines if tag in line]
    times = np.array([float(fields[0]) for fields in arrivals])
    blocked = np.array([fields[-1] == "blocked" for fields in arrivals], dtype=bool)
    counted = times > warmup
    batch = ((times[counted] - warmup) * (batches / (horizon - warmup))).astype(np.int64)
    batch = np.minimum(batch, batches - 1)
    return (
        np.bincount(batch, minlength=batches),
        np.bincount(batch[blocked[counted]], minlength=batches),
    )


def _batch_means_z(offered: np.ndarray, blocked: np.ndarray, expected: float):
    """The blocking that the batches count, and its distance from
    ``expected`` in standard errors estimated from the batch means."""
    estimate = int(blocked.sum()) / int(offered.sum())
    residuals = blocked - estimate * offered
    se = math.sqrt((residuals**2).sum() / (len(offered) * (len(offered) - 1))) / offered.mean()
    return estimate, abs(estimate - expected) / se


def test_c4_simulator_matches_erlang_b():
    # Blocking events cluster: an arrival that finds the link full is
    # followed by others while the occupancy relaxes, on the scale of a
    # holding time, so the binomial error sqrt(B(1-B)/n) is too small
    # (by up to 1.4x at F=5, A=2).  Batch means estimate the error of the
    # ratio from 100 equal-time batches of the one run, each at least 550
    # mean holds long, so that neighbouring batches are nearly independent.
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
            lines = []
            result = simulate(graph, demands, {}, config, trace=lines.append)
            offered, blocked = _batch_counts(lines, result.warmup, result.horizon, C4_BATCHES)
            assert (offered.sum(), blocked.sum()) == (result.offered_total, result.blocked_total)
            expected = erlang_b(slot_count, load)
            estimate, z = _batch_means_z(offered, blocked, expected)
            rows.append(f"F={slot_count} A={load}: sim={estimate:.5f} "
                        f"erlang={expected:.5f} z={z:.2f} n={result.offered_total}")
            if result.offered_total < 100_000 or z > 3.0:
                failures.append(rows[-1])
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    report(4, "loss-system oracle (Erlang-B)", ok,
           f"9 points in {elapsed:.1f}s; failures: {failures}")


def test_c4b_simulator_matches_one_link_chain():
    # Random Fit of multi-slot requests on one link of 8 slots against the
    # exact chain of its blocks (oracles.one_link_chain), per slot count,
    # by c4's batch means: S = 2 alone, and a pmf over S = 1, 2, 3 split
    # into one demand per slot count, which leaves the arrivals a Poisson
    # process of the same rate and pmf and gives each slot count its own
    # counts.
    from eonspectra.topology import load_topology

    start = time.perf_counter()
    graph = load_topology({
        "name": "pair", "slot_count": 8, "nodes": [1, 2],
        "edges": [{"a": 1, "b": 2, "weight": 1, "directed": True}],
    })
    rate = 2.0
    rows = []
    failures = []
    for pmf in ({2: 1.0}, {1: 0.3, 2: 0.4, 3: 0.3}):
        exact, _, _ = one_link_chain(8, pmf, rate, 1.0)
        demands = [DemandSpec(1, 2, rate * p, 1.0, {s: 1.0}) for s, p in pmf.items()]
        config = SimConfig(seed=42, warmup=50.0, horizon=50.0 + 200_000 / rate, replications=1)
        lines = []
        result = simulate(graph, demands, {}, config, trace=lines.append)
        for i, s in enumerate(pmf):
            offered, blocked = _batch_counts(lines, result.warmup, result.horizon, C4_BATCHES, i)
            assert (offered.sum(), blocked.sum()) == (
                result.demand_offered[i], result.demand_blocked[i])
            estimate, z = _batch_means_z(offered, blocked, exact[s])
            rows.append(f"pmf={pmf} S={s}: sim={estimate:.5f} chain={exact[s]:.5f} z={z:.2f} "
                        f"n={result.demand_offered[i]}")
            if result.demand_offered[i] < 40_000 or z > 3.0:
                failures.append(rows[-1])
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report("4b", "one-link Random Fit chain", ok,
           f"4 slot counts in {elapsed:.1f}s: {'; '.join(rows)}; failures: {failures}")


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
        demands = scale_demands(base, scale)
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
