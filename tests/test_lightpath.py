import json
import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from eonspectra import lightpath
from eonspectra.errors import ArchitectureError
from eonspectra.fixtures import generate_demands, nsf14, nsf14_demands
from eonspectra.lightpath import (
    FULL,
    SHARE_PER_LINK,
    SHARE_PER_NODE,
    SIMPLE,
    SIMPLE_NODE,
    CrossingStats,
    NodeArchitecture,
    bank_key,
    blocking_full_conversion,
    blocking_without_conversion,
    compile_plan,
    conversion_points,
    crossing_stats,
    lightpath_blocking,
    load_architectures,
    route_grid,
    share_per_link_availability,
    uniform_architectures,
)
from eonspectra.simulator import NetworkState
from eonspectra.topology import DemandSpec, Link, NetworkGraph, RoutedPath, load_topology, route_all

from oracles import (
    blocking_by_converter_states,
    blocking_full_at,
    chorded_ring,
    converter_availability,
    converter_layout,
    exact_lightpath_blocking,
    link_state,
    mc_segmented_blocking,
    opening_loop_values,
    pack_slots,
    segment_success_prob,
    segmented_carried,
    segmented_carried_by_booleans,
    stop_walk_blocking,
)


def line_path(hops):
    links = tuple(Link(h + 1, h + 1, h + 2, 1.0) for h in range(hops))
    return RoutedPath(nodes=tuple(range(1, hops + 2)), links=links)


def line_graph(hops, slot_count):
    links = [Link(h + 1, h + 1, h + 2, 1.0) for h in range(hops)]
    return NetworkGraph(labels=list(range(1, hops + 2)), links=links, slot_count=slot_count)


def empty_stats(hops):
    g = line_graph(hops, 4)
    return crossing_stats(g, [])


TWO_HOP = line_path(2)
PHIS_HALF = {1: 0.5, 2: 0.5}


# --- layouts -----------------------------------------------------------------


def test_layout_all_simple():
    path = line_path(3)
    assert converter_layout(path, {}) == (1, 4)


def test_layout_from_positions():
    path = line_path(5)
    archs = {2: NodeArchitecture(FULL), 4: NodeArchitecture(FULL)}
    assert converter_layout(path, archs) == (1, 2, 4, 6)
    # 22 interior converters: far beyond an enumeration of their 2^22
    # free/busy states, but the forward pass needs no guard
    rng = np.random.default_rng(3)
    hops, slot_count = 23, 4
    long_path = line_path(hops)
    phis = {h + 1: float(x) for h, x in enumerate(rng.uniform(0.6, 1.0, hops))}
    graph = line_graph(hops, slot_count)
    full = uniform_architectures(graph, NodeArchitecture(FULL))
    assert len(converter_layout(long_path, full)) == 24
    got = lightpath_blocking(2, long_path, full, phis, empty_stats(hops), slot_count)
    expected = blocking_full_conversion(2, slot_count, list(phis.values()))
    assert got == pytest.approx(expected, abs=1e-12)
    shared = uniform_architectures(graph, NodeArchitecture(SHARE_PER_NODE, 1))
    stats = _busy_stats(rng, long_path, hops, slot_count)
    assert 0.0 <= lightpath_blocking(2, long_path, shared, phis, stats, slot_count) <= 1.0


def test_layout_excludes_endpoints():
    path = line_path(2)
    archs = {1: NodeArchitecture(FULL), 3: NodeArchitecture(FULL)}
    assert converter_layout(path, archs) == (1, 3)


# --- segments ----------------------------------------------------------------


def test_segment_success_single_segment():
    got = segment_success_prob(2, 3, (1, 3), (0.5, 0.5))
    assert got == pytest.approx(0.109375, abs=1e-15)


def test_segment_success_split():
    got = segment_success_prob(2, 3, (1, 2, 3), (0.5, 0.5))
    assert got == pytest.approx(0.375**2, abs=1e-15)


def test_segment_success_zero_segment():
    assert segment_success_prob(2, 3, (1, 2, 3), (0.0, 0.9)) == 0.0


# --- availability ------------------------------------------------------------


def test_share_per_link_availability_values():
    assert share_per_link_availability(1, 2, 2.0, 0.5) == pytest.approx(0.25)
    assert share_per_link_availability(3, 2, 5.0, 0.3) == 1.0
    assert share_per_link_availability(1, 1, 2.0, 0.9) == pytest.approx(0.81)
    assert share_per_link_availability(2, 0, 0.0, 0.4) == 1.0  # no contention
    # node-wide banks use the same form with node-level aggregates
    assert share_per_link_availability(3, 0, 0.0, 0.1) == 1.0
    assert share_per_link_availability(5, 4, 6.0, 0.7) == 1.0


def test_share_per_node_availability_matches_link_form():
    stats = CrossingStats(
        paths={("port", 2): 1, ("port", 3): 2, ("node", 2): 3},
        slots={("port", 2): 1.0, ("port", 3): 3.0, ("node", 2): 4.0},
        shares={("port", 2): ((2, 1.0),), ("port", 3): ((3, 1.0),), ("node", 2): ((2, 1 / 3), (3, 2 / 3))},
    )
    phis = {1: 0.5, 2: 0.4, 3: 0.8}
    archs = {2: NodeArchitecture(SHARE_PER_NODE, 1)}
    got = converter_availability(2, TWO_HOP, archs, stats, phis)
    assert got == share_per_link_availability(1, 3, 4.0, math.fsum([1 / 3 * 0.4, 2 / 3 * 0.8]))
    # mean port free probability 2/3; the one box is free only when all 3
    # paths skip conversion, each with (2/3)^(4/3)
    assert got == pytest.approx((2.0 / 3.0) ** 4)


def test_availability_in_unit_interval():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n_sc = int(rng.integers(1, 6))
        n = int(rng.integers(0, 9))
        s = float(rng.uniform(0, 4) * n)
        phi = float(rng.random())
        value = share_per_link_availability(n_sc, n, s, phi)
        assert 0.0 <= value <= 1.0


def _fan_out(exits):
    """Node b with out-links b->c (id 2) and b->d (id 3), fed by a->b (id
    1); ``exits`` holds one head label per a->head route through b."""
    g = load_topology({
        "slot_count": 4,
        "nodes": ["a", "b", "c", "d"],
        "edges": [
            {"a": "a", "b": "b", "weight": 1, "directed": True},
            {"a": "b", "b": "c", "weight": 1, "directed": True},
            {"a": "b", "b": "d", "weight": 1, "directed": True},
        ],
    })
    demands = [DemandSpec(1, g.node_of(head), 1.0, 1.0, {1: 1.0}) for head in exits]
    return g, route_all(g, demands)


def test_node_mean_free_prob():
    # a node bank sees the transit-weighted mean of its ports' phi:
    # 1 route leaves b on link 2 and 3 routes on link 3
    g, routes = _fan_out("cddd")
    stats = crossing_stats(g, routes)
    assert stats.shares[("node", 2)] == ((2, 0.25), (3, 0.75))
    phis = {1: 0.9, 2: 0.4, 3: 0.8}
    spn1 = {2: NodeArchitecture(SHARE_PER_NODE, 1)}
    got = converter_availability(2, routes[0], spn1, stats, phis)
    assert got == pytest.approx(share_per_link_availability(1, 4, 4.0, 0.7))
    # a node with one busy port sees that port's phi
    g, routes = _fan_out("dd")
    single = crossing_stats(g, routes)
    got = converter_availability(2, routes[0], spn1, single, phis)
    assert got == share_per_link_availability(1, 2, 2.0, 0.8)


def test_idle_bank_is_always_free():
    # node b carries transit routes on link 3 only: the port bank of link 2
    # serves none, and with no routes at all neither bank of b serves any
    g, routes = _fan_out("dd")
    stats = crossing_stats(g, routes)
    phis = {1: 0.9, 2: 0.1, 3: 0.2}
    path = RoutedPath(nodes=(1, 2, 3), links=(g.link_between(1, 2), g.link_between(2, 3)))
    spl1 = {2: NodeArchitecture(SHARE_PER_LINK, 1)}
    assert stats.shares[("port", 2)] == ()
    assert converter_availability(2, path, spl1, stats, phis) == 1.0
    idle = crossing_stats(g, [])
    for kind in (SHARE_PER_LINK, SHARE_PER_NODE):
        archs = {2: NodeArchitecture(kind, 1)}
        assert converter_availability(2, path, archs, idle, phis) == 1.0


def test_bank_key():
    assert bank_key(4, 7, NodeArchitecture(SHARE_PER_LINK, 2)) == ("port", 7)
    assert bank_key(4, 7, NodeArchitecture(SHARE_PER_NODE, 1)) == ("node", 4)
    assert bank_key(4, 7, NodeArchitecture(FULL)) is None
    with pytest.raises(ArchitectureError):
        bank_key(4, 7, SIMPLE_NODE)


# --- blocking ----------------------------------------------------------------


def test_blocking_worked_examples():
    stats = empty_stats(2)
    no_conv = lightpath_blocking(2, TWO_HOP, {}, PHIS_HALF, stats, 3)
    assert no_conv == pytest.approx(0.890625)
    full = lightpath_blocking(2, TWO_HOP, {2: NodeArchitecture(FULL)}, PHIS_HALF, stats, 3)
    assert full == pytest.approx(0.859375)
    shared_stats = CrossingStats(
        paths={("port", 2): 2, ("node", 2): 2},
        slots={("port", 2): 2.0, ("node", 2): 2.0},
        shares={("port", 2): ((2, 1.0),), ("node", 2): ((2, 1.0),)},
    )
    shared = lightpath_blocking(
        2, TWO_HOP, {2: NodeArchitecture(SHARE_PER_LINK, 1)}, PHIS_HALF, shared_stats, 3
    )
    assert shared == pytest.approx(1.0 - (0.109375 + 0.03125 * 0.25))


def test_bank_with_zero_availability_blocks_like_a_simple_node():
    # node 2's bank serves only transit routes that leave on a saturated
    # side port (link 9, phi 0), so it is never free: the segment opened at
    # the source runs on through it, and the segment it would open has mass 0
    path = line_path(4)
    phis = {1: 0.9, 2: 0.7, 3: 0.8, 4: 0.6, 9: 0.0}
    stats = CrossingStats(
        paths={("node", 2): 3, ("node", 3): 2},
        slots={("node", 2): 3.0, ("node", 3): 2.0},
        shares={("node", 2): ((9, 1.0),), ("node", 3): ((3, 1.0),)},
    )
    for third in (NodeArchitecture(SHARE_PER_NODE, 1), NodeArchitecture(FULL)):
        tail = {3: third, 4: NodeArchitecture(FULL)}
        shared = {2: NodeArchitecture(SHARE_PER_NODE, 1), **tail}
        assert converter_availability(2, path, shared, stats, phis) == 0.0
        assert 0.0 < converter_availability(3, path, shared, stats, phis)
        for min_run in (1, 2, 3):
            got = lightpath_blocking(min_run, path, shared, phis, stats, 4)
            assert got == lightpath_blocking(min_run, path, tail, phis, stats, 4)
            assert 0.0 < got < 1.0


def test_single_call_reads_only_the_links_of_its_plan():
    # without a solve's memo the call fills a link state from its dict at
    # the route's links and the bank's ports: a sparse dict works, one
    # lacking a route link or a bank port raises
    path = line_path(3)
    archs = {2: NodeArchitecture(SHARE_PER_NODE, 1), 3: NodeArchitecture(FULL)}
    stats = CrossingStats(
        paths={("node", 2): 2}, slots={("node", 2): 3.0}, shares={("node", 2): ((9, 1.0),)}
    )
    phis = {1: 0.9, 2: 0.7, 3: 0.8, 9: 0.6}
    for s in (1, 2, 3):
        got = lightpath_blocking(s, path, archs, phis, stats, 4)
        assert got == stop_walk_blocking(s, path, archs, phis, stats, 4)
        assert 0.0 < got < 1.0
    for missing in (2, 9):
        sparse = {lid: phi for lid, phi in phis.items() if lid != missing}
        with pytest.raises(KeyError):
            lightpath_blocking(2, path, archs, sparse, stats, 4)


@pytest.mark.parametrize("kind", [SIMPLE, SHARE_PER_NODE, FULL])
def test_single_call_reads_an_array_by_position_as_a_dict_by_id(kind):
    # without a memo, phis may be a dict by link id or the link-state array
    # a solve evaluates, link id i at position i - 1: on an NSF route and on
    # one over link 42, the last, both give the same blockings
    g = nsf14()
    routes = route_all(g, nsf14_demands(g))
    stats = crossing_stats(g, routes)
    archs = uniform_architectures(g, NodeArchitecture(kind, 1 if kind == SHARE_PER_NODE else None))
    rng = np.random.default_rng(33)
    phis = {link.id: float(x) for link, x in zip(g.links, rng.uniform(0.5, 1.0, len(g.links)))}
    chosen = [r for r in routes if r.link_ids in ((9, 13, 19, 25, 27), (42, 24, 12))]
    assert len(chosen) == 2
    for route in chosen:
        for s in (1, 2, 3):
            by_id = lightpath_blocking(s, route, archs, phis, stats, g.slot_count)
            assert lightpath_blocking(s, route, archs, link_state(phis), stats, g.slot_count) == by_id


def test_blocking_request_larger_than_fiber():
    stats = empty_stats(2)
    assert lightpath_blocking(5, TWO_HOP, {}, PHIS_HALF, stats, 3) == 1.0


def _random_instance(rng, max_hops=6, max_slots=12):
    hops = int(rng.integers(1, max_hops + 1))
    slot_count = int(rng.integers(2, max_slots + 1))
    min_run = int(rng.integers(1, min(slot_count, 4) + 1))
    phis = {h + 1: float(x) for h, x in enumerate(rng.uniform(0.2, 1.0, hops))}
    path = line_path(hops)
    stats = empty_stats(hops)
    return hops, slot_count, min_run, phis, path, stats


def _busy_stats(rng, path, hops, slot_count):
    """Random nonzero crossing statistics along ``path``, so shared
    converter availability is nontrivial.  On a line every node has one
    output port, so its node bank and its port bank hold the same tallies."""
    stats = crossing_stats(line_graph(hops, slot_count), [])
    for link in path.links:
        paths = int(rng.integers(0, 5))
        slots = paths * float(rng.uniform(1, 3))
        for bank in (("port", link.id), ("node", link.tail)):
            stats.paths[bank] = paths
            stats.slots[bank] = slots
            stats.shares[bank] = ((link.id, 1.0),) if paths else ()
    return stats


def test_engine_collapses_to_special_cases():
    rng = np.random.default_rng(9)
    for _ in range(200):
        hops, slot_count, min_run, phis, path, stats = _random_instance(rng)
        hop_probs = tuple(phis[h + 1] for h in range(hops))
        # empty layout reproduces the no-conversion closed form
        got = lightpath_blocking(min_run, path, {}, phis, stats, slot_count)
        assert got == pytest.approx(blocking_without_conversion(min_run, slot_count, hop_probs), abs=1e-12)
        # all-full interior reproduces the per-hop closed form
        archs = {n: NodeArchitecture(FULL) for n in range(2, hops + 1)}
        got = lightpath_blocking(min_run, path, archs, phis, stats, slot_count)
        assert got == pytest.approx(blocking_full_conversion(min_run, slot_count, hop_probs), abs=1e-12)
        # full converters at a random interior subset reproduce the
        # segmented closed form
        interior = tuple(p for p in range(2, hops + 1) if rng.random() < 0.5)
        archs = {path.nodes[p - 1]: NodeArchitecture(FULL) for p in interior}
        got = lightpath_blocking(min_run, path, archs, phis, stats, slot_count)
        layout = (1,) + interior + (hops + 1,)
        assert got == pytest.approx(blocking_full_at(min_run, slot_count, layout, hop_probs), abs=1e-12)


def test_blocking_matches_exhaustive_enumeration():
    rng = np.random.default_rng(17)
    kinds = [
        SIMPLE_NODE,
        NodeArchitecture(FULL),
        NodeArchitecture(SHARE_PER_LINK, 1),
        NodeArchitecture(SHARE_PER_NODE, 1),
        NodeArchitecture(SHARE_PER_NODE, 2),
    ]
    worst = 0.0
    for _ in range(60):
        hops = int(rng.integers(1, 4))
        slot_count = int(rng.integers(1, 5))
        min_run = int(rng.integers(1, slot_count + 1))
        phis = {h + 1: float(x) for h, x in enumerate(rng.uniform(0.2, 1.0, hops))}
        path = line_path(hops)
        stats = _busy_stats(rng, path, hops, slot_count)
        archs = {v: kinds[int(rng.integers(len(kinds)))] for v in range(2, hops + 1)}
        converters = [
            (pos, converter_availability(pos, path, archs, stats, phis))
            for pos in converter_layout(path, archs)[1:-1]
        ]
        hop_probs = [phis[h + 1] for h in range(hops)]
        expected = exact_lightpath_blocking(min_run, slot_count, hop_probs, converters)
        got = lightpath_blocking(min_run, path, archs, phis, stats, slot_count)
        assert 0.0 <= got <= 1.0
        worst = max(worst, abs(got - expected))
    assert worst <= 1e-12


def test_blocking_matches_converter_state_sum():
    """Longer paths than the exhaustive slot-mask oracle reaches: the
    expectation over all 2^k converter states of the closed form."""
    rng = np.random.default_rng(23)
    kinds = [
        SIMPLE_NODE,
        NodeArchitecture(FULL),
        NodeArchitecture(SHARE_PER_LINK, 1),
        NodeArchitecture(SHARE_PER_NODE, 1),
        NodeArchitecture(SHARE_PER_NODE, 2),
    ]
    for _ in range(300):
        hops, slot_count, min_run, phis, path, _ = _random_instance(rng, max_hops=10)
        stats = _busy_stats(rng, path, hops, slot_count)
        archs = {v: kinds[int(rng.integers(len(kinds)))] for v in range(2, hops + 1)}
        converters = [
            (pos, converter_availability(pos, path, archs, stats, phis))
            for pos in converter_layout(path, archs)[1:-1]
        ]
        hop_probs = [phis[h + 1] for h in range(hops)]
        expected = blocking_by_converter_states(min_run, slot_count, hop_probs, converters)
        got = lightpath_blocking(min_run, path, archs, phis, stats, slot_count)
        assert got == pytest.approx(expected, abs=1e-12)


def test_array_passes_equal_the_scalar_stop_walk():
    """Every pass of a plan, evaluated side by side with passes of other
    lengths and slot counts, equals the scalar stop walk with ==."""
    rng = np.random.default_rng(43)
    side = 99  # a saturated port off the line: banks that serve it are never free
    kinds = [
        SIMPLE_NODE,
        NodeArchitecture(FULL),
        NodeArchitecture(SHARE_PER_LINK, 1),
        NodeArchitecture(SHARE_PER_NODE, 1),
        NodeArchitecture(SHARE_PER_NODE, 2),
    ]
    seen = dict.fromkeys(("paths", "never free", "full between shared", "S > F", "several S"), 0)
    for _ in range(120):
        hops, slot_count, _, phis, line, _ = _random_instance(rng, max_hops=9, max_slots=8)
        phis[side] = 0.0
        stats = _busy_stats(rng, line, hops, slot_count)
        for v in range(2, hops + 1):
            if stats.paths[("node", v)] and rng.random() < 0.3:
                stats.shares[("node", v)] = ((side, 1.0),)
        archs = {v: kinds[int(rng.integers(len(kinds)))] for v in range(2, hops + 1)}
        if hops >= 4 and rng.random() < 0.3:
            archs.update({2: kinds[3], 3: kinds[1], 4: kinds[2]})
        requests = []
        for _ in range(3):
            a = int(rng.integers(1, hops + 1))
            b = int(rng.integers(a + 1, hops + 2))
            path = RoutedPath(nodes=tuple(range(a, b + 1)), links=line.links[a - 1 : b - 1])
            count = int(rng.integers(1, 4))
            sizes = tuple(sorted(rng.choice(np.arange(1, slot_count + 3), count, replace=False).tolist()))
            requests.append((path, sizes))
        plan = compile_plan(route_grid(requests, slot_count), archs, stats)
        memo = plan.evaluate(link_state(phis))
        for path, sizes in requests:
            kinds_on = [archs.get(v, SIMPLE_NODE).kind for v in path.nodes[1:-1]]
            free = [
                converter_availability(pos, path, archs, stats, phis)
                for pos in converter_layout(path, archs)[1:-1]
            ]
            seen["paths"] += 1
            seen["never free"] += 0.0 in free
            seen["full between shared"] += any(
                FULL in kinds_on[i + 1 : j] and {kinds_on[i], kinds_on[j]} <= {SHARE_PER_LINK, SHARE_PER_NODE}
                for i in range(len(kinds_on))
                for j in range(i + 2, len(kinds_on))
            )
            seen["S > F"] += sizes[-1] > slot_count
            seen["several S"] += sum(s <= slot_count for s in sizes) > 1
            for s in sizes:
                expected = stop_walk_blocking(s, path, archs, phis, stats, slot_count)
                assert lightpath_blocking(s, path, archs, phis, stats, slot_count, memo) == expected
                assert lightpath_blocking(s, path, archs, phis, stats, slot_count) == expected
    assert seen["paths"] >= 300
    assert min(seen.values()) >= 10, seen


def _long_routes(setting):
    """A 28-node chorded ring with routes of up to 8 hops, requests of
    several pmfs (one with a slot count above F), ``setting``'s converters
    and a random link state."""
    g = chorded_ring(7)
    slot_count = g.slot_count
    pmfs = [{1: 1.0}, {2: 0.5, 4: 0.5}, {1: 0.2, 3: 0.3, 5: 0.5}, {2: 1.0}]
    demands = [
        DemandSpec(s, d, 0.1, 1.0, pmfs[(s + d) % len(pmfs)])
        for s in g.nodes[::2]
        for d in g.nodes
        if s != d
    ]
    demands[5] = DemandSpec(demands[5].src, demands[5].dst, 0.1, 1.0, {3: 0.5, slot_count + 1: 0.5})
    routes = route_all(g, demands)
    stats = crossing_stats(g, routes)
    cycle = [NodeArchitecture(SHARE_PER_NODE, 2), NodeArchitecture(FULL),
             NodeArchitecture(SHARE_PER_LINK, 1), SIMPLE_NODE]
    archs = {
        "share_per_node:2": uniform_architectures(g, NodeArchitecture(SHARE_PER_NODE, 2)),
        "full": uniform_architectures(g, NodeArchitecture(FULL)),
        "mixed": {v: cycle[v % 4] for v in g.nodes},
    }[setting]
    rng = np.random.default_rng(11)
    phis = {link.id: float(x) for link, x in zip(g.links, rng.uniform(0.75, 1.0, len(g.links)))}
    return slot_count, demands, routes, stats, archs, phis


@pytest.mark.parametrize("setting", ["share_per_node:2", "full", "mixed"])
def test_compiled_plan_on_long_routes_equals_the_stop_walk(setting):
    """One plan of a 28-node chorded ring, routes of up to 8 hops, against
    the scalar stop walk with ==, pass by pass; its index is compiled once."""
    slot_count, demands, routes, stats, archs, phis = _long_routes(setting)
    grid = route_grid(((r, d.slot_pmf) for d, r in zip(demands, routes)), slot_count)
    plan = compile_plan(grid, archs, stats)
    values = plan.evaluate(link_state(phis))
    again = plan.evaluate(link_state({lid: phi / 2 for lid, phi in phis.items()}))
    assert values.index is again.index is plan.index
    assert values.values != again.values

    assert max(r.hop_count for r in routes) == 8
    assert set(plan.index) == {
        (s, r.link_ids) for d, r in zip(demands, routes) for s in d.slot_pmf if s <= slot_count
    }
    route_of = {r.link_ids: r for r in routes}
    partly_free = 0
    for (s, link_ids), i in plan.index.items():
        route = route_of[link_ids]
        assert values.values[i] == stop_walk_blocking(s, route, archs, phis, stats, slot_count)
        partly_free += any(
            0.0 < converter_availability(pos, route, archs, stats, phis) < 1.0
            for pos in converter_layout(route, archs)[1:-1]
        )
    assert (partly_free > 0) == (setting != "full")
    too_big = lightpath_blocking(slot_count + 1, routes[5], archs, phis, stats, slot_count, values)
    assert too_big == 1.0


def test_stop_sums_equal_the_opening_loop():
    """``SolvePlan.evaluate`` adds up each stop's openings one at a time,
    in opening order; the loop of ``oracles.opening_loop_values``, which
    adds every opening into a zeroed buffer, gives the same blockings with
    ==.  Plans of random route sets of the 28-node chorded ring, under
    share_per_node:2 and under a mixed map, have stops that close 1 to 8
    openings for many passes side by side, and the plan of one 8-hop route
    alone has a stop where a single pass closes 8 openings, a column numpy
    would sum pairwise if it reduced it alone."""
    rng = np.random.default_rng(23)
    g = chorded_ring(3)
    demands = [DemandSpec(s, d, 0.1, 1.0, {1: 1.0}) for s in g.nodes for d in g.nodes if s != d]
    routes = route_all(g, demands)
    stats = crossing_stats(g, routes)
    shared = uniform_architectures(g, NodeArchitecture(SHARE_PER_NODE, 2))
    cycle = [NodeArchitecture(SHARE_PER_NODE, 2), NodeArchitecture(FULL),
             NodeArchitecture(SHARE_PER_LINK, 1), SIMPLE_NODE]
    mixed = {v: cycle[v % 4] for v in g.nodes}
    widths = set()
    for trial in range(8):
        archs = mixed if trial % 4 == 3 else shared
        phis = {link.id: float(x) for link, x in zip(g.links, rng.uniform(0.6, 1.0, len(g.links)))}
        picked = rng.choice(len(routes), size=int(rng.integers(50, 400)), replace=False)
        requests = [
            (routes[i], tuple(sorted(rng.choice(np.arange(1, 6), 2, replace=False).tolist())))
            for i in picked
        ]
        plan = compile_plan(route_grid(requests, g.slot_count), archs, stats)
        state = link_state(phis)
        assert plan.evaluate(state).values == opening_loop_values(plan, state)
        widths |= {width for active, width, _ in plan.stops if active > 1}
    assert widths == set(range(1, 9))
    longest = [route for route in routes if route.hop_count == 8]
    assert longest
    for route in longest[:4]:
        plan = compile_plan(route_grid([(route, (2,))], g.slot_count), shared, stats)
        assert [(active, width) for active, width, _ in plan.stops] == [(1, w) for w in range(1, 9)]
        values = plan.evaluate(state).values
        assert values == opening_loop_values(plan, state)
        assert values == [stop_walk_blocking(2, route, shared, phis, stats, g.slot_count)]
        assert 0.0 < values[0] < 1.0


def _cell_segments(plan, route_of, archs):
    """Cell by cell, in the order of ``plan.closes`` (stop by stop, then
    opening by opening, then place by place): the slot count and the link
    positions of the segment the cell closes, or None where the pass at
    that place lacks that opening.  A stop's openings are the last full
    stop before it (or the source) and the shared stops since."""
    passes = list(plan.index)
    at_place = np.argsort(plan.rank)
    openings_at = {}  # pass -> the openings of each of its stops
    for s, link_ids in passes:
        route = route_of[link_ids]
        openings, by_stop = [1], []
        for pos in converter_layout(route, archs)[1:]:
            by_stop.append((pos, list(openings)))
            node = route.nodes[pos - 1]
            arch = archs.get(node, SIMPLE_NODE)
            shared = pos <= route.hop_count and bank_key(node, route.links[pos - 1].id, arch)
            openings = openings + [pos] if shared else [pos]
        openings_at[s, link_ids] = by_stop
    cells = []
    for j, (active, width, _) in enumerate(plan.stops):
        for o in range(width):
            for p in range(active):
                s, link_ids = passes[at_place[p]]
                pos, openings = openings_at[s, link_ids][j]
                if o >= len(openings):
                    cells.append(None)
                    continue
                links = route_of[link_ids].links[openings[o] - 1 : pos - 1]
                cells.append((s, [link.id - 1 for link in links]))
    return cells


def _check_layout_and_lacking_reads(plan, route_of, archs, state, rng, monkeypatch):
    """The plan's segment table is its hop columns, rows longest first,
    and every cell reads the success of its own segment and slot count.
    Returns the number of cells whose pass lacks the opening, after
    checking that a copy of the plan in which each of them reads a random
    success in [0, 1] evaluates to the same blockings with ==."""
    cells = _cell_segments(plan, route_of, archs)
    assert len(cells) == len(plan.closes)
    table = {}
    for cell, closed in zip(plan.closes.tolist(), cells):
        if closed is not None:
            s, links = closed
            assert plan.runs.sizes[cell] == s
            assert table.setdefault(int(plan.segment[cell]), links) == links
    rows = [[int(c[r]) for c in plan.columns if r < len(c)] for r in range(len(plan.columns[0]))]
    assert rows == [table[r] for r in range(len(rows))]
    assert len({tuple(row) for row in rows}) == len(rows)
    lengths = [len(row) for row in rows]
    assert lengths == sorted(lengths, reverse=True)
    assert [len(c) for c in plan.columns] == [
        sum(n > k for n in lengths) for k in range(len(plan.columns))
    ]

    expected = plan.evaluate(state).values
    lacking = np.array([closed is None for closed in cells], dtype=bool)
    noise = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, lacking.sum())))
    rng.shuffle(noise)
    closes = plan.closes.copy()
    closes[lacking] = len(plan.runs.sizes) + np.arange(lacking.sum())
    copy = replace(plan, closes=closes)
    run_probability = lightpath.run_probability
    monkeypatch.setattr(
        lightpath,
        "run_probability",
        lambda sizes, slot_count, rho: np.concatenate((run_probability(sizes, slot_count, rho), noise)),
    )
    assert copy.evaluate(state).values == expected
    monkeypatch.undo()
    return int(lacking.sum())


def test_lacking_openings_may_read_any_success(monkeypatch):
    """An opening that a pass lacks at a stop holds mass +0.0, so the
    success it reads adds +0.0 whatever it is: a plan reads a real
    success there, and a copy that reads random values in [0, 1] instead,
    exact 0.0 and 1.0 among them, gives the same blockings with ==.  Plans
    of random request sets of the 28-node chorded ring under
    share_per_node:2 and under a mixed map, whose stops close 1 to 8
    openings, a plan whose segments are all one hop long, and the plan of
    no requests also lay their segment table out as hop columns of rows
    longest first."""
    rng = np.random.default_rng(41)
    g = chorded_ring(5)
    demands = [DemandSpec(s, d, 0.1, 1.0, {1: 1.0}) for s in g.nodes for d in g.nodes if s != d]
    routes = route_all(g, demands)
    route_of = {r.link_ids: r for r in routes}
    stats = crossing_stats(g, routes)
    shared = uniform_architectures(g, NodeArchitecture(SHARE_PER_NODE, 2))
    cycle = [NodeArchitecture(SHARE_PER_NODE, 2), NodeArchitecture(FULL),
             NodeArchitecture(SHARE_PER_LINK, 1), SIMPLE_NODE]
    mixed = {v: cycle[v % 4] for v in g.nodes}
    widths, lacking = set(), 0
    for trial in range(6):
        archs = mixed if trial % 3 == 2 else shared
        phis = {link.id: float(x) for link, x in zip(g.links, rng.uniform(0.6, 1.0, len(g.links)))}
        picked = rng.choice(len(routes), size=int(rng.integers(50, 300)), replace=False)
        requests = [
            (routes[i], tuple(sorted(rng.choice(np.arange(1, 6), 2, replace=False).tolist())))
            for i in picked
        ]
        plan = compile_plan(route_grid(requests, g.slot_count), archs, stats)
        lacking += _check_layout_and_lacking_reads(plan, route_of, archs, link_state(phis), rng, monkeypatch)
        widths |= {width for active, width, _ in plan.stops if active > 1}
    assert widths == set(range(1, 9)) and lacking > 1000

    full = uniform_architectures(g, NodeArchitecture(FULL))
    plan = compile_plan(route_grid([(r, (1, 3)) for r in routes], g.slot_count), full, stats)
    assert len(plan.columns) == 1 and len(plan.columns[0]) == len(g.links)
    assert _check_layout_and_lacking_reads(plan, route_of, full, link_state(phis), rng, monkeypatch) == 0

    plan = compile_plan(route_grid([], g.slot_count), shared, crossing_stats(g, []))
    assert [len(c) for c in plan.columns] == [0]
    assert _check_layout_and_lacking_reads(plan, {}, shared, link_state(phis), rng, monkeypatch) == 0
    assert plan.evaluate(link_state(phis)).values == []


@pytest.mark.parametrize("setting", ["share_per_node:2", "mixed"])
def test_request_order_leaves_every_blocking_unchanged(setting):
    """The same requests compiled in shuffled orders lay the passes out in
    other columns and other orders among passes of equal length, but every
    (S, link ids) keeps its blocking bit for bit."""
    slot_count, demands, routes, stats, archs, phis = _long_routes(setting)
    requests = [(r, d.slot_pmf) for d, r in zip(demands, routes)]
    plan = compile_plan(route_grid(requests, slot_count), archs, stats)
    values = plan.evaluate(link_state(phis))
    expected = {key: values.values[i] for key, i in plan.index.items()}
    rng = np.random.default_rng(5)
    for _ in range(3):
        shuffled = [requests[i] for i in rng.permutation(len(requests))]
        other = compile_plan(route_grid(shuffled, slot_count), archs, stats)
        assert list(other.index) != list(plan.index)
        got = other.evaluate(link_state(phis))
        assert {key: got.values[i] for key, i in other.index.items()} == expected


def test_array_compile_at_its_edges_equals_the_stop_walk():
    """Plans whose segment rows cannot be packed into an int64 without
    re-ranking, against the scalar stop walk with ==.  A 62-hop line
    1 -> 63 plus a side link 64 -> 2 gives the route grid a pad of 63, one
    past the largest link position, so a link is a digit in base 64, and two
    converter-free 12-hop routes into node 13 that differ only in their
    first link: packed without a re-rank, a segment's first digits wrap
    out of the int64 and such segments would share a row.  The requests
    also put two demands on one route, ask for more slots than a fiber
    has, and draw converters on the rest of the line, with a full node
    between two shared ones on some."""
    rng = np.random.default_rng(29)
    line = line_path(62)
    side = Link(63, 64, 2, 1.0)
    main = RoutedPath(nodes=tuple(range(1, 14)), links=line.links[:12])
    kinds = [
        SIMPLE_NODE,
        NodeArchitecture(FULL),
        NodeArchitecture(SHARE_PER_LINK, 1),
        NodeArchitecture(SHARE_PER_NODE, 1),
        NodeArchitecture(SHARE_PER_NODE, 2),
    ]
    seen = dict.fromkeys(("full between shared", "partly free"), 0)
    for trial in range(12):
        slot_count = int(rng.integers(2, 7))
        phis = {lid: float(x) for lid, x in zip(range(1, 64), rng.uniform(0.9, 1.0, 63))}
        stats = _busy_stats(rng, line, 62, slot_count)
        archs = {v: kinds[int(rng.integers(len(kinds)))] for v in range(13, 63)}
        if trial % 2:
            archs.update({20: kinds[3], 21: kinds[1], 22: kinds[2]})
        requests = [
            (main, (1, 3)),
            (RoutedPath(nodes=(64, *range(2, 14)), links=(side, *line.links[1:12])), (2,)),
            (RoutedPath(main.nodes, main.links), (1, slot_count + 1)),  # the same route again
            (RoutedPath(nodes=tuple(range(13, 64)), links=line.links[12:]), (1, 2)),
        ]
        for _ in range(4):
            a = int(rng.integers(13, 63))
            b = int(rng.integers(a + 1, 64))
            path = RoutedPath(nodes=tuple(range(a, b + 1)), links=line.links[a - 1 : b - 1])
            requests.append((path, tuple(sorted({int(rng.integers(1, slot_count + 2)), 1}))))
        grid = route_grid(requests, slot_count)
        plan = compile_plan(grid, archs, stats)
        base = grid.pad + 1
        assert base == 64 and base ** len(plan.columns) > 2**63  # the packing must re-rank
        memo = plan.evaluate(link_state(phis))
        for path, sizes in requests:
            kinds_on = [archs.get(v, SIMPLE_NODE).kind for v in path.nodes[1:-1]]
            seen["full between shared"] += any(
                FULL in kinds_on[i + 1 : j] and {kinds_on[i], kinds_on[j]} <= {SHARE_PER_LINK, SHARE_PER_NODE}
                for i in range(len(kinds_on))
                for j in range(i + 2, len(kinds_on))
            )
            seen["partly free"] += any(
                0.0 < converter_availability(pos, path, archs, stats, phis) < 1.0
                for pos in converter_layout(path, archs)[1:-1]
            )
            for s in sizes:
                expected = stop_walk_blocking(s, path, archs, phis, stats, slot_count)
                assert lightpath_blocking(s, path, archs, phis, stats, slot_count, memo) == expected
    assert min(seen.values()) >= 6, seen


def test_pad_below_the_link_count_reads_as_always_free():
    """A route grid's pad is one past the largest link position its
    routes cross, so it can fall on a link of the graph: here the last
    link, a weight-100 chord 1 -> 5 of a 5-node line that no shortest
    route takes, holds free probability 0.3 in the link state.  No pass
    may read it, so every pass equals the scalar stop walk with ==."""
    g = load_topology({
        "slot_count": 8,
        "nodes": [1, 2, 3, 4, 5],
        "edges": [{"a": a, "b": a + 1, "weight": 1} for a in range(1, 5)]
        + [{"a": 1, "b": 5, "weight": 100, "directed": True}],
    })
    pmf = {1: 0.5, 3: 0.5}
    demands = [DemandSpec(s, d, 0.1, 1.0, pmf) for s in g.nodes for d in g.nodes if s != d]
    routes = route_all(g, demands)
    stats = crossing_stats(g, routes)
    archs = uniform_architectures(g, NodeArchitecture(SHARE_PER_NODE, 1))
    rng = np.random.default_rng(37)
    phis = {link.id: float(x) for link, x in zip(g.links, rng.uniform(0.6, 1.0, len(g.links)))}
    phis[g.links[-1].id] = 0.3
    grid = route_grid(((r, d.slot_pmf) for d, r in zip(demands, routes)), g.slot_count)
    plan = compile_plan(grid, archs, stats)
    assert grid.pad == len(g.links) - 1
    values = plan.evaluate(link_state(phis))
    route_of = {r.link_ids: r for r in routes}
    for (s, link_ids), i in plan.index.items():
        expected = stop_walk_blocking(s, route_of[link_ids], archs, phis, stats, g.slot_count)
        assert values.values[i] == expected


def _walked_exits(routes):
    """The links at interior hops of ``routes``, once each, in link order,
    by a walk over every hop."""
    return tuple(sorted({link.id: link for r in routes for link in r.links[1:]}.values(),
                        key=lambda link: link.id))


def _exit_case(case):
    """(graph, routes) of one ``test_grid_exits_are_the_walked_interior_links`` case."""
    if case.startswith("ring"):
        g = chorded_ring(int(case[-1]))
        return g, route_all(g, generate_demands(g, seed=3, slots_range=(1, 2)))
    g = nsf14()
    if case == "nsf":
        return g, route_all(g, nsf14_demands(g))
    if case == "one hop":
        return g, route_all(g, [DemandSpec(e.tail, e.head, 1.0, 1.0, {1: 1.0}) for e in g.links])
    assert case == "no requests"
    return g, []


@pytest.mark.parametrize("case", ["ring 1", "ring 2", "nsf", "one hop", "no requests"])
def test_grid_exits_are_the_walked_interior_links(case):
    g, routes = _exit_case(case)
    # a route whose slot counts all exceed the fiber has no pass, but its
    # interior links are exits all the same
    sizes = [(g.slot_count + 1,) if k % 5 == 0 else (1,) for k in range(len(routes))]
    grid = route_grid(zip(routes, sizes), g.slot_count)
    assert grid.exits == _walked_exits(routes)
    assert all(type(link) is Link for link in grid.exits)
    assert (len(grid.exits) > 0) == (case not in ("one hop", "no requests"))


@pytest.mark.parametrize("case", ["nsf mixed", "ring share_per_link:1"])
def test_plan_banks_are_the_simulators_banks_in_link_order(case):
    """``compile_plan`` and ``NetworkState`` read their conversion points
    off one rule: each plan bank's n_sc and transit count are the
    simulator's bank capacity and the crossing count of the bank keys met
    over the interior exits, in link order."""
    if case == "nsf mixed":
        g = nsf14()
        routes = route_all(g, nsf14_demands(g))
        cycle = [NodeArchitecture(SHARE_PER_NODE, 1), NodeArchitecture(FULL),
                 NodeArchitecture(SHARE_PER_LINK, 2), SIMPLE_NODE]
        archs = {v: cycle[v % 4] for v in g.nodes}
    else:
        g = chorded_ring(4)
        routes = route_all(g, generate_demands(g, seed=3, slots_range=(1, 2)))
        archs = uniform_architectures(g, NodeArchitecture(SHARE_PER_LINK, 1))
    stats = crossing_stats(g, routes)
    grid = route_grid(((r, r.demand.slot_pmf) for r in routes), g.slot_count)
    plan = compile_plan(grid, archs, stats)
    state = NetworkState(g, archs)
    assert (state.converters, state.bank_capacity) == conversion_points(g.links, archs)
    met = [state.converters[link.id] for link in _walked_exits(routes) if link.id in state.converters]
    keys = list(dict.fromkeys(key for key in met if key is not None))
    assert len(keys) > 1
    if case == "nsf mixed":  # a full, a node and a port conversion point all met
        assert {key and key[0] for key in met} == {None, "node", "port"}
    assert [(n_sc, paths) for n_sc, paths, _, _ in plan.banks] == [
        (state.bank_capacity[key], stats.paths[key]) for key in keys
    ]


def test_blocking_is_a_probability_without_clamping():
    rng = np.random.default_rng(31)
    kinds = [
        NodeArchitecture(FULL),
        NodeArchitecture(SHARE_PER_LINK, 1),
        NodeArchitecture(SHARE_PER_NODE, 1),
    ]
    for _ in range(200):
        hops, slot_count, min_run, phis, path, _ = _random_instance(rng, max_hops=8)
        stats = _busy_stats(rng, path, hops, slot_count)
        archs = {v: kinds[int(rng.integers(len(kinds)))] for v in range(2, hops + 1)}
        # every slot free: no request can block, exactly
        all_free = dict.fromkeys(phis, 1.0)
        assert lightpath_blocking(min_run, path, archs, all_free, stats, slot_count) == 0.0
        shared = {v: kinds[1 + int(rng.integers(2))] for v in range(2, hops + 1)}
        value = lightpath_blocking(min_run, path, shared, phis, stats, slot_count)
        assert 0.0 <= value <= 1.0


def test_upgrading_architecture_never_increases_blocking():
    rng = np.random.default_rng(13)
    ladder = [
        {},
        {"kind": SHARE_PER_NODE, "n_sc": 1},
        {"kind": SHARE_PER_NODE, "n_sc": 3},
        {"kind": FULL, "n_sc": None},
    ]
    for _ in range(120):
        hops, slot_count, min_run, phis, path, _ = _random_instance(rng, max_hops=5)
        if hops < 2:
            continue
        node = int(rng.integers(2, hops + 1))
        stats = _busy_stats(rng, path, hops, slot_count)
        previous = None
        for rung in ladder:
            archs = {} if not rung else {node: NodeArchitecture(rung["kind"], rung["n_sc"])}
            value = lightpath_blocking(min_run, path, archs, phis, stats, slot_count)
            if previous is not None:
                assert value <= previous + 1e-12
            previous = value


def test_blocking_against_monte_carlo_masks():
    rng = np.random.default_rng(21)
    samples = 200_000
    for _ in range(8):
        hops = int(rng.integers(1, 6))
        slot_count = int(rng.integers(2, 17))
        min_run = int(rng.integers(1, min(slot_count, 3) + 1))
        probs = rng.uniform(0.5, 0.98, hops)
        phis = {h + 1: float(p) for h, p in enumerate(probs)}
        interior = tuple(p for p in range(2, hops + 1) if rng.random() < 0.5)
        layouts = [
            (1, hops + 1),
            tuple(range(1, hops + 2)),
            (1,) + interior + (hops + 1,),
        ]
        mc = mc_segmented_blocking(min_run, slot_count, layouts, probs, samples, rng)
        analytic = [
            blocking_without_conversion(min_run, slot_count, probs),
            blocking_full_conversion(min_run, slot_count, probs),
            blocking_full_at(min_run, slot_count, layouts[2], probs),
        ]
        for a, m in zip(analytic, mc):
            se = max(math.sqrt(a * (1 - a) / samples), 1e-7)
            assert abs(a - m) <= 4 * se, (hops, slot_count, min_run)


def test_packed_masks_carry_what_boolean_masks_carry():
    # the Monte Carlo oracle's packed reduction counts exactly the samples
    # of its boolean definition, at slot counts on and across the 8, 16,
    # 32 and 64-bit words, run lengths from 1 to past F, and every layout
    rng = np.random.default_rng(41)
    for slot_count in (1, 2, 5, 8, 9, 16, 17, 31, 33, 64):
        hops = int(rng.integers(1, 6))
        masks = rng.random((300, hops, slot_count)) < rng.uniform(0.5, 0.98, (hops, 1))
        words = pack_slots(masks)
        assert words.shape == (300, hops)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little").reshape(300, hops, -1)
        assert (bits[..., :slot_count] == masks).all() and not bits[..., slot_count:].any()
        layouts = [
            (1,) + cuts + (hops + 1,) for k in range(hops) for cuts in combinations(range(2, hops + 1), k)
        ]
        for min_run in range(1, min(slot_count, 6) + 2):
            got = segmented_carried(words, min_run, layouts)
            assert got == segmented_carried_by_booleans(masks, min_run, layouts), (slot_count, min_run)
            assert min_run <= slot_count or got == [0] * len(layouts)


# --- architecture documents --------------------------------------------------


def test_load_architectures():
    g = line_graph(2, 4)
    archs = load_architectures(
        json.dumps({"2": {"kind": "share_per_link", "n_sc": 2}, "3": {"kind": "full"}}), g
    )
    assert archs[2] == NodeArchitecture(SHARE_PER_LINK, 2)
    assert archs[3] == NodeArchitecture(FULL)
    assert 1 not in archs  # stays simple


def test_load_architectures_rejects_bad_entries():
    g = line_graph(2, 4)
    with pytest.raises(ArchitectureError, match="invalid architecture JSON"):
        load_architectures("{oops", g)
    with pytest.raises(ArchitectureError):
        load_architectures(json.dumps({"2": {"kind": "warp"}}), g)
    with pytest.raises(ArchitectureError):
        load_architectures(json.dumps({"2": {"kind": "share_per_node"}}), g)
    with pytest.raises(ArchitectureError):
        load_architectures(json.dumps({"9": {"kind": "full"}}), g)
    with pytest.raises(ArchitectureError, match="JSON object"):
        load_architectures(json.dumps([{"kind": "full"}]), g)
    for entry in (5, "full", {"n_sc": 1}):  # malformed entries
        with pytest.raises(ArchitectureError, match="malformed"):
            load_architectures(json.dumps({"2": entry}), g)
    with pytest.raises(ArchitectureError):
        NodeArchitecture(SHARE_PER_LINK, 0)
    for n_sc in (1.5, 2.0, 2.5, 1.0, True, "2", "3"):
        with pytest.raises(ArchitectureError):
            NodeArchitecture(SHARE_PER_NODE, n_sc)
        with pytest.raises(ArchitectureError):
            load_architectures(json.dumps({"2": {"kind": "share_per_link", "n_sc": n_sc}}), g)
    # simple and full nodes have no bank to size
    for kind in (SIMPLE, FULL):
        for n_sc in (1, -3, "abc"):
            with pytest.raises(ArchitectureError):
                NodeArchitecture(kind, n_sc)
            with pytest.raises(ArchitectureError):
                load_architectures(json.dumps({"2": {"kind": kind, "n_sc": n_sc}}), g)
        assert load_architectures(json.dumps({"2": {"kind": kind, "n_sc": None}}), g)[2].n_sc is None


def test_architecture_keys_must_spell_a_label_exactly():
    g = line_graph(10, 4)  # integer labels 1..11
    assert load_architectures(json.dumps({"10": {"kind": "full"}}), g) == {10: NodeArchitecture(FULL)}
    # int() reads these as 10, 3, 4 and 5
    for key in ("1_0", " 3 ", "+4", "05"):
        with pytest.raises(ArchitectureError, match="unknown node label"):
            load_architectures(json.dumps({key: {"kind": "full"}}), g)
    twice = NetworkGraph(labels=[1, "1", 3], links=line_graph(2, 4).links, slot_count=4)
    with pytest.raises(ArchitectureError, match="ambiguous node label '1'"):
        load_architectures(json.dumps({"1": {"kind": "full"}}), twice)
    assert load_architectures(json.dumps({"3": {"kind": "full"}}), twice) == {3: NodeArchitecture(FULL)}


def test_uniform_architectures():
    g = line_graph(3, 4)
    archs = uniform_architectures(g, NodeArchitecture(SHARE_PER_NODE, 2))
    assert set(archs) == set(g.nodes)
    assert uniform_architectures(g, NodeArchitecture(SIMPLE)) == {}
