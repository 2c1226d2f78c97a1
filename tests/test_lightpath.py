import json
import math

import numpy as np
import pytest

from eonspectra.errors import ArchitectureError
from eonspectra.lightpath import (
    FULL,
    SHARE_PER_LINK,
    SHARE_PER_NODE,
    SIMPLE,
    SIMPLE_NODE,
    CrossingStats,
    NodeArchitecture,
    bank_key,
    blocking_full_at,
    blocking_full_conversion,
    blocking_without_conversion,
    converter_availability,
    converter_layout,
    crossing_stats,
    lightpath_blocking,
    load_architectures,
    segment_success_prob,
    share_per_link_availability,
    uniform_architectures,
)
from eonspectra.topology import DemandSpec, Link, NetworkGraph, RoutedPath, load_topology, route_all

from oracles import blocking_by_converter_states, exact_lightpath_blocking, mc_segmented_blocking


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
    with pytest.raises(ArchitectureError):
        load_architectures(json.dumps({"2": {"kind": "warp"}}), g)
    with pytest.raises(ArchitectureError):
        load_architectures(json.dumps({"2": {"kind": "share_per_node"}}), g)
    with pytest.raises(ArchitectureError):
        load_architectures(json.dumps({"9": {"kind": "full"}}), g)
    with pytest.raises(ArchitectureError):
        NodeArchitecture(SHARE_PER_LINK, 0)
    for n_sc in (1.5, 2.0, True, "2"):
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


def test_uniform_architectures():
    g = line_graph(3, 4)
    archs = uniform_architectures(g, NodeArchitecture(SHARE_PER_NODE, 2))
    assert set(archs) == set(g.nodes)
    assert uniform_architectures(g, NodeArchitecture(SIMPLE)) == {}
