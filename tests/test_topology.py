import json

import numpy as np
import pytest

from eonspectra.errors import (
    DemandError,
    DuplicateEdgeError,
    MissingNodeError,
    NonpositiveWeightError,
    TopologyParseError,
    UnreachableError,
)
from eonspectra.fixtures import nsf14
from eonspectra.lightpath import crossing_stats
from eonspectra.topology import (
    DemandSpec,
    load_demands,
    load_topology,
    network_traffic,
    route_all,
    shortest_path,
)

from oracles import best_path_bruteforce


def doc(nodes, edges, slot_count=10, **extra):
    return json.dumps({"name": "t", "slot_count": slot_count, "nodes": nodes, "edges": edges, **extra})


def test_bidirectional_expansion():
    g = load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": 1}]))
    assert len(g.links) == 2
    assert g.slot_count == 10
    assert {(l.tail, l.head) for l in g.links} == {(1, 2), (2, 1)}


def test_directed_edge_stays_single():
    g = load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": 1, "directed": True}]))
    assert len(g.links) == 1


def test_nsf_fixture_shape():
    g = nsf14()
    assert g.node_count == 14
    assert len(g.links) == 42  # 21 bidirectional links


def test_string_labels_map_to_dense_ids():
    g = load_topology(doc(["sea", "chi", "nyc"], [
        {"a": "sea", "b": "chi", "weight": 2.0},
        {"a": "chi", "b": "nyc", "weight": 1.0},
    ]))
    assert g.node_of("sea") == 1
    assert g.label_of(3) == "nyc"


def test_rejects_bad_documents():
    with pytest.raises(TopologyParseError):
        load_topology("{not json")
    with pytest.raises(TopologyParseError):
        load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": 1}], slot_count=0))
    with pytest.raises(NonpositiveWeightError):
        load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": 0}]))
    with pytest.raises(DuplicateEdgeError):
        load_topology(doc([1, 2], [
            {"a": 1, "b": 2, "weight": 1},
            {"a": 2, "b": 1, "weight": 3, "directed": True},
        ]))
    with pytest.raises(MissingNodeError):
        load_topology(doc([1, 2], [{"a": 1, "b": 9, "weight": 1}]))
    with pytest.raises(TopologyParseError):
        load_topology(doc([1, 2], [{"a": 1, "b": 1, "weight": 1}]))


def test_demand_loading_and_validation():
    g = load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": 1}], slot_count=4))
    demands = load_demands(json.dumps([
        {"src": 1, "dst": 2, "rate": 2.0, "hold": 0.5, "slots": 3},
        {"src": 2, "dst": 1, "rate": 1.0, "hold": 1.0,
         "slots": [{"s": 1, "p": 0.25}, {"s": 2, "p": 0.75}]},
    ]), g)
    assert demands[0].slot_pmf == {3: 1.0}
    assert demands[1].mean_slots == pytest.approx(1.75)
    with pytest.raises(DemandError):
        load_demands(json.dumps([{"src": 1, "dst": 2, "rate": 1, "hold": 1, "slots": 9}]), g)
    with pytest.raises(DemandError):
        load_demands(json.dumps([{"src": 1, "dst": 1, "rate": 1, "hold": 1, "slots": 1}]), g)
    with pytest.raises(DemandError):
        DemandSpec(1, 2, 1.0, 1.0, {1: 0.5, 2: 0.4})  # pmf sums to 0.9


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_rejects_non_finite_link_weight(weight):
    # json parses NaN and Infinity; neither compares <= 0
    with pytest.raises(TopologyParseError):
        load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": weight}]))


@pytest.mark.parametrize(
    "field, value",
    [
        ("rate", float("nan")),
        ("rate", float("inf")),
        ("hold", float("nan")),
        ("slots", [{"s": 1, "p": float("nan")}]),
        ("slots", [{"s": 1, "p": 1.0}, {"s": 2, "p": float("nan")}]),
    ],
)
def test_rejects_non_finite_demand_numbers(field, value):
    g = load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": 1}], slot_count=4))
    entry = {"src": 1, "dst": 2, "rate": 1.0, "hold": 1.0, "slots": 1, field: value}
    with pytest.raises(DemandError):
        load_demands(json.dumps([entry]), g)


def test_shortest_path_single_hop():
    g = load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": 1}]))
    path = shortest_path(g, 1, 2)
    assert path.nodes == (1, 2)
    assert path.hop_count == 1


def test_shortest_path_triangle():
    g = load_topology(doc(["a", "b", "c"], [
        {"a": "a", "b": "b", "weight": 1},
        {"a": "b", "b": "c", "weight": 1},
        {"a": "a", "b": "c", "weight": 3},
    ]))
    path = shortest_path(g, g.node_of("a"), g.node_of("c"))
    assert [g.label_of(n) for n in path.nodes] == ["a", "b", "c"]
    assert sum(link.weight for link in path.links) == pytest.approx(2.0)


def test_shortest_path_tie_break_lexicographic():
    g = load_topology(doc(["a", "b", "c", "d"], [
        {"a": "a", "b": "b", "weight": 1},
        {"a": "b", "b": "d", "weight": 1},
        {"a": "a", "b": "c", "weight": 1},
        {"a": "c", "b": "d", "weight": 1},
    ]))
    path = shortest_path(g, g.node_of("a"), g.node_of("d"))
    assert [g.label_of(n) for n in path.nodes] == ["a", "b", "d"]


def test_shortest_path_unreachable():
    g = load_topology(doc([1, 2, 3], [{"a": 1, "b": 2, "weight": 1}]))
    with pytest.raises(UnreachableError):
        shortest_path(g, 1, 3)


def test_shortest_path_matches_exhaustive_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(3, 9))
        labels = list(range(1, n + 1))
        edges = []
        pairs = set()
        for a in labels:
            for b in labels:
                if a < b and rng.random() < 0.45:
                    w = float(rng.integers(1, 5))
                    edges.append({"a": a, "b": b, "weight": w})
                    pairs.add((a, b))
        if not edges:
            continue
        g = load_topology(doc(labels, edges))
        table = {(l.tail, l.head): l.weight for l in g.links}
        src, dst = 1, n
        expected = best_path_bruteforce(table, src, dst)
        if expected is None:
            with pytest.raises(UnreachableError):
                shortest_path(g, src, dst)
            continue
        path = shortest_path(g, src, dst)
        assert sum(link.weight for link in path.links) == pytest.approx(expected[0])
        assert path.nodes == expected[1]


def test_route_all_reports_every_unreachable_pair():
    g = load_topology(doc([1, 2, 3, 4], [{"a": 1, "b": 2, "weight": 1}]))
    demands = [
        DemandSpec(1, 2, 1.0, 1.0, {1: 1.0}),
        DemandSpec(1, 3, 1.0, 1.0, {1: 1.0}),
        DemandSpec(2, 4, 1.0, 1.0, {1: 1.0}),
    ]
    with pytest.raises(UnreachableError) as info:
        route_all(g, demands)
    assert info.value.pairs == [(1, 3), (2, 4)]


def test_route_all_nsf_all_pairs():
    g = nsf14()
    demands = [
        DemandSpec(s, d, 1.0, 1.0, {1: 1.0})
        for s in g.nodes for d in g.nodes if s != d
    ]
    routes = route_all(g, demands)
    assert len(routes) == 182
    assert all(r.demand is demand for r, demand in zip(routes, demands))


def test_crossing_stats_transit_only():
    g = load_topology(doc(["a", "b", "c"], [
        {"a": "a", "b": "b", "weight": 1},
        {"a": "b", "b": "c", "weight": 1},
    ]))
    demands = [
        DemandSpec(1, 3, 1.0, 1.0, {2: 1.0}),  # a->c crosses b
        DemandSpec(2, 3, 1.0, 1.0, {3: 1.0}),  # b->c starts at b: excluded
    ]
    stats = crossing_stats(g, route_all(g, demands))
    b = 2
    assert stats.paths[("node", b)] == 1
    assert stats.slots[("node", b)] == pytest.approx(2.0)
    exit_link = g.link_between(2, 3)
    assert stats.paths[("port", exit_link.id)] == 1
    assert stats.slots[("port", exit_link.id)] == pytest.approx(2.0)


def test_crossing_stats_multi_hop_line():
    g = load_topology(doc([1, 2, 3, 4], [
        {"a": 1, "b": 2, "weight": 1},
        {"a": 2, "b": 3, "weight": 1},
        {"a": 3, "b": 4, "weight": 1},
    ]))
    demands = [DemandSpec(1, 4, 1.0, 1.0, {4: 1.0})]
    stats = crossing_stats(g, route_all(g, demands))
    assert stats.paths[("node", 2)] == stats.paths[("node", 3)] == 1
    assert stats.slots[("node", 2)] == stats.slots[("node", 3)] == pytest.approx(4.0)


def test_crossing_stats_no_transit():
    g = load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": 1}]))
    stats = crossing_stats(g, route_all(g, [DemandSpec(1, 2, 1.0, 1.0, {1: 1.0})]))
    assert all(v == 0 for v in stats.paths.values())
    assert set(stats.paths) == {("node", 1), ("node", 2), ("port", 1), ("port", 2)}


def test_crossing_stats_additivity_random():
    rng = np.random.default_rng(5)
    g = nsf14()
    for _ in range(5):
        demands = []
        for _ in range(40):
            s, d = rng.choice(np.arange(1, 15), 2, replace=False)
            demands.append(DemandSpec(int(s), int(d), float(rng.uniform(0.1, 2)),
                                      float(rng.uniform(0.1, 2)), {int(rng.integers(1, 4)): 1.0}))
        stats = crossing_stats(g, route_all(g, demands))
        for node in g.nodes:
            ports = [link.id for link in g.out_links(node)]
            assert stats.paths[("node", node)] == sum(stats.paths[("port", j)] for j in ports)
            assert stats.slots[("node", node)] == pytest.approx(
                sum(stats.slots[("port", j)] for j in ports)
            )


def test_network_traffic():
    g = load_topology(doc([1, 2, 3], [
        {"a": 1, "b": 2, "weight": 1},
        {"a": 2, "b": 3, "weight": 1},
    ]))
    assert network_traffic(g, [], []) == 0.0
    demands = [DemandSpec(1, 3, 2.0, 1.0, {1: 1.0})]  # rate*hold*slots = 2, 2 hops
    routes = route_all(g, demands)
    assert network_traffic(g, demands, routes) == pytest.approx(2 * 2 / (4 * 10))
    doubled = [DemandSpec(1, 3, 4.0, 1.0, {1: 1.0})]
    assert network_traffic(g, doubled, routes) == pytest.approx(2 * network_traffic(g, demands, routes))


def test_network_traffic_invariant_under_relabeling():
    g1 = load_topology(doc([1, 2, 3], [
        {"a": 1, "b": 2, "weight": 1},
        {"a": 2, "b": 3, "weight": 1},
    ]))
    g2 = load_topology(doc(["z", "q", "m"], [
        {"a": "z", "b": "q", "weight": 1},
        {"a": "q", "b": "m", "weight": 1},
    ]))
    d1 = [DemandSpec(1, 3, 1.5, 2.0, {2: 1.0})]
    d2 = [DemandSpec(1, 3, 1.5, 2.0, {2: 1.0})]
    r1, r2 = route_all(g1, d1), route_all(g2, d2)
    assert network_traffic(g1, d1, r1) == pytest.approx(network_traffic(g2, d2, r2))
