import json
import math

import numpy as np
import pytest

from eonspectra.errors import (
    DemandError,
    DuplicateEdgeError,
    InputError,
    MissingNodeError,
    NonpositiveWeightError,
    TopologyParseError,
    UnreachableError,
)
from eonspectra.fixtures import demands_document, nsf14, sixnode
from eonspectra.lightpath import crossing_stats
from eonspectra.topology import (
    DemandSpec,
    Link,
    NetworkGraph,
    left_sum,
    load_demands,
    load_topology,
    network_traffic,
    route_all,
)

from oracles import best_path_bruteforce, chorded_ring, least_path_by_distances, route


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


@pytest.mark.parametrize(
    "ids", [(1, 3, 4), (1, 2, 2), (2, 1, 3), (1, 2, 10**6)], ids=["gap", "repeat", "swapped", "huge"]
)
def test_graph_rejects_link_ids_out_of_place(ids):
    # a link's id is its place in graph.links counted from 1, so arrays over
    # the links are indexed by id - 1 and sized by the link count
    ends = [(1, 2), (2, 3), (3, 1)]
    with pytest.raises(TopologyParseError, match="has id"):
        NetworkGraph(labels=[1, 2, 3], links=[Link(i, *e, 1.0) for i, e in zip(ids, ends)],
                     slot_count=4)
    g = NetworkGraph(labels=[1, 2, 3], links=[Link(i, *e, 1.0) for i, e in enumerate(ends, 1)],
                     slot_count=4)
    assert [link.id for link in g.links] == [1, 2, 3]


def test_rejects_bad_documents():
    with pytest.raises(TopologyParseError):
        load_topology("{not json")
    for slot_count in (0, True, 2.5, 1.0, "3"):
        with pytest.raises(TopologyParseError, match="slot_count"):
            load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": 1}], slot_count=slot_count))
        with pytest.raises(TopologyParseError, match="slot_count"):
            NetworkGraph(labels=[1, 2], links=[Link(1, 1, 2, 1.0)], slot_count=slot_count)
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
    with pytest.raises(TopologyParseError, match="no edges"):
        load_topology(doc([1, 2], []))
    edge = {"a": 1, "b": 2, "weight": 1}
    for bad in (
        "[1, 2]",  # not an object
        json.dumps({"name": "t", "nodes": [1, 2], "edges": [edge]}),  # no slot_count
        doc(5, [edge]),  # nodes not an array; these four once raised TypeError
        doc([1, 2], 5),
        doc([[1], 2], [edge]),  # unhashable label
        doc([1, 2], [{"a": [1], "b": 2, "weight": 1}]),  # unhashable endpoint
        doc([1.0, 2], [edge]),  # a label that is neither string nor integer
        doc([1, 1], [edge]),  # duplicate labels
        doc([1, 2], [5]),  # malformed edge entries
        doc([1, 2], [{"a": 1, "b": 2}]),
    ):
        with pytest.raises(TopologyParseError):
            load_topology(bad)


def test_demand_loading_and_validation():
    g = load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": 1}], slot_count=4))
    demands = load_demands(json.dumps([
        {"src": 1, "dst": 2, "rate": 2.0, "hold": 0.5, "slots": 3},
        {"src": 2, "dst": 1, "rate": 1.0, "hold": 1.0,
         "slots": [{"s": 1, "p": 0.25}, {"s": 2, "p": 0.75}]},
    ]), g)
    assert demands[0].slot_pmf == {3: 1.0}
    assert demands[1].mean_slots == pytest.approx(1.75)
    for slots in (9, True, [{"s": True, "p": 1.0}]):
        entry = {"src": 1, "dst": 2, "rate": 1, "hold": 1, "slots": slots}
        with pytest.raises(DemandError):
            load_demands(json.dumps([entry]), g)
    for s in (2.5, True, 1.0, "3"):
        for slots in (s, [{"s": s, "p": 1.0}]):
            entry = {"src": 1, "dst": 2, "rate": 1, "hold": 1, "slots": slots}
            with pytest.raises(DemandError, match="must be an integer"):
                load_demands(json.dumps([entry]), g)
        with pytest.raises(DemandError, match="slot count"):
            DemandSpec(1, 2, 1.0, 1.0, {s: 1.0})
    with pytest.raises(DemandError):
        load_demands(json.dumps([{"src": 1, "dst": 1, "rate": 1, "hold": 1, "slots": 1}]), g)
    with pytest.raises(DemandError, match="invalid demands JSON"):
        load_demands("[oops", g)
    with pytest.raises(DemandError):
        DemandSpec(1, 2, 1.0, 1.0, {1: 0.5, 2: 0.4})  # pmf sums to 0.9
    with pytest.raises(DemandError, match="JSON array"):
        load_demands(json.dumps({"src": 1}), g)
    good = {"src": 1, "dst": 2, "rate": 1, "hold": 1, "slots": 1}
    for bad in (
        5,  # malformed entries
        {"src": 1, "dst": 2, "hold": 1, "slots": 1},
        dict(good, rate="fast"),
        dict(good, slots=[{"s": 1}]),  # malformed pmf rows
        dict(good, slots=[5]),
        dict(good, slots=[{"s": [1], "p": 1}]),  # unhashable: once a TypeError
        dict(good, slots=[{"s": 1.0, "p": 1}]),
        dict(good, slots=[{"s": 1, "p": 0.5}, {"s": 1, "p": 0.5}]),  # duplicate
        dict(good, slots="1"),  # slots of another type
        dict(good, slots=1.0),
        dict(good, rate=0),
        dict(good, src=True),  # once taken for the node labelled 1
        dict(good, dst=2.0),
        dict(good, slots=[]),  # empty pmf
        # numbers only: float() once read these as 1.0, 10.0, 2.0 and 1.0
        dict(good, rate=True),
        dict(good, hold="1_0"),
        dict(good, rate="2"),
        dict(good, slots=[{"s": 1, "p": " 1 "}]),
        dict(good, rate=10**400),  # once an OverflowError traceback
    ):
        with pytest.raises(DemandError):
            load_demands(json.dumps([bad]), g)


def test_pmf_rows_are_kept_ascending_without_zero_rows():
    g = load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": 1}], slot_count=4))
    rows = {1: 0.2, 2: 0.5, 4: 0.3}
    ascending, shuffled = (
        load_demands([{"src": 1, "dst": 2, "rate": 1.0, "hold": 1.0,
                       "slots": [{"s": s, "p": rows[s]} for s in order]}], g)[0]
        for order in ((1, 2, 4), (2, 4, 1))
    )
    assert list(shuffled.slot_pmf) == [1, 2, 4]
    # added in row order (2, 4, 1) the mean reads one ulp higher
    assert shuffled.mean_slots == ascending.mean_slots
    assert DemandSpec(1, 2, 1.0, 1.0, {3: 0.0, 2: 1.0, 1: 0.0}).slot_pmf == {2: 1.0}


def test_demands_document_round_trips_a_multi_valued_pmf():
    g = load_topology(doc(["a", "b", "c"], [
        {"a": "a", "b": "b", "weight": 1},
        {"a": "b", "b": "c", "weight": 1},
    ], slot_count=4))
    demands = [
        DemandSpec(1, 3, 0.7, 1.3, {3: 0.2, 1: 0.5, 2: 0.3}),
        DemandSpec(3, 2, 2.5, 0.4, {4: 1.0}),
    ]
    loaded = load_demands(demands_document(g, demands), g)
    assert loaded == demands


def test_demands_document_keeps_a_one_row_pmf_below_one():
    # a one-row pmf is written as a bare slot count only when its
    # probability is exactly 1.0; within the 1e-12 tolerance of 1 it is
    # written as its row, and reads back with the same mean slot count
    g = sixnode()
    for p in (1 - 1e-13, 1 + 1e-13, 1.0):
        demands = [DemandSpec(1, 2, 1.0, 1.0, {2: p})]
        document = demands_document(g, demands)
        assert isinstance(json.loads(document)[0]["slots"], int) == (p == 1.0)
        (loaded,) = load_demands(document, g)
        assert loaded.slot_pmf == {2: p}
        assert loaded.mean_slots == demands[0].mean_slots


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_rejects_non_finite_link_weight(weight):
    # json parses NaN and Infinity; neither compares <= 0
    with pytest.raises(TopologyParseError):
        load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": weight}]))


@pytest.mark.parametrize("weight", ["1", None, [1], True, False, {"w": 1}, 10**400])
def test_rejects_link_weight_that_is_not_a_finite_number(weight):
    # float() of raw JSON used to turn "1" and true into weights and to
    # crash on null or a list with a bare TypeError
    with pytest.raises(TopologyParseError, match="weight"):
        load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": weight}]))


@pytest.mark.parametrize("directed", ["false", "true", 0, 1, None, []])
def test_rejects_directed_that_is_not_a_boolean(directed):
    # bool("false") is True: a string used to make a one-way link and drop
    # the reverse link silently
    edges = [{"a": 1, "b": 2, "weight": 1}, {"a": 2, "b": 3, "weight": 1, "directed": directed}]
    with pytest.raises(TopologyParseError, match="directed"):
        load_topology(doc([1, 2, 3], edges))


def test_integer_weight_and_explicit_undirected_edge():
    g = load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": 2, "directed": False}]))
    assert [(l.tail, l.head, l.weight) for l in g.links] == [(1, 2, 2.0), (2, 1, 2.0)]
    assert all(type(l.weight) is float for l in g.links)


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
    path = route(g, 1, 2)
    assert path.nodes == (1, 2)
    assert path.hop_count == 1


def test_shortest_path_triangle():
    g = load_topology(doc(["a", "b", "c"], [
        {"a": "a", "b": "b", "weight": 1},
        {"a": "b", "b": "c", "weight": 1},
        {"a": "a", "b": "c", "weight": 3},
    ]))
    path = route(g, g.node_of("a"), g.node_of("c"))
    assert [g.label_of(n) for n in path.nodes] == ["a", "b", "c"]
    assert sum(link.weight for link in path.links) == pytest.approx(2.0)


def test_shortest_path_tie_break_lexicographic():
    g = load_topology(doc(["a", "b", "c", "d"], [
        {"a": "a", "b": "b", "weight": 1},
        {"a": "b", "b": "d", "weight": 1},
        {"a": "a", "b": "c", "weight": 1},
        {"a": "c", "b": "d", "weight": 1},
    ]))
    path = route(g, g.node_of("a"), g.node_of("d"))
    assert [g.label_of(n) for n in path.nodes] == ["a", "b", "d"]


def test_shortest_path_unreachable():
    g = load_topology(doc([1, 2, 3], [{"a": 1, "b": 2, "weight": 1}]))
    with pytest.raises(UnreachableError):
        route(g, 1, 3)


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
                route(g, src, dst)
            continue
        path = route(g, src, dst)
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
    # one search per source still lists every unreachable pair, in demand order
    demands = [DemandSpec(s, d, 1.0, 1.0, {1: 1.0}) for s in (3, 1, 4) for d in (1, 2, 4) if s != d]
    with pytest.raises(UnreachableError) as info:
        route_all(g, demands)
    assert info.value.pairs == [(3, 1), (3, 2), (3, 4), (1, 4), (4, 1), (4, 2)]


def _all_pairs(g):
    return [DemandSpec(s, d, 1.0, 1.0, {1: 1.0}) for s in g.nodes for d in g.nodes if s != d]


def _square_with_a_tie():
    # 1->3 has two paths of weight 2, through 2 and through 4
    return load_topology(doc([1, 2, 3, 4], [
        {"a": 1, "b": 2, "weight": 1},
        {"a": 2, "b": 3, "weight": 1},
        {"a": 3, "b": 4, "weight": 1},
        {"a": 4, "b": 1, "weight": 1},
    ]))


@pytest.mark.parametrize(
    "graph",
    [lambda: chorded_ring(1), lambda: chorded_ring(2), lambda: chorded_ring(3), nsf14, sixnode,
     _square_with_a_tie],
    ids=["ring-1", "ring-2", "ring-3", "nsf", "sixnode", "square"],
)
def test_route_all_equals_shortest_path_per_demand(graph):
    # route_all runs one search per source; every route must be the
    # minimum-weight path with the smallest node sequence, as a walk over
    # the distances to the demand's destination finds it
    g = graph()
    demands = _all_pairs(g)
    demands += demands[::7]  # repeated pairs get their own routes
    routes = route_all(g, demands)
    for demand, path in zip(demands, routes):
        assert path.nodes == least_path_by_distances(g, demand.src, demand.dst)
        assert path.links == tuple(map(g.link_between, path.nodes, path.nodes[1:]))
        assert path.demand is demand
    if g.node_count == 4:
        assert routes[1].nodes == (1, 2, 3)  # the tie breaks toward the smaller sequence


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
    # routes must be aligned with the demands: one per demand, with its ends
    other_ends = [DemandSpec(1, 2, 2.0, 1.0, {1: 1.0})]
    for demands_, routes_ in ((other_ends, routes), (demands, []), (demands, routes * 2)):
        with pytest.raises(InputError):
            network_traffic(g, demands_, routes_)


def test_float_totals_add_left_to_right():
    # 1.0 then four 2**-53: each addition rounds back to 1.0 left to right,
    # while a compensated sum, as the built-in sum from Python 3.12 on,
    # keeps them and gives 1.0000000000000004
    terms = [1.0] + [2.0**-53] * 4
    assert left_sum(terms) == left_sum(iter(terms)) == 1.0
    assert math.fsum(terms) == 1.0000000000000004
    assert left_sum([]) == 0.0
    # the slot-hop total of network_traffic: one demand of load 1 and four
    # of load 2**-53, each on one hop of a fiber of one slot
    g = load_topology(doc([1, 2], [{"a": 1, "b": 2, "weight": 1}], slot_count=1))
    demands = [DemandSpec(1, 2, 1.0, 1.0, {1: 1.0})] + [DemandSpec(1, 2, 2.0**-53, 1.0, {1: 1.0})] * 4
    assert network_traffic(g, demands, route_all(g, demands)) == 1.0 / 2
    # the mean slot count of a pmf, in ascending slot count
    pmf = {1: 0.5, 2: 0.25, 3: 0.125, 4: 0.125}
    assert DemandSpec(1, 2, 1.0, 1.0, pmf).mean_slots == left_sum(s * p for s, p in pmf.items())


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
