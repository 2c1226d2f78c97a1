import math
import time
from itertools import permutations

import numpy as np
import pytest

import eonspectra.analyzer
import eonspectra.placement
from eonspectra.analyzer import AnalysisConfig, fixed_point
from eonspectra.errors import InputError
from eonspectra.fixtures import nsf14, nsf14_demands, sixnode, sixnode_demands
from eonspectra.lightpath import (
    FULL,
    SHARE_PER_LINK,
    SHARE_PER_NODE,
    NodeArchitecture,
    crossing_stats,
)
from eonspectra.placement import (
    _distinct_orders,
    effective_converters,
    place_brute_force,
    place_heuristic,
    rank_inventory,
)
from eonspectra.topology import DemandSpec, load_topology, route_all

from oracles import placement_assignments

CONFIG = AnalysisConfig(epsilon=1e-6, seed=1)


def ring3(slot_count=6):
    return load_topology({
        "name": "ring3",
        "slot_count": slot_count,
        "nodes": [1, 2, 3],
        "edges": [
            {"a": 1, "b": 2, "weight": 1},
            {"a": 2, "b": 3, "weight": 1},
            {"a": 1, "b": 3, "weight": 1},
        ],
    })


def uniform_demands(graph, rate=1.0):
    return [
        DemandSpec(s, d, rate, 1.0, {2: 1.0})
        for s in graph.nodes for d in graph.nodes if s != d
    ]


# --- merit ranking -----------------------------------------------------------


def test_effective_converters_values():
    full = NodeArchitecture(FULL)
    assert effective_converters(full, 50, 4.0) == 50.0  # defaults to one per slot
    spl = NodeArchitecture(SHARE_PER_LINK, 5)
    assert effective_converters(spl, 50, 4.0) == pytest.approx(0.1)
    spn = NodeArchitecture(SHARE_PER_NODE, 5)
    assert effective_converters(spn, 50, 4.0) == pytest.approx(0.025)
    with pytest.raises(ValueError):
        effective_converters(NodeArchitecture("simple"), 50, 4.0)


def test_rank_inventory_order():
    g = ring3()
    inventory = [
        NodeArchitecture(SHARE_PER_NODE, 1),
        NodeArchitecture(FULL),
        NodeArchitecture(SHARE_PER_LINK, 1),
        NodeArchitecture(SHARE_PER_LINK, 3),
    ]
    ranked = rank_inventory(inventory, g)
    kinds = [(arch.kind, arch.n_sc) for arch, _ in ranked]
    assert kinds == [
        (FULL, None),
        (SHARE_PER_LINK, 3),
        (SHARE_PER_LINK, 1),
        (SHARE_PER_NODE, 1),
    ]
    merits = [merit for _, merit in ranked]
    assert merits == sorted(merits, reverse=True)


# --- greedy placement --------------------------------------------------------


def test_zero_inventory_is_baseline_only():
    g = ring3()
    demands = uniform_demands(g)
    result = place_heuristic(g, demands, [], CONFIG)
    baseline = fixed_point(g, demands, {}, CONFIG).network_blocking_prob
    assert result.assignment == {}
    assert result.evaluations == 0
    assert result.achieved_blocking == pytest.approx(baseline)


def test_symmetric_ring_tie_breaks_to_lowest_node():
    g = ring3(slot_count=4)
    demands = uniform_demands(g, rate=1.5)
    result = place_heuristic(g, demands, [NodeArchitecture(FULL)], CONFIG)
    assert list(result.assignment) == [1]
    assert result.evaluations == 3
    # by symmetry every node scores the same; the oracle agrees
    oracle = place_brute_force(g, demands, [NodeArchitecture(FULL)], CONFIG)
    assert list(oracle.assignment) == [1]
    assert oracle.achieved_blocking == pytest.approx(result.achieved_blocking, abs=1e-9)


def test_heuristic_never_worsens_baseline_and_steps_descend():
    g = sixnode()
    demands = sixnode_demands(g)
    inventory = [NodeArchitecture(FULL), NodeArchitecture(SHARE_PER_NODE, 1)]
    result = place_heuristic(g, demands, inventory, CONFIG)
    assert result.achieved_blocking <= result.baseline_blocking + 1e-12
    values = [result.baseline_blocking] + [step.blocking for step in result.steps]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-12
    assert result.evaluations == 6 + 5


def test_heuristic_evaluation_count_closed_form():
    g = sixnode()
    demands = sixnode_demands(g)[:6]
    for k in (1, 2, 3):
        inventory = [NodeArchitecture(FULL)] * k
        result = place_heuristic(
            g, demands, inventory, AnalysisConfig(epsilon=1e-4, max_iter=40, seed=1)
        )
        assert result.evaluations == 6 * k - k * (k - 1) // 2


def test_inventory_larger_than_simple_nodes_rejected():
    g = ring3()
    demands = uniform_demands(g)
    with pytest.raises(InputError):
        place_heuristic(g, demands, [NodeArchitecture(FULL)] * 4, CONFIG)
    base = {1: NodeArchitecture(FULL)}
    with pytest.raises(InputError):
        place_heuristic(g, demands, [NodeArchitecture(FULL)] * 3, CONFIG, base_archs=base)


# --- brute force -------------------------------------------------------------


@pytest.mark.parametrize("place", [place_heuristic, place_brute_force])
def test_simple_inventory_item_is_rejected_before_routing(monkeypatch, place):
    def no_routing(*args):
        raise AssertionError("routed an inventory that holds a simple item")

    monkeypatch.setattr("eonspectra.placement.route_all", no_routing)
    g = ring3()
    inventory = [NodeArchitecture(FULL), NodeArchitecture("simple")]
    with pytest.raises(InputError, match="conversion capability"):
        place(g, [DemandSpec(1, 3, 0.5, 1.0, {1: 1.0})], inventory, CONFIG)


def test_brute_force_counts_and_guard():
    g = ring3()
    demands = uniform_demands(g)
    result = place_brute_force(g, demands, [NodeArchitecture(FULL)], CONFIG)
    assert result.evaluations == 3
    two = place_brute_force(
        g.__class__(labels=g.labels + [4], links=g.links + [
            type(g.links[0])(len(g.links) + 1, 3, 4, 1.0),
            type(g.links[0])(len(g.links) + 2, 4, 3, 1.0),
        ], slot_count=g.slot_count, name="r4"),
        demands,
        [NodeArchitecture(FULL), NodeArchitecture(SHARE_PER_LINK, 1)],
        CONFIG,
    )
    assert two.evaluations == math.comb(4, 2) * 2  # 12 ordered assignments
    with pytest.raises(InputError):
        place_brute_force(g, demands, [NodeArchitecture(FULL)], CONFIG, guard=2)


def test_brute_force_dedups_identical_items():
    g = ring3()
    demands = uniform_demands(g)
    inventory = [NodeArchitecture(FULL), NodeArchitecture(FULL)]
    result = place_brute_force(g, demands, inventory, CONFIG)
    assert result.evaluations == math.comb(3, 2)  # orders collapsed
    naive = list(placement_assignments(list(g.nodes), inventory))
    assert len(naive) == math.comb(3, 2) * 2
    # the deduped search still finds the naive optimum
    scores = {}
    for assignment in naive:
        key = tuple(sorted(assignment))
        res = fixed_point(g, demands, assignment, CONFIG)
        scores[key] = res.network_blocking_prob
    assert result.achieved_blocking == pytest.approx(min(scores.values()), abs=1e-9)


def test_distinct_orders_match_the_sorted_permutation_set():
    rng = np.random.default_rng(12)
    stock = [
        NodeArchitecture(FULL),
        NodeArchitecture(SHARE_PER_LINK, 1),
        NodeArchitecture(SHARE_PER_LINK, 2),
        NodeArchitecture(SHARE_PER_NODE, 1),
    ]
    for _ in range(200):
        inventory = [stock[i] for i in rng.integers(len(stock), size=rng.integers(0, 7))]
        oracle = sorted(
            set(permutations(inventory)),
            key=lambda order: [(arch.kind, arch.n_sc or 0) for arch in order],
        )
        assert list(_distinct_orders(inventory)) == oracle


def test_brute_force_with_many_identical_items_enumerates_only_distinct_orders():
    # 12 identical items on the 11 interior nodes and 2 ends of a 13-node
    # line: C(13, 12) node sets with one order each, not 12! orders each
    nodes = list(range(1, 14))
    g = load_topology({
        "name": "line13", "slot_count": 4, "nodes": nodes,
        "edges": [{"a": v, "b": v + 1, "weight": 1} for v in nodes[:-1]],
    })
    demands = [DemandSpec(1, 13, 0.5, 1.0, {1: 1.0})]
    start = time.perf_counter()
    result = place_brute_force(g, demands, [NodeArchitecture(FULL)] * 12, CONFIG)
    assert result.evaluations == 13
    assert time.perf_counter() - start < 10.0


def test_brute_force_guard_counts_the_evaluations_it_runs():
    g = sixnode()
    demands = sixnode_demands(g)[:6]
    config = AnalysisConfig(epsilon=1e-4, max_iter=40, seed=1)
    # identical items: C(6, 2) node pairs, one order each
    two = place_brute_force(g, demands, [NodeArchitecture(FULL)] * 2, config, guard=15)
    assert two.evaluations == 15
    with pytest.raises(InputError, match="would need 15 evaluations"):
        place_brute_force(g, demands, [NodeArchitecture(FULL)] * 2, config, guard=14)
    # converting base nodes are not candidates
    base = {1: NodeArchitecture(FULL), 2: NodeArchitecture(FULL)}
    one = place_brute_force(g, demands, [NodeArchitecture(FULL)], config, base, guard=4)
    assert one.evaluations == 4
    with pytest.raises(InputError, match="would need 4 evaluations"):
        place_brute_force(g, demands, [NodeArchitecture(FULL)], config, base, guard=3)


def test_heuristic_matches_brute_force_on_sixnode():
    g = sixnode()
    demands = sixnode_demands(g)
    inventory = [NodeArchitecture(FULL), NodeArchitecture(SHARE_PER_LINK, 1)]
    greedy = place_heuristic(g, demands, inventory, CONFIG)
    oracle = place_brute_force(g, demands, inventory, CONFIG)
    assert greedy.evaluations == 11
    assert oracle.evaluations == 30
    assert abs(greedy.achieved_blocking - oracle.achieved_blocking) <= 1e-9
    assert oracle.achieved_blocking <= greedy.achieved_blocking + 1e-12


def test_base_architectures_are_respected():
    g = sixnode()
    demands = sixnode_demands(g)
    base = {1: NodeArchitecture(FULL)}
    result = place_heuristic(g, demands, [NodeArchitecture(FULL)], CONFIG, base_archs=base)
    assert 1 not in result.assignment
    assert result.evaluations == 5  # only the remaining simple nodes


# --- one routing per placement -------------------------------------------------


def _recorded_trials(monkeypatch):
    """Record every solve a placement makes, as (architecture map, result)."""
    trials = []
    solve = eonspectra.placement.fixed_point

    def recording(graph, demands, archs, *args, **kwargs):
        result = solve(graph, demands, archs, *args, **kwargs)
        trials.append((dict(archs), result))
        return result

    monkeypatch.setattr(eonspectra.placement, "fixed_point", recording)
    return trials


_SIXNODE_K2 = [NodeArchitecture(FULL), NodeArchitecture(SHARE_PER_LINK, 1)]
_NSF_K3 = [NodeArchitecture(FULL), NodeArchitecture(FULL), NodeArchitecture(SHARE_PER_NODE, 1)]


@pytest.mark.parametrize(
    "topology, demand_set, inventory, brute_inventory",
    [
        (sixnode, sixnode_demands, _SIXNODE_K2, _SIXNODE_K2),
        (nsf14, nsf14_demands, _NSF_K3, [NodeArchitecture(SHARE_PER_NODE, 1)]),
    ],
    ids=["sixnode", "nsf"],
)
def test_trials_on_a_shared_routing_equal_standalone_solves(
    monkeypatch, topology, demand_set, inventory, brute_inventory
):
    """Every trial of a placement solves over the placement's one routing
    and gets the blocking, convergence flag and iteration count of a
    standalone solve of its architecture map, bit for bit."""
    g = topology()
    demands = demand_set(g)
    config = AnalysisConfig(epsilon=1e-6, seed=1)
    routes = route_all(g, demands)
    stats = crossing_stats(g, routes)

    trials = _recorded_trials(monkeypatch)
    greedy = place_heuristic(g, demands, inventory, config)
    oracle = place_brute_force(g, demands, brute_inventory, config)
    assert len(trials) == 2 + greedy.evaluations + oracle.evaluations
    alone = [fixed_point(g, demands, archs, config, routes, stats) for archs, _ in trials]
    for (_, shared), expected in zip(trials, alone):
        assert shared.network_blocking_prob == expected.network_blocking_prob
        assert shared.converged == expected.converged
        assert shared.iterations == expected.iterations
        assert shared.demand_blockings == expected.demand_blockings

    # the results report those solves: the greedy's baseline, then its
    # step tables in trial order, then the brute force's baseline and trials
    assert greedy.baseline_blocking == alone[0].network_blocking_prob
    placed: dict = {}
    trial = 1
    for step in greedy.steps:
        for node, blocking, converged in step.candidates:
            assert trials[trial][0] == {**placed, node: step.arch}
            expected = alone[trial]
            assert (blocking, converged) == (expected.network_blocking_prob, expected.converged)
            trial += 1
        placed[step.chosen_node] = step.arch
    assert oracle.baseline_blocking == alone[trial].network_blocking_prob
    (chosen,) = [
        expected
        for (archs, _), expected in zip(trials[trial + 1 :], alone[trial + 1 :])
        if archs == oracle.assignment
    ]
    assert oracle.achieved_blocking == chosen.network_blocking_prob


def test_a_placement_compiles_its_routing_once(monkeypatch):
    """Each placement builds the routing half once, however many trials it
    solves: ``fixed_point`` compiles none of its own."""
    builds = []
    for module in (eonspectra.analyzer, eonspectra.placement):
        build = getattr(module, "compile_routing")

        def counting(*args, build=build, **kwargs):
            builds.append(args[1])
            return build(*args, **kwargs)

        monkeypatch.setattr(module, "compile_routing", counting)
    grids = []
    route_grid = eonspectra.analyzer.route_grid

    def counting_grid(*args):
        grids.append(args)
        return route_grid(*args)

    monkeypatch.setattr(eonspectra.analyzer, "route_grid", counting_grid)
    g = sixnode()
    demands = sixnode_demands(g)
    greedy = place_heuristic(g, demands, _SIXNODE_K2, CONFIG)
    assert greedy.evaluations == 11
    assert len(builds) == len(grids) == 1 and builds[0] is demands
    oracle = place_brute_force(g, demands, _SIXNODE_K2, CONFIG)
    assert oracle.evaluations == 30
    assert len(builds) == len(grids) == 2 and builds[1] is demands
