import hashlib
import logging
import math

import numpy as np
import pytest

import eonspectra.analyzer
import eonspectra.lightpath
from eonspectra.analyzer import (
    AnalysisConfig,
    compile_routing,
    demand_blocking,
    fixed_point,
    phi_update,
)
from eonspectra.errors import InputError
from eonspectra.lightpath import (
    FULL,
    SHARE_PER_LINK,
    SHARE_PER_NODE,
    SIMPLE,
    NodeArchitecture,
    bank_key,
    compile_plan,
    crossing_stats,
    lightpath_blocking,
    route_grid,
    uniform_architectures,
)
from eonspectra.topology import (
    DemandSpec,
    RoutedPath,
    left_sum,
    load_topology,
    network_traffic,
    route_all,
    scale_demands,
)
from eonspectra.fixtures import generate_demands, nsf14, nsf14_demands, sixnode

from oracles import chorded_ring, link_state


def line(nodes, slot_count=10):
    labels = list(range(1, nodes + 1))
    edges = [{"a": i, "b": i + 1, "weight": 1} for i in labels[:-1]]
    return load_topology({"name": "line", "slot_count": slot_count, "nodes": labels, "edges": edges})


def test_demand_blocking_is_pmf_weighted():
    g = line(3, slot_count=3)
    demand = DemandSpec(1, 3, 1.0, 1.0, {2: 0.5, 3: 0.5})
    routes = route_all(g, [demand])
    stats = crossing_stats(g, routes)
    phis = {l.id: 0.5 for l in g.links}
    expected = 0.5 * lightpath_blocking(2, routes[0], {}, phis, stats, 3) + \
        0.5 * lightpath_blocking(3, routes[0], {}, phis, stats, 3)
    got = demand_blocking(demand, routes[0], {}, phis, stats, 3)
    assert got == pytest.approx(expected, abs=1e-15)


def test_demand_blocking_degenerate_pmf():
    g = line(2, slot_count=4)
    demand = DemandSpec(1, 2, 1.0, 1.0, {2: 1.0})
    routes = route_all(g, [demand])
    stats = crossing_stats(g, routes)
    phis = {l.id: 0.7 for l in g.links}
    assert demand_blocking(demand, routes[0], {}, phis, stats, 4) == pytest.approx(
        lightpath_blocking(2, routes[0], {}, phis, stats, 4)
    )


def test_demand_blocking_oversized_request_blocks():
    g = line(2, slot_count=2)
    demand = DemandSpec(1, 2, 1.0, 1.0, {1: 0.5, 4: 0.5})
    routes = route_all(g, [demand])
    stats = crossing_stats(g, routes)
    phis = {l.id: 1.0 for l in g.links}
    got = demand_blocking(demand, routes[0], {}, phis, stats, 2)
    assert got == pytest.approx(0.5)  # the 4-slot half can never be carried


def test_network_blocking_weighted_average():
    # the solve's network blocking is the offered-load (rate * hold)
    # weighted mean of its own per-demand blockings, both totals added left
    # to right: the built-in sum compensates its rounding from Python 3.12
    # on, and on NSF that moves the last bit.  An exactly rounded total
    # gives other bits on some case, so the order of the additions is what
    # is checked
    g = line(3, slot_count=4)
    small = [
        DemandSpec(1, 2, 1.0, 1.0, {1: 1.0}),
        DemandSpec(2, 1, 3.0, 1.0, {2: 1.0}),
        DemandSpec(1, 3, 0.5, 2.0, {1: 0.5, 3: 0.5}),
    ]
    nsf = nsf14()
    ring = chorded_ring(5)
    cases = [
        (g, small, {}),
        (nsf, nsf14_demands(nsf), uniform_architectures(nsf, NodeArchitecture(SHARE_PER_NODE, 1))),
        (
            ring,
            generate_demands(ring, seed=5, slots_range=(1, 4), traffic_target=0.3),
            uniform_architectures(ring, NodeArchitecture(SHARE_PER_NODE, 2)),
        ),
    ]
    exact_differs = False
    for graph, demands, archs in cases:
        result = fixed_point(graph, demands, archs, AnalysisConfig(seed=4, damping=0.5))
        assert result.converged
        terms = [d.rate * d.hold * b for d, b in zip(demands, result.demand_blockings)]
        loads = [d.rate * d.hold for d in demands]
        assert result.network_blocking_prob == left_sum(terms) / left_sum(loads)
        assert result.trajectory[-1] == result.network_blocking_prob
        assert compile_routing(graph, demands).weight == left_sum(loads)
        assert 0.0 < result.network_blocking_prob < 1.0
        exact_differs |= math.fsum(terms) / math.fsum(loads) != result.network_blocking_prob
    assert exact_differs


def test_network_blocking_empty_warns_and_returns_zero(caplog):
    with caplog.at_level(logging.WARNING):
        result = fixed_point(line(3), [], {})
    assert result.network_blocking_prob == 0.0
    assert result.demand_blockings == []
    # once per solve, not once per iteration
    assert sum("empty demand set" in rec.message for rec in caplog.records) == 1


def test_phi_update_values():
    g = line(3, slot_count=10)
    demands = [DemandSpec(1, 3, 5.0, 1.0, {1: 1.0})]
    routes = route_all(g, demands)
    phis = phi_update(demands, routes, [0.0], g)
    for link in routes[0].links:
        assert phis[link.id] == pytest.approx(0.5)
    # carried load above capacity clamps to zero
    heavy = [DemandSpec(1, 3, 15.0, 1.0, {1: 1.0})]
    phis = phi_update(heavy, route_all(g, heavy), [0.0], g)
    assert phis[routes[0].links[0].id] == 0.0
    # blocked share is not carried
    phis = phi_update(demands, routes, [1.0], g)
    assert phis[routes[0].links[0].id] == 1.0
    # links nobody crosses stay fully free
    reverse_link = g.link_between(2, 1)
    assert phis[reverse_link.id] == 1.0
    # blockings must be one finite probability per demand
    for blockings in ([math.nan], [2.0], [-0.5], [math.inf], [], [0.0, 0.0]):
        with pytest.raises(InputError):
            phi_update(demands, routes, blockings, g)


def test_phi_update_counts_no_crossing_stats(monkeypatch):
    """A link update alone never counts the routes' crossing statistics:
    a routing compiled without them counts them on the first read of
    ``stats``, once, and one compiled with them keeps those."""
    g = nsf14()
    demands = nsf14_demands(g)
    routes = route_all(g, demands)
    expected = crossing_stats(g, routes)
    calls = []

    def counting(*args):
        calls.append(args)
        return crossing_stats(*args)

    monkeypatch.setattr(eonspectra.analyzer, "crossing_stats", counting)
    phis = phi_update(demands, routes, [0.5] * len(demands), g)
    assert len(phis) == len(g.links) and calls == []
    routing = compile_routing(g, demands, routes)
    assert calls == []
    assert routing.stats == expected and routing.stats is routing.stats
    assert len(calls) == 1
    given = compile_routing(g, demands, routes, expected)
    assert given.stats is expected and len(calls) == 1


def test_routing_incidence_is_the_routes_link_positions_in_demand_order():
    # read straight off the routes, with no route grid built for it
    for g in (nsf14(), chorded_ring(2)):
        demands = generate_demands(g, seed=3, slots_range=(1, 2))
        routes = route_all(g, demands)
        routing = compile_routing(g, demands, routes)
        hops = [(k, g.links.index(link)) for k, route in enumerate(routes) for link in route.links]
        assert list(zip(routing.hop_demands.tolist(), routing.hop_links.tolist())) == hops
        assert "grid" not in vars(routing)
        assert routing.grid is routing.grid


def test_fixed_point_no_demands():
    g = line(3)
    result = fixed_point(g, [], {}, AnalysisConfig(seed=5))
    assert result.network_blocking_prob == 0.0
    assert result.converged
    assert result.iterations <= 2


@pytest.mark.parametrize("case", ["longer", "shorter", "other ends"])
def test_fixed_point_rejects_routes_not_aligned_with_demands(case, monkeypatch):
    g = nsf14()
    demands = nsf14_demands(g)[:6]
    routes = route_all(g, demands)
    mirrored = type(routes[2])(nodes=routes[2].nodes[::-1], links=routes[2].links)
    routes = {
        "longer": routes + route_all(g, nsf14_demands(g)[6:7]),
        "shorter": routes[:-1],
        "other ends": routes[:2] + [mirrored] + routes[3:],
    }[case]

    def no_work(*args):
        raise AssertionError("solved before checking the routes")

    monkeypatch.setattr(eonspectra.analyzer, "crossing_stats", no_work)
    monkeypatch.setattr(eonspectra.analyzer, "compile_plan", no_work)
    with pytest.raises(InputError):
        fixed_point(g, demands, {}, routes=routes)
    with pytest.raises(InputError):
        phi_update(demands, routes, [0.5] * len(demands), g)


def test_fixed_point_rejects_a_routing_compiled_for_other_inputs():
    g = nsf14()
    demands = nsf14_demands(g)[:6]
    routing = compile_routing(g, demands)
    config = AnalysisConfig(seed=1)
    shared = fixed_point(g, demands, {}, config, routing=routing)
    assert shared.network_blocking_prob == fixed_point(g, demands, {}, config).network_blocking_prob
    # an equal demand list is the same input
    again = fixed_point(g, list(demands), {}, config, routing=routing)
    assert again.network_blocking_prob == shared.network_blocking_prob
    with pytest.raises(InputError, match="another graph or demand list"):
        fixed_point(g, demands[:5], {}, config, routing=routing)
    with pytest.raises(InputError, match="another graph or demand list"):
        fixed_point(g, scale_demands(demands, 2.0), {}, config, routing=routing)
    with pytest.raises(InputError, match="another graph or demand list"):
        fixed_point(sixnode(), demands, {}, config, routing=routing)
    with pytest.raises(InputError, match="routes and stats"):
        fixed_point(g, demands, {}, config, routing.routes, routing=routing)
    with pytest.raises(InputError, match="routes and stats"):
        fixed_point(g, demands, {}, config, stats=routing.stats, routing=routing)


def test_fixed_point_nearly_uncoupled_matches_one_shot():
    g = line(3, slot_count=100)
    demand = DemandSpec(1, 3, 0.01, 1.0, {1: 1.0})
    routes = route_all(g, [demand])
    stats = crossing_stats(g, routes)
    result = fixed_point(g, [demand], {}, AnalysisConfig(epsilon=1e-12, seed=3))
    assert result.converged
    # one-shot oracle: links carry the full unblocked load
    phis = phi_update([demand], routes, [0.0], g)
    expected = demand_blocking(demand, routes[0], {}, phis, stats, 100)
    assert result.network_blocking_prob == pytest.approx(expected, abs=1e-9)


def test_fixed_point_nonconvergence_is_reported_not_raised():
    g = line(3, slot_count=4)
    demands = [DemandSpec(1, 3, 6.0, 1.0, {2: 1.0})]
    result = fixed_point(g, demands, {}, AnalysisConfig(epsilon=1e-15, max_iter=3, seed=0))
    assert not result.converged
    assert result.iterations == 3
    assert len(result.trajectory) == 3


def test_fixed_point_probabilities_stay_in_unit_interval():
    g = nsf14()
    demands = nsf14_demands(g)[:40]
    result = fixed_point(g, demands, {}, AnalysisConfig(epsilon=1e-6, seed=11))
    assert 0.0 <= result.network_blocking_prob <= 1.0
    assert all(0.0 <= b <= 1.0 for b in result.demand_blockings)
    assert all(0.0 <= phi <= 1.0 for phi in result.phis.values())
    assert all(0.0 <= p <= 1.0 for p in result.trajectory)


def test_fixed_point_seed_independence_at_convergence():
    g = nsf14()
    demands = nsf14_demands(g)
    archs = uniform_architectures(g, NodeArchitecture(FULL))
    config = AnalysisConfig(epsilon=1e-7, seed=0)
    values = []
    for seed in (10, 20):
        result = fixed_point(g, demands, archs, AnalysisConfig(epsilon=1e-7, seed=seed))
        assert result.converged
        values.append(result.network_blocking_prob)
    assert abs(values[0] - values[1]) <= 10 * config.epsilon, (
        "seed disagreement: possible multiple fixed points"
    )


def test_converged_result_is_a_fixed_point():
    # here the network blocking settles within epsilon while phi_update
    # still moves the link states by about 4e-3, so that test alone stops early
    g = sixnode()
    demands = generate_demands(g, seed=1, slots_range=(1, 3), traffic_target=0.25)
    routes = route_all(g, demands)
    result = fixed_point(g, demands, {}, AnalysisConfig(seed=6), routes)
    assert result.converged
    fresh = phi_update(demands, routes, result.demand_blockings, g)
    residual = max(abs(fresh[lid] - phi) for lid, phi in result.phis.items())
    assert residual <= 1e-5


def test_fixed_point_damping_reaches_same_answer():
    g = nsf14()
    demands = nsf14_demands(g)
    plain = fixed_point(g, demands, {}, AnalysisConfig(epsilon=1e-8, seed=1))
    damped = fixed_point(g, demands, {}, AnalysisConfig(epsilon=1e-8, seed=1, damping=0.5))
    assert plain.converged and damped.converged
    assert plain.network_blocking_prob == pytest.approx(
        damped.network_blocking_prob, abs=1e-5
    )


def test_config_validation(monkeypatch):
    with pytest.raises(ValueError):
        AnalysisConfig(epsilon=0)
    with pytest.raises(ValueError):
        AnalysisConfig(max_iter=0)
    with pytest.raises(ValueError):
        AnalysisConfig(damping=0.0)
    with pytest.raises(ValueError):
        AnalysisConfig(damping=1.5)
    # flag values reach the CLI's "error:" exit as input errors
    for kwargs in ({"epsilon": math.nan}, {"epsilon": math.inf}, {"epsilon": -1.0},
                   {"damping": math.nan}, {"max_iter": 0}, {"seed": -1}):
        with pytest.raises(InputError):
            AnalysisConfig(**kwargs)
    # counts and seeds are ints, checked when the config is built
    for value in (2.5, True, 1.0, "3"):
        for name in ("max_iter", "seed"):
            with pytest.raises(InputError, match=name):
                AnalysisConfig(**{name: value})
    # undamped, NSF at T = 0.4 orbits, and the loop once never met
    # len(trajectory) == 2.5
    g = nsf14()
    base = nsf14_demands(g)
    routes = route_all(g, base)
    demands = scale_demands(base, 0.4 / network_traffic(g, base, routes))

    def no_plan(*args):
        raise AssertionError("iterated with a fractional iteration cap")

    monkeypatch.setattr(eonspectra.analyzer, "compile_plan", no_plan)
    with pytest.raises(InputError, match="max_iter"):
        fixed_point(g, demands, {}, AnalysisConfig(max_iter=2.5, seed=1), routes)


def multi_slot_nsf_demands(g):
    """NSF's bundled demands with every third one asking for 1, 2 or 4
    slots, and demand 1 asking for 2 slots or for one more than the fiber
    holds."""
    demands = [
        DemandSpec(d.src, d.dst, d.rate, d.hold, {1: 0.2, 2: 0.5, 4: 0.3}) if i % 3 == 0 else d
        for i, d in enumerate(nsf14_demands(g))
    ]
    d = demands[1]
    demands[1] = DemandSpec(d.src, d.dst, d.rate, d.hold, {2: 0.5, g.slot_count + 1: 0.5})
    return demands


def test_fixed_point_iteration_needs_no_scalar_run_probability(monkeypatch):
    # every run probability of a solve comes from its plan's array calls,
    # and a solve's blockings are those of single-route calls at its link state
    g = nsf14()
    archs = {
        2: NodeArchitecture(FULL),
        6: NodeArchitecture(FULL),
        4: NodeArchitecture(SHARE_PER_NODE, 1),
        9: NodeArchitecture(SHARE_PER_NODE, 1),
        5: NodeArchitecture(SHARE_PER_LINK, 2),
        11: NodeArchitecture(SHARE_PER_LINK, 2),
        3: NodeArchitecture(SIMPLE),
    }
    demands = multi_slot_nsf_demands(g)
    routes = route_all(g, demands)
    assert any(len(r.links) >= 3 for r in routes)

    scalar_calls = []
    calls = []
    batched = eonspectra.lightpath.run_probability

    def counting(min_run, slots, rho):
        calls.append(min_run)
        if not isinstance(rho, np.ndarray):
            scalar_calls.append((min_run, slots, rho))
        return batched(min_run, slots, rho)

    monkeypatch.setattr(eonspectra.lightpath, "run_probability", counting)
    config = AnalysisConfig(epsilon=1e-8, seed=3, damping=0.5)
    result = fixed_point(g, demands, archs, config, routes)
    assert result.converged
    assert scalar_calls == []
    # one call per iteration, over every slot count of the plan at once
    assert len(calls) == result.iterations

    monkeypatch.setattr(eonspectra.lightpath, "run_probability", batched)
    stats = crossing_stats(g, routes)
    for demand, route, got in zip(demands, routes, result.demand_blockings):
        assert got == demand_blocking(demand, route, archs, result.phis, stats, g.slot_count)
    assert result.demand_blockings[1] > 0.5  # half of its requests never fit


def test_demands_on_one_route_each_read_their_own_passes():
    # three demands 1->4 through two shared banks: the plan holds each
    # (slot count, route) pass once, and a demand whose smallest slot count
    # exceeds the fiber has no pass and blocks at 1.0
    g = line(4, slot_count=4)
    archs = {2: NodeArchitecture(SHARE_PER_NODE, 1), 3: NodeArchitecture(SHARE_PER_LINK, 1)}
    demands = [
        DemandSpec(1, 4, 1.0, 1.0, {1: 1.0}),
        DemandSpec(1, 4, 0.5, 2.0, {2: 0.5, 3: 0.5}),
        DemandSpec(1, 4, 0.5, 1.0, {5: 1.0}),
        DemandSpec(2, 3, 1.0, 1.0, {2: 1.0}),
    ]
    routes = route_all(g, demands)
    stats = crossing_stats(g, routes)
    grid = route_grid(((r, d.slot_pmf) for d, r in zip(demands, routes)), 4)
    plan = compile_plan(grid, archs, stats)
    shared = routes[0].link_ids
    assert len(plan.index) == 4
    assert set(plan.index) == {(1, shared), (2, shared), (3, shared), (2, routes[3].link_ids)}
    result = fixed_point(g, demands, archs, AnalysisConfig(seed=2, damping=0.5), routes)
    assert result.converged
    for demand, route, got in zip(demands, routes, result.demand_blockings):
        assert got == demand_blocking(demand, route, archs, result.phis, stats, g.slot_count)
    memo = plan.evaluate(link_state(result.phis))
    for s in (1, 2, 3):
        alone = lightpath_blocking(s, routes[0], archs, result.phis, stats, g.slot_count)
        assert lightpath_blocking(s, routes[1], archs, result.phis, stats, g.slot_count, memo) == alone
    assert result.demand_blockings[2] == 1.0
    assert 0.0 < result.demand_blockings[0] < result.demand_blockings[1] < 1.0


# NSF with its bundled demands, seed 10, damping 0.5: the iteration count,
# float.hex of the network blocking and of the blockings of demands 0, 20
# (the longest route, 5 hops) and 181, and the first 16 hex digits of the
# sha256 of every demand blocking's float.hex, space-separated in demand
# order.  The values were recorded from the engine before per-route stop
# plans replaced its per-hop pass and rho-keyed memo, and the stop plans
# must reproduce them bit for bit.  The digest is what catches a one-ULP
# change: at this seed, reordering the products of the pass or summing a
# bank's port shares without fsum moves a few demands of the shared
# settings and nothing else.  "mixed" cycles share_per_node:1, full and
# share_per_link:1 over the node ids, which puts a full node strictly
# between two shared ones on some routes.
PINNED_NSF_SOLVES = {
    "simple": (17, "0x1.7c29584329e9ap-4", "afa3499a7c48a03c",
               ("0x1.97f02b0000000p-28", "0x1.cae5cd5371b38p-4", "0x1.5cd6d00000000p-31")),
    "share_per_node:1": (17, "0x1.7abe42d3516a3p-4", "512b93fa4c7d8fcb",
                         ("0x1.975eed8000000p-28", "0x1.caff444695a93p-4", "0x1.5d64880000000p-31")),
    "share_per_link:1": (17, "0x1.698dad8601ce6p-4", "614ea44f426f437c",
                         ("0x1.9808d20000000p-28", "0x1.b448ecdc45761p-4", "0x1.5ef5840000000p-31")),
    "full": (18, "0x1.0feb1244ed67ap-5", "10ebd038ce89f64c",
             ("0x1.1b32bb8000000p-26", "0x1.f079c058c2adfp-12", "0x1.6005d80000000p-31")),
    "mixed": (17, "0x1.154c8e56baabfp-4", "42c1b78685cf7a8d",
              ("0x1.5afdf8c000000p-27", "0x1.678f31f7daf49p-9", "0x1.68bb580000000p-31")),
}


@pytest.mark.parametrize("setting", sorted(PINNED_NSF_SOLVES))
def test_pinned_nsf_solves_are_unchanged_bit_for_bit(setting):
    g = nsf14()
    demands = nsf14_demands(g)
    routes = route_all(g, demands)
    cycle = [NodeArchitecture(SHARE_PER_NODE, 1), NodeArchitecture(FULL), NodeArchitecture(SHARE_PER_LINK, 1)]
    archs = {
        "simple": {},
        "share_per_node:1": uniform_architectures(g, NodeArchitecture(SHARE_PER_NODE, 1)),
        "share_per_link:1": uniform_architectures(g, NodeArchitecture(SHARE_PER_LINK, 1)),
        "full": uniform_architectures(g, NodeArchitecture(FULL)),
        "mixed": {v: cycle[v % 3] for v in g.nodes},
    }[setting]
    if setting == "mixed":
        kinds = [[archs[v].kind for v in r.nodes[1:-1]] for r in routes]
        assert any(
            FULL in ks[i + 1 : j] and FULL not in (ks[i], ks[j])
            for ks in kinds
            for i in range(len(ks))
            for j in range(i + 2, len(ks))
        )
    assert routes[20].hop_count == max(r.hop_count for r in routes) == 5
    result = fixed_point(g, demands, archs, AnalysisConfig(seed=10, damping=0.5), routes)
    iterations, p_net, digest, blockings = PINNED_NSF_SOLVES[setting]
    assert result.converged
    assert result.iterations == iterations
    assert result.network_blocking_prob.hex() == p_net
    assert tuple(result.demand_blockings[i].hex() for i in (0, 20, 181)) == blockings
    every = " ".join(b.hex() for b in result.demand_blockings)
    assert hashlib.sha256(every.encode()).hexdigest()[:16] == digest


def test_solve_does_not_depend_on_bank_numbering():
    """Banks are numbered by the exit links the routes cross at interior
    hops, whatever the order of the architecture map: the same map in two
    insertion orders gives equal solves, with one bank per distinct
    ``bank_key`` of those exits whose tail converts."""
    g = nsf14()
    demands = nsf14_demands(g)
    routes = route_all(g, demands)
    cycle = [NodeArchitecture(FULL), NodeArchitecture(SHARE_PER_NODE, 1),
             NodeArchitecture(SHARE_PER_LINK, 2), NodeArchitecture(SIMPLE)]
    archs = {v: cycle[v % 4] for v in g.nodes}
    backwards = dict(reversed(archs.items()))
    assert list(backwards) != list(archs)
    config = AnalysisConfig(seed=10, damping=0.5)
    result = fixed_point(g, demands, archs, config, routes)
    assert result.converged
    assert fixed_point(g, demands, backwards, config, routes) == result

    routing = compile_routing(g, demands, routes)
    keys = {
        bank_key(link.tail, link.id, archs[link.tail])
        for route in routes
        for link in route.links[1:]
        if archs[link.tail].converts
    }
    assert {key and key[0] for key in keys} == {None, "node", "port"}  # every converting kind
    for order in (archs, backwards):
        plan = compile_plan(routing.grid, order, routing.stats)
        assert len(plan.banks) == len(keys - {None})


# ``multi_slot_nsf_demands`` under the "mixed" map, seed 10, damping 0.5,
# in the format of PINNED_NSF_SOLVES, with the blockings of demands 0 (1, 2
# or 4 slots), 1 (half of its requests never fit), 20 and 181.  Recorded
# from the solve that called ``demand_blocking`` once per demand.
PINNED_MULTI_SLOT_SOLVE = (
    17, "0x1.297b49de5139cp-3", "c139947471c532dd",
    ("0x1.0f9736ead7977p-5", "0x1.0002b456a930cp-1", "0x1.d24ec1e69851cp-9", "0x1.3e62cda000000p-26"),
)


def _multi_slot_solve():
    g = nsf14()
    demands = multi_slot_nsf_demands(g)
    cycle = [NodeArchitecture(SHARE_PER_NODE, 1), NodeArchitecture(FULL), NodeArchitecture(SHARE_PER_LINK, 1)]
    archs = {v: cycle[v % 3] for v in g.nodes}
    return g, demands, fixed_point(g, demands, archs, AnalysisConfig(seed=10, damping=0.5))


def test_pinned_multi_slot_solve_is_unchanged_bit_for_bit():
    _, _, result = _multi_slot_solve()
    assert result.converged
    every = " ".join(b.hex() for b in result.demand_blockings)
    assert (
        result.iterations,
        result.network_blocking_prob.hex(),
        hashlib.sha256(every.encode()).hexdigest()[:16],
        tuple(result.demand_blockings[i].hex() for i in (0, 1, 20, 181)),
    ) == PINNED_MULTI_SLOT_SOLVE


@pytest.mark.parametrize("bound", [True, False])
def test_phi_update_is_the_solves_link_update_bit_for_bit(bound):
    """``phi_update`` at the pinned multi-slot solve's converged blockings
    gives the floats of the solve's own link update, ``Routing.update``,
    for routes bound to their demands and for the same routes without."""
    g, demands, result = _multi_slot_solve()
    routes = route_all(g, demands)
    if not bound:
        routes = [RoutedPath(r.nodes, r.links) for r in routes]
    expected = compile_routing(g, demands, routes).update(result.demand_blockings)
    phis = phi_update(demands, routes, result.demand_blockings, g)
    assert list(phis) == [link.id for link in g.links]
    assert [x.hex() for x in phis.values()] == [x.hex() for x in expected.tolist()]
    assert min(phis.values()) < 1.0


# The 28-node chorded ring of ``oracles.chorded_ring(4)``, with demands
# generated at seed 9 (1 to 4 slots, traffic 0.3) and every fifth one
# asking for 1, 2 or 4 slots, solved at seed 10, damping 0.5: the iteration
# count, float.hex of the network blocking and the digest of the demand
# blockings, as in PINNED_NSF_SOLVES.  Its routes run up to 8 hops, so
# under share_per_node:2 a destination closes 8 openings, which no NSF
# route reaches; "mixed" cycles share_per_node:2, full, share_per_link:1 and
# simple over the node ids.  Recorded from the plan compiled by a walk over
# each route's converting nodes.
PINNED_RING_SOLVES = {
    "share_per_node:2": (16, "0x1.529d903302e53p-2", "f2ac75ef2d90bf94"),
    "mixed": (16, "0x1.29f6282226348p-2", "f29bfd85cd4dea3f"),
}


@pytest.mark.parametrize("setting", sorted(PINNED_RING_SOLVES))
def test_pinned_ring_solve_is_unchanged_bit_for_bit(setting):
    g = chorded_ring(4)
    demands = [
        DemandSpec(d.src, d.dst, d.rate, d.hold, {1: 0.25, 2: 0.25, 4: 0.5}) if i % 5 == 0 else d
        for i, d in enumerate(generate_demands(g, seed=9, slots_range=(1, 4), traffic_target=0.3))
    ]
    routes = route_all(g, demands)
    assert max(r.hop_count for r in routes) == 8
    cycle = [NodeArchitecture(SHARE_PER_NODE, 2), NodeArchitecture(FULL),
             NodeArchitecture(SHARE_PER_LINK, 1), NodeArchitecture(SIMPLE)]
    archs = {
        "share_per_node:2": uniform_architectures(g, NodeArchitecture(SHARE_PER_NODE, 2)),
        "mixed": {v: cycle[v % 4] for v in g.nodes},
    }[setting]
    result = fixed_point(g, demands, archs, AnalysisConfig(seed=10, damping=0.5), routes)
    assert result.converged
    every = " ".join(b.hex() for b in result.demand_blockings)
    assert (
        result.iterations,
        result.network_blocking_prob.hex(),
        hashlib.sha256(every.encode()).hexdigest()[:16],
    ) == PINNED_RING_SOLVES[setting]


def test_solve_reads_each_demand_slot_count_once_per_iteration(monkeypatch):
    # one lightpath_blocking read per (demand, slot count) and iteration,
    # slot counts above the fiber included, and no demand_blocking call
    g = line(4, slot_count=4)
    archs = {2: NodeArchitecture(SHARE_PER_NODE, 1), 3: NodeArchitecture(FULL)}
    demands = [
        DemandSpec(1, 4, 1.0, 1.0, {1: 0.5, 2: 0.5}),
        DemandSpec(2, 4, 0.5, 2.0, {1: 0.2, 3: 0.3, 5: 0.5}),
        DemandSpec(4, 1, 1.0, 1.0, {2: 1.0}),
    ]
    config = AnalysisConfig(seed=2, damping=0.5)
    plain = fixed_point(g, demands, archs, config)

    calls = {"lightpath_blocking": 0, "demand_blocking": 0}

    def counted(name):
        inner = getattr(eonspectra.analyzer, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(eonspectra.analyzer, name, counted(name))
    result = fixed_point(g, demands, archs, config)
    reads = result.iterations * sum(len(d.slot_pmf) for d in demands)
    assert calls == {"lightpath_blocking": reads, "demand_blocking": 0}
    assert result.iterations > 1
    assert result == plain


@pytest.mark.parametrize("spec", ["simple", "full", "share_per_node:1"])
def test_network_blocking_is_nondecreasing_in_traffic(spec):
    g = nsf14()
    kind, _, n_sc = spec.partition(":")
    archs = uniform_architectures(g, NodeArchitecture(kind, int(n_sc) if n_sc else None))
    demands = nsf14_demands(g)
    routes = route_all(g, demands)
    config = AnalysisConfig(epsilon=1e-8, seed=3, damping=0.5)
    values = []
    for factor in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        result = fixed_point(g, scale_demands(demands, factor), archs, config, routes)
        assert result.converged, factor
        values.append(result.network_blocking_prob)
    assert values == sorted(values), values


def test_network_blocking_is_nonincreasing_along_the_converter_ladder():
    # the fixed point, not only one lightpath, gains from every step up:
    # simple, then 1, 2, 4 and 8 shared SCBs per node or per link, then full
    g = nsf14()
    demands = nsf14_demands(g)
    routes = route_all(g, demands)
    bundled = network_traffic(g, demands, routes)
    config = AnalysisConfig(epsilon=1e-8, seed=3, damping=0.5)
    for traffic in (0.2, 0.3, 0.4):
        scaled = scale_demands(demands, traffic / bundled)
        for kind in (SHARE_PER_NODE, SHARE_PER_LINK):
            ladder = [
                NodeArchitecture(SIMPLE),
                *(NodeArchitecture(kind, n_sc) for n_sc in (1, 2, 4, 8)),
                NodeArchitecture(FULL),
            ]
            values = []
            for arch in ladder:
                archs = uniform_architectures(g, arch)
                result = fixed_point(g, scaled, archs, config, routes)
                assert result.converged, (traffic, arch)
                values.append(result.network_blocking_prob)
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), (traffic, kind, values)


def test_routes_without_their_demand_solve_like_routed_demands():
    # crossing_stats weights each route's transit slots by its demand, so a
    # bare path must be bound to the demand it serves before it is counted;
    # unbound, every shared bank looked almost always free
    g = nsf14()
    demands = nsf14_demands(g)
    archs = uniform_architectures(g, NodeArchitecture(SHARE_PER_NODE, 1))
    config = AnalysisConfig(damping=0.5, seed=3)
    bare = [RoutedPath(r.nodes, r.links) for r in route_all(g, demands)]
    routed = fixed_point(g, demands, archs, config, route_all(g, demands))
    unbound = fixed_point(g, demands, archs, config, bare)
    assert unbound.iterations == routed.iterations
    assert unbound.network_blocking_prob.hex() == routed.network_blocking_prob.hex()
    assert [b.hex() for b in unbound.demand_blockings] == [
        b.hex() for b in routed.demand_blockings
    ]
    with pytest.raises(InputError, match="no demand"):
        crossing_stats(g, bare)


def test_solve_depends_only_on_the_set_of_pmf_rows():
    # {1: 0.2, 2: 0.5, 4: 0.3} in row order (2, 4, 1) has another mean slot
    # count when added in row order; the demand keeps its rows ascending
    g = nsf14()
    archs = uniform_architectures(g, NodeArchitecture(SHARE_PER_NODE, 1))
    config = AnalysisConfig(seed=1, damping=0.5)
    results = []
    for rows in ((1, 2, 4), (2, 4, 1)):
        pmf = {s: {1: 0.2, 2: 0.5, 4: 0.3}[s] for s in rows}
        demands = [
            DemandSpec(d.src, d.dst, d.rate, d.hold, pmf) if i % 3 == 0 else d
            for i, d in enumerate(nsf14_demands(g))
        ]
        results.append(fixed_point(g, demands, archs, config))
    ascending, shuffled = results
    assert ascending.converged
    assert shuffled.phis == ascending.phis
    assert shuffled.demand_blockings == ascending.demand_blockings
    assert shuffled.network_blocking_prob == ascending.network_blocking_prob
