import logging
import math

import pytest

from eonspectra.analyzer import (
    AnalysisConfig,
    demand_blocking,
    fixed_point,
    network_blocking,
    phi_update,
)
from eonspectra.errors import InputError
from eonspectra.lightpath import (
    FULL,
    NodeArchitecture,
    crossing_stats,
    lightpath_blocking,
    uniform_architectures,
)
from eonspectra.topology import (
    DemandSpec,
    load_topology,
    route_all,
)
from eonspectra.fixtures import generate_demands, nsf14, nsf14_demands, sixnode


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
    demands = [
        DemandSpec(1, 2, 1.0, 1.0, {1: 1.0}),
        DemandSpec(2, 1, 3.0, 1.0, {1: 1.0}),
    ]
    assert network_blocking(demands, [0.1, 0.2]) == pytest.approx(0.175)
    assert network_blocking(demands, [0.3, 0.3]) == pytest.approx(0.3)
    assert network_blocking(demands[:1], [0.42]) == pytest.approx(0.42)


def test_network_blocking_empty_warns_and_returns_zero(caplog):
    with caplog.at_level(logging.WARNING):
        assert network_blocking([], []) == 0.0
    assert any("empty" in rec.message for rec in caplog.records)


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


def test_fixed_point_no_demands():
    g = line(3)
    result = fixed_point(g, [], {}, AnalysisConfig(seed=5))
    assert result.network_blocking_prob == 0.0
    assert result.converged
    assert result.iterations <= 2


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


def test_config_validation():
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
                   {"damping": math.nan}, {"max_iter": 0}):
        with pytest.raises(InputError):
            AnalysisConfig(**kwargs)
