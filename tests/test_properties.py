"""Network-level properties of the fixed point: the network blocking never
falls as traffic grows, and never rises when one node's converters are
upgraded.  In a loss network neither is automatic (Braess's paradox: Bean,
Kelly & Taylor, J. Appl. Probab. 1997), so both are checked on solves, on
seeded random graphs and on NSF."""

import numpy as np
import pytest

from eonspectra.analyzer import AnalysisConfig, compile_routing, fixed_point
from eonspectra.fixtures import generate_demands, nsf14, nsf14_demands
from eonspectra.lightpath import (
    FULL,
    SHARE_PER_LINK,
    SHARE_PER_NODE,
    SIMPLE_NODE,
    NodeArchitecture,
)
from eonspectra.topology import load_topology, network_traffic, route_all, scale_demands

CONFIG = AnalysisConfig(epsilon=1e-11, seed=1, damping=0.5)
SLACK = 1e-12
TRAFFIC = (0.1, 0.2, 0.3, 0.45, 0.6)

SPN1 = NodeArchitecture(SHARE_PER_NODE, 1)
SPN3 = NodeArchitecture(SHARE_PER_NODE, 3)
SPL2 = NodeArchitecture(SHARE_PER_LINK, 2)
FULL_NODE = NodeArchitecture(FULL)
BASE_KINDS = (SIMPLE_NODE, SPN1, SPL2, FULL_NODE)
# the true one-node upgrades from each base kind: spn3 has more shared
# boxes than spn1, a full node a box per port; spl2 -> spn3 is no order
UPGRADES = {
    SIMPLE_NODE: (SPN1, FULL_NODE),
    SPN1: (SPN3, FULL_NODE),
    SPL2: (FULL_NODE,),
    FULL_NODE: (),
}


def random_case(seed):
    """A bidirectional ring of 4-8 nodes plus random chords, F = 4-10, its
    all-pairs demands of 1-3 slots and a random map over simple,
    share_per_node:1, share_per_link:2 and full."""
    rng = np.random.default_rng(seed)
    nodes, slot_count = int(rng.integers(4, 9)), int(rng.integers(4, 11))
    edges = {(i, (i + 1) % nodes) for i in range(nodes)}
    for _ in range(int(rng.integers(1, nodes))):
        a, b = sorted(int(v) for v in rng.choice(nodes, 2, replace=False))
        if b - a not in (1, nodes - 1):
            edges.add((a, b))
    g = load_topology({
        "slot_count": slot_count,
        "nodes": list(range(nodes)),
        "edges": [{"a": a, "b": b, "weight": 1.0} for a, b in sorted(edges)],
    })
    base = {v: BASE_KINDS[int(rng.integers(len(BASE_KINDS)))] for v in g.nodes}
    return g, generate_demands(g, seed=seed, slots_range=(1, 3)), base


def at_traffic(g, demands, traffic):
    routes = route_all(g, demands)
    return scale_demands(demands, traffic / network_traffic(g, demands, routes))


def network_blocking(g, demands, base, routing):
    archs = {v: arch for v, arch in base.items() if arch.converts}
    result = fixed_point(g, demands, archs, CONFIG, routing=routing)
    assert result.converged
    return result.network_blocking_prob


def upgrade_violations(g, demands, base):
    """The one-node upgrades of ``base`` that raise the network blocking
    by more than the slack, with both values."""
    routing = compile_routing(g, demands)
    before = network_blocking(g, demands, base, routing)
    found = []
    for v in g.nodes:
        for arch in UPGRADES[base[v]]:
            after = network_blocking(g, demands, {**base, v: arch}, routing)
            if after > before + SLACK:
                found.append((v, base[v], arch, before, after))
    return found


@pytest.mark.parametrize("seed", range(8))
def test_network_blocking_never_falls_with_traffic(seed):
    g, demands, base = random_case(seed)
    values = []
    for traffic in TRAFFIC:
        scaled = at_traffic(g, demands, traffic)
        values.append(network_blocking(g, scaled, base, compile_routing(g, scaled)))
    assert all(b >= a - SLACK for a, b in zip(values, values[1:])), values


@pytest.mark.parametrize("seed", range(8))
def test_no_one_node_upgrade_raises_network_blocking(seed):
    g, demands, base = random_case(seed)
    assert upgrade_violations(g, at_traffic(g, demands, 0.3), base) == []


@pytest.mark.parametrize("traffic", [0.2, 0.3])
def test_one_converter_box_on_nsf_never_raises_network_blocking(traffic):
    # simple -> spn1 and simple -> full at each node in turn
    g = nsf14()
    demands = at_traffic(g, nsf14_demands(g), traffic)
    base = dict.fromkeys(g.nodes, SIMPLE_NODE)
    assert upgrade_violations(g, demands, base) == []
