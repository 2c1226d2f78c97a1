import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import eonspectra
from eonspectra.errors import InputError, SimulatorFault
from eonspectra.fixtures import generate_demands, nsf14, nsf14_demands
from eonspectra.lightpath import (
    FULL,
    SHARE_PER_LINK,
    SHARE_PER_NODE,
    NodeArchitecture,
    crossing_stats,
    uniform_architectures,
)
from eonspectra.simulator import (
    _BLOCK,
    NetworkState,
    SimConfig,
    _pick_start,
    _requests,
    admit,
    release,
    resolve_windows,
    simulate,
)
from eonspectra.topology import DemandSpec, load_topology, route_all, shortest_path

from oracles import cuts_by_subsets, erlang_b, pick_start_from_list


def line(nodes, slot_count):
    labels = list(range(1, nodes + 1))
    edges = [{"a": i, "b": i + 1, "weight": 1, "directed": True} for i in labels[:-1]]
    return load_topology({"name": "line", "slot_count": slot_count, "nodes": labels,
                          "edges": edges})


def make_state(graph, archs=None):
    return NetworkState(graph, archs or {})


# --- admission ---------------------------------------------------------------


def test_unique_window_is_always_chosen():
    g = line(2, 4)
    path = shortest_path(g, 1, 2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        state = make_state(g)
        # occupy slot 3 (0-based index 2): free slots 1,2,4 leave one 2-window
        state.occupied[path.links[0].id] = 0b0100
        conn = admit(state, path, 2, rng)
        assert conn is not None
        (start, _links), = state.connections[conn].segments
        assert start == 0


def test_random_fit_is_uniform_over_windows():
    g = line(2, 4)
    path = shortest_path(g, 1, 2)
    rng = np.random.default_rng(1)
    counts = {0: 0, 1: 0, 2: 0}
    state = make_state(g)
    for _ in range(100_000):
        conn = admit(state, path, 2, rng)
        (start, _), = state.connections[conn].segments
        counts[start] += 1
        release(state, conn)
    result = sps.chisquare(list(counts.values()))
    assert result.pvalue > 1e-3


def test_blocked_when_no_window():
    g = line(2, 4)
    path = shortest_path(g, 1, 2)
    state = make_state(g)
    state.occupied[path.links[0].id] = 0b0101  # free slots 2 and 4: no 2-window
    assert admit(state, path, 2, np.random.default_rng(2)) is None


def test_conversion_bridges_disjoint_windows():
    g = line(3, 4)
    path = shortest_path(g, 1, 3)
    archs = {2: NodeArchitecture(FULL)}
    state = make_state(g, archs)
    plain = make_state(g)
    for each in (state, plain):
        each.occupied[path.links[0].id] = 0b1100  # link 1 free on slots 1-2
        each.occupied[path.links[1].id] = 0b0011  # link 2 free on slots 3-4
    rng = np.random.default_rng(3)
    assert admit(plain, path, 2, rng) is None  # no converter: blocked
    conn = admit(state, path, 2, rng)
    assert conn is not None
    segments = state.connections[conn].segments
    assert len(segments) == 2
    starts = [start for start, _ in segments]
    assert starts == [0, 2]


def test_shared_bank_exhaustion_blocks_conversion():
    g = line(3, 4)
    path = shortest_path(g, 1, 3)
    archs = {2: NodeArchitecture(SHARE_PER_NODE, 1)}
    state = make_state(g, archs)
    rng = np.random.default_rng(4)
    state.occupied[path.links[0].id] = 0b1100
    state.occupied[path.links[1].id] = 0b0011
    first = admit(state, path, 2, rng)
    assert first is not None
    assert state.bank_in_use[("node", 2)] == 1
    # bank is exhausted and the straight-through windows are now gone too
    second = admit(state, path, 1, rng)
    assert second is None
    release(state, first)
    assert state.bank_in_use[("node", 2)] == 0
    assert admit(state, path, 1, rng) is not None


def test_minimal_conversions_preferred():
    # a window exists end to end, so no converter may be consumed
    g = line(3, 4)
    path = shortest_path(g, 1, 3)
    archs = uniform_architectures(g, NodeArchitecture(SHARE_PER_NODE, 1))
    state = make_state(g, archs)
    rng = np.random.default_rng(5)
    conn = admit(state, path, 2, rng)
    assert conn is not None
    assert state.connections[conn].banks == ()
    assert all(used == 0 for used in state.bank_in_use.values())


def test_release_restores_masks_and_counters():
    g = line(3, 8)
    path = shortest_path(g, 1, 3)
    archs = {2: NodeArchitecture(SHARE_PER_LINK, 2)}
    state = make_state(g, archs)
    rng = np.random.default_rng(6)
    before_masks = dict(state.occupied)
    before_banks = dict(state.bank_in_use)
    state.occupied[path.links[0].id] = 0b11110000
    state.occupied[path.links[1].id] = 0b00001111
    snapshot_masks = dict(state.occupied)
    conn = admit(state, path, 3, rng)
    assert conn is not None
    release(state, conn)
    assert state.occupied == snapshot_masks
    assert state.bank_in_use == before_banks
    assert not state.connections
    state.occupied = before_masks
    state.verify_conservation()


def test_release_unknown_connection_is_a_fault():
    g = line(2, 4)
    state = make_state(g)
    with pytest.raises(SimulatorFault):
        release(state, 123)


def test_long_route_converts_at_every_node():
    hops = 15
    g = line(hops + 1, 4)
    path = shortest_path(g, 1, hops + 1)
    archs = {n: NodeArchitecture(FULL) for n in range(2, hops + 1)}
    state = make_state(g, archs)
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    # each link keeps one 2-slot window, low and high in turn, so every one
    # of the 14 converters must cut
    for h, link in enumerate(path.links):
        state.occupied[link.id] = 0b0011 if h % 2 else 0b1100
    conn = admit(state, path, 2, rng)
    assert conn is not None
    segments = state.connections[conn].segments
    assert [links for _, links in segments] == [(lid,) for lid in path.link_ids]
    assert [start for start, _ in segments] == [2 if h % 2 else 0 for h in range(hops)]
    assert rng.bit_generator.state == before  # one window per segment: no draw


def _window_starts_of(mask, slots, slot_count):
    window = (1 << slots) - 1
    return sum(
        1 << i for i in range(slot_count - slots + 1) if (mask >> i) & window == window
    )


def test_admit_matches_subset_enumeration():
    slot_count = 8
    kinds = [
        None,
        NodeArchitecture(FULL),
        NodeArchitecture(SHARE_PER_NODE, 1),
        NodeArchitecture(SHARE_PER_NODE, 2),
        NodeArchitecture(SHARE_PER_LINK, 1),
    ]
    lines = {}
    draw = np.random.default_rng(41)
    outcomes = {"blocked": 0, "continuous": 0, "one cut": 0, "several cuts": 0}
    for _ in range(3000):
        hops = int(draw.integers(1, 12))  # up to 10 interior converters
        if hops not in lines:
            g = line(hops + 1, slot_count)
            lines[hops] = (g, shortest_path(g, 1, hops + 1))
        g, path = lines[hops]
        archs = {}
        for node in range(2, hops + 1):
            kind = kinds[int(draw.integers(len(kinds)))]
            if kind is not None:
                archs[node] = kind
        state = make_state(g, archs)
        for key, capacity in state.bank_capacity.items():
            state.bank_in_use[key] = int(draw.integers(capacity + 1))
        busy = float(draw.uniform(0.2, 0.6))
        for lid in path.link_ids:
            state.occupied[lid] = sum(
                1 << s for s in range(slot_count) if draw.random() < busy
            )
        slots = int(draw.integers(1, 4))
        free = [state.full_mask & ~state.occupied[lid] for lid in path.link_ids]
        usable = {}
        for pos in range(2, hops + 1):
            node = path.nodes[pos - 1]
            if node in archs:
                key = {
                    SHARE_PER_NODE: ("node", node),
                    SHARE_PER_LINK: ("port", path.link_ids[pos - 1]),
                }.get(archs[node].kind)
                if key is None or state.bank_in_use[key] < state.bank_capacity[key]:
                    usable[pos] = key
        cuts = cuts_by_subsets(free, slots, slot_count, list(usable))
        banks_before = dict(state.bank_in_use)
        seed = int(draw.integers(1 << 32))
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)

        conn = admit(state, path, slots, rng)
        if cuts is None:
            assert conn is None
            assert state.bank_in_use == banks_before
            outcomes["blocked"] += 1
        else:
            bounds = (1,) + cuts + (hops + 1,)
            expected = []
            for a, b in zip(bounds, bounds[1:]):
                mask = state.full_mask
                for h in range(a, b):
                    mask &= free[h - 1]
                start = pick_start_from_list(_window_starts_of(mask, slots, slot_count), reference)
                expected.append((start, path.link_ids[a - 1 : b - 1]))
            banks = tuple(usable[p] for p in cuts if usable[p] is not None)
            assert state.connections[conn].segments == tuple(expected)
            assert state.connections[conn].banks == banks
            for key in banks:
                banks_before[key] += 1
            assert state.bank_in_use == banks_before
            outcomes[("continuous", "one cut", "several cuts")[min(len(cuts), 2)]] += 1
        assert rng.bit_generator.state == reference.bit_generator.state
    assert min(outcomes.values()) >= 100, outcomes


def test_simulator_banks_are_crossing_stats_banks():
    g = nsf14()
    mixed = [NodeArchitecture(SHARE_PER_NODE, 1), NodeArchitecture(SHARE_PER_LINK, 2), NodeArchitecture(FULL)]
    archs = {v: mixed[v % 3] for v in g.nodes}
    stats = crossing_stats(g, route_all(g, nsf14_demands(g)))
    capacity = NetworkState(g, archs).bank_capacity
    assert {kind for kind, _ in capacity} == {"node", "port"}
    assert set(capacity) <= set(stats.paths)
    for bank, shares in stats.shares.items():
        if not stats.paths[bank]:
            assert shares == ()
            continue
        assert math.fsum(share for _, share in shares) == pytest.approx(1.0, abs=1e-12)
        kind, ident = bank
        if kind == "node":
            assert [j for j, _ in shares] == [link.id for link in g.out_links(ident)]
        else:
            assert [j for j, _ in shares] == [ident]


def test_conservation_through_random_admit_release():
    g = load_topology({
        "name": "mesh", "slot_count": 6,
        "nodes": [1, 2, 3, 4],
        "edges": [
            {"a": 1, "b": 2, "weight": 1},
            {"a": 2, "b": 3, "weight": 1},
            {"a": 3, "b": 4, "weight": 1},
            {"a": 2, "b": 4, "weight": 3},
        ],
    })
    archs = {
        2: NodeArchitecture(SHARE_PER_NODE, 1),
        3: NodeArchitecture(SHARE_PER_LINK, 2),
    }
    pairs = [(1, 4), (1, 3), (2, 4), (4, 1), (3, 1)]
    paths = [shortest_path(g, s, d) for s, d in pairs]
    state = make_state(g, archs)
    rng = np.random.default_rng(23)
    active = []
    for step in range(3000):
        if active and rng.random() < 0.45:
            conn = active.pop(int(rng.integers(len(active))))
            release(state, conn)
        else:
            path = paths[int(rng.integers(len(paths)))]
            conn = admit(state, path, int(rng.integers(1, 4)), rng)
            if conn is not None:
                active.append(conn)
        if step % 250 == 0:
            state.verify_conservation()
    for conn in active:
        release(state, conn)
    state.verify_conservation()
    assert all(mask == 0 for mask in state.occupied.values())
    assert all(used == 0 for used in state.bank_in_use.values())


# --- event loop --------------------------------------------------------------


def test_zero_offered_when_rate_tiny_horizon_short():
    g = line(2, 2)
    demands = [DemandSpec(1, 2, 1e-9, 1.0, {1: 1.0})]
    config = SimConfig(seed=0, warmup=0.0, horizon=1.0, replications=1)
    result = simulate(g, demands, {}, config)
    assert result.offered_total == 0
    assert result.network_blocking_prob == 0.0


def test_single_link_matches_erlang_b():
    g = line(2, 2)
    demands = [DemandSpec(1, 2, 1.0, 1.0, {1: 1.0})]
    config = SimConfig(seed=42, warmup=20.0, horizon=20020.0, replications=1)
    result = simulate(g, demands, {}, config)
    expected = erlang_b(2, 1.0)
    se = math.sqrt(expected * (1 - expected) / result.offered_total)
    assert abs(result.network_blocking_prob - expected) <= 3 * se


def test_determinism_same_seed_same_result():
    g = line(3, 4)
    demands = [
        DemandSpec(1, 3, 2.0, 1.0, {1: 0.5, 2: 0.5}),
        DemandSpec(2, 3, 1.0, 0.5, {2: 1.0}),
    ]
    archs = {2: NodeArchitecture(SHARE_PER_NODE, 1)}
    config = SimConfig(seed=9, warmup=5.0, horizon=300.0, replications=3)
    a = simulate(g, demands, archs, config)
    b = simulate(g, demands, archs, config)
    assert a == b
    c = simulate(g, demands, archs, SimConfig(seed=10, warmup=5.0, horizon=300.0, replications=3))
    assert c != a


def test_replications_are_independent_streams():
    g = line(2, 2)
    demands = [DemandSpec(1, 2, 1.0, 1.0, {1: 1.0})]
    config = SimConfig(seed=3, warmup=5.0, horizon=500.0, replications=4)
    result = simulate(g, demands, {}, config)
    assert len(result.replication_blockings) == 4
    assert len(set(result.replication_blockings)) > 1
    assert result.ci95_half_width > 0.0
    assert result.offered_total == sum(result.demand_offered)
    assert result.blocked_total <= result.offered_total


def test_offered_counts_only_after_warmup():
    g = line(2, 2)
    demands = [DemandSpec(1, 2, 10.0, 0.1, {1: 1.0})]
    short = simulate(g, demands, {}, SimConfig(seed=1, warmup=50.0, horizon=60.0))
    long = simulate(g, demands, {}, SimConfig(seed=1, warmup=0.0, horizon=60.0))
    assert short.offered_total < long.offered_total


def test_trace_lines_written():
    g = line(2, 2)
    demands = [DemandSpec(1, 2, 1.0, 1.0, {1: 1.0})]
    lines = []
    simulate(g, demands, {}, SimConfig(seed=0, warmup=0.0, horizon=30.0), trace=lines.append)
    text = "".join(lines)
    assert "arrival" in text and "departure" in text


def test_upgrade_dominance_statistical():
    # upgrading one node to full conversion cannot raise mean blocking
    g = load_topology({
        "name": "y", "slot_count": 3,
        "nodes": [1, 2, 3, 4],
        "edges": [
            {"a": 1, "b": 2, "weight": 1},
            {"a": 2, "b": 3, "weight": 1},
            {"a": 2, "b": 4, "weight": 1},
        ],
    })
    demands = [
        DemandSpec(1, 3, 1.2, 1.0, {1: 0.5, 2: 0.5}),
        DemandSpec(1, 4, 1.2, 1.0, {1: 0.5, 2: 0.5}),
        DemandSpec(3, 4, 0.8, 1.0, {1: 1.0}),
    ]
    config = SimConfig(seed=17, warmup=10.0, horizon=700.0, replications=30)
    plain = simulate(g, demands, {}, config)
    upgraded = simulate(g, demands, {2: NodeArchitecture(FULL)}, config)
    assert upgraded.network_blocking_prob <= plain.network_blocking_prob


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(replications=0)
    with pytest.raises(ValueError):
        SimConfig(warmup=10.0, horizon=5.0)
    # a non-finite horizon would never end the event loop
    for kwargs in ({"warmup": math.nan}, {"warmup": math.inf}, {"warmup": -1.0},
                   {"horizon": math.nan}, {"horizon": math.inf}, {"replications": 0}):
        with pytest.raises(InputError):
            SimConfig(**kwargs)
    # the default horizon offers 1e4 requests to the slowest demand: inf here
    with pytest.raises(InputError):
        resolve_windows([DemandSpec(1, 2, 1e-320, 1.0, {1: 1.0})], SimConfig())


def test_import_leaves_scipy_unloaded():
    # scipy takes most of the import time and memory; only the t quantile
    # of a multi-replication simulation needs it
    code = "import sys, eonspectra, eonspectra.cli; print('scipy' in sys.modules)"
    src = str(Path(eonspectra.__file__).parents[1])  # the package under test
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "False"


# --- random streams ----------------------------------------------------------


@pytest.mark.parametrize("pmf", [{2: 1.0}, {1: 0.2, 2: 0.5, 4: 0.3}])
def test_request_stream_matches_scalar_draws(pmf):
    demand = DemandSpec(1, 2, 1.7, 0.6, pmf)
    values = sorted(pmf)
    cumulative = np.cumsum([pmf[v] for v in values])
    reference = np.random.default_rng(31)
    stream = _requests(demand, np.random.default_rng(31))
    for _ in range(3 * _BLOCK + 5):
        gap = reference.exponential(1.0 / demand.rate)
        if len(values) == 1:
            slots = values[0]
        else:
            u = reference.random()
            slots = values[int(np.searchsorted(cumulative, u, side="right").clip(0, len(values) - 1))]
        hold = reference.exponential(demand.hold)
        assert next(stream) == (gap, slots, hold)


def test_pick_start_matches_list_based_pick():
    masks = np.random.default_rng(5)
    rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(1000):
        starts = int(masks.integers(1, 1 << 16))
        assert _pick_start(starts, rng_a) == pick_start_from_list(starts, rng_b)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


# --- pinned sample paths -----------------------------------------------------
# Exact counts of fixed runs.  Any change to the random streams, the order of
# the draws or the admission rules moves them.

LINE_OFFERED = [[584, 377, 492, 321], [593, 408, 490, 306], [607, 454, 437, 320]]
LINE_BLOCKED = {
    "simple": [[261, 147, 86, 116], [304, 159, 86, 108], [311, 196, 96, 109]],
    "spn1+full": [[269, 146, 75, 117], [300, 160, 64, 113], [304, 183, 79, 116]],
    "spl1": [[261, 156, 79, 120], [319, 163, 70, 110], [312, 185, 79, 114]],
}


@pytest.mark.parametrize("setting", sorted(LINE_BLOCKED))
def test_pinned_sample_paths_on_a_line(setting):
    g = line(5, 6)
    demands = [
        DemandSpec(1, 5, 1.5, 1.0, {1: 0.3, 2: 0.5, 3: 0.2}),
        DemandSpec(1, 3, 1.0, 1.0, {2: 1.0}),
        DemandSpec(2, 5, 1.2, 0.8, {1: 1.0}),
        DemandSpec(3, 5, 0.8, 1.2, {1: 0.5, 3: 0.5}),
    ]
    spn1 = NodeArchitecture(SHARE_PER_NODE, 1)
    archs = {
        "simple": {},
        "spn1+full": {2: spn1, 3: NodeArchitecture(FULL), 4: spn1},
        "spl1": uniform_architectures(g, NodeArchitecture(SHARE_PER_LINK, 1)),
    }[setting]
    config = SimConfig(seed=2024, warmup=5.0, horizon=400.0, replications=3)
    result = simulate(g, demands, archs, config)
    assert result.per_replication_offered == LINE_OFFERED
    assert result.per_replication_blocked == LINE_BLOCKED[setting]
    assert result.fallback_admissions == 0


NSF_OFFERED = [
    5, 5, 5, 3, 5, 4, 6, 7, 7, 2, 10, 8, 2, 1, 6, 3, 5, 4, 4, 2, 1, 7, 12, 9, 7, 9, 7,
    7, 6, 6, 7, 4, 6, 5, 7, 1, 5, 4, 2, 4, 8, 10, 7, 7, 7, 3, 4, 6, 5, 4, 6, 5, 2, 3, 3,
    7, 3, 10, 9, 5, 9, 4, 3, 5, 3, 4, 3, 4, 4, 5, 6, 1, 3, 1, 5, 5, 6, 1, 6, 3, 5, 2, 5,
    5, 14, 11, 5, 5, 4, 4, 6, 13, 8, 2, 9, 3, 9, 10, 6, 7, 6, 7, 11, 1, 8, 4, 5, 3, 3,
    6, 5, 5, 9, 1, 5, 7, 6, 6, 3, 14, 2, 4, 5, 5, 1, 6, 3, 2, 6, 11, 4, 8, 5, 5, 3, 1,
    3, 2, 4, 8, 5, 7, 3, 9, 3, 1, 1, 7, 7, 7, 9, 10, 2, 3, 10, 3, 3, 5, 2, 5, 3, 4, 9,
    4, 3, 1, 7, 3, 10, 3, 4, 1, 4, 4, 2, 7, 7, 4, 3, 6, 9, 2
]

NSF_BLOCKED = [
    0, 0, 0, 0, 0, 1, 0, 2, 1, 1, 3, 6, 0, 0, 0, 0, 2, 0, 3, 0, 1, 2, 8, 0, 6, 1, 0, 0,
    5, 1, 0, 3, 4, 1, 2, 0, 0, 1, 0, 0, 0, 0, 5, 0, 3, 0, 0, 1, 0, 1, 0, 2, 0, 0, 0, 4,
    0, 4, 1, 2, 2, 0, 2, 1, 2, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 3, 0, 4, 1, 1, 0,
    0, 1, 0, 3, 0, 3, 1, 0, 7, 0, 3, 2, 5, 1, 1, 0, 3, 3, 7, 0, 0, 0, 2, 2, 0, 1, 3, 3,
    0, 0, 0, 1, 0, 4, 0, 5, 0, 0, 1, 1, 1, 0, 2, 0, 0, 0, 2, 1, 1, 0, 1, 0, 1, 2, 0, 6,
    1, 4, 0, 3, 0, 0, 0, 2, 0, 0, 5, 2, 0, 0, 0, 0, 1, 3, 0, 0, 1, 0, 4, 1, 1, 0, 0, 0,
    0, 2, 1, 0, 1, 2, 0, 0, 0, 0, 1, 0, 0, 0
]


def test_pinned_sample_path_on_nsf():
    g = nsf14()
    demands = generate_demands(g, seed=5, slots_range=(1, 3), traffic_target=0.4)
    archs = uniform_architectures(g, NodeArchitecture(FULL))
    config = SimConfig(seed=8, warmup=5.0, horizon=40.0)
    result = simulate(g, demands, archs, config)
    assert result.per_replication_offered == [NSF_OFFERED]
    assert result.per_replication_blocked == [NSF_BLOCKED]
    assert result.fallback_admissions == 0
