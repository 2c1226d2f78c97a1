import math
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import eonspectra
import eonspectra.simulator
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
    _REFILL,
    _WINDOW,
    NetworkState,
    SimConfig,
    SimResult,
    _arrival_windows,
    _BoundedDraws,
    _pick_start,
    _request_blocks,
    _run_replication,
    _window_ends,
    _window_starts,
    admit,
    release,
    resolve_windows,
    simulate,
)
from eonspectra.topology import DemandSpec, load_topology, route_all

from oracles import (
    cuts_by_subsets,
    erlang_b,
    heap_replication,
    one_link_chain,
    pick_start_from_list,
    route,
    verify_conservation,
)


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
    path = route(g, 1, 2)
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
    path = route(g, 1, 2)
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
    path = route(g, 1, 2)
    state = make_state(g)
    state.occupied[path.links[0].id] = 0b0101  # free slots 2 and 4: no 2-window
    assert admit(state, path, 2, np.random.default_rng(2)) is None


def test_request_wider_than_the_fiber_is_blocked_without_a_trace():
    g = line(3, 4)
    path = route(g, 1, 3)
    state = make_state(g, {2: NodeArchitecture(SHARE_PER_NODE, 1)})
    rng = np.random.default_rng(2)
    before = rng.bit_generator.state
    assert admit(state, path, 5, rng) is None
    assert state.occupied == [0] * len(state.occupied)
    assert state.bank_in_use == {("node", 2): 0}
    assert state.connections == {} and state.next_id == 1
    assert rng.bit_generator.state == before


def test_conversion_bridges_disjoint_windows():
    g = line(3, 4)
    path = route(g, 1, 3)
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
    path = route(g, 1, 3)
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
    path = route(g, 1, 3)
    archs = uniform_architectures(g, NodeArchitecture(SHARE_PER_NODE, 1))
    state = make_state(g, archs)
    rng = np.random.default_rng(5)
    conn = admit(state, path, 2, rng)
    assert conn is not None
    assert state.connections[conn].banks == ()
    assert all(used == 0 for used in state.bank_in_use.values())


def test_release_restores_masks_and_counters():
    g = line(3, 8)
    path = route(g, 1, 3)
    archs = {2: NodeArchitecture(SHARE_PER_LINK, 2)}
    state = make_state(g, archs)
    rng = np.random.default_rng(6)
    before_masks = list(state.occupied)
    before_banks = dict(state.bank_in_use)
    state.occupied[path.links[0].id] = 0b11110000
    state.occupied[path.links[1].id] = 0b00001111
    snapshot_masks = list(state.occupied)
    conn = admit(state, path, 3, rng)
    assert conn is not None
    release(state, conn)
    assert state.occupied == snapshot_masks
    assert state.bank_in_use == before_banks
    assert not state.connections
    state.occupied = before_masks
    verify_conservation(state)


def test_release_unknown_connection_is_a_fault():
    g = line(2, 4)
    state = make_state(g)
    with pytest.raises(SimulatorFault):
        release(state, 123)


def test_long_route_converts_at_every_node():
    hops = 15
    g = line(hops + 1, 4)
    path = route(g, 1, hops + 1)
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
            lines[hops] = (g, route(g, 1, hops + 1))
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
    paths = [route(g, s, d) for s, d in pairs]
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
            verify_conservation(state)
    for conn in active:
        release(state, conn)
    verify_conservation(state)
    assert all(mask == 0 for mask in state.occupied)
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


def test_one_link_chain_at_one_slot_is_erlang_b():
    # single-slot requests on one link make the chain an M/M/F/F system:
    # Erlang-B blocking, a truncated Poisson number of busy slots, and a
    # window whenever a slot is free
    for slot_count in (1, 2, 5, 8):
        for load in (0.5, 2.0, 6.0):
            blocking, free, window = one_link_chain(slot_count, {1: 1.0}, load / 0.5, 0.5)
            assert abs(blocking[1] - erlang_b(slot_count, load)) <= 1e-12
            busy = np.array([load**m / math.factorial(m) for m in range(slot_count + 1)])
            assert np.allclose(free[::-1], busy / busy.sum(), rtol=0.0, atol=1e-12)
            assert window[1].tolist() == [0.0] + [1.0] * slot_count


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


def test_one_replication_reports_no_interval():
    g = line(2, 2)
    demands = [DemandSpec(1, 2, 1.0, 1.0, {1: 1.0})]
    one = simulate(g, demands, {}, SimConfig(seed=3, warmup=5.0, horizon=500.0))
    assert one.ci95_half_width is None
    three = simulate(g, demands, {}, SimConfig(seed=3, warmup=5.0, horizon=500.0,
                                               replications=3))
    assert three.replication_blockings[0] == one.network_blocking_prob
    spread = np.std(three.replication_blockings, ddof=1) / math.sqrt(3)
    assert three.ci95_half_width == pytest.approx(sps.t.ppf(0.975, 2) * spread, rel=1e-12)
    assert three.ci95_half_width > 0.0


def _aggregate(per_offered, per_blocked):
    """The totals, rates and interval ``simulate`` computed from the
    per-replication counts while ``SimResult`` stored them as fields."""
    demand_offered = [sum(o[i] for o in per_offered) for i in range(len(per_offered[0]))]
    demand_blocked = [sum(b[i] for b in per_blocked) for i in range(len(per_blocked[0]))]
    demand_blocking = [(b / o) if o else 0.0 for b, o in zip(demand_blocked, demand_offered)]
    rep_blockings = []
    for o, b in zip(per_offered, per_blocked):
        total_o, total_b = sum(o), sum(b)
        rep_blockings.append((total_b / total_o) if total_o else 0.0)
    offered_total = sum(demand_offered)
    blocked_total = sum(demand_blocked)
    network = (blocked_total / offered_total) if offered_total else 0.0
    if len(rep_blockings) > 1:
        spread = float(np.std(rep_blockings, ddof=1)) / math.sqrt(len(rep_blockings))
        half_width = float(sps.t.ppf(0.975, len(rep_blockings) - 1)) * spread
    else:
        half_width = None
    return {
        "demand_offered": demand_offered,
        "demand_blocked": demand_blocked,
        "demand_blocking": demand_blocking,
        "replication_blockings": rep_blockings,
        "network_blocking_prob": network,
        "ci95_half_width": half_width,
        "offered_total": offered_total,
        "blocked_total": blocked_total,
    }


@pytest.mark.parametrize(
    "offered, blocked",
    [
        # two replications of two demands, the second of which offers nothing
        ([[7, 0], [9, 0]], [[3, 0], [1, 0]]),
        # three of three, the last replication offering nothing at all
        ([[5, 0, 11], [4, 0, 6], [0, 0, 0]], [[2, 0, 3], [0, 0, 5], [0, 0, 0]]),
        # one replication measures no interval
        ([[12, 0]], [[5, 0]]),
    ],
)
def test_result_derives_its_totals_and_rates_from_the_counts(offered, blocked):
    result = SimResult(offered, blocked, warmup=2.0, horizon=9.5)
    expected = _aggregate(offered, blocked)
    assert {name: getattr(result, name) for name in expected} == expected
    assert (result.ci95_half_width is None) == (len(offered) == 1)
    assert result.fallback_admissions == 0
    assert vars(result) == {
        "per_replication_offered": offered,
        "per_replication_blocked": blocked,
        "warmup": 2.0,
        "horizon": 9.5,
        "fallback_admissions": 0,
    }


def test_interval_imports_scipy_only_when_read_over_replications():
    code = (
        "import sys\n"
        "from eonspectra.simulator import SimResult\n"
        "one = SimResult([[3, 1]], [[1, 0]], 0.0, 1.0)\n"
        "two = SimResult([[3, 1], [4, 2]], [[1, 0], [2, 1]], 0.0, 1.0)\n"
        "print(one.ci95_half_width, two.network_blocking_prob, 'scipy' in sys.modules)\n"
        "print(two.ci95_half_width > 0, 'scipy' in sys.modules)\n"
    )
    src = str(Path(eonspectra.__file__).parents[1])  # the package under test
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.split("\n")[:2] == ["None 0.4 False", "True True"]


def test_trace_of_several_replications_marks_each_replication():
    # each replication restarts time and connection ids, so without a mark
    # the second replication's events read as more events of the first
    g = nsf14()
    demands = nsf14_demands(g)
    routes = route_all(g, demands)
    config = SimConfig(seed=1, warmup=0.0, horizon=1.0, replications=2)
    lines = []
    simulate(g, demands, {}, config, trace=lines.append)
    marks = [i for i, line in enumerate(lines) if line.startswith("replication")]
    assert [lines[i] for i in marks] == ["replication 0\n", "replication 1\n"]
    assert marks[0] == 0
    for rep, events in enumerate((lines[1 : marks[1]], lines[marks[1] + 1 :])):
        alone = []
        _run_replication(g, demands, routes, {}, config, 0.0, 1.0, alone.append, rep)
        assert events == alone
        assert any(event.split()[-1] == "conn=1" or " conn=1 " in event for event in events)
    # one replication: the trace is its events alone, with no mark
    single = []
    simulate(g, demands, {}, SimConfig(seed=1, warmup=0.0, horizon=1.0), trace=single.append)
    assert single == lines[1 : marks[1]]


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(replications=0)
    with pytest.raises(ValueError):
        SimConfig(warmup=10.0, horizon=5.0)
    # a non-finite horizon would never end the event loop
    for kwargs in ({"warmup": math.nan}, {"warmup": math.inf}, {"warmup": -1.0},
                   {"horizon": math.nan}, {"horizon": math.inf}, {"replications": 0},
                   {"seed": -1}):
        with pytest.raises(InputError):
            SimConfig(**kwargs)
    # counts and seeds are ints, checked when the config is built
    for value in (2.5, True, 1.0, "3"):
        for name in ("replications", "seed"):
            with pytest.raises(InputError, match=name):
                SimConfig(**{name: value})
    # the default horizon offers 1e4 requests to the slowest demand: inf here
    with pytest.raises(InputError):
        resolve_windows([DemandSpec(1, 2, 1e-320, 1.0, {1: 1.0})], SimConfig())


@pytest.mark.parametrize("case", ["longer", "shorter", "other ends"])
def test_routes_not_aligned_with_demands_are_rejected(case, monkeypatch):
    g = nsf14()
    demands = nsf14_demands(g)[:6]
    routes = route_all(g, demands)
    mirrored = type(routes[2])(nodes=routes[2].nodes[::-1], links=routes[2].links)
    routes = {
        "longer": routes + route_all(g, nsf14_demands(g)[6:7]),
        "shorter": routes[:-1],
        "other ends": routes[:2] + [mirrored] + routes[3:],
    }[case]

    def no_replication(*args):
        raise AssertionError("simulated before checking the routes")

    monkeypatch.setattr(eonspectra.simulator, "_run_replication", no_replication)
    with pytest.raises(InputError):
        simulate(g, demands, {}, SimConfig(seed=0, warmup=0.0, horizon=1.0), routes=routes)


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
    requests = []  # (time, slots, hold), one scalar draw at a time
    t = 0.0
    for _ in range((2 * _REFILL + 1) * _WINDOW):
        t += reference.exponential(1.0 / demand.rate)
        if len(values) == 1:
            slots = values[0]
        else:
            u = reference.random()
            slots = values[int(np.searchsorted(cumulative, u, side="right").clip(0, len(values) - 1))]
        requests.append((t, slots, reference.exponential(demand.hold)))

    # block draws of several sizes, each continuing from the last drawn time
    draw = _request_blocks(demand, np.random.default_rng(31))
    drawn, last = [], 0.0
    for n in (1, 5, 40, 3, 200):
        times, slots, holds = draw(last, n)
        drawn += zip(times.tolist(), slots.tolist(), holds.tolist())
        last = float(times[-1])
    assert drawn == requests[: len(drawn)]

    # the schedule of this demand alone: more windows than one refill
    # covers, so refills continue the stream across window ends
    horizon = requests[-1][0]
    windows = list(_arrival_windows([demand], [np.random.default_rng(31)], horizon))
    assert len(windows) > 2 * _REFILL
    scheduled = [(t, s, h) for window in windows for t, d, s, h in window]
    assert scheduled == requests


def test_window_ends_strictly_increase():
    assert list(_window_ends(0.4, 1.0)) == [0.4, 0.8, 1.0]
    # a span below the float spacing, as when the demands' summed rate
    # overflows to inf: each end is still one float step past the last
    ends = [0.0, *islice(_window_ends(0.0, 1.0), 5)]
    assert all(a < b for a, b in zip(ends, ends[1:]))


def test_bounded_draws_equal_generator_integers():
    sizes = np.random.default_rng(99).integers(2, 5001, 20_000).tolist()
    # 2**32 mod n of the low products are rejected: about half of the draws
    # at 2**31 + 1, a quarter at 3 * 2**30 + 1, almost none near 2**32
    edges = [2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 2, 2**32 - 1] * 300
    for seed in range(10):
        draws = _BoundedDraws(np.random.default_rng(seed))
        reference = np.random.default_rng(seed)
        # about 22k values: some 43 refills of 512
        for n in [1, *sizes, *edges, 1, 2, 3]:
            assert draws.integers(n, dtype=np.int64) == reference.integers(n, dtype=np.int64)
    for n in (0, -3, 2**32, 2**40):
        with pytest.raises(ValueError):
            draws.integers(n, dtype=np.int64)


@pytest.mark.parametrize(
    "spec", ["simple", "share_per_node:1", "share_per_link:1", "full", "share_per_node:2"]
)
def test_fast_draws_leave_the_sample_path_unchanged(spec, monkeypatch):
    from eonspectra.cli import parse_arch_sweep

    g = nsf14()
    demands = [
        DemandSpec(d.src, d.dst, d.rate, d.hold, {1: 0.2, 2: 0.5, 3: 0.3}) if i % 3 == 0 else d
        for i, d in enumerate(generate_demands(g, seed=12, slots_range=(1, 3), traffic_target=0.4))
    ]
    (_, archs), = parse_arch_sweep(spec, g)
    config = SimConfig(seed=21, warmup=5.0, horizon=150.0, replications=2)

    def run():
        lines = []
        result = simulate(g, demands, archs, config, trace=lines.append)
        return result, "".join(lines)

    fast, fast_trace = run()
    monkeypatch.setattr(eonspectra.simulator, "_BoundedDraws", lambda rng: rng)
    reference, reference_trace = run()
    assert fast == reference
    assert fast_trace == reference_trace
    assert fast.blocked_total > 0
    assert ("), (" in fast_trace) == (spec != "simple")  # some connection converts


def _mixed_nsf_demands(g):
    return [
        DemandSpec(d.src, d.dst, d.rate, d.hold, {1: 0.2, 2: 0.5, 3: 0.3}) if i % 3 == 0 else d
        for i, d in enumerate(generate_demands(g, seed=12, slots_range=(1, 3), traffic_target=0.4))
    ]


def _merge_case(case):
    """(graph, demands, architectures, config, windows per replication or None)."""
    if case in ("simple", "share_per_node:1", "share_per_link:1", "full"):
        from eonspectra.cli import parse_arch_sweep

        g = nsf14()
        (_, archs), = parse_arch_sweep(case, g)
        return g, _mixed_nsf_demands(g), archs, SimConfig(seed=4, warmup=5.0, horizon=60.0,
                                                          replications=2), None
    g = line(4, 4)
    archs = {2: NodeArchitecture(SHARE_PER_NODE, 1), 3: NodeArchitecture(FULL)}
    mixed = [
        DemandSpec(1, 4, 1.5, 1.0, {1: 0.3, 2: 0.5, 3: 0.2}),
        DemandSpec(1, 3, 1.0, 1.0, {2: 1.0}),
        DemandSpec(2, 4, 1.2, 0.8, {1: 1.0}),
        DemandSpec(3, 4, 0.8, 1.2, {1: 0.5, 3: 0.5}),
    ]
    span = _WINDOW / sum(d.rate for d in mixed)
    if case == "warmup 0":
        return g, mixed, archs, SimConfig(seed=5, warmup=0.0, horizon=300.0), None
    if case == "horizon inside a window":
        return g, mixed, archs, SimConfig(seed=6, warmup=20.0, horizon=2.5 * span), 3
    if case == "one window":
        slow = [DemandSpec(d.src, d.dst, d.rate / 100, d.hold, d.slot_pmf) for d in mixed]
        return g, slow, archs, SimConfig(seed=7, warmup=1.0, horizon=3000.0, replications=2), 1
    if case == "20 windows":
        return g, mixed, archs, SimConfig(seed=8, warmup=5.0, horizon=20.5 * span), 21
    if case == "one fast demand":
        fast = [DemandSpec(2, 3, 400.0, 0.01, {1: 0.5, 2: 0.5})]
        slow = [DemandSpec(d.src, d.dst, d.rate / 50, d.hold, d.slot_pmf) for d in mixed]
        return g, slow[:2] + fast + slow[2:], archs, SimConfig(seed=9, warmup=2.0, horizon=40.0), None
    assert case == "no demands"
    return g, [], archs, SimConfig(seed=10, warmup=1.0, horizon=50.0), None


@pytest.mark.parametrize(
    "case",
    ["simple", "share_per_node:1", "share_per_link:1", "full", "warmup 0",
     "horizon inside a window", "one window", "20 windows", "one fast demand", "no demands"],
)
def test_merged_schedule_equals_the_heap_loop(case, monkeypatch):
    # the merged schedule orders ties differently from the heap (departures
    # first, then demand order); no two events share a time in these runs
    g, demands, archs, config, windows = _merge_case(case)
    schedules = []

    def counted_windows(*args):
        schedules.append(0)
        for window in _arrival_windows(*args):
            schedules[-1] += 1
            yield window

    def run():
        lines = []
        result = simulate(g, demands, archs, config, trace=lines.append)
        return result, "".join(lines)

    monkeypatch.setattr(eonspectra.simulator, "_arrival_windows", counted_windows)
    merged, merged_trace = run()
    monkeypatch.setattr(eonspectra.simulator, "_run_replication", heap_replication)
    heap, heap_trace = run()
    assert merged.per_replication_offered == heap.per_replication_offered
    assert merged.per_replication_blocked == heap.per_replication_blocked
    assert merged_trace == heap_trace
    if windows is not None:
        assert schedules == [windows] * config.replications
    if not demands:
        assert merged_trace == "" and merged.offered_total == 0
    elif case == "one window":
        # after the last arrival, departures up to the horizon are still traced
        assert merged_trace.splitlines()[-1].split()[1] == "departure"
    else:
        assert merged.blocked_total > 0


def test_pick_start_matches_list_based_pick():
    masks = np.random.default_rng(5)
    rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(1000):
        starts = int(masks.integers(1, 1 << 16))
        assert _pick_start(starts, rng_a) == pick_start_from_list(starts, rng_b)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_window_starts_match_a_bit_scan():
    for mask in range(1 << 10):
        for min_run in range(1, 12):
            scan = _window_starts_of(mask, min_run, 10)
            assert _window_starts(mask, min_run) == scan, (bin(mask), min_run)


@pytest.mark.parametrize("source", ["bounded", "generator"])
@pytest.mark.parametrize("slot_count", [4, 8, 16])
def test_admit_picks_the_continuity_start_by_the_window_rule(slot_count, source):
    # admit's in-place continuity pick against _pick_start(_window_starts(...))
    # on a twin draw source: same start, same draws
    g = line(2, slot_count)
    path = route(g, 1, 2)
    (lid,) = path.link_ids
    full = (1 << slot_count) - 1
    generators = np.random.default_rng(31), np.random.default_rng(31)
    if source == "bounded":
        rng, twin = (_BoundedDraws(gen) for gen in generators)
    else:
        rng, twin = generators
    cases = np.random.default_rng(slot_count)
    accepted = 0
    for _ in range(2000):
        state = make_state(g)
        state.occupied[lid] = occupancy = int(cases.integers(0, full + 1))
        slots = int(cases.integers(1, slot_count + 1))
        conn = admit(state, path, slots, rng)
        starts = _window_starts(full & ~occupancy, slots)
        if not starts:
            assert conn is None and state.occupied[lid] == occupancy
            continue
        (start, links), = state.connections[conn].segments
        assert links == path.link_ids
        assert start == _pick_start(starts, twin)
        assert state.occupied[lid] == occupancy | ((1 << slots) - 1) << start
        accepted += 1
    assert 200 < accepted < 1800  # both branches, many times
    for slots in range(slot_count + 1, slot_count + 4):  # wider than the fiber
        assert admit(make_state(g), path, slots, rng) is None
    assert generators[0].bit_generator.state == generators[1].bit_generator.state
    assert rng.integers(1 << 31) == twin.integers(1 << 31)


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


def test_zero_probability_rows_leave_the_sample_path_unchanged():
    # a zero row must not send the slot draws down the per-request path,
    # which takes one uniform per request from the demand's stream
    g = nsf14()
    archs = uniform_architectures(g, NodeArchitecture(FULL))
    config = SimConfig(seed=3, warmup=10.0, horizon=60.0)
    results = [
        simulate(g, [DemandSpec(d.src, d.dst, d.rate, d.hold, pmf) for d in nsf14_demands(g)],
                 archs, config)
        for pmf in ({2: 1.0}, {2: 1.0, 3: 0.0})
    ]
    assert results[1].per_replication_offered == results[0].per_replication_offered
    assert results[1].per_replication_blocked == results[0].per_replication_blocked
