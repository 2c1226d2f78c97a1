"""Discrete-event Monte Carlo of online spectrum assignment.

Requests arrive as merged Poisson streams, hold exponentially and ask for
S contiguous slots on their precomputed shortest path.  Admission uses the
fewest conversions that carry the request, on every route, with ties going
to the earliest converters: first try a window that is free on the whole
path; only when continuity fails, one scan over the usable converters
finds the fewest cut points, and each resulting segment is placed with
Random Fit in path order.  Converter boxes are scarce: a shared bank
grants one box per conversion and holds it for the whole connection.

Per-link occupancy lives in Python integer bitmasks (bit s set = slot s
occupied), which keeps the per-event work to a few dozen integer ops.

Each demand draws its requests from its own generator.  Where the slot
count is fixed, the inter-arrival and holding exponentials come in blocks
of ``_BLOCK`` requests; the values, and so the sample paths, are the same
bit for bit as with one scalar draw per request.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import count
from typing import NamedTuple

import numpy as np

from .errors import InputError, SimulatorFault
from .lightpath import SIMPLE_NODE, ArchitectureMap, Bank, bank_key
from .topology import DemandSpec, NetworkGraph, RoutedPath, route_all

_ARRIVAL, _DEPART = 0, 1
_BLOCK = 32  # requests per bulk draw of a single-valued demand's exponentials


@dataclass
class SimConfig:
    seed: int = 0
    warmup: float | None = None  # default: 10 mean holding times
    horizon: float | None = None  # default: warmup + enough for 1e4 offers per demand
    replications: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise InputError("replications must be >= 1")
        if self.warmup is not None and not (math.isfinite(self.warmup) and self.warmup >= 0):
            raise InputError(f"warmup must be finite and >= 0, got {self.warmup}")
        if self.horizon is not None and not math.isfinite(self.horizon):
            raise InputError(f"horizon must be finite, got {self.horizon}")
        if (
            self.warmup is not None
            and self.horizon is not None
            and self.horizon <= self.warmup
        ):
            raise InputError("horizon must exceed warmup")


class Connection(NamedTuple):
    id: int
    slots: int
    segments: tuple[tuple[int, tuple[int, ...]], ...]  # (start slot, link ids)
    banks: tuple[Bank, ...]


class NetworkState:
    """Mutable spectrum and converter-bank state of one replication.

    ``converters`` maps (node, exit link id) to the ``bank_key`` of the
    bank that grants a conversion there, the same bank the analytic engine
    counts, or None for a full node, which has no finite bank; nodes
    without conversion have no entry.
    """

    def __init__(self, graph: NetworkGraph, archs: ArchitectureMap):
        self.slot_count = graph.slot_count
        self.full_mask = (1 << graph.slot_count) - 1
        self.occupied = {link.id: 0 for link in graph.links}
        self.converters: dict[tuple[int, int], Bank | None] = {}
        self.bank_capacity: dict[Bank, int] = {}
        for node in graph.nodes:
            arch = archs.get(node, SIMPLE_NODE)
            if not arch.converts:
                continue
            for link in graph.out_links(node):
                key = bank_key(node, link.id, arch)
                if key is not None:
                    self.bank_capacity[key] = arch.n_sc
                self.converters[(node, link.id)] = key
        self.bank_in_use = dict.fromkeys(self.bank_capacity, 0)
        self.connections: dict[int, Connection] = {}
        self.next_id = 1

    def verify_conservation(self):
        """Cross-check masks and bank counters against the ledger."""
        expected = {lid: 0 for lid in self.occupied}
        banks = {key: 0 for key in self.bank_in_use}
        for conn in self.connections.values():
            for _start, link_ids in conn.segments:
                for lid in link_ids:
                    expected[lid] += conn.slots
            for key in conn.banks:
                banks[key] += 1
        for lid, occ in self.occupied.items():
            if occ.bit_count() != expected[lid]:
                raise SimulatorFault(
                    f"link {lid}: {occ.bit_count()} slots occupied, ledger says {expected[lid]}"
                )
        for key, used in self.bank_in_use.items():
            if used != banks[key]:
                raise SimulatorFault(f"bank {key}: counter {used}, ledger says {banks[key]}")


def _window_starts(mask: int, min_run: int, limit: int) -> int:
    """Bit i set in the result when slots i..i+min_run-1 are all set in mask."""
    result = mask
    for shift in range(1, min_run):
        result &= mask >> shift
        if not result:
            return 0
    return result & limit


def _pick_start(starts: int, rng) -> int:
    """Uniformly chosen set bit of ``starts``: the k-th lowest, for one
    ``rng.integers(candidates)`` draw.  A single candidate costs no draw."""
    candidates = starts.bit_count()
    if candidates > 1:
        for _ in range(int(rng.integers(candidates, dtype=np.int64))):
            starts &= starts - 1
    return (starts & -starts).bit_length() - 1


def admit(
    state: NetworkState,
    route: RoutedPath,
    slots: int,
    rng,
) -> int | None:
    """Try to carry a request for ``slots`` contiguous slots on ``route``.

    Returns the new connection id, or None when blocked.  Accepting
    mutates the state: slots are marked occupied and one converter box is
    drawn from the bank of every conversion point used.
    """
    if slots > state.slot_count:
        return None
    occupied = state.occupied
    link_ids = route.link_ids
    hops = len(link_ids)
    full = state.full_mask
    limit = (1 << (state.slot_count - slots + 1)) - 1

    busy = 0
    for lid in link_ids:
        busy |= occupied[lid]
    starts = _window_starts(full & ~busy, slots, limit)
    if starts:
        start = _pick_start(starts, rng)
        return _allocate(state, route, slots, [(1, hops + 1, start)], ())

    # continuity failed: gather converters whose bank still has a free box
    converters = state.converters
    in_use, capacity = state.bank_in_use, state.bank_capacity
    usable: dict[int, Bank | None] = {}  # path position -> bank key
    for pos in range(2, hops + 1):
        cut = (route.nodes[pos - 1], link_ids[pos - 1])
        if cut not in converters:
            continue
        key = converters[cut]
        if key is None or in_use[key] < capacity[key]:
            usable[pos] = key
    if not usable:
        return None

    # fewest cuts: plan[a] = (cuts after a, next cut, window starts of the
    # segment a..next cut) for every start a that can reach the destination.
    # Latest start first, so each later start is solved before it is needed;
    # ties keep the earliest cut, which makes the chosen set the
    # lexicographically first of the smallest ones.
    free = [full & ~occupied[lid] for lid in link_ids]
    end = hops + 1
    plan: dict[int, tuple[int, int, int]] = {}
    for a in [*reversed(usable), 1]:
        mask = full
        for b in range(a + 1, end + 1):
            mask &= free[b - 2]
            starts = _window_starts(mask, slots, limit)
            if not starts:
                break
            if b == end:
                plan[a] = (0, end, starts)
            elif b in plan and (a not in plan or plan[b][0] + 1 < plan[a][0]):
                plan[a] = (plan[b][0] + 1, b, starts)
    if 1 not in plan:
        return None
    segments = []
    banks = []
    a = 1
    while a != end:
        _, b, starts = plan[a]
        segments.append((a, b, _pick_start(starts, rng)))
        if b != end and usable[b] is not None:
            banks.append(usable[b])
        a = b
    return _allocate(state, route, slots, segments, tuple(banks))


def _allocate(state, route, slots, segments, banks) -> int:
    window = (1 << slots) - 1
    occupied = state.occupied
    route_ids = route.link_ids
    stored = []
    for a, b, start in segments:
        link_ids = route_ids[a - 1 : b - 1]
        shifted = window << start
        for lid in link_ids:
            mask = occupied[lid]
            if mask & shifted:
                raise SimulatorFault(f"double allocation on link {lid}")
            occupied[lid] = mask | shifted
        stored.append((start, link_ids))
    in_use = state.bank_in_use
    for key in banks:
        in_use[key] += 1
    conn_id = state.next_id
    state.connections[conn_id] = Connection(conn_id, slots, tuple(stored), tuple(banks))
    state.next_id = conn_id + 1
    return conn_id


def release(state: NetworkState, conn_id: int):
    """Free a connection's slots and converter boxes."""
    conn = state.connections.pop(conn_id, None)
    if conn is None:
        raise SimulatorFault(f"release of unknown connection {conn_id}")
    window = (1 << conn.slots) - 1
    occupied = state.occupied
    for start, link_ids in conn.segments:
        shifted = window << start
        for lid in link_ids:
            mask = occupied[lid]
            if mask & shifted != shifted:
                raise SimulatorFault(f"releasing slots not held on link {lid}")
            occupied[lid] = mask ^ shifted
    in_use = state.bank_in_use
    for key in conn.banks:
        in_use[key] -= 1


# ---------------------------------------------------------------------------
# event loop


@dataclass
class SimResult:
    demand_offered: list[int]
    demand_blocked: list[int]
    demand_blocking: list[float]
    replication_blockings: list[float]
    network_blocking_prob: float
    ci95_half_width: float
    offered_total: int
    blocked_total: int
    fallback_admissions: int  # always 0: admission has no fallback path
    warmup: float
    horizon: float
    per_replication_offered: list[list[int]] = field(default_factory=list)
    per_replication_blocked: list[list[int]] = field(default_factory=list)


def _requests(demand: DemandSpec, rng):
    """Endless ``(gap, slots, hold)`` of one demand's successive requests.

    The values equal one ``rng.exponential(1 / rate)``, one slot draw and
    one ``rng.exponential(hold)`` per request, in that order.  For a
    single-valued pmf the slot draw takes nothing from ``rng``, so the
    exponentials come ``_BLOCK`` requests at a time: ``exponential(scale)``
    is ``scale * standard_exponential()`` bit for bit.
    """
    scale = 1.0 / demand.rate
    hold = demand.hold
    items = sorted(demand.slot_pmf.items())
    if len(items) == 1:
        slots = items[0][0]
        while True:
            draws = rng.standard_exponential(2 * _BLOCK).tolist()
            for i in range(0, 2 * _BLOCK, 2):
                yield draws[i] * scale, slots, draws[i + 1] * hold
    values = [s for s, _ in items]
    cumulative = np.cumsum([p for _, p in items]).tolist()
    last = len(values) - 1
    exponential, uniform = rng.standard_exponential, rng.random
    while True:
        gap = exponential() * scale
        slots = values[min(bisect_right(cumulative, uniform()), last)]
        yield gap, slots, exponential() * hold


def _run_replication(graph, demands, routes, archs, config, warmup, horizon, trace, rep):
    entropy = np.random.SeedSequence(entropy=(config.seed, rep))
    children = entropy.spawn(len(demands) + 1)
    next_request = [
        _requests(d, np.random.default_rng(c)).__next__ for d, c in zip(demands, children)
    ]
    admit_rng = np.random.default_rng(children[-1])

    state = NetworkState(graph, archs)
    heap: list[tuple] = []
    push, pop = heapq.heappush, heapq.heappop
    seq = count()
    for d_idx, draw in enumerate(next_request):
        gap, s, hold = draw()
        push(heap, (gap, next(seq), _ARRIVAL, d_idx, s, hold))

    offered = [0] * len(demands)
    blocked = [0] * len(demands)
    while heap:
        event = pop(heap)
        t = event[0]
        if t > horizon:
            break
        if event[2] == _ARRIVAL:
            _, _, _, d_idx, s, hold = event
            gap, next_s, next_hold = next_request[d_idx]()
            push(heap, (t + gap, next(seq), _ARRIVAL, d_idx, next_s, next_hold))
            counted = t > warmup
            if counted:
                offered[d_idx] += 1
            conn_id = admit(state, routes[d_idx], s, admit_rng)
            if conn_id is None:
                if counted:
                    blocked[d_idx] += 1
                if trace is not None:
                    trace(f"{t:.6f} arrival demand={d_idx} slots={s} blocked\n")
            else:
                push(heap, (t + hold, next(seq), _DEPART, conn_id, 0, 0.0))
                if trace is not None:
                    segs = state.connections[conn_id].segments
                    trace(
                        f"{t:.6f} arrival demand={d_idx} slots={s} "
                        f"accepted conn={conn_id} segments={segs}\n"
                    )
        else:
            release(state, event[3])
            if trace is not None:
                trace(f"{t:.6f} departure conn={event[3]}\n")
    return offered, blocked


def resolve_windows(demands: list[DemandSpec], config: SimConfig) -> tuple[float, float]:
    """Fill in default warmup (10 mean holds) and horizon (offers at least
    1e4 requests for the slowest demand)."""
    warmup = config.warmup
    if warmup is None:
        warmup = 10.0 * max(d.hold for d in demands) if demands else 0.0
    horizon = config.horizon
    if horizon is None:
        slowest = min((d.rate for d in demands), default=1.0)
        horizon = warmup + 1e4 / slowest
    if not (math.isfinite(warmup) and math.isfinite(horizon)):
        raise InputError(f"warmup {warmup} and horizon {horizon} must be finite")
    if horizon <= warmup:
        raise InputError("horizon must exceed warmup")
    return warmup, horizon


def simulate(
    graph: NetworkGraph,
    demands: list[DemandSpec],
    archs: ArchitectureMap,
    config: SimConfig | None = None,
    routes: list[RoutedPath] | None = None,
    trace=None,
) -> SimResult:
    """Run ``config.replications`` independent replications and aggregate.

    Replication r draws every stream from (seed, r), so results are
    reproducible bit for bit.  ``trace``, when given, is a callable
    receiving one text line per event.
    """
    config = config or SimConfig()
    if routes is None:
        routes = route_all(graph, demands)
    warmup, horizon = resolve_windows(demands, config)
    outcomes = [
        _run_replication(graph, demands, routes, archs, config, warmup, horizon, trace, rep)
        for rep in range(config.replications)
    ]

    per_offered = [o for o, _ in outcomes]
    per_blocked = [b for _, b in outcomes]

    demand_offered = [sum(o[i] for o in per_offered) for i in range(len(demands))]
    demand_blocked = [sum(b[i] for b in per_blocked) for i in range(len(demands))]
    demand_blocking = [
        (b / o) if o else 0.0 for b, o in zip(demand_blocked, demand_offered)
    ]
    rep_blockings = []
    for o, b in zip(per_offered, per_blocked):
        total_o, total_b = sum(o), sum(b)
        rep_blockings.append((total_b / total_o) if total_o else 0.0)
    offered_total = sum(demand_offered)
    blocked_total = sum(demand_blocked)
    network = (blocked_total / offered_total) if offered_total else 0.0
    if len(rep_blockings) > 1:
        from scipy import stats as sps  # about 1 s to import: only where it is used

        spread = float(np.std(rep_blockings, ddof=1)) / math.sqrt(len(rep_blockings))
        half_width = float(sps.t.ppf(0.975, len(rep_blockings) - 1)) * spread
    else:
        half_width = 0.0
    return SimResult(
        demand_offered=demand_offered,
        demand_blocked=demand_blocked,
        demand_blocking=demand_blocking,
        replication_blockings=rep_blockings,
        network_blocking_prob=network,
        ci95_half_width=half_width,
        offered_total=offered_total,
        blocked_total=blocked_total,
        fallback_admissions=0,
        warmup=warmup,
        horizon=horizon,
        per_replication_offered=per_offered,
        per_replication_blocked=per_blocked,
    )
