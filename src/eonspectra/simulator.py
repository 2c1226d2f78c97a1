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
occupied), one per link id in a list, which keeps the per-event work to a
few dozen integer ops.  Most arrivals find a continuous window (OR the
route's masks, shift-AND for the window starts, pick one) before any
converter is looked at.  ``admit`` computes those window starts and the
Random Fit pick in place: every arrival runs this test first, and calls
to ``_window_starts`` and ``_pick_start`` cost about as much as the few
shifts and bit operations they wrap (written out, they took 5.8% off the
nsf-sim benchmark's pass time on a 2-vCPU virtual machine).  The two
functions stay the rule: the fewest-cuts search calls them, and a test
checks ``admit``'s continuity pick against them.  Most of the rest are
blocked because one link has no window of its own, which no segmentation
can cure; that test also comes before the scan.  Either way the pick is a
tuple of ``(start slot, link ids)`` segments and one of bank keys, and one
accept path marks the slots, takes the boxes and stores the connection.
Masks hold no bit at or above F, so no window start exceeds F - S and
none needs masking, and a request for more than F slots finds no window:
it is blocked with no draw.

Each demand draws its requests from its own generator, ahead of time and
in blocks: where the slot count is fixed, the inter-arrival and holding
exponentials of a block come from one array call, and a pmf keeps one
scalar gap, slot and hold draw per request.  Arrival times are the
cumulative sum of the gaps, continued from the demand's last drawn time,
so every value is bit for bit that of one scalar draw per request and
``t + gap``.  The event schedule merges the demands' arrivals one window
at a time: a window spans about ``_WINDOW`` expected arrivals (the last
one ends at the horizon), and its arrivals are sorted once and replayed
from plain lists.  A demand draws about ``_REFILL`` windows' worth of
requests, and draws again only when its last drawn arrival is not past
the window's end.  Departures wait in a heap of (time, connection id).
Ties: departures at time t go before an arrival at t, in connection
order, and arrivals at equal times go in demand order.  This order can
differ from that of one heap of every event, keyed by time and creation
order, only when two events share one float time.  The schedule ends
with one event at the horizon (demand -1) that admits nothing, so the
loop that releases departures before each arrival also releases the last
ones, up to the horizon.

Random Fit picks the k-th free window for one draw k uniform on
[0, candidates).  In a run these draws come from ``_BoundedDraws``, which
reads the admission generator's PCG64 raw 64-bit words in blocks, splits
each into two 32-bit values (low half first, as PCG64's ``next_uint32``
does) and applies the 32-bit Lemire multiply-and-reject that
``Generator.integers`` uses below 2**32 (Lemire, "Fast random integer
generation in an interval", ACM TOMACS 2019).  The values equal
``Generator.integers(candidates, dtype=np.int64)`` bit for bit, without
its per-call cost of about a microsecond.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import InputError, SimulatorFault
from .lightpath import SIMPLE_NODE, ArchitectureMap, Bank, bank_key
from .topology import DemandSpec, NetworkGraph, RoutedPath, _integer, demand_routes

_WINDOW = 4096  # expected arrivals per window of the merged arrival schedule
_REFILL = 3  # windows' worth of requests a demand draws at a time
_WORDS = 256  # raw 64-bit words per refill of _BoundedDraws


@dataclass
class SimConfig:
    seed: int = 0
    warmup: float | None = None  # default: 10 mean holding times
    horizon: float | None = None  # default: warmup + enough for 1e4 offers per demand
    replications: int = 1

    def __post_init__(self):
        _integer(self.replications, "replications", InputError, 1)
        _integer(self.seed, "seed", InputError, 0)
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


# builds a Connection from its field tuple, skipping the NamedTuple's
# generated keyword-handling __new__ on the admission hot path
_new = tuple.__new__


class NetworkState:
    """Mutable spectrum and converter-bank state of one replication.

    ``occupied[link id]`` is that link's slot bitmask.
    ``converters`` maps (node, exit link id) to the ``bank_key`` of the
    bank that grants a conversion there, the same bank the analytic engine
    counts, or None for a full node, which has no finite bank; nodes
    without conversion have no entry.
    """

    def __init__(self, graph: NetworkGraph, archs: ArchitectureMap):
        self.full_mask = (1 << graph.slot_count) - 1
        self.occupied = [0] * (max((link.id for link in graph.links), default=-1) + 1)
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


def _window_starts(mask: int, min_run: int) -> int:
    """Bit i set in the result when slots i..i+min_run-1 are all set in mask."""
    result = mask
    for shift in range(1, min_run):
        result &= mask >> shift
        if not result:
            return 0
    return result


class _BoundedDraws:
    """``integers(n, dtype=np.int64)`` of a PCG64 ``Generator``, bit for
    bit, from its raw words (see the module docstring).

    The words are fetched ``_WORDS`` at a time, so ``rng`` must make no
    other draw while this object is in use.  Values come back as ``int``.
    """

    __slots__ = ("_raw", "_next")

    def __init__(self, rng: np.random.Generator):
        self._raw = rng.bit_generator.random_raw
        self._next = iter(()).__next__

    def _word(self) -> int:
        """Next 32-bit value, fetching a block of raw words when one is spent."""
        try:
            return self._next()
        except StopIteration:
            words = self._raw(_WORDS).astype("<u8", copy=False).view("<u4")
            self._next = iter(words.tolist()).__next__
            return self._next()

    def integers(self, n: int, dtype=np.int64) -> int:
        if not 1 < n < 1 << 32:
            if n == 1:  # one value: Generator.integers draws nothing
                return 0
            raise ValueError(f"bounded draw needs 1 <= n < 2**32, got {n}")
        try:
            m = self._next() * n
        except StopIteration:
            m = self._word() * n
        if m & 0xFFFFFFFF < n:
            threshold = (1 << 32) % n  # Lemire: reject the 2**32 mod n low values
            while m & 0xFFFFFFFF < threshold:
                m = self._word() * n
        return m >> 32


def _pick_start(starts: int, rng) -> int:
    """Uniformly chosen set bit of ``starts``: the k-th lowest, for one
    ``rng.integers(candidates)`` draw.  A single candidate costs no draw."""
    candidates = starts.bit_count()
    if candidates > 1:
        for _ in range(rng.integers(candidates)):
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
    occupied = state.occupied
    link_ids = route.link_ids

    # continuity: Random Fit over the windows free on every link, with
    # _window_starts and _pick_start written out in place
    busy = 0
    for lid in link_ids:
        busy |= occupied[lid]
    starts = free = state.full_mask & ~busy
    for shift in range(1, slots):
        starts &= free >> shift
        if not starts:
            break
    if starts:
        candidates = starts.bit_count()
        if candidates > 1:
            for _ in range(rng.integers(candidates)):
                starts &= starts - 1
        segments = (((starts & -starts).bit_length() - 1, link_ids),)
        banks = ()
    else:
        converted = _fewest_cuts(state, route, slots, rng)
        if converted is None:
            return None
        segments, banks = converted

    window = (1 << slots) - 1
    for start, segment_links in segments:
        shifted = window << start
        for lid in segment_links:
            mask = occupied[lid]
            if mask & shifted:
                raise SimulatorFault(f"double allocation on link {lid}")
            occupied[lid] = mask | shifted
    in_use = state.bank_in_use
    for key in banks:
        in_use[key] += 1
    conn_id = state.next_id
    state.connections[conn_id] = _new(Connection, (conn_id, slots, segments, banks))
    state.next_id = conn_id + 1
    return conn_id


def _fewest_cuts(state: NetworkState, route: RoutedPath, slots: int, rng):
    """The ``(segments, banks)`` of a request that continuity cannot carry,
    or None when no conversion can: the fewest usable cut points, earliest
    first, with each segment's ``(start slot, link ids)`` placed by Random
    Fit in path order and the bank key of every cut whose bank is finite."""
    converters = state.converters
    if not converters:
        return None
    occupied = state.occupied
    link_ids = route.link_ids
    full = state.full_mask
    # Every segment's window is free on each of its links, so a link with
    # no window of its own blocks whatever converts.
    free = []
    for lid in link_ids:
        mask = full & ~occupied[lid]
        if not _window_starts(mask, slots):
            return None
        free.append(mask)

    # gather converters whose bank still has a free box
    hops = len(link_ids)
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
    end = hops + 1
    plan: dict[int, tuple[int, int, int]] = {}
    for a in [*reversed(usable), 1]:
        mask = full
        for b in range(a + 1, end + 1):
            mask &= free[b - 2]
            starts = _window_starts(mask, slots)
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
        segments.append((_pick_start(starts, rng), link_ids[a - 1 : b - 1]))
        if b != end and usable[b] is not None:
            banks.append(usable[b])
        a = b
    return tuple(segments), tuple(banks)


def release(state: NetworkState, conn_id: int):
    """Free a connection's slots and converter boxes."""
    conn = state.connections.pop(conn_id, None)
    if conn is None:
        raise SimulatorFault(f"release of unknown connection {conn_id}")
    _, slots, segments, banks = conn
    window = (1 << slots) - 1
    occupied = state.occupied
    for start, link_ids in segments:
        shifted = window << start
        for lid in link_ids:
            mask = occupied[lid]
            if mask & shifted != shifted:
                raise SimulatorFault(f"releasing slots not held on link {lid}")
            occupied[lid] = mask ^ shifted
    in_use = state.bank_in_use
    for key in banks:
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
    ci95_half_width: float | None  # None below two replications
    offered_total: int
    blocked_total: int
    fallback_admissions: int  # always 0: admission has no fallback path
    warmup: float
    horizon: float
    per_replication_offered: list[list[int]] = field(default_factory=list)
    per_replication_blocked: list[list[int]] = field(default_factory=list)


def _request_blocks(demand: DemandSpec, rng):
    """``draw(last, n)``: arrays of the arrival times, slot counts and
    holds of one demand's next ``n`` requests, the first arriving one gap
    after ``last``.

    The values equal one ``rng.exponential(1 / rate)``, one slot draw and
    one ``rng.exponential(hold)`` per request, in that order, and each time
    is the previous one plus its gap.  For a single-valued pmf the slot
    draw takes nothing from ``rng``, so the 2n exponentials come in one
    call: ``exponential(scale)`` is ``scale * standard_exponential()`` bit
    for bit.  ``np.cumsum`` adds in sequence, so with ``last`` folded into
    the first gap every time is the scalar ``t + gap``.
    """
    scale = 1.0 / demand.rate
    hold = demand.hold
    items = sorted(demand.slot_pmf.items())
    exponential = rng.standard_exponential
    if len(items) == 1:
        slots = items[0][0]

        def draw(last, n):
            draws = exponential(2 * n)
            gaps = draws[0::2] * scale
            gaps[0] += last
            return np.cumsum(gaps), np.full(n, slots), draws[1::2] * hold

        return draw
    values = [s for s, _ in items]
    cumulative = np.cumsum([p for _, p in items]).tolist()
    top = len(values) - 1
    uniform = rng.random

    def draw(last, n):
        gaps, slot_draws, holds = [], [], []
        for _ in range(n):
            gaps.append(exponential() * scale)
            slot_draws.append(values[min(bisect_right(cumulative, uniform()), top)])
            holds.append(exponential() * hold)
        gaps[0] += last
        return np.cumsum(gaps), np.array(slot_draws), np.array(holds)

    return draw


def _window_ends(span: float, horizon: float):
    """Ends of the schedule's windows: each ``span`` past the previous one,
    or one float step when ``span`` is below the spacing there, and the last
    one at ``horizon``."""
    end = 0.0
    while end < horizon:
        step = end + span
        end = min(horizon, step if step > end else math.nextafter(end, math.inf))
        yield end


def _arrival_windows(demands: list[DemandSpec], rngs, horizon: float):
    """Per window of the merged schedule, one iterator of the
    ``(time, demand index, slots, hold)`` of the arrivals after the previous
    window's end and at or before this one's, in schedule order: by time,
    then demand index, then draw order.

    Windows span about ``_WINDOW`` expected arrivals.  A demand draws about
    ``_REFILL`` windows' worth of requests at a time, and only when its last
    drawn arrival is not past the window's end.
    """
    total = sum(d.rate for d in demands)
    draws = [_request_blocks(d, rng) for d, rng in zip(demands, rngs)]
    sizes = [max(1, math.ceil(_REFILL * _WINDOW * (d.rate / total))) for d in demands]
    due = [(0.0, i) for i in range(len(demands))]  # heap of (last drawn time, demand)
    times = holds = np.empty(0)
    ids = slots = np.empty(0, dtype=np.int64)
    for end in _window_ends(_WINDOW / total, horizon):
        if due[0][0] <= end:
            blocks = [(times, ids, slots, holds)]
            while due[0][0] <= end:
                last, i = due[0]
                block_times, block_slots, block_holds = draws[i](last, sizes[i])
                heapq.heapreplace(due, (float(block_times[-1]), i))
                blocks.append((block_times, np.full(sizes[i], i), block_slots, block_holds))
            times, ids, slots, holds = (np.concatenate(column) for column in zip(*blocks))
            del blocks
        now = times <= end
        due_now = np.flatnonzero(now)
        order = due_now[np.lexsort((ids[due_now], times[due_now]))]
        # the lists live only in the zip, so the caller frees each window's
        # lists before the next ones are built
        yield zip(times[order].tolist(), ids[order].tolist(), slots[order].tolist(),
                  holds[order].tolist())
        later = ~now
        times, ids, slots, holds = times[later], ids[later], slots[later], holds[later]


def _run_replication(graph, demands, routes, archs, config, warmup, horizon, trace, rep):
    offered = [0] * len(demands)
    blocked = [0] * len(demands)
    if not demands:
        return offered, blocked
    entropy = np.random.SeedSequence(entropy=(config.seed, rep))
    children = entropy.spawn(len(demands) + 1)
    windows = _arrival_windows(
        demands, [np.random.default_rng(c) for c in children[:-1]], horizon
    )
    admit_rng = _BoundedDraws(np.random.default_rng(children[-1]))

    state = NetworkState(graph, archs)
    departures: list[tuple[float, int]] = []  # heap of (departure time, conn_id)
    push, pop = heapq.heappush, heapq.heappop
    next_departure = math.inf  # departures[0][0], or inf when none is pending
    # one last event at the horizon (demand -1) releases the departures up to it
    events = chain.from_iterable(chain(windows, ([(horizon, -1, 0, 0.0)],)))
    for t, d_idx, s, hold in events:
        # a departure at the arrival's time goes first
        while next_departure <= t:
            _, conn_id = pop(departures)
            release(state, conn_id)
            if trace is not None:
                trace(f"{next_departure:.6f} departure conn={conn_id}\n")
            next_departure = departures[0][0] if departures else math.inf
        if d_idx < 0:
            break
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
            leaves = t + hold
            push(departures, (leaves, conn_id))
            if leaves < next_departure:
                next_departure = leaves
            if trace is not None:
                segs = state.connections[conn_id].segments
                trace(
                    f"{t:.6f} arrival demand={d_idx} slots={s} "
                    f"accepted conn={conn_id} segments={segs}\n"
                )
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
    reproducible bit for bit.  ``ci95_half_width`` is the half-width of
    the t-interval of the replications' blockings, or None when there is
    one replication.  ``trace``, when given, is a callable
    receiving one text line per event.
    """
    config = config or SimConfig()
    routes = demand_routes(graph, demands, routes)
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
        half_width = None
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
