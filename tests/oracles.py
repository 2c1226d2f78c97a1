"""Independent reference implementations used only by the tests.

Everything here recomputes quantities by a route the library does not
take: exhaustive enumeration, closed teletraffic formulas, or direct Monte
Carlo sampling of slot masks.  ``chorded_ring`` rebuilds the benchmark's
28-node ring, so that tests can run on it without importing the benchmark,
and ``route`` is the library's own route for one source-destination pair.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from functools import reduce
from itertools import combinations, count, permutations, product
from operator import and_

import numpy as np

from eonspectra.errors import SimulatorFault
from eonspectra.lightpath import SIMPLE_NODE, bank_key, share_per_link_availability
from eonspectra.runprob import _check_args, run_probability
from eonspectra.simulator import NetworkState, _BoundedDraws, admit, release
from eonspectra.topology import DemandSpec, load_topology, route_all


def erlang_b(servers: int, offered_load: float) -> float:
    """Blocking of an M/M/c/c loss system, by the stable recurrence."""
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered_load * blocking / (k + offered_load * blocking)
    return blocking


def enumerate_paths(links: dict[tuple[int, int], float], src: int, dst: int):
    """All simple paths with their weights, by depth-first search."""
    adjacency: dict[int, list[int]] = {}
    for a, b in links:
        adjacency.setdefault(a, []).append(b)
    paths = []

    def walk(node, seen, weight):
        if node == dst:
            paths.append((weight, tuple(seen)))
            return
        for nxt in adjacency.get(node, ()):
            if nxt in seen:
                continue
            walk(nxt, seen + [nxt], weight + links[(node, nxt)])

    walk(src, [src], 0.0)
    return paths


def best_path_bruteforce(links, src, dst):
    """Minimum weight, then lexicographically smallest node sequence."""
    paths = enumerate_paths(links, src, dst)
    if not paths:
        return None
    return min(paths)


def route(graph, src: int, dst: int):
    """The route ``route_all`` gives one demand from ``src`` to ``dst``."""
    return route_all(graph, [DemandSpec(src, dst, 1.0, 1.0, {1: 1.0})])[0]


def least_path_by_distances(graph, src: int, dst: int) -> tuple[int, ...] | None:
    """The node sequence of the minimum-weight path from ``src`` to ``dst``
    with the lexicographically smallest nodes, or None when ``dst`` is
    unreachable.

    Bellman-Ford distances to ``dst``, then a walk from ``src`` that always
    steps to the smallest neighbour on some minimum-weight path.  Exact for
    integer weights, whose sums are exact in any order.
    """
    dist = {dst: 0.0}
    for _ in range(graph.node_count):
        for link in graph.links:
            if link.head in dist and dist[link.head] + link.weight < dist.get(link.tail, math.inf):
                dist[link.tail] = dist[link.head] + link.weight
    if src not in dist:
        return None
    nodes = [src]
    while nodes[-1] != dst:
        here = nodes[-1]
        nodes.append(min(
            link.head for link in graph.out_links(here)
            if link.head in dist and link.weight + dist[link.head] == dist[here]
        ))
    return tuple(nodes)


_MC_CHUNK = 1 << 16  # samples per batch of masks: 21 MB of draws at 5 hops of 16 slots


def mc_segmented_blocking(
    min_run: int,
    slot_count: int,
    layouts: list[tuple[int, ...]],
    hop_free_probs,
    samples: int,
    rng: np.random.Generator,
) -> list[float]:
    """Monte Carlo blocking for several converter layouts over one shared
    batch of per-link slot masks (i.i.d. Bernoulli per link).

    The masks are drawn and reduced ``_MC_CHUNK`` samples at a time.  The
    float32 draws of successive chunks are those of one call for every
    sample, so the estimates do not depend on the chunk size.
    """
    free_probs = np.asarray(hop_free_probs, dtype=np.float64).astype(np.float32)
    hops = len(free_probs)
    width = slot_count - min_run + 1
    carried = [0] * len(layouts)
    for start in range(0, samples, _MC_CHUNK):
        size = min(_MC_CHUNK, samples - start)
        masks = rng.random((size, hops, slot_count), dtype=np.float32) < free_probs[None, :, None]
        for i, layout in enumerate(layouts):
            ok = np.ones(size, dtype=bool)
            for a, b in zip(layout, layout[1:]):
                segment = masks[:, a - 1 : b - 1, :].all(axis=1)
                windows = np.ones((size, width), dtype=bool)
                for k in range(min_run):
                    windows &= segment[:, k : k + width]
                ok &= windows.any(axis=1)
            carried[i] += int(np.count_nonzero(ok))
    return [1.0 - count / samples for count in carried]


def longest_run(mask: int) -> int:
    length = 0
    while mask:
        length += 1
        mask &= mask >> 1
    return length


def run_probability_direct(min_run: int, slots: int, rho: float) -> float:
    """Plain-Python mask enumeration, independent of the tally that
    ``run_probability_bruteforce`` reads."""
    total = 0.0
    for mask in range(1 << slots):
        if longest_run(mask) >= min_run:
            free = mask.bit_count()
            total += rho**free * (1 - rho) ** (slots - free)
    return total


def run_probability_recurrence(min_run: int, slots: int, free_prob):
    """``run_probability``'s recurrence with nothing left out: zero padding
    for P(S, f) at f < S, every term of every sum, and the elementwise range
    check and clamp on every call.  The library skips the terms and the
    check where they cannot change a bit; the tests compare the two with
    ``==`` on the float bits."""
    if min_run < 1:
        raise ValueError(f"run length must be >= 1, got {min_run}")
    if slots < 0:
        raise ValueError(f"slot count must be >= 0, got {slots}")
    rho = np.asarray(free_prob, dtype=float)
    bad = ~((rho >= -1e-12) & (rho <= 1.0 + 1e-12))  # NaN too
    if bad.any():
        raise ValueError(f"free-slot probability {rho[bad][0]} outside [0, 1]")
    rho = np.minimum(np.maximum(rho, 0.0), 1.0)
    weights = [1.0 - rho]
    tail = rho
    for _ in range(min_run - 1):
        weights.append(weights[-1] * rho)
        tail = tail * rho
    values = [np.zeros_like(rho)] * min_run  # P(., f) for f < min_run
    for f in range(min_run, slots + 1):
        acc = tail
        for j in range(1, min_run + 1):
            acc = acc + values[f - j] * weights[j - 1]
        values.append(acc)
    return np.minimum(values[slots], 1.0)


_BRUTEFORCE_MAX_SLOTS = 20

_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)

# per slot count F: array of shape (F+1, F+1) counting masks by
# (longest free run, number of free slots)
_mask_counts: dict[int, np.ndarray] = {}


def _counts_for(slots: int) -> np.ndarray:
    counts = _mask_counts.get(slots)
    if counts is not None:
        return counts
    masks = np.arange(1 << slots, dtype=np.uint32)
    free = np.zeros(masks.shape, dtype=np.int64)
    for _ in range(4):  # popcount via byte lookup
        free += _POPCOUNT8[masks & 0xFF]
        masks >>= 8
    masks = np.arange(1 << slots, dtype=np.uint32)
    longest = np.zeros(masks.shape, dtype=np.int64)
    work = masks.copy()
    length = 0
    while work.any():
        length += 1
        longest[work != 0] = length
        work &= work >> 1
    counts = np.zeros((slots + 1, slots + 1), dtype=np.int64)
    np.add.at(counts, (longest, free), 1)
    _mask_counts[slots] = counts
    return counts


def run_probability_bruteforce(min_run: int, slots: int, free_prob: float) -> float:
    """Exact run probability by enumerating every slot mask, vectorized.

    Limited to ``slots`` <= 20; masks are tallied by (longest run, free-slot
    count), then weighted by rho^free * (1-rho)^busy.  Arguments are
    checked and clamped as ``run_probability`` checks them.
    """
    rho = _check_args(min_run, slots, free_prob)
    if slots > _BRUTEFORCE_MAX_SLOTS:
        raise ValueError(f"bruteforce enumeration limited to {_BRUTEFORCE_MAX_SLOTS} slots")
    if slots < min_run:
        return 0.0
    counts = _counts_for(slots)
    qualifying = counts[min_run:, :].sum(axis=0)  # by free-slot count
    terms = []
    for free in range(slots + 1):
        if qualifying[free]:
            terms.append(float(qualifying[free]) * rho**free * (1.0 - rho) ** (slots - free))
    return math.fsum(terms)


def exact_lightpath_blocking(
    min_run: int,
    slot_count: int,
    hop_free_probs,
    converters: list[tuple[int, float]],
) -> float:
    """Lightpath blocking by exhaustive enumeration of every per-hop slot
    mask and every free/busy state of the interior converters.

    ``converters`` lists (path position, probability the converter is
    free).  The path is cut at the free converters; the request is blocked
    when some segment has no ``min_run`` slots free on all of its hops.
    """
    hops = len(hop_free_probs)
    every_slot = (1 << slot_count) - 1
    hop_masks = [
        [
            (mask, rho ** mask.bit_count() * (1.0 - rho) ** (slot_count - mask.bit_count()))
            for mask in range(1 << slot_count)
        ]
        for rho in hop_free_probs
    ]
    terms = []
    for states in product((True, False), repeat=len(converters)):
        state_prob = math.prod(a if free else 1.0 - a for (_, a), free in zip(converters, states))
        cuts = tuple(pos for (pos, _), free in zip(converters, states) if free)
        layout = (1,) + cuts + (hops + 1,)
        for masks in product(*hop_masks):
            blocked = any(
                longest_run(reduce(and_, (masks[h - 1][0] for h in range(a, b)), every_slot))
                < min_run
                for a, b in zip(layout, layout[1:])
            )
            if blocked:
                terms.append(state_prob * math.prod(p for _, p in masks))
    return math.fsum(terms)


def converter_layout(path, archs) -> tuple[int, ...]:
    """A layout: the path positions ``(1, p2, ..., H+1)``, the endpoints
    plus the strictly interior positions that hold a converter."""
    hops = path.hop_count
    interior = [
        pos for pos in range(2, hops + 1) if archs.get(path.nodes[pos - 1], SIMPLE_NODE).converts
    ]
    return (1, *interior, hops + 1)


def segment_success_prob(min_run: int, slot_count: int, layout: tuple[int, ...], hop_free_probs) -> float:
    """Probability that every segment of ``layout`` offers ``min_run``
    contiguous free slots, one scalar ``run_probability`` per segment.

    Segment k spans hops layout[k]..layout[k+1]-1.
    """
    result = 1.0
    for a, b in zip(layout, layout[1:]):
        result *= run_probability(min_run, slot_count, math.prod(hop_free_probs[a - 1 : b - 1]))
        if result == 0.0:
            break
    return result


def blocking_full_at(min_run: int, slot_count: int, layout: tuple[int, ...], hop_free_probs) -> float:
    """Always-available converters at the layout's interior positions:
    every segment independently needs a window."""
    return 1.0 - segment_success_prob(min_run, slot_count, layout, hop_free_probs)


def converter_availability(position: int, path, archs, stats, phis) -> float:
    """Probability the converter at path position ``position`` is free for
    a request: 1 for a full node, else the availability of the bank that
    ``bank_key`` names, from that bank's crossing tallies."""
    node = path.nodes[position - 1]
    arch = archs.get(node, SIMPLE_NODE)
    bank = bank_key(node, path.links[position - 1].id, arch)
    if bank is None:
        return 1.0
    return share_per_link_availability(
        arch.n_sc,
        stats.paths[bank],
        stats.slots[bank],
        math.fsum(share * phis[j] for j, share in stats.shares[bank]),
    )


def stop_walk_blocking(min_run: int, path, archs, phis, stats, slot_count: int) -> float:
    """Lightpath blocking by one scalar forward pass over the route's stops,
    its interior converters and then the destination.

    The open segments are (mass, opening) pairs: mass is the probability
    that the segment is open and every segment closed before it succeeded.
    A stop free with probability a closes each open segment with
    probability a, which blocks with mass * a * (1 - success) and opens a
    segment at the stop; with probability 1 - a the open segments run on
    through it.  A stop that is never free is skipped, and one that is
    always free drops every open segment.  Each success is one scalar
    ``run_probability`` of the segment's link free probabilities multiplied
    in path order, so the float operations are those the array passes must
    reproduce bit for bit.
    """
    if min_run > slot_count:
        return 1.0
    hop_probs = [phis[lid] for lid in path.link_ids]
    end = path.hop_count + 1
    masses = [1.0]
    openings = [1]  # path positions
    blocked = 0.0
    for pos in range(2, end + 1):
        if pos == end:
            avail = 1.0
        elif archs.get(path.nodes[pos - 1], SIMPLE_NODE).converts:
            avail = converter_availability(pos, path, archs, stats, phis)
        else:
            continue
        if avail == 0.0:
            continue
        closed = 0.0
        for mass, start in zip(masses, openings):
            success = run_probability(min_run, slot_count, math.prod(hop_probs[start - 1 : pos - 1]))
            blocked += avail * mass * (1.0 - success)
            closed += mass * success
        busy = 1.0 - avail
        if busy:
            masses = [mass * busy for mass in masses]
        else:
            masses, openings = [], []
        masses.append(avail * closed)
        openings.append(pos)
    return blocked


def opening_loop_values(plan, link_state) -> list[float]:
    """The blockings of ``SolvePlan.evaluate`` at ``link_state`` with each
    stop's openings added up by a Python loop over the rows, one opening at
    a time into a zeroed buffer: the reference the stop sums of
    ``evaluate`` must match with ==."""
    rho = np.array([float(link_state[j]) for j in plan.columns[0]])
    for column in plan.columns[1:]:
        rho[: len(column)] *= [float(link_state[j]) for j in column]
    success = run_probability(plan.sizes, plan.slot_count, rho[plan.segment])[plan.closes]
    failure = 1.0 - success
    availability = np.array(
        [1.0]
        + [
            share_per_link_availability(
                n_sc, paths, slots, math.fsum(share * float(link_state[j]) for j, share in shares)
            )
            for n_sc, paths, slots, shares in plan.banks
        ]
    )[plan.draws]
    busy = 1.0 - availability
    count = len(plan.index)
    masses = np.zeros((plan.width, count))
    masses[0] = 1.0
    blocked = np.zeros(count)
    row = stop = 0
    for active, width, targets in plan.stops:
        avail = availability[stop : stop + active]
        head = blocked[:active]
        block = masses[:width, :active]
        end = row + width * active
        lost = avail * block * failure[row:end].reshape(width, active)
        kept = block * success[row:end].reshape(width, active)
        closed = np.zeros(active)
        for lost_row, kept_row in zip(lost, kept):
            head += lost_row
            closed += kept_row
        block *= busy[stop : stop + active]
        masses.reshape(-1)[targets] = avail * closed
        row = end
        stop += active
    return blocked[plan.rank].tolist()


def blocking_by_converter_states(
    min_run: int,
    slot_count: int,
    hop_free_probs,
    converters: list[tuple[int, float]],
) -> float:
    """Lightpath blocking as the sum, over every free/busy state T of the
    interior converters, of P(T) times the closed-form blocking of the
    path cut at the free ones.

    ``converters`` lists (path position, probability the converter is
    free).  Costs 2^k closed forms for k converters.
    """
    end = len(hop_free_probs) + 1
    terms = []
    for states in product((True, False), repeat=len(converters)):
        state_prob = math.prod(a if free else 1.0 - a for (_, a), free in zip(converters, states))
        cuts = tuple(pos for (pos, _), free in zip(converters, states) if free)
        layout = (1,) + cuts + (end,)
        terms.append(state_prob * blocking_full_at(min_run, slot_count, layout, hop_free_probs))
    return math.fsum(terms)


def verify_conservation(state) -> None:
    """Cross-check a ``NetworkState``'s masks and bank counters against its
    ledger of live connections; raises ``SimulatorFault`` on a mismatch."""
    expected = [0] * len(state.occupied)
    banks = {key: 0 for key in state.bank_in_use}
    for conn in state.connections.values():
        for _start, link_ids in conn.segments:
            for lid in link_ids:
                expected[lid] += conn.slots
        for key in conn.banks:
            banks[key] += 1
    for lid, occ in enumerate(state.occupied):
        if occ.bit_count() != expected[lid]:
            raise SimulatorFault(
                f"link {lid}: {occ.bit_count()} slots occupied, ledger says {expected[lid]}"
            )
    for key, used in state.bank_in_use.items():
        if used != banks[key]:
            raise SimulatorFault(f"bank {key}: counter {used}, ledger says {banks[key]}")


def placement_assignments(nodes, inventory):
    """Every assignment of the inventory items to distinct nodes, without
    collapsing duplicate items (the naive enumeration)."""
    for chosen in combinations(nodes, len(inventory)):
        for order in permutations(inventory):
            yield dict(zip(chosen, order))


def cuts_by_subsets(
    free: list[int], slots: int, slot_count: int, positions: list[int]
) -> tuple[int, ...] | None:
    """Conversion points for a request of ``slots`` contiguous slots, by
    enumerating sets of converters.

    ``free`` holds each hop's free-slot mask and ``positions`` the
    increasing path positions of the usable converters.  Sets are tried
    smallest first, in lexicographic order within a size; the first whose
    segments each keep ``slots`` slots free on all of their hops wins.
    None when no set works.
    """
    hops = len(free)
    every_slot = (1 << slot_count) - 1
    for size in range(len(positions) + 1):
        for cuts in combinations(positions, size):
            bounds = (1,) + cuts + (hops + 1,)
            if all(
                longest_run(reduce(and_, free[a - 1 : b - 1], every_slot)) >= slots
                for a, b in zip(bounds, bounds[1:])
            ):
                return cuts
    return None


def pick_start_from_list(starts: int, rng) -> int:
    """Random Fit by listing the set bits of ``starts``: position
    ``rng.integers(n)`` of the n candidates, with no draw when n is 1."""
    positions = [i for i in range(starts.bit_length()) if starts >> i & 1]
    if len(positions) == 1:
        return positions[0]
    return positions[int(rng.integers(len(positions)))]


# ---------------------------------------------------------------------------
# the simulator's earlier event loop: one heap of arrivals and departures

_ARRIVAL, _DEPART = 0, 1
_BLOCK = 32  # requests per bulk draw of a single-valued demand's exponentials


def heap_requests(demand, rng):
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


def heap_replication(graph, demands, routes, archs, config, warmup, horizon, trace, rep):
    """One replication with every request and departure in one heap keyed
    by (time, creation order): the simulator's loop before its arrivals
    were drawn ahead per demand.  Same signature and result as
    ``simulator._run_replication``."""
    entropy = np.random.SeedSequence(entropy=(config.seed, rep))
    children = entropy.spawn(len(demands) + 1)
    next_request = [
        heap_requests(d, np.random.default_rng(c)).__next__ for d, c in zip(demands, children)
    ]
    admit_rng = _BoundedDraws(np.random.default_rng(children[-1]))

    state = NetworkState(graph, archs)
    heap: list[tuple] = []
    push, pop, replace = heapq.heappush, heapq.heappop, heapq.heapreplace
    seq = count()
    for d_idx, draw in enumerate(next_request):
        gap, s, hold = draw()
        push(heap, (gap, next(seq), _ARRIVAL, d_idx, s, hold))

    offered = [0] * len(demands)
    blocked = [0] * len(demands)
    # keys (t, seq) are unique, so replacing an arrival by its successor in
    # one heap operation pops the events in the same order as pop-then-push
    while heap:
        event = heap[0]
        t = event[0]
        if t > horizon:
            break
        if event[2] == _ARRIVAL:
            _, _, _, d_idx, s, hold = event
            gap, next_s, next_hold = next_request[d_idx]()
            replace(heap, (t + gap, next(seq), _ARRIVAL, d_idx, next_s, next_hold))
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
            pop(heap)
            release(state, event[3])
            if trace is not None:
                trace(f"{t:.6f} departure conn={event[3]}\n")
    return offered, blocked


def chorded_ring(seed: int, nodes: int = 28, span: int = 3, slot_count: int = 16):
    """A ring of unit-weight links plus a chord of ``span`` ring steps at
    every other ring position, with the node labels at the ring positions
    shuffled by ``seed``: the benchmark's ring, rebuilt here so that the
    tests do not import the benchmark."""
    labels = np.random.default_rng(seed).permutation(nodes)
    pairs = [(i, (i + 1) % nodes) for i in range(nodes)]
    pairs += [(i, (i + span) % nodes) for i in range(0, nodes, 2)]
    return load_topology(
        {
            "name": f"ring{nodes}",
            "slot_count": slot_count,
            "nodes": list(range(nodes)),
            "edges": [
                {"a": int(labels[a]), "b": int(labels[b]), "weight": 1.0} for a, b in pairs
            ],
        }
    )


def link_state(phis) -> np.ndarray:
    """``phis``, a dict by link id, as the link-state array that
    ``SolvePlan.evaluate`` takes: link id i at position i - 1, and NaN at
    every position the dict has no id for, so reading one shows."""
    state = np.full(max(phis), np.nan)
    state[[lid - 1 for lid in phis]] = list(phis.values())
    return state
