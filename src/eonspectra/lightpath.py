"""Blocking probability of a single routed lightpath.

A request for S contiguous slots succeeds on a converter-free path only if
some S-slot window is free on every hop.  A free converter at an interior
node cuts the path there, and each resulting segment may use its own
window.  With independent links and independent converters (Barry &
Humblet 1996; Subramaniam, Azizoglu & Somani 1996) the blocking is one
expectation over the random set T of free converters:

    blocking = E_T[1 - seg(T)]

where converter i is free with probability a_i (1 for a full node, else
the availability of the converter bank that ``bank_key`` names, from the
transit routes ``crossing_stats`` counts per bank) and seg(T) is the
probability that every segment of the path cut at T has a free window.
The cut points form a chain, so the expectation is one forward pass over
the route's stops, its interior converters and then the destination: it
carries the probability mass of each still-open segment and adds the
failure of every segment as it closes.  That evaluates O(k^2) segments
for k converters (O(k) when all are always free), and every term is
nonnegative, so the result is a probability by construction.  Only
strictly interior nodes can convert: conversion capability at the source
or destination cannot help a request.

During a fixed point only the link state moves: a float64 array of the
links' free probabilities, link i at position i - 1 of ``graph.links``.
Every forward pass a solve needs, one per route and slot count, is
compiled once into the index arrays of a ``SolvePlan``, in two halves,
both naming each link by that position.  ``route_grid`` compiles what the
routes alone fix: the passes, the distinct routes as one grid of their
links' positions, padded with ``pad``, one past the largest position they
cross, and the links at interior hops, the exits.
``compile_plan`` compiles the rest once per architecture map with array
operations: each link's stop code, read off the ``conversion_points`` of
the exits, the rule the simulator's state uses too (-1 when the node the
link leaves does not convert, 0 for a full node, else its bank's index),
each route's stops (its converting interior nodes, then the destination
as a full stop) and each stop's openings, where the segments closing
there start: the last full stop before it (or the source), then the
shared stops since.  Each (stop, opening) cell's segment is packed
into an int64, its length counted down from the longest first, then link
by link in base ``pad + 1`` (re-ranked with ``np.unique`` whenever the
next link could overflow), and ``np.unique`` of the codes numbers the
table rows longest first, so two cells share a row exactly when their
segments cross the same links.  The table is kept as its hop columns:
column k holds hop k (from 0) of every segment of more than k links, and
those are the first rows.  The passes, ordered by their number of stops
so that those still running at a stop are a prefix, take their routes'
columns of a grid with a row per stop and of one with a row per (stop,
opening).  Each iteration ``SolvePlan.evaluate`` multiplies each hop
column's free probabilities into the leading rows of the segment
products, in path order, computes the success of every (slot count,
table row) pair in one array call of ``run_probability`` and the
availability of every bank, then runs the passes side by side, stop by
stop: it forms the blocked mass avail * mass * failure and the closed
mass mass * success of every (opening, pass) at once and adds each up one
opening at a time, in opening order, so every pass gets the float
operations of its scalar walk in the same order.  The padding that
lines the passes up adds only exact zeros: an opening a pass lacks holds
mass +0.0, so whatever success it reads it adds +0.0.  A stop that is
never or always free scales the masses by exactly 1.0 or 0.0, and a plan
without banks has only always free stops, so it builds no
availabilities.  So every blocking equals the scalar walk's bit for bit.
A single call without a solve compiles a plan of its own route, so
every blocking comes from the same pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ArchitectureError, InputError
from .runprob import run_probability
from .topology import Link, NetworkGraph, RoutedPath, _integer, _parse_document

SIMPLE = "simple"
FULL = "full"
SHARE_PER_LINK = "share_per_link"
SHARE_PER_NODE = "share_per_node"

_KINDS = (SIMPLE, FULL, SHARE_PER_LINK, SHARE_PER_NODE)
_SHARED_KINDS = (SHARE_PER_LINK, SHARE_PER_NODE)


@dataclass(frozen=True)
class NodeArchitecture:
    """Spectrum-conversion capability of one cross-connect."""

    kind: str
    n_sc: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ArchitectureError(f"unknown architecture kind {self.kind!r}")
        if self.kind in _SHARED_KINDS:
            _integer(self.n_sc, f"{self.kind} n_sc", ArchitectureError, 1)
        elif self.n_sc is not None:
            raise ArchitectureError(f"{self.kind} has no converter bank, got n_sc {self.n_sc!r}")

    @property
    def converts(self) -> bool:
        return self.kind != SIMPLE


SIMPLE_NODE = NodeArchitecture(SIMPLE)

# map: node id -> architecture; nodes absent from the map are simple
ArchitectureMap = dict[int, NodeArchitecture]
# map: link id -> probability that one slot on the link is free
LinkFreeProbs = dict[int, float]
# a converter bank: ("port", exit link id) or ("node", node id)
Bank = tuple[str, int]


def load_architectures(document, graph: NetworkGraph) -> ArchitectureMap:
    """Parse an architecture document ``{"<node label>": {"kind", "n_sc"?}}``.

    Nodes not mentioned stay simple.
    """
    document = _parse_document(document, "architecture", ArchitectureError)
    if not isinstance(document, dict):
        raise ArchitectureError("architecture document must be a JSON object")
    archs: ArchitectureMap = {}
    for label, entry in document.items():
        node = _resolve_label(label, graph)
        try:
            kind = entry["kind"]
        except (KeyError, TypeError) as exc:
            raise ArchitectureError(f"malformed architecture entry {entry!r}") from exc
        archs[node] = NodeArchitecture(kind=kind, n_sc=entry.get("n_sc"))
    return archs


def _resolve_label(key, graph: NetworkGraph) -> int:
    """The node whose label ``key`` spells exactly, as ``str(label)``: JSON
    object keys are strings even when node labels are integers, so a key
    that spells two labels (``1`` and ``"1"``) names no node."""
    nodes = [node for node, label in enumerate(graph.labels, 1) if str(label) == key]
    if len(nodes) != 1:
        raise ArchitectureError(f"{'ambiguous' if nodes else 'unknown'} node label {key!r}")
    return nodes[0]


def uniform_architectures(graph: NetworkGraph, arch: NodeArchitecture) -> ArchitectureMap:
    """The same architecture at every node of the graph."""
    if not arch.converts:
        return {}
    return {node: arch for node in graph.nodes}


# ---------------------------------------------------------------------------
# converter banks


def bank_key(node: int, exit_link_id: int, arch: NodeArchitecture) -> Bank | None:
    """The bank a conversion at ``node`` onto ``exit_link_id`` draws from:
    one per output port (share_per_link), one per node (share_per_node) or
    none for a full node, whose dedicated converters never run out."""
    if arch.kind == SHARE_PER_LINK:
        return ("port", exit_link_id)
    if arch.kind == SHARE_PER_NODE:
        return ("node", node)
    if arch.kind == FULL:
        return None
    raise ArchitectureError(f"node {node} has no converter")


def conversion_points(
    links, archs: ArchitectureMap
) -> tuple[dict[int, Bank | None], dict[Bank, int]]:
    """The conversion points of ``links`` under ``archs``, each read off the
    link that leaves it: a conversion onto a link draws from the bank that
    ``bank_key`` names at the link's tail.

    Returns ``{link id: bank key, or None for a full node}`` for each link
    whose tail converts, in ``links`` order, and ``{bank: n_sc}`` for the
    banks those name, in order of first use."""
    points: dict[int, Bank | None] = {}
    capacity: dict[Bank, int] = {}
    for link in links:
        arch = archs.get(link.tail, SIMPLE_NODE)
        if arch.converts:
            key = points[link.id] = bank_key(link.tail, link.id, arch)
            if key is not None:
                capacity[key] = arch.n_sc
    return points, capacity


@dataclass
class CrossingStats:
    """Transit routes per potential converter bank: every ``("port", j)``
    and every ``("node", v)``.

    A route counts at node v, and at the exit port it takes there, only
    when v is strictly interior to it; conversion at the endpoints is
    irrelevant.  ``paths[b]`` counts the transit routes of bank b,
    ``slots[b]`` totals their mean slot counts, and ``shares[b]`` pairs
    each port b serves with that port's fraction of b's transit routes
    (empty when b has none).
    """

    paths: dict[Bank, int]
    slots: dict[Bank, float]
    shares: dict[Bank, tuple[tuple[int, float], ...]]


def crossing_stats(g: NetworkGraph, routes: list[RoutedPath]) -> CrossingStats:
    """Count transit routes per bank.

    Each route adds 1 to the bank of every strictly interior node it
    crosses and to the bank of the exit port it uses there; the slot
    totals accumulate the demand's mean slot count, so a route without a
    demand raises ``InputError``.
    """
    banks = [("port", link.id) for link in g.links] + [("node", v) for v in g.nodes]
    paths: dict[Bank, int] = dict.fromkeys(banks, 0)
    slots: dict[Bank, float] = dict.fromkeys(banks, 0.0)
    for route in routes:
        if route.demand is None:
            raise InputError(f"route {route.nodes} has no demand to weight its slots")
        weight = route.demand.mean_slots
        for link in route.links[1:]:  # the links that leave interior nodes
            for bank in (("node", link.tail), ("port", link.id)):
                paths[bank] += 1
                slots[bank] += weight
    shares: dict[Bank, tuple[tuple[int, float], ...]] = {}
    for v in g.nodes:
        n_node = paths[("node", v)]
        ports = [link.id for link in g.out_links(v)]
        shares[("node", v)] = (
            tuple((j, paths[("port", j)] / n_node) for j in ports) if n_node else ()
        )
        for j in ports:
            shares[("port", j)] = ((j, 1.0),) if paths[("port", j)] else ()
    return CrossingStats(paths=paths, slots=slots, shares=shares)


def share_per_link_availability(n_sc: int, n_port: int, s_port: float, phi_port: float) -> float:
    """Probability that a shared bank of ``n_sc`` boxes has a free one.

    Serves both shared kinds: the bank of one output port and the bank of
    one node.  Each of the ``n_port`` transit routes the bank serves skips
    conversion with probability phi_port^(s_port/n_port), where phi_port is
    the transit-weighted mean slot-free probability over the bank's ports;
    the bank is free when fewer than ``n_sc`` routes need conversion.  No
    transit routes means no contention.
    """
    if n_sc < 1:
        raise ValueError(f"n_sc must be >= 1, got {n_sc}")
    if n_port < 0 or s_port < 0:
        raise ValueError("path and slot counts must be nonnegative")
    if n_port == 0 or n_sc > n_port:
        return 1.0
    no_conv = phi_port ** (s_port / n_port)
    terms = [
        math.comb(n_port, k) * (1.0 - no_conv) ** k * no_conv ** (n_port - k)
        for k in range(n_sc)
    ]
    return min(math.fsum(terms), 1.0)


# ---------------------------------------------------------------------------
# stop plans


# per bank index from 1: the n_sc, transit routes, slot total and port
# shares (ports by position) that ``share_per_link_availability`` takes
BankArgs = tuple[int, int, float, tuple[tuple[int, float], ...]]

# one forward pass: the slot count of its requests and its route's link ids
PassKey = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class PlanValues:
    """A ``SolvePlan`` evaluated at one link state: ``values[index[S,
    link_ids]]`` is the blocking of a request for S slots on the route with
    those link ids, for every forward pass of the plan.  ``index`` is the
    plan's ``RouteGrid``'s, so every evaluation of every plan compiled
    over that grid shares it."""

    index: dict[PassKey, int]
    values: list[float]


@dataclass(frozen=True)
class SolvePlan:
    """The compiled forward passes of one solve (see the module docstring).

    ``index`` is the ``RouteGrid``'s, numbering every (slot count, link
    ids) pair once in request order; each evaluation returns it with the
    blockings in that order.  The passes run with more stops first and in
    request order among equals, pass i in place ``rank[i]``.  ``stops[j]``
    is (active, width, targets): the number of passes that reach stop j,
    the most openings any of them has there, and for each of them the
    index its new opening takes in the raveled (opening, pass) array of
    masses; ``width`` is the most openings of any stop.  Stop by stop,
    ``draws`` holds each active pass's index into the availabilities (0,
    always 1.0, for a full node and for the destination; a plan without
    ``banks`` reads none), and ``closes`` holds, opening by opening, each
    active pass's index of the success of its segment from that opening,
    0 for an opening the pass lacks.  Success i is that of a request for
    ``sizes[i]`` slots on table row ``segment[i]``, ordered by slot count
    and then by row, so ``sizes`` is nondecreasing.

    The segment table is kept as its hop columns, rows longest first:
    ``columns[k]`` holds, for each row with more than k links, the
    position in ``graph.links`` of its link k (from 0), so a row's links
    run in path order down the columns.  ``banks`` holds the ``BankArgs``
    of the banks the stops name.
    """

    slot_count: int
    width: int
    columns: tuple[np.ndarray, ...]
    sizes: np.ndarray
    segment: np.ndarray
    banks: tuple[BankArgs, ...]
    index: dict[PassKey, int]
    rank: np.ndarray
    stops: tuple[tuple[int, int, np.ndarray], ...]
    closes: np.ndarray
    draws: np.ndarray

    def evaluate(self, link_state: np.ndarray) -> PlanValues:
        """Every forward pass of the plan at ``link_state``, the links'
        free probabilities in ``graph.links`` order.  A row's
        success takes the product of its links' free probabilities column
        by column in path order, and a bank's availability the same
        ``share_per_link_availability`` arguments as a scalar call.

        Each stop adds its blocked masses to the blocking so far and its
        closed masses up one opening at a time, in opening order."""
        rho = link_state[self.columns[0]]
        for column in self.columns[1:]:
            rho[: len(column)] *= link_state[column]
        success = run_probability(self.sizes, self.slot_count, rho[self.segment])[self.closes]
        failure = 1.0 - success
        avail, busy = 1.0, 0.0  # at every stop of a plan without banks
        if self.banks:
            free = link_state.tolist()
            availability = np.array(
                [1.0]
                + [
                    share_per_link_availability(
                        n_sc, paths, slots, math.fsum(share * free[j] for j, share in shares)
                    )
                    for n_sc, paths, slots, shares in self.banks
                ]
            )[self.draws]
        count = len(self.index)
        masses = np.zeros((self.width, count))
        masses[0] = 1.0  # the segment opened at the source
        blocked = np.zeros(count)
        row = stop = 0
        for active, width, targets in self.stops:
            if self.banks:
                avail = availability[stop : stop + active]
                busy = 1.0 - avail
            head = blocked[:active]
            block = masses[:width, :active]
            end = row + width * active
            lost = avail * block * failure[row:end].reshape(width, active)
            kept = block * success[row:end].reshape(width, active)
            head += lost[0]
            closed = kept[0]
            for o in range(1, width):
                head += lost[o]
                closed += kept[o]
            block *= busy
            masses.reshape(-1)[targets] = avail * closed
            row = end
            stop += active
        return PlanValues(self.index, blocked[self.rank].tolist())


_INT64_MAX = np.iinfo(np.int64).max


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Each element's position within its group, for groups of ``lengths``
    laid end to end."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _stops(
    path: np.ndarray, hops: np.ndarray, code: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The stops of the routes of the route grid ``path``, route r crossing
    ``hops[r]`` links, where ``code`` gives each link's stop code (-1 for
    the pad): the converting interior nodes, then the destination as a full
    stop.

    Returns, with a column per route, each route's number of stops and
    grids with a row per stop: whether the route has it, its availability
    index (0 for a full node and the destination), the number of openings
    it closes, and, in a grid with one more row, its node position, the
    source being row 0 and stop j row j + 1.
    """
    at_node = np.full((len(path), path.shape[1] + 1), -1, dtype=np.intp)
    at_node[:, 1:-1] = code[path[:, 1:]]
    at_node[np.arange(len(path)), hops] = 0
    route_at, node_at = np.nonzero(at_node >= 0)
    depth = np.bincount(route_at, minlength=len(path))
    stop_of = _offsets(depth)
    has = np.arange(depth.max(initial=0))[:, None] < depth
    bank = np.zeros(has.shape, dtype=np.intp)
    bank[stop_of, route_at] = at_node[route_at, node_at]
    stop_node = np.zeros((len(has) + 1, len(path)), dtype=np.intp)
    stop_node[stop_of + 1, route_at] = node_at
    # a stop's openings are the last full stop before it (or the source)
    # and the shared stops since, so it has one more than the stop before
    # it unless that one is full
    width = np.ones(has.shape, dtype=np.intp)
    for j in range(1, len(has)):
        width[j] = np.where(bank[j - 1] > 0, width[j - 1] + 1, 1)
    width *= has
    return depth, has, bank, width, stop_node


def _cells(
    path: np.ndarray,
    width: np.ndarray,
    stop_node: np.ndarray,
    widest: np.ndarray,
    entry_stop: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (stop, opening) cells of the routes of the route grid ``path``:
    ``width[j, r]`` is the number of openings route r's stop j closes,
    ``stop_node[j + 1, r]`` that stop's node position and ``stop_node[0]``
    the source, and stop j has a row of cells per opening, ``widest[j]``
    of them, each labelled with its stop in ``entry_stop``.

    Returns the (cell row, route) mask of the cells that exist and, cell by
    cell in the mask's order, where its segment starts in the raveled route
    grid and how many links it crosses.
    """
    routes = len(path)
    opening = _offsets(widest)
    cell = opening[:, None] < width[entry_stop]
    entry, route_in = np.nonzero(cell)
    # stop j of route r is at j * routes + r in the raveled stop grids, and
    # its node at (j + 1) * routes + r in stop_node's; opening o of it is
    # the stop width - o places before it
    at = entry_stop[entry] * routes + route_in
    node_of = stop_node.ravel()
    start = node_of[at + (opening[entry] + 1 - width.ravel()[at]) * routes]
    span = node_of[at + routes] - start
    start += route_in * path.shape[1]
    return cell, start, span


def _segment_rows(
    path: np.ndarray, pad: int, cell: np.ndarray, start: np.ndarray, span: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Number the segments of the cells that ``_cells`` lists, on the
    route grid ``path`` padded with ``pad``.

    Returns the grid of each cell's table row, -1 where a route has no such
    cell, and the table as its hop columns.  The rows are numbered longest
    first, so column k, the link positions of every segment's hop k, holds
    one entry for each of the first rows, those with more than k links.
    Two cells share a row exactly when their segments cross the same
    links.
    """
    # each segment packed into one code: its length counted down from
    # longest, so that np.unique numbers the rows longest first, then its
    # links link by link as digits 1..pad in base pad + 1, and 0 past its
    # end, so that no two link sequences share a code; the packed prefix is
    # re-ranked whenever the next link could overflow an int64
    longest = span.max(initial=1)
    flat = np.concatenate((path.ravel(), np.full(longest, pad)))
    base = pad + 1
    packed = (longest - span).astype(np.int64)
    largest = int(longest) - 1  # the largest value the packed prefix can hold
    for step in range(longest):
        if largest > (_INT64_MAX - pad) // base:
            ranks, packed = np.unique(packed, return_inverse=True)
            largest = len(ranks) - 1
        digits = flat[start + step]
        digits += 1
        digits *= step < span
        packed *= base
        packed += digits
        largest = largest * base + pad
    codes, segment_of = np.unique(packed, return_inverse=True)
    rows = np.full(cell.shape, -1, dtype=np.intp)
    rows[cell] = segment_of
    first = np.zeros(len(codes), dtype=np.intp)  # a cell of each row
    first[segment_of] = np.arange(len(start))
    begin, length = start[first], span[first]
    return rows, tuple(flat[begin[length > step] + step] for step in range(longest))


@dataclass(frozen=True)
class RouteGrid:
    """The half of a plan that the routes and slot counts fix, whatever
    the architecture map: ``route_grid`` compiles it once, and every
    ``compile_plan`` over the same requests shares it.

    ``path`` is the route grid: a row per distinct route, numbered in
    order of first request, with the positions of its links in
    ``graph.links`` in path order, padded with ``pad``, one past the
    largest position the routes cross; route r crosses ``hops[r]`` links.
    ``index`` numbers every forward pass, a (slot count, link ids) pair
    with a slot count of at most ``slot_count``, once in request order;
    pass i is for ``sizes[i]`` slots on route ``pass_route[i]``.  A route
    whose every slot count exceeds ``slot_count`` has a row but no pass.
    ``exits`` holds each ``Link`` at an interior hop of a route, once, in
    link order: a conversion point is read off the link that leaves it,
    and these are the only ones a route can use.
    """

    slot_count: int
    index: dict[PassKey, int]
    sizes: np.ndarray
    pad: int
    path: np.ndarray
    hops: np.ndarray
    pass_route: np.ndarray
    exits: tuple[Link, ...]


def route_grid(requests, slot_count: int) -> RouteGrid:
    """The ``RouteGrid`` of ``requests``, an iterable of (route, slot
    counts in ascending order) pairs: one pass per route and slot count up
    to ``slot_count``, each once however many requests share it.  Each
    request's link ids are hashed once to find its route's number, and
    once per pass to key it.  The exits come from one scatter of grid
    cells over the link positions, with no sort and no walk over the hops."""
    route_of: dict[tuple[int, ...], tuple[int, RoutedPath]] = {}  # link ids -> (number, route)
    index: dict[PassKey, int] = {}
    pass_route: list[int] = []
    for route, sizes in requests:
        number = route_of.setdefault(route.link_ids, (len(route_of), route))[0]
        for s in sizes:
            if s > slot_count:
                break
            if index.setdefault((s, route.link_ids), len(pass_route)) == len(pass_route):
                pass_route.append(number)

    # the route grid: route by route, its links' positions in path order,
    # padded with pad (a Python int, so that powers of it do not wrap)
    lengths = np.fromiter(map(len, route_of), np.intp, len(route_of))
    links = np.fromiter(chain.from_iterable(route_of), np.intp, lengths.sum()) - 1
    pad = int(links.max(initial=-1)) + 1
    on_route = np.arange(lengths.max(initial=0)) < lengths[:, None]
    path = np.full(on_route.shape, pad, dtype=np.intp)
    path[on_route] = links

    # the links at interior hops, in link order: each position records the
    # grid cell of one (route, hop) that crosses it, and every such cell
    # names the same link
    crossed = np.full(pad + 1, -1, dtype=np.intp)
    crossed[path[:, 1:]] = np.arange(path.size).reshape(path.shape)[:, 1:]
    cells = crossed[:pad][crossed[:pad] >= 0].tolist()
    routes = list(route_of.values())  # (number, route) in number order
    exits = tuple(routes[r][1].links[h] for r, h in (divmod(c, path.shape[1]) for c in cells))

    return RouteGrid(
        slot_count,
        index,
        np.fromiter((s for s, _ in index), np.intp, len(index)),
        pad,
        path,
        lengths,
        np.array(pass_route, dtype=np.intp),
        exits,
    )


def compile_plan(grid: RouteGrid, archs: ArchitectureMap, stats: CrossingStats) -> SolvePlan:
    """Compile the stops of every forward pass of ``grid`` under
    ``archs``: the half of a plan that the architecture map fixes.

    Each exit link's stop is read off the ``conversion_points`` of the
    grid's exits: 0 (always free) at a full node, else the index of the
    bank it names, banks numbered in order of first use, which is link
    order.  Everything else is array operations over the route grid: the
    stops, their openings, and the O(k^2) segments of a route with k
    converters, numbered by their links packed into integers.  The table
    rows and banks are numbered otherwise than in a walk over the routes,
    but every pass keeps its stops, its openings in order and each
    segment's links in path order, and each row's success and each bank's
    availability is computed on its own.
    """
    path, pad, count = grid.path, grid.pad, len(grid.index)

    # each link's stop as the exit link of an interior node: -1 for none,
    # 0 for a full node, else its bank's availability index; -1 for the pad
    points, capacity = conversion_points(grid.exits, archs)
    number = {bank: index for index, bank in enumerate(capacity, 1)}
    code = np.full(pad + 1, -1, dtype=np.intp)
    for j, key in points.items():
        code[j - 1] = number.get(key, 0)
    banks = tuple(
        (n_sc, stats.paths[b], stats.slots[b], tuple((j - 1, s) for j, s in stats.shares[b]))
        for b, n_sc in capacity.items()
    )

    depth, has, bank, width, stop_node = _stops(path, grid.hops, code)

    # the (stop, opening) cells, a row per opening up to the most any route
    # has at that stop, and the segment table
    widest = width.max(axis=1, initial=0)
    entry_stop = np.repeat(np.arange(len(widest)), widest)
    rows, columns = _segment_rows(path, pad, *_cells(path, width, stop_node, widest, entry_stop))

    # the passes with more stops first, in request order among equals: the
    # sort keys are distinct, so any sort keeps that order
    by_depth = np.argsort(np.arange(count) - depth[grid.pass_route] * count)
    pass_route = grid.pass_route[by_depth]
    rank = np.empty(count, dtype=np.intp)  # each pass's place in that order
    rank[by_depth] = np.arange(count)

    # the passes' columns, stop by stop, masked to the passes still running
    # there; a stop's new opening takes the number of openings it closes, or
    # 0 at a full node or the destination, where the openings start afresh
    running = has[:, pass_route]
    active = running.sum(axis=1)
    draws = bank[:, pass_route][running]
    targets = (np.where(bank, width, 0)[:, pass_route] * count + np.arange(count))[running]
    # the successes the passes close are numbered by slot count, then by row
    slot_counts, size_rank = np.unique(grid.sizes[by_depth], return_inverse=True)
    segments = len(columns[0])
    cells, live = rows[:, pass_route], running[entry_stop]
    real = cells[live] >= 0
    cells += size_rank * segments  # (slot count, row) as one key; padding stays masked by real
    wanted = cells[live][real]
    needed = np.zeros((len(slot_counts), segments), dtype=bool)
    needed.ravel()[wanted] = True
    # an opening a pass lacks holds mass +0.0, so any success will do
    closes = np.zeros(len(real), dtype=np.intp)
    closes[real] = (np.cumsum(needed) - 1)[wanted]
    size_of, segment = np.nonzero(needed)

    return SolvePlan(
        grid.slot_count,
        int(widest.max(initial=1)),
        columns,
        slot_counts[size_of],
        segment,
        tuple(banks),
        grid.index,
        rank,
        tuple(
            (n, w, targets[end - n : end])
            for n, w, end in zip(active.tolist(), widest.tolist(), np.cumsum(active).tolist())
        ),
        closes,
        draws,
    )


# ---------------------------------------------------------------------------
# blocking


def lightpath_blocking(
    min_run: int,
    path: RoutedPath,
    archs: ArchitectureMap,
    phis: LinkFreeProbs | np.ndarray,
    stats: CrossingStats,
    slot_count: int,
    memo: PlanValues | None = None,
) -> float:
    """Blocking probability of a request for ``min_run`` contiguous slots
    on ``path``: the expectation of 1 - seg(T) over the random set T of the
    path's interior converters that are free to take the request.

    One forward pass over the route's stops carries the open segments as
    (mass, opening) pairs: mass is the probability that the segment is
    open and every segment closed before it succeeded.  A stop free with
    probability a closes each open segment with probability a, which
    blocks with mass * a * (1 - success) and opens a segment at the stop;
    with probability 1 - a the open segments run on through it.  The
    destination closes every open segment, as a stop with a = 1.
    ``SolvePlan.evaluate`` runs the passes; this reads one of them.

    ``memo`` is the solve's ``SolvePlan`` evaluated at ``phis`` and
    compiled from ``archs`` and ``stats``, with ``path`` and ``min_run``
    among its requests.  Without one, the call compiles a plan of ``path``
    alone and reads the links it needs from ``phis``: a dict by link id,
    or an array by position in ``graph.links``, as a solve's link state.
    """
    if min_run > slot_count:
        return 1.0
    if memo is None:
        plan = compile_plan(route_grid([(path, (min_run,))], slot_count), archs, stats)
        link_state = phis
        if isinstance(phis, dict):
            read = [j - 1 for j in path.link_ids] + [j for *_, ports in plan.banks for j, _ in ports]
            link_state = np.zeros(max(read, default=-1) + 1)
            link_state[read] = [phis[j + 1] for j in read]
        memo = plan.evaluate(link_state)
    return memo.values[memo.index[min_run, path.link_ids]]


# ---------------------------------------------------------------------------
# closed forms for the no-conversion / all-full special cases, used as
# cross-checks of the general engine


def blocking_without_conversion(min_run: int, slot_count: int, hop_free_probs) -> float:
    """Continuity everywhere: one window must be free on the whole path."""
    rho = math.prod(hop_free_probs)
    return 1.0 - run_probability(min_run, slot_count, rho)


def blocking_full_conversion(min_run: int, slot_count: int, hop_free_probs) -> float:
    """Continuity fully relaxed: every hop independently needs a window."""
    result = 1.0
    for phi in hop_free_probs:
        result *= run_probability(min_run, slot_count, phi)
    return 1.0 - result
