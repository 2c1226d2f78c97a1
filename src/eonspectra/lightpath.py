"""Blocking probability of a single routed lightpath.

A request for S contiguous slots succeeds on a converter-free path only if
some S-slot window is free on every hop.  A free converter at an interior
node cuts the path there, and each resulting segment may use its own
window.  With independent links and independent converters (Barry &
Humblet 1996; Subramaniam, Azizoglu & Somani 1996) the blocking is one
expectation over the random set T of free converters:

    blocking = E_T[1 - seg(T)]

where converter i is free with probability a_i (``converter_availability``:
1 for a full node, else the availability of the converter bank that
``bank_key`` names, from the transit routes ``crossing_stats`` counts per
bank) and seg(T) is ``segment_success_prob`` for the layout cut at T.
The cut points form a chain, so the expectation is one forward pass along
the path: it carries the probability mass and the running product of the
hop free probabilities of each still-open segment, and adds the failure
of every segment as it closes.  That evaluates O(k^2) segments for k
converters (O(k) when all are always free), and every term is
nonnegative, so the result is a probability by construction.  Layouts are tuples of path positions ``(1, p2, ..., H+1)``:
fixed endpoints plus the interior positions that hold a converter.

A fixed point evaluates the same segments every iteration at a new link
state.  ``segment_table`` lists them once per solve, and each iteration
``SegmentTable.run_memo`` computes all their run probabilities with one
array call of ``run_probability`` per slot count.  The forward passes of
that iteration find every segment in the memo, and each bank's
availability is computed once and kept there too.  A segment missing from
the memo falls back to the scalar call, which returns the same float, so
the table saves time and never changes a result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArchitectureError, MissingNodeError
from .runprob import run_probability
from .topology import DemandSpec, NetworkGraph, RoutedPath

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
        n_sc = self.n_sc
        if self.kind in _SHARED_KINDS:
            if isinstance(n_sc, bool) or not isinstance(n_sc, int) or n_sc < 1:
                raise ArchitectureError(
                    f"{self.kind} requires an integer n_sc >= 1, got {n_sc!r}"
                )
        elif n_sc is not None:
            raise ArchitectureError(f"{self.kind} has no converter bank, got n_sc {n_sc!r}")

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
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ArchitectureError(f"invalid architecture JSON: {exc}") from exc
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


def _resolve_label(label, graph: NetworkGraph):
    # JSON object keys are strings even when node labels are integers
    try:
        return graph.node_of(label)
    except MissingNodeError:
        pass
    try:
        return graph.node_of(int(label))
    except (ValueError, TypeError):
        raise ArchitectureError(f"unknown node label {label!r}") from None


def uniform_architectures(graph: NetworkGraph, arch: NodeArchitecture) -> ArchitectureMap:
    """The same architecture at every node of the graph."""
    if not arch.converts:
        return {}
    return {node: arch for node in graph.nodes}


# ---------------------------------------------------------------------------
# layouts


def converter_layout(path: RoutedPath, archs: ArchitectureMap) -> tuple[int, ...]:
    """Positions along ``path`` that hold a converter, endpoints included.

    Only strictly interior nodes count: conversion capability at the source
    or destination cannot help the request.
    """
    hops = path.hop_count
    interior = [
        pos for pos in range(2, hops + 1) if archs.get(path.nodes[pos - 1], SIMPLE_NODE).converts
    ]
    return (1, *interior, hops + 1)


def segment_success_prob(
    min_run: int,
    slot_count: int,
    layout: tuple[int, ...],
    hop_free_probs,
) -> float:
    """Probability that every segment of ``layout`` offers ``min_run``
    contiguous free slots.

    Segment k spans hops layout[k]..layout[k+1]-1.
    """
    result = 1.0
    for a, b in zip(layout, layout[1:]):
        result *= run_probability(min_run, slot_count, math.prod(hop_free_probs[a - 1 : b - 1]))
        if result == 0.0:
            break
    return result


@dataclass(frozen=True)
class SegmentTable:
    """The segments a solve's forward passes can close, by slot count.

    ``columns`` lists the link ids the segments cross; row i of ``hops``
    holds segment i's columns in path order, padded with ``len(columns)``,
    a column whose free probability is always 1.0; ``rows[S]`` indexes the
    segments of the requests for S slots.
    """

    slot_count: int
    columns: tuple[int, ...]
    hops: np.ndarray
    rows: dict[int, np.ndarray]

    def run_memo(self, phis: LinkFreeProbs) -> dict:
        """A memo for ``lightpath_blocking`` holding the run probability
        of every segment at link state ``phis``: one array call of
        ``run_probability`` per slot count.  Multiplying column by column
        rounds exactly as the forward pass's running products do, so the
        keys are the ones it looks up."""
        phi = np.array([phis[lid] for lid in self.columns] + [1.0])
        rho = phi[self.hops[:, 0]]
        for column in self.hops[:, 1:].T:
            rho = rho * phi[column]
        memo: dict = {}
        for min_run, rows in self.rows.items():
            rhos = rho[rows]
            values = run_probability(min_run, self.slot_count, rhos)
            memo[(min_run, self.slot_count)] = dict(zip(rhos.tolist(), values.tolist()))
        return memo


def segment_table(
    demands: list[DemandSpec],
    routes: list[RoutedPath],
    archs: ArchitectureMap,
    slot_count: int,
) -> SegmentTable:
    """Every segment the forward pass can close on ``routes``: the pairs of
    layout positions with no ``full`` node strictly between them (a full
    converter is always free, so it closes every segment open through it),
    for each slot count up to ``slot_count`` that the route's demand asks for."""
    segments: dict[tuple[int, ...], int] = {}  # link ids -> row
    rows: dict[int, dict[int, None]] = {}  # slot count -> ordered set of rows
    for demand, route in zip(demands, routes):
        sizes = [s for s, p in demand.slot_pmf.items() if p and s <= slot_count]
        if not sizes:
            continue
        layout = converter_layout(route, archs)
        for i, a in enumerate(layout[:-1]):
            for b in layout[i + 1 :]:
                row = segments.setdefault(route.link_ids[a - 1 : b - 1], len(segments))
                for s in sizes:
                    rows.setdefault(s, {})[row] = None
                if archs.get(route.nodes[b - 1], SIMPLE_NODE).kind == FULL:
                    break
    columns = tuple(sorted({lid for segment in segments for lid in segment}))
    index = {lid: col for col, lid in enumerate(columns)}
    width = max(map(len, segments), default=1)
    hops = np.full((len(segments), width), len(columns), dtype=np.intp)
    for segment, row in segments.items():
        hops[row, : len(segment)] = [index[lid] for lid in segment]
    return SegmentTable(
        slot_count,
        columns,
        hops,
        {s: np.fromiter(members, dtype=np.intp) for s, members in sorted(rows.items())},
    )


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
    totals accumulate the demand's mean slot count.
    """
    banks = [("port", link.id) for link in g.links] + [("node", v) for v in g.nodes]
    paths: dict[Bank, int] = dict.fromkeys(banks, 0)
    slots: dict[Bank, float] = dict.fromkeys(banks, 0.0)
    for route in routes:
        weight = route.demand.mean_slots if route.demand is not None else 0.0
        for pos in range(1, route.hop_count):  # interior node positions
            for bank in (("node", route.nodes[pos]), ("port", route.links[pos].id)):
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


def converter_availability(
    position: int,
    path: RoutedPath,
    archs: ArchitectureMap,
    stats: CrossingStats,
    phis: LinkFreeProbs,
) -> float:
    """Probability the converter at path position ``position`` is free for
    this request: 1 for a full node, else its bank's availability."""
    node = path.nodes[position - 1]
    arch = archs.get(node, SIMPLE_NODE)
    return _availability(node, path.links[position - 1].id, arch, stats, phis, {})


def _availability(
    node: int,
    exit_link_id: int,
    arch: NodeArchitecture,
    stats: CrossingStats,
    phis: LinkFreeProbs,
    memo: dict,
) -> float:
    """``converter_availability`` by node and exit link; memoized in
    ``memo`` by bank."""
    bank = bank_key(node, exit_link_id, arch)
    if bank is None:
        return 1.0
    value = memo.get(bank)
    if value is None:
        value = memo[bank] = share_per_link_availability(
            arch.n_sc,
            stats.paths[bank],
            stats.slots[bank],
            math.fsum(share * phis[j] for j, share in stats.shares[bank]),
        )
    return value


# ---------------------------------------------------------------------------
# blocking


def lightpath_blocking(
    min_run: int,
    path: RoutedPath,
    archs: ArchitectureMap,
    phis: LinkFreeProbs,
    stats: CrossingStats,
    slot_count: int,
    memo: dict | None = None,
) -> float:
    """Blocking probability of a request for ``min_run`` contiguous slots
    on ``path``: the expectation of 1 - seg(T) over the random set T of the
    path's interior converters that are free to take the request.

    One pass over the hops carries the open segments as (mass, rho) pairs:
    mass is the probability that the segment is open and every segment
    closed before it succeeded, rho the product of the free probabilities
    of its hops so far, taken in path order.  A converter free with
    probability a closes each open segment with probability a, which
    blocks with mass * a * (1 - success) and opens a segment at the
    converter; with probability 1 - a the open segments run on through it.
    The destination closes every open segment, as a converter with a = 1.

    ``memo`` holds values that depend only on the link state: under key
    (min_run, slot_count), a dict from a segment's rho to its run
    probability, as ``SegmentTable.run_memo`` makes it, and under each
    bank's key, that bank's availability.  Share one memo only between
    calls at the same ``phis``, ``archs`` and ``stats``.
    """
    if min_run > slot_count:
        return 1.0
    if memo is None:
        memo = {}
    runs = memo.setdefault((min_run, slot_count), {})
    nodes, links = path.nodes, path.links
    masses = [1.0]
    rhos = [1.0]
    blocked = 0.0
    for hop, link in enumerate(links, start=1):
        phi = phis[link.id]
        rhos = [rho * phi for rho in rhos]
        if hop == len(links):
            avail = 1.0
        else:
            node = nodes[hop]  # the interior node at path position hop + 1
            arch = archs.get(node)
            if arch is None or not arch.converts:
                continue
            avail = _availability(node, links[hop].id, arch, stats, phis, memo)
            if avail == 0.0:
                continue
        closed = 0.0
        for mass, rho in zip(masses, rhos):
            success = runs.get(rho)
            if success is None:  # a segment no table listed
                success = runs[rho] = run_probability(min_run, slot_count, rho)
            blocked += avail * mass * (1.0 - success)
            closed += mass * success
        busy = 1.0 - avail
        if busy:
            masses = [mass * busy for mass in masses]
        else:
            masses, rhos = [], []
        masses.append(avail * closed)
        rhos.append(1.0)
    return blocked


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


def blocking_full_at(min_run: int, slot_count: int, layout: tuple[int, ...], hop_free_probs) -> float:
    """Always-available converters at the layout's interior positions:
    every segment independently needs a window."""
    return 1.0 - segment_success_prob(min_run, slot_count, layout, hop_free_probs)
