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
The cut points form a chain, so the expectation is one forward pass over
the converters: it carries the probability mass of each still-open
segment start and adds the failure of every segment as it closes.  That
evaluates O(k^2) segments for k converters (O(k) when all are always
free), and every term is nonnegative, so the result is a probability by
construction.  Layouts are tuples of path positions ``(1, p2, ..., H+1)``:
fixed endpoints plus the interior positions that hold a converter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ArchitectureError, MissingNodeError
from .runprob import run_probability
from .topology import NetworkGraph, RoutedPath

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
    interior = tuple(
        pos
        for pos in range(2, hops + 1)
        if archs.get(path.nodes[pos - 1], SIMPLE_NODE).converts
    )
    return (1,) + interior + (hops + 1,)


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
    run_memo: dict = {}
    result = 1.0
    for a, b in zip(layout, layout[1:]):
        result *= _segment_prob(min_run, slot_count, hop_free_probs, a, b, run_memo)
        if result == 0.0:
            break
    return result


def _segment_prob(
    min_run: int, slot_count: int, hop_free_probs, a: int, b: int, run_memo: dict
) -> float:
    """Run probability of the segment over hops a..b-1, on which a slot is
    free with the product of the per-hop probabilities; memoized in
    ``run_memo`` by (min_run, slot_count, rho)."""
    rho = math.prod(hop_free_probs[a - 1 : b - 1])
    key = (min_run, slot_count, rho)
    value = run_memo.get(key)
    if value is None:
        value = run_probability(min_run, slot_count, rho)
        run_memo[key] = value
    return value


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
    bank = bank_key(node, path.links[position - 1].id, arch)
    if bank is None:
        return 1.0
    return share_per_link_availability(
        arch.n_sc,
        stats.paths[bank],
        stats.slots[bank],
        math.fsum(share * phis[j] for j, share in stats.shares[bank]),
    )


# ---------------------------------------------------------------------------
# blocking


def lightpath_blocking(
    min_run: int,
    path: RoutedPath,
    archs: ArchitectureMap,
    phis: LinkFreeProbs,
    stats: CrossingStats,
    slot_count: int,
    run_memo: dict | None = None,
) -> float:
    """Blocking probability of a request for ``min_run`` contiguous slots
    on ``path``: the expectation of 1 - seg(T) over the random set T of the
    path's interior converters that are free to take the request.

    ``open_segments`` holds (start, mass) pairs: mass is the probability
    that the open segment starts at path position ``start`` and every
    segment closed before it succeeded.  A converter free with probability
    a closes each open segment with probability a, which blocks with
    mass * a * (1 - success) and opens a segment at the converter; with
    probability 1 - a the open segments run on through it.
    """
    if min_run > slot_count:
        return 1.0
    if run_memo is None:
        run_memo = {}
    hop_probs = tuple(phis[link.id] for link in path.links)
    open_segments = [(1, 1.0)]
    blocked = 0.0
    for pos in converter_layout(path, archs)[1:-1]:
        avail = converter_availability(pos, path, archs, stats, phis)
        if avail == 0.0:
            continue
        closed = 0.0
        for start, mass in open_segments:
            success = _segment_prob(min_run, slot_count, hop_probs, start, pos, run_memo)
            blocked += avail * mass * (1.0 - success)
            closed += mass * success
        busy = 1.0 - avail
        open_segments = [(start, mass * busy) for start, mass in open_segments] if busy else []
        open_segments.append((pos, avail * closed))
    end = len(hop_probs) + 1
    for start, mass in open_segments:
        blocked += mass * (1.0 - _segment_prob(min_run, slot_count, hop_probs, start, end, run_memo))
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
