"""Blocking probability of a single routed lightpath.

A request for S contiguous slots succeeds on a converter-free path only if
some S-slot window is free on every hop.  A free converter at an interior
node cuts the path there, and each resulting segment may use its own
window.  With independent links and independent converters (Barry &
Humblet 1996; Subramaniam, Azizoglu & Somani 1996) the blocking is one
expectation over the random set T of free converters:

    blocking = E_T[1 - seg(T)]

where converter i is free with probability a_i (``converter_availability``,
architecture dependent) and seg(T) is ``segment_success_prob`` for the
layout cut at T.  The cut points form a chain, so the expectation is one
forward pass over the converters: it carries the probability mass of each
still-open segment start and adds the failure of every segment as it
closes.  That evaluates O(k^2) segments for k converters (O(k) when all
are always free), and every term is nonnegative, so the result is a
probability by construction.  Layouts are tuples of path positions
``(1, p2, ..., H+1)``: fixed endpoints plus the interior positions that
hold a converter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ArchitectureError, MissingNodeError
from .runprob import run_probability
from .topology import CrossingStats, NetworkGraph, RoutedPath

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
# converter availability


def share_per_link_availability(n_sc: int, n_port: int, s_port: float, phi_port: float) -> float:
    """Probability that the SCB bank of one output port has a free box.

    Each of the ``n_port`` transit paths crossing the port skips conversion
    with probability phi_port^(s_port/n_port); the bank is free when fewer
    than ``n_sc`` paths need conversion.  No crossing paths means no
    contention.
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


def node_mean_free_prob(stats: CrossingStats, phis: LinkFreeProbs, node: int) -> float:
    """Slot-free probability an average transit path sees at ``node``:
    the crossing-count-weighted mean over the node's output ports."""
    ports = stats.node_ports[node]
    if not ports:
        return 1.0
    n_node = stats.node_paths[node]
    if n_node == 0:
        return math.fsum(phis[j] for j in ports) / len(ports)
    return math.fsum(stats.port_paths[j] / n_node * phis[j] for j in ports)


def converter_availability(
    position: int,
    path: RoutedPath,
    archs: ArchitectureMap,
    stats: CrossingStats,
    phis: LinkFreeProbs,
) -> float:
    """Probability the converter at path position ``position`` is free for
    this request, per its architecture."""
    node = path.nodes[position - 1]
    arch = archs.get(node, SIMPLE_NODE)
    if arch.kind == FULL:
        return 1.0
    if arch.kind == SHARE_PER_LINK:
        exit_link = path.links[position - 1]
        return share_per_link_availability(
            arch.n_sc,
            stats.port_paths[exit_link.id],
            stats.port_slots[exit_link.id],
            phis[exit_link.id],
        )
    if arch.kind == SHARE_PER_NODE:
        return share_per_link_availability(
            arch.n_sc,
            stats.node_paths[node],
            stats.node_slots[node],
            node_mean_free_prob(stats, phis, node),
        )
    raise ArchitectureError(f"node {node} has no converter")


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
