"""Network graph model, demands and routing.

Nodes are dense integers 1..n internally.  Topology files may label nodes
with arbitrary strings or integers; the loader assigns dense ids in file
order and keeps the original labels for reports.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    DemandError,
    DuplicateEdgeError,
    MissingNodeError,
    NonpositiveWeightError,
    TopologyParseError,
    UnreachableError,
)


@dataclass(frozen=True)
class Link:
    """One directed fiber link."""

    id: int
    tail: int
    head: int
    weight: float


@dataclass
class NetworkGraph:
    """Weighted directed graph of optical nodes, every fiber carrying
    ``slot_count`` spectrum slots.

    ``labels[i - 1]`` is the original label of node ``i``.
    """

    labels: list
    links: list[Link]
    slot_count: int
    name: str = ""
    _out: dict[int, tuple[Link, ...]] = field(init=False, repr=False)
    _by_pair: dict[tuple[int, int], Link] = field(init=False, repr=False)

    def __post_init__(self):
        if self.slot_count < 1:
            raise TopologyParseError(f"slot_count must be >= 1, got {self.slot_count}")
        n = len(self.labels)
        pairs = {}
        out: dict[int, list[Link]] = {v: [] for v in range(1, n + 1)}
        for link in self.links:
            if not (1 <= link.tail <= n) or not (1 <= link.head <= n):
                raise MissingNodeError(f"link {link.id} references unknown node")
            if link.tail == link.head:
                raise TopologyParseError(f"self-loop at node {self.labels[link.tail - 1]!r}")
            if not math.isfinite(link.weight):
                raise TopologyParseError(
                    f"link {self.labels[link.tail - 1]!r}->{self.labels[link.head - 1]!r} "
                    f"has non-finite weight {link.weight}"
                )
            if link.weight <= 0:
                raise NonpositiveWeightError(
                    f"link {self.labels[link.tail - 1]!r}->{self.labels[link.head - 1]!r} "
                    f"has nonpositive weight {link.weight}"
                )
            key = (link.tail, link.head)
            if key in pairs:
                raise DuplicateEdgeError(
                    f"duplicate link {self.labels[link.tail - 1]!r}->{self.labels[link.head - 1]!r}"
                )
            pairs[key] = link
            out[link.tail].append(link)
        for v in out:
            out[v].sort(key=lambda e: e.head)
        self._out = {v: tuple(es) for v, es in out.items()}
        self._by_pair = pairs

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def nodes(self) -> range:
        return range(1, len(self.labels) + 1)

    def label_of(self, node: int):
        return self.labels[node - 1]

    def node_of(self, label) -> int:
        try:
            return self.labels.index(label) + 1
        except ValueError:
            raise MissingNodeError(f"unknown node label {label!r}") from None

    def out_links(self, node: int) -> tuple[Link, ...]:
        return self._out[node]

    def link_between(self, tail: int, head: int) -> Link:
        return self._by_pair[(tail, head)]


@dataclass
class DemandSpec:
    """One source-destination connection-request process.

    Arrivals are Poisson with mean rate ``rate``, holds are exponential with
    mean ``hold`` and the requested slot count is drawn from ``slot_pmf``.
    """

    src: int
    dst: int
    rate: float
    hold: float
    slot_pmf: dict[int, float]

    def __post_init__(self):
        if self.src == self.dst:
            raise DemandError(f"demand src == dst ({self.src})")
        if not (math.isfinite(self.rate) and math.isfinite(self.hold)):
            raise DemandError(f"demand {self.src}->{self.dst}: rate and hold must be finite")
        if self.rate <= 0 or self.hold <= 0:
            raise DemandError(f"demand {self.src}->{self.dst}: rate and hold must be positive")
        if not self.slot_pmf:
            raise DemandError(f"demand {self.src}->{self.dst}: empty slot pmf")
        total = 0.0
        for s, p in self.slot_pmf.items():
            if not isinstance(s, int) or s < 1:
                raise DemandError(f"demand {self.src}->{self.dst}: slot count {s!r} must be int >= 1")
            if not math.isfinite(p) or p < 0:
                raise DemandError(
                    f"demand {self.src}->{self.dst}: pmf entry {p} is not a probability"
                )
            total += p
        if abs(total - 1.0) > 1e-12:
            raise DemandError(f"demand {self.src}->{self.dst}: pmf sums to {total}, not 1")

    @property
    def mean_slots(self) -> float:
        return sum(s * p for s, p in self.slot_pmf.items())


@dataclass
class RoutedPath:
    """A simple directed path; ``nodes[0]`` is the source, hop h joins
    nodes[h-1] to nodes[h]."""

    nodes: tuple[int, ...]
    links: tuple[Link, ...]
    demand: DemandSpec | None = None

    @property
    def hop_count(self) -> int:
        return len(self.links)

    @cached_property
    def link_ids(self) -> tuple[int, ...]:
        return tuple(link.id for link in self.links)


# ---------------------------------------------------------------------------
# loading


def _parse_document(document, what: str) -> object:
    if isinstance(document, (str, bytes)):
        try:
            return json.loads(document)
        except json.JSONDecodeError as exc:
            raise TopologyParseError(f"invalid {what} JSON: {exc}") from exc
    return document


def load_topology(document) -> NetworkGraph:
    """Build a :class:`NetworkGraph` from a topology document.

    ``document`` is JSON text or an already-parsed dict of the form
    ``{"name", "slot_count", "nodes": [...], "edges": [{"a", "b", "weight",
    "directed"?}, ...]}``.  Undirected edges expand into two directed links.
    """
    doc = _parse_document(document, "topology")
    if not isinstance(doc, dict):
        raise TopologyParseError("topology document must be a JSON object")
    try:
        raw_nodes = list(doc["nodes"])
        raw_edges = list(doc["edges"])
        slot_count = doc["slot_count"]
    except KeyError as exc:
        raise TopologyParseError(f"topology document missing key {exc}") from exc
    if not isinstance(slot_count, int) or slot_count < 1:
        raise TopologyParseError(f"slot_count must be a positive integer, got {slot_count!r}")
    if len(set(map(repr, raw_nodes))) != len(raw_nodes):
        raise TopologyParseError("duplicate node labels")
    index = {label: i + 1 for i, label in enumerate(raw_nodes)}

    links: list[Link] = []

    def add(a, b, weight):
        try:
            tail, head = index[a], index[b]
        except KeyError as exc:
            raise MissingNodeError(f"edge references unknown node {exc}") from exc
        links.append(Link(id=len(links) + 1, tail=tail, head=head, weight=float(weight)))

    for entry in raw_edges:
        try:
            a, b, weight = entry["a"], entry["b"], entry["weight"]
        except (KeyError, TypeError) as exc:
            raise TopologyParseError(f"malformed edge entry {entry!r}") from exc
        directed = bool(entry.get("directed", False))
        add(a, b, weight)
        if not directed:
            add(b, a, weight)

    return NetworkGraph(
        labels=raw_nodes,
        links=links,
        slot_count=slot_count,
        name=str(doc.get("name", "")),
    )


def load_demands(document, graph: NetworkGraph) -> list[DemandSpec]:
    """Parse a demands document against ``graph``.

    Entries look like ``{"src", "dst", "rate", "hold", "slots"}`` where
    ``slots`` is either a fixed integer or a pmf table
    ``[{"s": int, "p": num}, ...]``.  Slot counts above the graph's
    slot_count are rejected: such a request could never be carried.
    """
    doc = _parse_document(document, "demands")
    if not isinstance(doc, list):
        raise DemandError("demands document must be a JSON array")
    demands = []
    for entry in doc:
        try:
            src, dst = entry["src"], entry["dst"]
            rate, hold = float(entry["rate"]), float(entry["hold"])
            slots = entry["slots"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DemandError(f"malformed demand entry {entry!r}: {exc}") from exc
        if isinstance(slots, int):
            pmf = {slots: 1.0}
        elif isinstance(slots, list):
            pmf = {}
            for row in slots:
                try:
                    s, p = row["s"], float(row["p"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise DemandError(f"malformed pmf row {row!r}") from exc
                if s in pmf:
                    raise DemandError(f"duplicate pmf slot count {s}")
                pmf[s] = p
        else:
            raise DemandError(f"demand slots must be int or pmf list, got {slots!r}")
        for s in pmf:
            if isinstance(s, int) and s > graph.slot_count:
                raise DemandError(
                    f"demand {src!r}->{dst!r} requests {s} slots but fibers carry "
                    f"{graph.slot_count}"
                )
        demands.append(
            DemandSpec(
                src=graph.node_of(src),
                dst=graph.node_of(dst),
                rate=rate,
                hold=hold,
                slot_pmf=pmf,
            )
        )
    return demands


# ---------------------------------------------------------------------------
# routing


def shortest_path(g: NetworkGraph, src: int, dst: int) -> RoutedPath:
    """Minimum-weight simple path from src to dst.

    Ties between equal-weight paths break toward the lexicographically
    smallest node sequence, which makes every downstream result
    reproducible.
    """
    if src == dst:
        raise ValueError("src == dst")
    best: dict[int, tuple[float, tuple[int, ...]]] = {src: (0.0, (src,))}
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (src,))]
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if best.get(node, (float("inf"), ())) != (cost, path):
            continue
        if node == dst:
            break
        for link in g.out_links(node):
            if link.head in path:
                continue
            cand = (cost + link.weight, path + (link.head,))
            cur = best.get(link.head)
            if cur is None or cand < cur:
                best[link.head] = cand
                heapq.heappush(heap, cand)
    if dst not in best:
        raise UnreachableError([(g.label_of(src), g.label_of(dst))])
    _, nodes = best[dst]
    links = tuple(g.link_between(a, b) for a, b in zip(nodes, nodes[1:]))
    return RoutedPath(nodes=nodes, links=links)


def route_all(g: NetworkGraph, demands: list[DemandSpec]) -> list[RoutedPath]:
    """Shortest-path route for every demand; aborts listing all unreachable pairs."""
    routes = []
    unreachable = []
    for demand in demands:
        try:
            path = shortest_path(g, demand.src, demand.dst)
        except UnreachableError:
            unreachable.append((g.label_of(demand.src), g.label_of(demand.dst)))
            continue
        routes.append(RoutedPath(nodes=path.nodes, links=path.links, demand=demand))
    if unreachable:
        raise UnreachableError(unreachable)
    return routes


def network_traffic(g: NetworkGraph, demands: list[DemandSpec], routes: list[RoutedPath]) -> float:
    """Normalized offered traffic: total carried slot-hops per slot of
    installed directed-link capacity."""
    if len(demands) != len(routes):
        raise ValueError("demands and routes are not aligned")
    if not g.links:
        raise ValueError("graph has no links")
    total = sum(
        d.rate * d.hold * d.mean_slots * r.hop_count for d, r in zip(demands, routes)
    )
    return total / (len(g.links) * g.slot_count)


def scale_demands(demands: list[DemandSpec], factor: float) -> list[DemandSpec]:
    """The same demands with every arrival rate multiplied by ``factor``."""
    return [
        DemandSpec(src=d.src, dst=d.dst, rate=d.rate * factor, hold=d.hold, slot_pmf=d.slot_pmf)
        for d in demands
    ]
