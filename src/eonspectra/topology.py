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
from functools import cached_property, reduce
from numbers import Real
from operator import add

from .errors import (
    DemandError,
    DuplicateEdgeError,
    InputError,
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

    ``labels[i - 1]`` is the original label of node ``i`` and
    ``links[i - 1]`` the link with id ``i``.
    """

    labels: list
    links: list[Link]
    slot_count: int
    name: str = ""
    _out: dict[int, tuple[Link, ...]] = field(init=False, repr=False)
    _by_pair: dict[tuple[int, int], Link] = field(init=False, repr=False)

    def __post_init__(self):
        _integer(self.slot_count, "slot_count", TopologyParseError, 1)
        n = len(self.labels)
        pairs = {}
        out: dict[int, list[Link]] = {v: [] for v in range(1, n + 1)}
        for i, link in enumerate(self.links, 1):
            if link.id != i:
                raise TopologyParseError(f"link {i} has id {link.id!r}")
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


def left_sum(values) -> float:
    """``values`` added left to right from 0.0: the built-in ``sum``
    compensates float rounding from Python 3.12 on."""
    return reduce(add, values, 0.0)


@dataclass
class DemandSpec:
    """One source-destination connection-request process.

    Arrivals are Poisson with mean rate ``rate``, holds are exponential with
    mean ``hold`` and the requested slot count is drawn from ``slot_pmf``.
    Once checked, ``slot_pmf`` is replaced by a new dict of its nonzero
    rows in ascending slot count, the one order every reader iterates, so
    every result depends only on the set of rows given.
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
        for s, p in self.slot_pmf.items():
            _integer(s, f"demand {self.src}->{self.dst}: slot count", DemandError, 1)
            if not math.isfinite(p) or p < 0:
                raise DemandError(
                    f"demand {self.src}->{self.dst}: pmf entry {p} is not a probability"
                )
        total = math.fsum(self.slot_pmf.values())
        if abs(total - 1.0) > 1e-12:
            raise DemandError(f"demand {self.src}->{self.dst}: pmf sums to {total}, not 1")
        self.slot_pmf = {s: p for s, p in sorted(self.slot_pmf.items()) if p != 0.0}
        if not math.isfinite(self.offered_load * self.mean_slots):
            raise DemandError(
                f"demand {self.src}->{self.dst}: offered slot load rate * hold * mean slots "
                "overflows"
            )

    @cached_property
    def mean_slots(self) -> float:
        return left_sum(s * p for s, p in self.slot_pmf.items())

    @cached_property
    def offered_load(self) -> float:
        """``rate * hold``: the demand's offered load in erlangs."""
        return self.rate * self.hold


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


def _parse_document(document, what: str, error: type[InputError]) -> object:
    """``document`` parsed when it is JSON text, else as given; malformed
    JSON raises ``error``."""
    if isinstance(document, (str, bytes)):
        try:
            return json.loads(document)
        except json.JSONDecodeError as exc:
            raise error(f"invalid {what} JSON: {exc}") from exc
    return document


def _number(value, what: str, error: type[InputError]) -> float:
    """``value`` as a float when it is a JSON number (not a boolean), else
    ``error`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{what} {value} is not finite") from None


def _integer(value, what: str, error: type[InputError], minimum: int) -> int:
    """``value`` when it is an ``int`` (not a boolean) of at least
    ``minimum``, else ``error`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise error(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


def _is_label(value) -> bool:
    """Whether ``value`` can label a node: a string or an integer."""
    return isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool))


def load_topology(document) -> NetworkGraph:
    """Build a :class:`NetworkGraph` from a topology document.

    ``document`` is JSON text or an already-parsed dict of the form
    ``{"name", "slot_count", "nodes": [...], "edges": [{"a", "b", "weight",
    "directed"?}, ...]}``, where ``nodes`` and ``edges`` are arrays, node
    labels and edge endpoints strings or integers, ``weight`` a positive
    finite number and ``directed``, when present, a boolean.  Undirected
    edges expand into two directed links; a document without edges is
    rejected.
    """
    doc = _parse_document(document, "topology", TopologyParseError)
    if not isinstance(doc, dict):
        raise TopologyParseError("topology document must be a JSON object")
    try:
        raw_nodes = doc["nodes"]
        raw_edges = doc["edges"]
        slot_count = doc["slot_count"]
    except KeyError as exc:
        raise TopologyParseError(f"topology document missing key {exc}") from exc
    for key, value in (("nodes", raw_nodes), ("edges", raw_edges)):
        if not isinstance(value, list):
            raise TopologyParseError(f"{key} must be a JSON array, got {value!r}")
    for label in raw_nodes:
        if not _is_label(label):
            raise TopologyParseError(f"node label {label!r} is not a string or an integer")
    if len(set(map(repr, raw_nodes))) != len(raw_nodes):
        raise TopologyParseError("duplicate node labels")
    if not raw_edges:
        raise TopologyParseError("topology has no edges")
    index = {label: i + 1 for i, label in enumerate(raw_nodes)}

    links: list[Link] = []

    def add(a, b, weight):
        try:
            tail, head = index[a], index[b]
        except KeyError as exc:
            raise MissingNodeError(f"edge references unknown node {exc}") from exc
        links.append(Link(id=len(links) + 1, tail=tail, head=head, weight=weight))

    for entry in raw_edges:
        try:
            a, b, weight = entry["a"], entry["b"], entry["weight"]
        except (KeyError, TypeError) as exc:
            raise TopologyParseError(f"malformed edge entry {entry!r}") from exc
        for label in (a, b):
            if not _is_label(label):
                raise TopologyParseError(f"edge endpoint {label!r} is not a string or an integer")
        weight = _number(weight, f"edge {a!r}-{b!r}: weight", TopologyParseError)
        directed = entry.get("directed", False)
        if not isinstance(directed, bool):
            raise TopologyParseError(
                f"edge {a!r}-{b!r}: directed must be true or false, got {directed!r}"
            )
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
    ``src`` and ``dst`` are node labels (strings or integers) and
    ``slots`` is either a fixed integer or a pmf table
    ``[{"s": int, "p": num}, ...]``.  Slot counts above the graph's
    slot_count are rejected: such a request could never be carried.
    """
    doc = _parse_document(document, "demands", DemandError)
    if not isinstance(doc, list):
        raise DemandError("demands document must be a JSON array")
    demands = []
    for entry in doc:
        try:
            src, dst, rate, hold = entry["src"], entry["dst"], entry["rate"], entry["hold"]
            slots = entry["slots"]
        except (KeyError, TypeError) as exc:
            raise DemandError(f"malformed demand entry {entry!r}: {exc}") from exc
        rate = _number(rate, f"demand {src!r}->{dst!r}: rate", DemandError)
        hold = _number(hold, f"demand {src!r}->{dst!r}: hold", DemandError)
        for label in (src, dst):
            if not _is_label(label):
                raise DemandError(f"demand endpoint {label!r} is not a string or an integer")
        if isinstance(slots, list):
            pmf = {}
            for row in slots:
                try:
                    s, p = row["s"], row["p"]
                except (KeyError, TypeError) as exc:
                    raise DemandError(f"malformed pmf row {row!r}") from exc
                p = _number(p, f"pmf row {row!r}: p", DemandError)
                s = _integer(s, f"pmf row {row!r}: s", DemandError, 1)
                if s in pmf:
                    raise DemandError(f"duplicate pmf slot count {s}")
                pmf[s] = p
        else:
            pmf = {_integer(slots, f"demand {src!r}->{dst!r}: slots", DemandError, 1): 1.0}
        for s in pmf:
            if s > graph.slot_count:
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


def _settled(g: NetworkGraph, src: int) -> dict[int, tuple[int, ...]]:
    """The node sequence of the lexicographically least ``(cost, nodes)``
    label of every node reached from ``src``: a label-setting search that
    keeps one label per node, the least found so far.  Weights are
    positive, so a label that revisits a node never beats that node's own
    label, and a label popped as its node's own is final.
    """
    best: dict[int, tuple[float, tuple[int, ...]]] = {src: (0.0, (src,))}
    heap: list[tuple[float, tuple[int, ...]]] = [best[src]]
    while heap:
        label = heapq.heappop(heap)
        cost, path = label
        node = path[-1]
        if best[node] is not label:
            continue  # a better label of this node was found after this one
        for link in g.out_links(node):
            cand = (cost + link.weight, path + (link.head,))
            cur = best.get(link.head)
            if cur is None or cand < cur:
                best[link.head] = cand
                heapq.heappush(heap, cand)
    return {node: path for node, (_, path) in best.items()}


def _routed(g: NetworkGraph, nodes: tuple[int, ...], demand: DemandSpec) -> RoutedPath:
    links = tuple(g.link_between(a, b) for a, b in zip(nodes, nodes[1:]))
    return RoutedPath(nodes=nodes, links=links, demand=demand)


def route_all(g: NetworkGraph, demands: list[DemandSpec]) -> list[RoutedPath]:
    """Minimum-weight simple path for every demand, bound to that demand.

    Ties between equal-weight paths break toward the lexicographically
    smallest node sequence, which makes every downstream result
    reproducible.  One search runs per distinct source; aborts listing all
    unreachable pairs, in demand order.
    """
    searches: dict[int, dict[int, tuple[int, ...]]] = {}  # source -> settled paths
    routes = []
    unreachable = []
    for demand in demands:
        settled = searches.get(demand.src)
        if settled is None:
            settled = searches[demand.src] = _settled(g, demand.src)
        if demand.dst not in settled:
            unreachable.append((g.label_of(demand.src), g.label_of(demand.dst)))
            continue
        routes.append(_routed(g, settled[demand.dst], demand))
    if unreachable:
        raise UnreachableError(unreachable)
    return routes


def demand_routes(
    g: NetworkGraph, demands: list[DemandSpec], routes: list[RoutedPath] | None = None
) -> list[RoutedPath]:
    """The routes of a solve or simulation: ``routes``, once checked to hold
    one route per demand from its source to its destination and bound to
    that demand, or the shortest paths when None."""
    if routes is None:
        return route_all(g, demands)
    if len(routes) != len(demands):
        raise InputError(f"{len(routes)} routes for {len(demands)} demands")
    for i, (demand, route) in enumerate(zip(demands, routes)):
        if route.nodes[0] != demand.src or route.nodes[-1] != demand.dst:
            raise InputError(
                f"route {i} runs {route.nodes[0]}->{route.nodes[-1]}, "
                f"but its demand is {demand.src}->{demand.dst}"
            )
    return [
        route if route.demand is demand else RoutedPath(route.nodes, route.links, demand)
        for demand, route in zip(demands, routes)
    ]


def network_traffic(g: NetworkGraph, demands: list[DemandSpec], routes: list[RoutedPath]) -> float:
    """Normalized offered traffic: total carried slot-hops per slot of
    installed directed-link capacity.  Routes not aligned with the demands
    raise ``InputError``, as ``demand_routes`` checks them."""
    routes = demand_routes(g, demands, routes)
    if not g.links:
        raise ValueError("graph has no links")
    total = left_sum(
        d.offered_load * d.mean_slots * r.hop_count for d, r in zip(demands, routes)
    )
    return total / (len(g.links) * g.slot_count)


def scale_demands(demands: list[DemandSpec], factor: float) -> list[DemandSpec]:
    """The same demands with every arrival rate multiplied by ``factor``."""
    return [
        DemandSpec(src=d.src, dst=d.dst, rate=d.rate * factor, hold=d.hold, slot_pmf=d.slot_pmf)
        for d in demands
    ]
