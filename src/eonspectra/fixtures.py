"""Bundled reference topologies and demand-set generation.

The 14-node NSF backbone ships with the link weight set commonly used in
optical-network studies; the exact weights behind published NSF figures
vary between papers, so results on this fixture are regression values for
this package, not literature ground truth.  The 6-node network is a small
mesh convenient for exhaustive cross-checks.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .errors import DemandError
from .topology import (
    DemandSpec,
    NetworkGraph,
    load_demands,
    load_topology,
    network_traffic,
    route_all,
    scale_demands,
)


def _load_data(name: str) -> str:
    return resources.files("eonspectra.data").joinpath(name).read_text()


def nsf14() -> NetworkGraph:
    """14 nodes, 21 bidirectional links, 42 directed links."""
    return load_topology(_load_data("nsf14.json"))


def nsf14_demands(graph: NetworkGraph | None = None) -> list[DemandSpec]:
    """All-pairs demand set bundled for the NSF fixture."""
    graph = graph or nsf14()
    return load_demands(_load_data("nsf14_demands.json"), graph)


def sixnode() -> NetworkGraph:
    """6 nodes, 9 bidirectional links; small enough for brute force."""
    return load_topology(_load_data("sixnode.json"))


def sixnode_demands(graph: NetworkGraph | None = None) -> list[DemandSpec]:
    graph = graph or sixnode()
    return load_demands(_load_data("sixnode_demands.json"), graph)


def generate_demands(
    graph: NetworkGraph,
    seed: int = 0,
    rate_range: tuple[float, float] = (0.5, 1.5),
    hold_range: tuple[float, float] = (0.5, 1.5),
    slots_range: tuple[int, int] = (1, 3),
    traffic_target: float | None = None,
) -> list[DemandSpec]:
    """One demand per ordered node pair: uniform mean rate and hold, a
    fixed uniform slot count, optionally rescaling all rates so the
    normalized network traffic hits ``traffic_target``.  The slot range
    must lie within the graph's 1..slot_count."""
    lo, hi = slots_range
    if not 1 <= lo <= hi <= graph.slot_count:
        raise DemandError(f"slots range {lo},{hi} must lie within 1..{graph.slot_count}")
    rng = np.random.default_rng(seed)
    demands = []
    for src in graph.nodes:
        for dst in graph.nodes:
            if src == dst:
                continue
            rate = float(rng.uniform(*rate_range))
            hold = float(rng.uniform(*hold_range))
            slots = int(rng.integers(slots_range[0], slots_range[1] + 1))
            demands.append(DemandSpec(src=src, dst=dst, rate=rate, hold=hold, slot_pmf={slots: 1.0}))
    if traffic_target is not None:
        routes = route_all(graph, demands)
        demands = scale_demands(demands, traffic_target / network_traffic(graph, demands, routes))
    return demands


def demands_document(graph: NetworkGraph, demands: list[DemandSpec]) -> str:
    """Serialize demands back to the JSON interchange form."""
    rows = []
    for d in demands:
        pmf = d.slot_pmf
        if len(pmf) == 1:
            slots = next(iter(pmf))
        else:
            slots = [{"s": s, "p": p} for s, p in sorted(pmf.items())]
        rows.append(
            {
                "src": graph.label_of(d.src),
                "dst": graph.label_of(d.dst),
                "rate": d.rate,
                "hold": d.hold,
                "slots": slots,
            }
        )
    return json.dumps(rows, indent=1)
