"""Placing a limited stock of converter-capable cross-connects.

The greedy heuristic ranks the inventory by an effective-converter-count
merit, then places items one at a time, trying every remaining simple node
and committing the one with the lowest network blocking.  The brute-force
search enumerates every assignment of the inventory to distinct nodes and
serves as the optimality oracle at small scale.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations

from .analyzer import AnalysisConfig, compile_routing, fixed_point
from .errors import InputError
from .lightpath import (
    FULL,
    SHARE_PER_LINK,
    SHARE_PER_NODE,
    SIMPLE_NODE,
    ArchitectureMap,
    NodeArchitecture,
)
from .topology import DemandSpec, NetworkGraph, route_all

_KIND_RANK = {FULL: 0, SHARE_PER_LINK: 1, SHARE_PER_NODE: 2}


def effective_converters(
    arch: NodeArchitecture,
    slot_count: int,
    mean_ports: float,
) -> float:
    """Merit estimating how much conversion capability an architecture
    contributes.

    A per-port bank of n_sc boxes is diluted over the F slots it may serve;
    a node-wide bank is additionally diluted over the node's ports.  A full
    architecture has no finite bank, so it counts as one box per slot.
    """
    if slot_count < 1:
        raise ValueError("slot_count must be >= 1")
    if mean_ports <= 0:
        raise ValueError("mean out-degree must be positive")
    if arch.kind == FULL:
        return float(slot_count)
    if arch.kind == SHARE_PER_LINK:
        return arch.n_sc / slot_count
    if arch.kind == SHARE_PER_NODE:
        return arch.n_sc / (mean_ports * slot_count)
    raise ValueError("a simple node has no conversion capability to rank")


def rank_inventory(
    inventory: list[NodeArchitecture], graph: NetworkGraph
) -> list[tuple[NodeArchitecture, float]]:
    """Inventory sorted by decreasing merit; ties prefer full over per-link
    over per-node banks, then larger banks, then input order."""
    mean_out = len(graph.links) / graph.node_count
    merits = [effective_converters(arch, graph.slot_count, mean_out) for arch in inventory]
    order = sorted(
        range(len(inventory)),
        key=lambda i: (-merits[i], _KIND_RANK[inventory[i].kind], -(inventory[i].n_sc or 0), i),
    )
    return [(inventory[i], merits[i]) for i in order]


@dataclass
class PlacementStep:
    arch: NodeArchitecture
    candidates: list[tuple[int, float, bool]]  # (node, blocking, converged)
    chosen_node: int
    blocking: float


@dataclass
class PlacementResult:
    assignment: dict[int, NodeArchitecture]
    achieved_blocking: float
    baseline_blocking: float
    steps: list[PlacementStep]
    evaluations: int
    ranked: list[tuple[NodeArchitecture, float]]
    method: str
    all_converged: bool


def _candidates(graph: NetworkGraph, inventory: list[NodeArchitecture], base: ArchitectureMap):
    """The simple nodes of ``base``, once the inventory is checked to hold
    only converting items and no more of them than there are such nodes."""
    if not all(arch.converts for arch in inventory):
        raise InputError("inventory items must have conversion capability")
    nodes = [v for v in graph.nodes if not base.get(v, SIMPLE_NODE).converts]
    if len(inventory) > len(nodes):
        raise InputError(f"{len(inventory)} converters but only {len(nodes)} simple nodes")
    return nodes


def _scorer(graph: NetworkGraph, demands: list[DemandSpec], config: AnalysisConfig):
    """Route the demands and compile their routing once, and return the
    trial scorer.

    ``score(maps)`` solves each architecture map in turn over that one
    routing and returns the index of the best one and each map's
    ``(blocking, converged)``.  A later map wins only when its blocking is
    lower by more than epsilon, so ties resolve to the earliest map.
    """
    routing = compile_routing(graph, demands, route_all(graph, demands))

    def score(maps: Iterable[ArchitectureMap]) -> tuple[int, list[tuple[float, bool]]]:
        best, scores = 0, []
        for i, archs in enumerate(maps):
            trial = fixed_point(graph, demands, archs, config, routing=routing)
            scores.append((trial.network_blocking_prob, trial.converged))
            if scores[i][0] < scores[best][0] - config.epsilon:
                best = i
        return best, scores

    return score


def place_heuristic(
    graph: NetworkGraph,
    demands: list[DemandSpec],
    inventory: list[NodeArchitecture],
    config: AnalysisConfig | None = None,
    base_archs: ArchitectureMap | None = None,
) -> PlacementResult:
    """Greedy placement: items in merit order, each committed at the simple
    node whose trial evaluation gives the lowest network blocking.

    Candidates within epsilon of the best are treated as ties and resolve
    to the lowest node id.  Non-convergent trials score by their last
    iterate and are flagged in the step trace.
    """
    config = config or AnalysisConfig()
    base = dict(base_archs or {})
    candidates = _candidates(graph, inventory, base)
    score = _scorer(graph, demands, config)
    _, [(baseline, converged)] = score([base])
    ranked = rank_inventory(inventory, graph)

    assignment: dict[int, NodeArchitecture] = {}
    steps: list[PlacementStep] = []
    for arch, _merit in ranked:
        free = [v for v in candidates if v not in assignment]
        best, scores = score([{**base, **assignment, v: arch} for v in free])
        assignment[free[best]] = arch
        table = [(v, blocking, converged) for v, (blocking, converged) in zip(free, scores)]
        steps.append(PlacementStep(arch, table, free[best], scores[best][0]))
    return PlacementResult(
        assignment=assignment,
        achieved_blocking=steps[-1].blocking if steps else baseline,
        baseline_blocking=baseline,
        steps=steps,
        evaluations=sum(len(step.candidates) for step in steps),
        ranked=ranked,
        method="heuristic",
        all_converged=converged and all(c for step in steps for _, _, c in step.candidates),
    )


def _distinct_orders(inventory: list[NodeArchitecture]):
    """Every distinct order of ``inventory`` once, ascending by the
    sequence of its items' ``(kind, n_sc or 0)`` (Knuth's Algorithm L)."""
    values = sorted(set(inventory), key=lambda arch: (arch.kind, arch.n_sc or 0))
    codes = sorted(values.index(arch) for arch in inventory)
    while True:
        yield tuple(values[c] for c in codes)
        rises = [i for i in range(len(codes) - 1) if codes[i] < codes[i + 1]]
        if not rises:
            return
        i = rises[-1]
        j = max(m for m in range(i + 1, len(codes)) if codes[m] > codes[i])
        codes[i], codes[j] = codes[j], codes[i]
        codes[i + 1 :] = reversed(codes[i + 1 :])


def place_brute_force(
    graph: NetworkGraph,
    demands: list[DemandSpec],
    inventory: list[NodeArchitecture],
    config: AnalysisConfig | None = None,
    base_archs: ArchitectureMap | None = None,
    guard: int = 100_000,
) -> PlacementResult:
    """Global search over every assignment of the inventory to distinct
    simple nodes.  Identical inventory items would only permute into the
    same assignment, so only distinct orders are enumerated, and ``guard``
    bounds the evaluations that remain."""
    config = config or AnalysisConfig()
    base = dict(base_archs or {})
    candidates = _candidates(graph, inventory, base)
    k = len(inventory)
    total = math.comb(len(candidates), k) * math.factorial(k)
    for count in Counter(inventory).values():
        total //= math.factorial(count)
    if total > guard:
        raise InputError(f"brute force would need {total} evaluations (guard {guard})")
    score = _scorer(graph, demands, config)
    _, [(baseline, converged)] = score([base])

    orders = list(_distinct_orders(inventory))
    assignments = [
        dict(zip(nodes, items)) for nodes in combinations(candidates, k) for items in orders
    ]
    best, scores = score({**base, **assign} for assign in assignments)
    return PlacementResult(
        assignment=assignments[best],
        achieved_blocking=scores[best][0],
        baseline_blocking=baseline,
        steps=[],
        evaluations=len(assignments),
        ranked=rank_inventory(inventory, graph),
        method="brute-force",
        all_converged=converged and all(c for _, c in scores),
    )
