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
from dataclasses import dataclass, field
from itertools import combinations, permutations

from .analyzer import AnalysisConfig, fixed_point
from .errors import InputError
from .lightpath import (
    FULL,
    SHARE_PER_LINK,
    SHARE_PER_NODE,
    SIMPLE_NODE,
    ArchitectureMap,
    NodeArchitecture,
)
from .topology import DemandSpec, NetworkGraph, crossing_stats, route_all

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
    ranked: list[tuple[NodeArchitecture, float]] = field(default_factory=list)
    method: str = "heuristic"
    all_converged: bool = True


def _setup(
    graph: NetworkGraph,
    demands: list[DemandSpec],
    inventory: list[NodeArchitecture],
    config: AnalysisConfig,
    base: ArchitectureMap,
):
    """Check the inventory against the simple nodes of ``base``, then route
    the demands once and solve the baseline.  Returns the candidate nodes,
    the routes, the crossing statistics and the baseline blocking."""
    for arch in inventory:
        if not arch.converts:
            raise InputError("inventory items must have conversion capability")
    candidates = _simple_nodes(graph, base)
    if len(inventory) > len(candidates):
        raise InputError(
            f"{len(inventory)} converters but only {len(candidates)} simple nodes"
        )
    routes = route_all(graph, demands)
    stats = crossing_stats(graph, routes)
    baseline = fixed_point(graph, demands, base, config, routes, stats).network_blocking_prob
    return candidates, routes, stats, baseline


def _simple_nodes(graph: NetworkGraph, base: ArchitectureMap) -> list[int]:
    return [v for v in graph.nodes if not base.get(v, SIMPLE_NODE).converts]


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
    candidates, routes, stats, baseline = _setup(graph, demands, inventory, config, base)
    ranked = rank_inventory(inventory, graph)

    current = dict(base)
    assignment: dict[int, NodeArchitecture] = {}
    steps: list[PlacementStep] = []
    evaluations = 0
    achieved = baseline
    all_converged = True
    for arch, _merit in ranked:
        free_nodes = [v for v in candidates if v not in assignment]
        evaluations += len(free_nodes)
        table = []
        best_node, best_blocking = None, math.inf
        for node in free_nodes:
            trial = fixed_point(graph, demands, {**current, node: arch}, config, routes, stats)
            blocking, converged = trial.network_blocking_prob, trial.converged
            table.append((node, blocking, converged))
            all_converged = all_converged and converged
            if best_node is None or blocking < best_blocking - config.epsilon:
                best_node, best_blocking = node, blocking
        assignment[best_node] = arch
        current[best_node] = arch
        achieved = best_blocking
        steps.append(
            PlacementStep(arch=arch, candidates=table, chosen_node=best_node, blocking=best_blocking)
        )
    return PlacementResult(
        assignment=assignment,
        achieved_blocking=achieved,
        baseline_blocking=baseline,
        steps=steps,
        evaluations=evaluations,
        ranked=ranked,
        method="heuristic",
        all_converged=all_converged,
    )


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
    same assignment, so those orders are collapsed before evaluating, and
    ``guard`` bounds the evaluations that remain."""
    config = config or AnalysisConfig()
    base = dict(base_archs or {})
    k = len(inventory)
    orders = math.factorial(k)
    for count in Counter(inventory).values():
        orders //= math.factorial(count)
    total = math.comb(len(_simple_nodes(graph, base)), k) * orders
    if total > guard:
        raise InputError(f"brute force would need {total} evaluations (guard {guard})")
    candidates, routes, stats, baseline = _setup(graph, demands, inventory, config, base)

    perms = sorted(
        set(permutations(inventory)),
        key=lambda order: [(arch.kind, arch.n_sc or 0) for arch in order],
    )
    assignments: list[dict[int, NodeArchitecture]] = []
    for nodes in combinations(candidates, k):
        for items in perms:
            assignments.append(dict(zip(nodes, items)))

    best, best_blocking, all_converged = None, math.inf, True
    for assign in assignments:
        trial = fixed_point(graph, demands, {**base, **assign}, config, routes, stats)
        blocking = trial.network_blocking_prob
        all_converged = all_converged and trial.converged
        if best is None or blocking < best_blocking - config.epsilon:
            best, best_blocking = assign, blocking
    return PlacementResult(
        assignment=best if best is not None else {},
        achieved_blocking=best_blocking if best is not None else baseline,
        baseline_blocking=baseline,
        steps=[],
        evaluations=len(assignments),
        ranked=rank_inventory(inventory, graph),
        method="brute-force",
        all_converged=all_converged,
    )
