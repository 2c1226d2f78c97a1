"""Network-wide blocking via a reduced-load fixed point.

The per-link slot-free probabilities and the per-demand blocking
probabilities are coupled: carried load determines how free the links
look, and the free-slot picture determines blocking.  The solver iterates
the two updates from random starting values until the network blocking
probability stops moving.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .lightpath import (
    ArchitectureMap,
    CrossingStats,
    LinkFreeProbs,
    crossing_stats,
    lightpath_blocking,
)
from .topology import DemandSpec, NetworkGraph, RoutedPath, route_all

log = logging.getLogger(__name__)


@dataclass
class AnalysisConfig:
    epsilon: float = 1e-6
    max_iter: int = 1000
    seed: int = 0
    damping: float = 1.0  # 1.0 replays the bare iteration; lower blends updates

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise InputError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.max_iter < 1:
            raise InputError("max_iter must be >= 1")
        if not (0.0 < self.damping <= 1.0):
            raise InputError(f"damping must be in (0, 1], got {self.damping}")


@dataclass
class AnalysisResult:
    phis: LinkFreeProbs
    demand_blockings: list[float]
    network_blocking_prob: float
    iterations: int
    converged: bool
    trajectory: list[float] = field(default_factory=list)


def demand_blocking(
    demand: DemandSpec,
    path: RoutedPath,
    archs: ArchitectureMap,
    phis: LinkFreeProbs,
    stats: CrossingStats,
    slot_count: int,
    run_memo: dict | None = None,
) -> float:
    """Average blocking of one demand: its slot-count pmf weighting the
    per-slot-count lightpath blocking."""
    total = 0.0
    for s, p in sorted(demand.slot_pmf.items()):
        if p == 0.0:
            continue
        total += p * lightpath_blocking(s, path, archs, phis, stats, slot_count, run_memo)
    return total


def network_blocking(demands: list[DemandSpec], blockings: list[float]) -> float:
    """Offered-load (rate * hold) weighted average of per-demand blocking."""
    if len(demands) != len(blockings):
        raise ValueError("demands and blockings are not aligned")
    if not demands:
        log.warning("network blocking over an empty demand set is 0 by convention")
        return 0.0
    weight = sum(d.rate * d.hold for d in demands)
    return sum(d.rate * d.hold * b for d, b in zip(demands, blockings)) / weight


def phi_update(
    demands: list[DemandSpec],
    routes: list[RoutedPath],
    blockings: list[float],
    graph: NetworkGraph,
) -> LinkFreeProbs:
    """Estimate per-link slot-free probabilities from carried load:
    each crossing demand contributes its unblocked share of rate * hold *
    mean slots, normalized by the fiber capacity and clamped at full."""
    carried = {link.id: 0.0 for link in graph.links}
    for demand, route, blocking in zip(demands, routes, blockings):
        load = demand.rate * demand.hold * demand.mean_slots * (1.0 - blocking)
        for link in route.links:
            carried[link.id] += load
    slots = float(graph.slot_count)
    return {lid: 1.0 - min(total / slots, 1.0) for lid, total in carried.items()}


def fixed_point(
    graph: NetworkGraph,
    demands: list[DemandSpec],
    archs: ArchitectureMap,
    config: AnalysisConfig | None = None,
    routes: list[RoutedPath] | None = None,
    stats: CrossingStats | None = None,
) -> AnalysisResult:
    """Iterate link-state and blocking updates to a self-consistent point.

    Starts from independently random per-demand blockings, then loops:
    back up the network blocking, refresh every link's free probability,
    refresh every demand's blocking, refresh the network blocking.  Stops
    when two successive network values and every link's two successive
    free probabilities differ by at most epsilon, or at the iteration cap
    (returned with ``converged=False``, never raised).
    """
    if config is None:
        config = AnalysisConfig()
    if routes is None:
        routes = route_all(graph, demands)
    if stats is None:
        stats = crossing_stats(graph, routes)

    rng = np.random.default_rng(config.seed)
    p_net = float(rng.random())
    blockings = [float(x) for x in rng.random(len(demands))]
    p_prev = -1.0

    phis: LinkFreeProbs = {}
    phi_delta = math.inf  # max |change| of a link's free probability
    trajectory: list[float] = []
    iterations = 0
    while (
        abs(p_net - p_prev) > config.epsilon or phi_delta > config.epsilon
    ) and iterations < config.max_iter:
        p_prev = p_net
        fresh = phi_update(demands, routes, blockings, graph)
        if phis:
            d = config.damping
            if d < 1.0:
                fresh = {lid: d * fresh[lid] + (1.0 - d) * phis[lid] for lid in fresh}
            phi_delta = max((abs(fresh[lid] - phis[lid]) for lid in fresh), default=0.0)
        phis = fresh
        run_memo: dict = {}
        blockings = [
            demand_blocking(demand, route, archs, phis, stats, graph.slot_count, run_memo)
            for demand, route in zip(demands, routes)
        ]
        p_net = network_blocking(demands, blockings)
        trajectory.append(p_net)
        iterations += 1

    converged = abs(p_net - p_prev) <= config.epsilon and phi_delta <= config.epsilon
    if not converged:
        log.warning(
            "fixed point not converged after %d iterations "
            "(last network delta %.3e, link delta %.3e)",
            iterations,
            abs(p_net - p_prev),
            phi_delta,
        )
    return AnalysisResult(
        phis=phis,
        demand_blockings=blockings,
        network_blocking_prob=p_net,
        iterations=iterations,
        converged=converged,
        trajectory=trajectory,
    )
