"""Network-wide blocking via a reduced-load fixed point.

The per-link slot-free probabilities and the per-demand blocking
probabilities are coupled: carried load determines how free the links
look, and the free-slot picture determines blocking.  The solver iterates
the two updates from random starting values until the network blocking
probability and every link's free probability stop moving.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import DemandError, InputError
from .lightpath import (
    ArchitectureMap,
    CrossingStats,
    LinkFreeProbs,
    RouteGrid,
    compile_plan,
    crossing_stats,
    lightpath_blocking,
    route_grid,
)
from .topology import DemandSpec, NetworkGraph, RoutedPath, _integer, demand_routes, left_sum

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
        _integer(self.max_iter, "max_iter", InputError, 1)
        _integer(self.seed, "seed", InputError, 0)
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
) -> float:
    """Average blocking of one demand: its slot-count pmf weighting the
    per-slot-count lightpath blocking, summed from 0.0 in ascending slot
    count.  ``fixed_point`` gives this value bit for bit without calling
    it."""
    return left_sum(
        p * lightpath_blocking(s, path, archs, phis, stats, slot_count)
        for s, p in demand.slot_pmf.items()
    )


def phi_update(
    demands: list[DemandSpec],
    routes: list[RoutedPath],
    blockings: list[float],
    graph: NetworkGraph,
) -> LinkFreeProbs:
    """Every link's slot-free probability, by link id, from the demands'
    ``blockings``: the link update ``Routing.update`` of
    ``compile_routing(graph, demands, routes)``.  Routes not aligned with
    the demands, or blockings that are not one finite probability in
    [0, 1] per demand, raise ``InputError``."""
    values = np.asarray(blockings, dtype=float)
    if values.shape != (len(demands),):
        raise InputError(f"{values.size} blockings for {len(demands)} demands")
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise InputError("a blocking is not a finite probability in [0, 1]")
    free = compile_routing(graph, demands, routes).update(values)
    return dict(enumerate(free.tolist(), 1))


@dataclass(frozen=True, eq=False)
class Routing:
    """What every solve over one graph, demand list and set of routes
    shares, whatever the architecture map: ``compile_routing`` builds it.

    ``routes`` holds one route per demand from its source to its
    destination, bound to that demand.  The route-link incidence lists
    every hop demand by demand, each route in path order: hop i puts demand
    ``hop_demands[i]`` on link ``hop_links[i]``, a position in
    ``graph.links`` (its id less one), and ``slot_loads`` holds each
    demand's offered slot load.  ``reads`` lists the (slot count, route)
    reads of the plans' values, in demand order and each demand's
    ascending slot count (its ``slot_pmf`` order), with each read's demand
    in ``owner`` and its pmf weight in ``pmf_weight``.  ``loads`` holds
    each demand's offered load and ``weight`` their ``left_sum`` (1.0 for
    none).  The plans' ``RouteGrid`` of the (route, slot counts) requests
    in demand order is built on first read of ``grid``, and the routes'
    ``CrossingStats`` on first read of ``stats`` unless given, so a lone
    link update builds neither.
    """

    graph: NetworkGraph
    demands: list[DemandSpec]
    routes: list[RoutedPath]
    given_stats: CrossingStats | None
    slot_loads: np.ndarray
    hop_links: np.ndarray
    hop_demands: np.ndarray
    reads: list[tuple[int, RoutedPath]]
    owner: np.ndarray
    pmf_weight: np.ndarray
    loads: np.ndarray
    weight: float

    @cached_property
    def stats(self) -> CrossingStats:
        return self.given_stats or crossing_stats(self.graph, self.routes)

    @cached_property
    def grid(self) -> RouteGrid:
        requests = zip(self.routes, [d.slot_pmf for d in self.demands])
        return route_grid(requests, self.graph.slot_count)

    def update(self, blockings) -> np.ndarray:
        """The link update: every link's free probability, in
        ``graph.links`` order, from the demands' blockings.  Each demand
        carries its unblocked share of its offered slot load on every link
        of its route; one ``np.bincount`` over the incidence adds each
        link's loads in demand order, normalized by the fiber capacity and
        clamped at full."""
        loads = self.slot_loads * (1.0 - np.asarray(blockings, dtype=float))
        carried = np.bincount(self.hop_links, loads[self.hop_demands], len(self.graph.links))
        return 1.0 - np.minimum(carried / self.graph.slot_count, 1.0)


def compile_routing(
    graph: NetworkGraph,
    demands: list[DemandSpec],
    routes: list[RoutedPath] | None = None,
    stats: CrossingStats | None = None,
) -> Routing:
    """The ``Routing`` of ``demands`` on ``routes`` (the shortest paths
    when None), with ``stats`` computed from the routes when None.  Each
    demand's reads and weights follow its ``slot_pmf`` as built: nonzero
    rows in ascending slot count.  The routes are checked with
    ``demand_routes`` before any other work, and demands whose summed
    offered slot load overflows a float raise ``DemandError``."""
    routes = demand_routes(graph, demands, routes)
    slot_loads = [d.offered_load * d.mean_slots for d in demands]
    if not math.isfinite(left_sum(slot_loads)):
        raise DemandError("the demands' summed offered slot load overflows")
    pmfs = [d.slot_pmf for d in demands]
    loads = [d.offered_load for d in demands]
    return Routing(
        graph,
        demands,
        routes,
        stats,
        np.array(slot_loads, dtype=float),
        np.fromiter(chain.from_iterable(route.link_ids for route in routes), np.intp) - 1,
        np.repeat(np.arange(len(demands)), [route.hop_count for route in routes]),
        [(s, route) for pmf, route in zip(pmfs, routes) for s in pmf],
        np.repeat(np.arange(len(demands)), list(map(len, pmfs))),
        np.array([p for pmf in pmfs for p in pmf.values()], dtype=float),
        np.array(loads, dtype=float),
        left_sum(loads) if demands else 1.0,
    )


def fixed_point(
    graph: NetworkGraph,
    demands: list[DemandSpec],
    archs: ArchitectureMap,
    config: AnalysisConfig | None = None,
    routes: list[RoutedPath] | None = None,
    stats: CrossingStats | None = None,
    *,
    routing: Routing | None = None,
) -> AnalysisResult:
    """Iterate link-state and blocking updates to a self-consistent point.

    Starts from independently random per-demand blockings and the link
    state their update gives.  Each iteration refreshes every demand's
    blocking and the network blocking from the link state, then tests
    convergence once: the network blocking and every link's free
    probability moved by at most epsilon since the previous iteration (the
    first has no previous link state).  Otherwise the next link state is
    the update from the new blockings blended with the current one by
    ``damping``; at 1.0 the blend returns the update exactly.  The loop
    ends converged or at the iteration cap (``converged=False``, never
    raised); ``iterations`` is the trajectory's length.  An empty demand
    set warns once and has a network blocking of 0 by convention.

    What does not move with the link state is compiled first.  The
    ``Routing`` (``compile_routing``) holds what the architecture map does
    not move, its ``update`` being the link update; solves over the same
    graph and demands may share one, passed as ``routing`` in place of
    ``routes`` and ``stats`` (one compiled for another graph or demand
    list raises ``InputError``).  The converter stops (``compile_plan``)
    are compiled per solve.  The link state is one float64 array in
    ``graph.links`` order, link id i at position i - 1, and the result's
    ``phis`` is its dict by link id.  An iteration evaluates the plan at
    it and reads the plan through ``lightpath_blocking`` once per (demand,
    slot count), in demand order and ascending slot count.  One weighted
    ``np.bincount`` adds each demand's ``p * b`` terms in that order from
    0.0, and one more adds the ``load * b`` terms of the network blocking
    into one bin in demand order, as ``left_sum`` does.  So every number
    equals that of per-demand ``demand_blocking`` calls over scalar passes
    bit for bit.  Demands whose summed offered slot load overflows a float
    raise ``DemandError`` before any work.
    """
    if config is None:
        config = AnalysisConfig()
    if routing is None:
        routing = compile_routing(graph, demands, routes, stats)
    elif routes is not None or stats is not None:
        raise InputError("a routing replaces routes and stats; pass one or the other")
    elif routing.graph != graph or routing.demands != demands:
        raise InputError("the routing was compiled for another graph or demand list")
    if not demands:
        log.warning("network blocking over an empty demand set is 0 by convention")
    update, reads, loads, stats = routing.update, routing.reads, routing.loads, routing.stats
    plan, slot_count = compile_plan(routing.grid, archs, stats), graph.slot_count

    rng = np.random.default_rng(config.seed)
    p_net = float(rng.random())
    blockings = rng.random(len(demands)).tolist()
    phi = update(blockings)  # every link's free probability, in graph.links order
    phi_delta = math.inf  # max |change| of a link's free probability
    d, weight = config.damping, routing.weight
    one_bin = np.zeros(len(demands), np.intp)
    trajectory: list[float] = []
    while True:
        memo = plan.evaluate(phi)
        values = [lightpath_blocking(s, route, archs, phi, stats, slot_count, memo)
                  for s, route in reads]
        blockings = np.bincount(routing.owner, routing.pmf_weight * values, len(demands))
        p_prev, p_net = p_net, float(np.bincount(one_bin, loads * blockings, 1)[0]) / weight
        trajectory.append(p_net)
        converged = abs(p_net - p_prev) <= config.epsilon and phi_delta <= config.epsilon
        if converged or len(trajectory) == config.max_iter:
            break
        fresh = d * update(blockings) + (1.0 - d) * phi
        phi_delta = float(np.max(np.abs(fresh - phi), initial=0.0))
        phi = fresh

    if not converged:
        log.warning(
            "fixed point not converged after %d iterations "
            "(last network delta %.3e, link delta %.3e)",
            len(trajectory),
            abs(p_net - p_prev),
            phi_delta,
        )
    return AnalysisResult(
        phis=dict(enumerate(phi.tolist(), 1)),  # the state evaluated last
        demand_blockings=blockings.tolist(),
        network_blocking_prob=p_net,
        iterations=len(trajectory),
        converged=converged,
        trajectory=trajectory,
    )
