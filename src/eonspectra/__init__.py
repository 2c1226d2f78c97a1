"""Blocking-probability analytics and simulation for elastic optical
networks with spectrum-conversion-capable cross-connects."""

from .analyzer import (
    AnalysisConfig,
    AnalysisResult,
    demand_blocking,
    fixed_point,
    network_blocking,
    phi_update,
)
from .errors import InputError, SimulatorFault, UnreachableError
from .lightpath import (
    FULL,
    SHARE_PER_LINK,
    SHARE_PER_NODE,
    SIMPLE,
    ArchitectureMap,
    CrossingStats,
    LinkFreeProbs,
    NodeArchitecture,
    blocking_full_at,
    blocking_full_conversion,
    blocking_without_conversion,
    crossing_stats,
    lightpath_blocking,
    load_architectures,
    share_per_link_availability,
    uniform_architectures,
)
from .placement import (
    PlacementResult,
    place_brute_force,
    place_heuristic,
)
from .runprob import run_probability, run_probability_bruteforce
from .simulator import (
    NetworkState,
    SimConfig,
    SimResult,
    admit,
    release,
    simulate,
)
from .topology import (
    DemandSpec,
    Link,
    NetworkGraph,
    RoutedPath,
    load_demands,
    load_topology,
    network_traffic,
    route_all,
    shortest_path,
)

__version__ = "0.1.0"
