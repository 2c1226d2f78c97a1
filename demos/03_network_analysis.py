"""Network-wide blocking on the bundled 14-node NSF backbone.

The fixed point couples link occupancy and per-demand blocking: offered
load determines how free each link looks, which determines blocking, which
feeds back into carried load.  The iteration starts from random values and
settles in a few dozen rounds.
"""

from eonspectra import (
    AnalysisConfig,
    FULL,
    NodeArchitecture,
    SHARE_PER_LINK,
    SHARE_PER_NODE,
    compile_routing,
    fixed_point,
    route_all,
    uniform_architectures,
)
from eonspectra.fixtures import nsf14, nsf14_demands

graph = nsf14()
demands = nsf14_demands(graph)
routes = route_all(graph, demands)
routing = compile_routing(graph, demands, routes)  # shared by every setting's solve
config = AnalysisConfig(epsilon=1e-6, seed=1)

print(f"NSF backbone: {graph.node_count} nodes, {len(graph.links)} directed links, "
      f"F = {graph.slot_count} slots, {len(demands)} demands")
print()

results = {}
for label, archs in [
    ("simple", {}),
    ("share-per-node(1)", uniform_architectures(graph, NodeArchitecture(SHARE_PER_NODE, 1))),
    ("share-per-link(1)", uniform_architectures(graph, NodeArchitecture(SHARE_PER_LINK, 1))),
    ("full", uniform_architectures(graph, NodeArchitecture(FULL))),
]:
    result = fixed_point(graph, demands, archs, config, routing=routing)
    results[label] = result
    print(f"  {label:18s} P_B = {result.network_blocking_prob:.6f} "
          f"({result.iterations} iterations, converged={result.converged})")

print()
base = results["simple"]
pairs = sorted(
    zip(demands, routes, base.demand_blockings), key=lambda t: -t[2]
)[:5]
print("five hardest demands without conversion:")
for demand, route, blocking in pairs:
    print(f"  {graph.label_of(demand.src):>2} -> {graph.label_of(demand.dst):>2} "
          f"({route.hop_count} hops): blocking {blocking:.4f}")

print()
tight = sorted(base.phis.items(), key=lambda item: item[1])[:5]
print("five most loaded links (lowest slot-free probability):")
for link_id, phi in tight:
    link = graph.links[link_id - 1]
    print(f"  {graph.label_of(link.tail):>2} -> {graph.label_of(link.head):>2}: phi = {phi:.4f}")
