"""Where should a limited stock of converters go?

The greedy heuristic ranks the inventory by effective conversion
capability, then tries each remaining simple node for each item and keeps
the best.  On the 6-node mesh it is cheap enough to check against the
exhaustive search; on NSF it needs 39 fixed-point evaluations instead of
the 1092 of the exhaustive search, which tries identical items only once.
"""

import time

from eonspectra import (
    AnalysisConfig,
    FULL,
    NodeArchitecture,
    SHARE_PER_LINK,
    SHARE_PER_NODE,
    place_brute_force,
    place_heuristic,
)
from eonspectra.fixtures import nsf14, nsf14_demands, sixnode, sixnode_demands

config = AnalysisConfig(epsilon=1e-6, seed=1)

print("--- 6-node mesh, K = 2 (one full, one share-per-link bank)")
graph = sixnode()
demands = sixnode_demands(graph)
inventory = [NodeArchitecture(FULL), NodeArchitecture(SHARE_PER_LINK, 1)]

greedy = place_heuristic(graph, demands, inventory, config)
print(f"greedy   : P_B {greedy.baseline_blocking:.6f} -> {greedy.achieved_blocking:.6f} "
      f"in {greedy.evaluations} evaluations")
for step in greedy.steps:
    trail = ", ".join(f"{node}:{blocking:.5f}" for node, blocking, _ in step.candidates)
    print(f"  placed {step.arch.kind:15s} at node {step.chosen_node}  (candidates {trail})")

oracle = place_brute_force(graph, demands, inventory, config)
print(f"exhaustive: P_B {oracle.achieved_blocking:.6f} in {oracle.evaluations} evaluations "
      f"-> same solution: {greedy.assignment == oracle.assignment}")

print()
print("--- NSF backbone, K = 3 (two full, one share-per-node with 1 box)")
graph = nsf14()
demands = nsf14_demands(graph)
inventory = [
    NodeArchitecture(FULL),
    NodeArchitecture(FULL),
    NodeArchitecture(SHARE_PER_NODE, 1),
]
start = time.perf_counter()
result = place_heuristic(graph, demands, inventory, config)
elapsed = time.perf_counter() - start
print(f"P_B {result.baseline_blocking:.6f} -> {result.achieved_blocking:.6f} "
      f"({result.evaluations} evaluations, {elapsed:.1f}s)")
for step in result.steps:
    print(f"  placed {step.arch.kind:15s} at node {step.chosen_node} "
          f"(P_B now {step.blocking:.6f})")
print("ranked inventory (merit):",
      [f"{arch.kind}:{merit:.3f}" for arch, merit in result.ranked])
