"""Analytic curves against discrete-event simulation on the NSF backbone.

Scales the bundled demand set to a range of traffic levels, solves the
fixed point per architecture setting, and validates each point with the
Monte Carlo simulator.  Writes a CSV next to this script and, when
matplotlib is importable, a PNG with lines (analysis) and markers
(simulation).
"""

import csv
from pathlib import Path

from eonspectra import (
    AnalysisConfig,
    FULL,
    NodeArchitecture,
    SHARE_PER_LINK,
    SHARE_PER_NODE,
    SimConfig,
    compile_routing,
    fixed_point,
    network_traffic,
    route_all,
    scale_demands,
    simulate,
    uniform_architectures,
)
from eonspectra.fixtures import nsf14, nsf14_demands

graph = nsf14()
base = nsf14_demands(graph)
routes = route_all(graph, base)
base_traffic = network_traffic(graph, base, routes)
targets = [0.25, 0.35, 0.5]
offered_per_point = 40_000  # modest: this is a walkthrough, not the acceptance run

settings = [
    ("simple", {}),
    ("share-per-node(1)", uniform_architectures(graph, NodeArchitecture(SHARE_PER_NODE, 1))),
    ("share-per-link(1)", uniform_architectures(graph, NodeArchitecture(SHARE_PER_LINK, 1))),
    ("full", uniform_architectures(graph, NodeArchitecture(FULL))),
]
config = AnalysisConfig(epsilon=1e-6, seed=1, damping=0.5, max_iter=2000)
total_rate = sum(d.rate for d in base)
max_hold = max(d.hold for d in base)

rows = []
for target in targets:
    scale = target / base_traffic
    demands = scale_demands(base, scale)
    routing = compile_routing(graph, demands, routes)  # shared by the point's settings
    sim_config = SimConfig(seed=7, warmup=10 * max_hold,
                           horizon=10 * max_hold + offered_per_point / (total_rate * scale))
    print(f"traffic T = {target}")
    for name, archs in settings:
        analytic = fixed_point(graph, demands, archs, config, routing=routing)
        sim = simulate(graph, demands, archs, sim_config, routes=routes)
        rows.append((target, name, analytic.network_blocking_prob, sim.network_blocking_prob))
        print(f"  {name:18s} analytic {analytic.network_blocking_prob:.5f}   "
              f"simulated {sim.network_blocking_prob:.5f}")

out_csv = Path(__file__).with_suffix(".csv")
with open(out_csv, "w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["traffic", "setting", "analytic_blocking", "sim_blocking"])
    writer.writerows(rows)
print(f"\nwrote {out_csv}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    for name, _ in settings:
        xs = [t for t, n, _, _ in rows if n == name]
        analytic = [a for _, n, a, _ in rows if n == name]
        simulated = [s for _, n, _, s in rows if n == name]
        line, = ax.plot(xs, analytic, label=f"{name} (analysis)")
        ax.plot(xs, simulated, linestyle="none", marker="o", color=line.get_color())
    ax.set_xlabel("network traffic")
    ax.set_ylabel("blocking probability")
    ax.set_title("NSF backbone: lines = analysis, markers = simulation")
    ax.legend(fontsize=8)
    out_png = Path(__file__).with_suffix(".png")
    fig.tight_layout()
    fig.savefig(out_png, dpi=120)
    print(f"wrote {out_png}")
