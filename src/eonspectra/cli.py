"""Command-line front end.

Subcommands: ``analyze`` (fixed-point blocking), ``simulate`` (Monte
Carlo), ``place`` (converter placement), ``sweep`` (blocking vs. traffic
table) and ``gen-demands`` (random demand sets).  Exit codes: 0 success,
1 input error, 2 analysis did not converge (the result is still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
import zlib
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from .analyzer import AnalysisConfig, fixed_point
from .errors import InputError
from .fixtures import demands_document, generate_demands
from .lightpath import (
    SHARE_PER_LINK,
    SHARE_PER_NODE,
    SIMPLE,
    NodeArchitecture,
    load_architectures,
    uniform_architectures,
)
from .placement import place_brute_force, place_heuristic
from .reports import (
    write_analysis,
    write_manifest,
    write_placement,
    write_simulation,
    write_sweep,
)
from .simulator import SimConfig, resolve_windows, simulate
from .topology import (
    load_demands,
    load_topology,
    network_traffic,
    route_all,
    scale_demands,
)

log = logging.getLogger("eonspectra")


def derive_seed(root: int, name: str) -> int:
    """Named substream of the root seed, stable across runs."""
    seq = np.random.SeedSequence([root, zlib.crc32(name.encode())])
    return int(seq.generate_state(1)[0])


class _Parser(argparse.ArgumentParser):
    # flag misuse is an input error: keep exit code 1, 2 means non-convergence
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--topology", required=True, help="topology JSON file")
    sub.add_argument("--demands", required=True, help="demands JSON file")
    sub.add_argument("--arch", help="architecture JSON file (default: all simple)")
    sub.add_argument("--out", required=True, help="output file")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--seed", type=int, default=0, help="root seed for all randomness")


def _add_analysis_flags(sub):
    sub.add_argument("--epsilon", type=float, default=1e-6)
    sub.add_argument("--max-iter", type=int, default=1000)
    sub.add_argument("--damping", type=float, default=1.0)


def _add_sim_flags(sub):
    sub.add_argument("--warmup", type=float, help="statistics start (default: 10 mean holds)")
    sub.add_argument("--horizon", type=float, help="simulation end time")
    sub.add_argument("--replications", type=int, default=1)
    sub.add_argument("--trace", help="write a line-per-event trace to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eonspectra", description=__doc__)
    parser.add_argument("--version", action="version", version=f"eonspectra {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="fixed-point blocking analysis")
    _add_common(analyze)
    _add_analysis_flags(analyze)

    sim = commands.add_parser("simulate", help="Monte Carlo simulation")
    _add_common(sim)
    _add_sim_flags(sim)

    place = commands.add_parser("place", help="converter placement")
    _add_common(place)
    _add_analysis_flags(place)
    place.add_argument(
        "--converters",
        required=True,
        help="inventory, e.g. full,full,share_per_node:1",
    )
    place.add_argument("--oracle", action="store_true", help="brute force instead of greedy")
    place.add_argument("--guard", type=int, default=100_000, help="brute-force evaluation cap")

    sweep = commands.add_parser("sweep", help="blocking vs. traffic table")
    _add_common(sweep)
    _add_analysis_flags(sweep)
    _add_sim_flags(sweep)
    sweep.add_argument(
        "--traffic", required=True, help="comma-separated increasing traffic targets"
    )
    sweep.add_argument("--with-sim", action="store_true", help="add simulated columns")
    sweep.add_argument(
        "--arch-sweep",
        help=(
            "comma-separated uniform settings to compare, e.g. "
            "simple,share_per_node:1,share_per_link:1,full "
            "(default: the --arch file, or all-simple)"
        ),
    )

    gen = commands.add_parser("gen-demands", help="generate a random all-pairs demand set")
    gen.add_argument("--topology", required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--rate-range", default="0.5,1.5")
    gen.add_argument("--hold-range", default="0.5,1.5")
    gen.add_argument("--slots-range", default="1,3")
    gen.add_argument("--traffic", type=float, help="rescale rates to hit this traffic")
    return parser


def _parse_range(text: str, kind=float) -> tuple:
    try:
        lo, hi = (kind(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"range must be lo,hi: {text!r}") from exc
    if hi < lo:
        raise InputError(f"range must be increasing: {text!r}")
    return lo, hi


def _parse_spec_items(text: str) -> list[tuple[str, NodeArchitecture]]:
    """``simple,share_per_node:1`` -> ``(item, architecture)`` pairs, with
    empty items skipped."""
    items = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        kind, _, count = item.partition(":")
        n_sc = None
        if count:
            try:
                n_sc = int(count)
            except ValueError as exc:
                raise InputError(f"bad SCB count in {item!r}") from exc
        if kind in (SHARE_PER_LINK, SHARE_PER_NODE) and n_sc is None:
            raise InputError(f"{kind} needs an SCB count, e.g. {kind}:2")
        items.append((item, NodeArchitecture(kind=kind, n_sc=n_sc)))
    return items


def parse_converter_spec(text: str) -> list[NodeArchitecture]:
    """``full,full,share_per_node:1`` -> inventory list; an empty spec is an
    empty inventory (baseline-only placement)."""
    inventory = [arch for _, arch in _parse_spec_items(text)]
    if any(not arch.converts for arch in inventory):
        raise InputError("a simple node is not a converter")
    return inventory


def parse_arch_sweep(text: str, graph) -> list[tuple[str, dict]]:
    """``simple,full`` -> ``(name, uniform architecture map)`` settings."""
    settings = [
        (item, uniform_architectures(graph, arch)) for item, arch in _parse_spec_items(text)
    ]
    if not settings:
        raise InputError("empty architecture sweep")
    return settings


def _load_inputs(args):
    graph = load_topology(Path(args.topology).read_text())
    demands = load_demands(Path(args.demands).read_text(), graph)
    archs = {}
    if args.arch:
        archs = load_architectures(Path(args.arch).read_text(), graph)
    return graph, demands, archs


def _input_paths(args) -> dict:
    return {"topology": args.topology, "demands": args.demands, "arch": args.arch}


def _analysis_config(args, seed: int) -> AnalysisConfig:
    return AnalysisConfig(
        epsilon=args.epsilon,
        max_iter=args.max_iter,
        seed=seed,
        damping=args.damping,
    )


def _analysis_parameters(config: AnalysisConfig) -> dict:
    """Manifest entries of an analysis config, without the derived seed:
    manifests record the user's root seed."""
    parameters = dataclasses.asdict(config)
    del parameters["seed"]
    return parameters


def _cmd_analyze(args) -> int:
    graph, demands, archs = _load_inputs(args)
    config = _analysis_config(args, derive_seed(args.seed, "analysis"))
    routes = route_all(graph, demands)
    result = fixed_point(graph, demands, archs, config, routes=routes)
    write_analysis(args.out, args.format, result, graph, demands, routes)
    write_manifest(
        args.out,
        "analyze",
        {
            "format": args.format,
            "seed": args.seed,
            **_analysis_parameters(config),
            "converged": result.converged,
            "iterations": result.iterations,
        },
        _input_paths(args),
    )
    return 0 if result.converged else 2


def _sim_config(args, seed: int) -> SimConfig:
    return SimConfig(
        seed=seed,
        warmup=args.warmup,
        horizon=args.horizon,
        replications=args.replications,
    )


def _cmd_simulate(args) -> int:
    graph, demands, archs = _load_inputs(args)
    config = _sim_config(args, derive_seed(args.seed, "simulation"))
    # input errors surface here, before the trace file is created
    routes = route_all(graph, demands)
    resolve_windows(demands, config)
    with open(args.trace, "w") if args.trace else nullcontext() as trace_file:
        trace = trace_file.write if trace_file else None
        result = simulate(graph, demands, archs, config, routes=routes, trace=trace)
    write_simulation(args.out, args.format, result, graph, demands)
    write_manifest(
        args.out,
        "simulate",
        {
            "format": args.format,
            "seed": args.seed,
            "warmup": result.warmup,
            "horizon": result.horizon,
            "replications": config.replications,
        },
        _input_paths(args),
    )
    return 0


def _cmd_place(args) -> int:
    graph, demands, archs = _load_inputs(args)
    inventory = parse_converter_spec(args.converters)
    config = _analysis_config(args, derive_seed(args.seed, "analysis"))
    if args.oracle:
        result = place_brute_force(graph, demands, inventory, config, archs, guard=args.guard)
    else:
        result = place_heuristic(graph, demands, inventory, config, archs)
    write_placement(args.out, args.format, result, graph)
    write_manifest(
        args.out,
        "place",
        {
            "format": args.format,
            "seed": args.seed,
            "converters": args.converters,
            "oracle": args.oracle,
            **_analysis_parameters(config),
            "evaluations": result.evaluations,
        },
        _input_paths(args),
    )
    return 0


def _cmd_sweep(args) -> int:
    graph, demands, archs = _load_inputs(args)
    try:
        targets = [float(part) for part in args.traffic.split(",") if part.strip()]
    except ValueError as exc:
        raise InputError(f"bad traffic list {args.traffic!r}") from exc
    if not targets or any(t <= 0 for t in targets) or sorted(targets) != targets:
        raise InputError("traffic targets must be positive and increasing")
    if args.arch_sweep:
        settings = parse_arch_sweep(args.arch_sweep, graph)
    elif args.arch:
        settings = [("arch-file", archs)]
    else:
        settings = [(SIMPLE, {})]

    routes = route_all(graph, demands)
    base_traffic = network_traffic(graph, demands, routes)
    if base_traffic <= 0:
        raise InputError("base demand set carries no traffic")
    config = _analysis_config(args, derive_seed(args.seed, "analysis"))
    sim_config = _sim_config(args, derive_seed(args.seed, "simulation")) if args.with_sim else None

    rows = []
    any_unconverged = False
    for target in targets:
        scale = target / base_traffic
        scaled = scale_demands(demands, scale)
        for name, setting in settings:
            analytic = fixed_point(graph, scaled, setting, config, routes=routes)
            any_unconverged = any_unconverged or not analytic.converged
            row = {
                "traffic": target,
                "setting": name,
                "scale": scale,
                "analytic_blocking": analytic.network_blocking_prob,
                "analytic_converged": analytic.converged,
                "sim_blocking": None,
                "sim_ci95": None,
            }
            if args.with_sim:
                sim = simulate(graph, scaled, setting, sim_config, routes=routes)
                row["sim_blocking"] = sim.network_blocking_prob
                row["sim_ci95"] = sim.ci95_half_width
            rows.append(row)
    write_sweep(args.out, args.format, rows)
    write_manifest(
        args.out,
        "sweep",
        {
            "format": args.format,
            "seed": args.seed,
            "traffic": targets,
            "settings": [name for name, _ in settings],
            "with_sim": args.with_sim,
            **_analysis_parameters(config),
            "warmup": args.warmup,
            "horizon": args.horizon,
            "replications": args.replications,
            "base_traffic": base_traffic,
        },
        _input_paths(args),
    )
    return 2 if any_unconverged else 0


def _cmd_gen_demands(args) -> int:
    graph = load_topology(Path(args.topology).read_text())
    demands = generate_demands(
        graph,
        seed=derive_seed(args.seed, "demands"),
        rate_range=_parse_range(args.rate_range),
        hold_range=_parse_range(args.hold_range),
        slots_range=_parse_range(args.slots_range, int),
        traffic_target=args.traffic,
    )
    Path(args.out).write_text(demands_document(graph, demands) + "\n")
    write_manifest(
        args.out,
        "gen-demands",
        {
            "seed": args.seed,
            "rate_range": args.rate_range,
            "hold_range": args.hold_range,
            "slots_range": args.slots_range,
            "traffic": args.traffic,
            "pairs": len(demands),
        },
        {"topology": args.topology},
    )
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "place": _cmd_place,
    "sweep": _cmd_sweep,
    "gen-demands": _cmd_gen_demands,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
