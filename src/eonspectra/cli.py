"""Command-line front end.

Subcommands: ``analyze`` (fixed-point blocking), ``simulate`` (Monte
Carlo), ``place`` (converter placement), ``sweep`` (blocking vs. traffic
table) and ``gen-demands`` (random demand sets).  Exit codes: 0 success,
1 input error, 2 analysis did not converge (the result is still written):
for ``place``, any solve of a placement, the baseline included, did not
converge.
"""

from __future__ import annotations

import argparse
import logging
import math
import re
import sys
import zlib
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from .analyzer import AnalysisConfig, compile_routing, fixed_point
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
    _integer,
    load_demands,
    load_topology,
    network_traffic,
    route_all,
    scale_demands,
)

log = logging.getLogger("eonspectra")


def derive_seed(root: int, name: str) -> int:
    """Named substream of the root seed, stable across runs."""
    _integer(root, "seed", InputError, 0)
    seq = np.random.SeedSequence([root, zlib.crc32(name.encode())])
    return int(seq.generate_state(1)[0])


class _Parser(argparse.ArgumentParser):
    # flag misuse is an input error: keep exit code 1, 2 means non-convergence
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# plain numerals: ASCII digits with an optional sign, decimal point and
# exponent; float() and int() also take "1_0", " 3 ", "nan" and the digits
# of other scripts
_INTEGER = re.compile(r"[+-]?[0-9]+")
_REAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _numeral(flag: str, text: str, kind=float):
    """``text`` read as a ``kind`` (``float`` or ``int``) when it is a plain
    numeral; anything else is an input error naming ``flag``."""
    if (_INTEGER if kind is int else _REAL).fullmatch(text) is None:
        what = "an integer" if kind is int else "a number"
        raise InputError(f"{flag} must be {what}, got {text!r}")
    return kind(text)


class _Numeral(argparse.Action):
    """Stores a flag's value read by ``_numeral``.  argparse turns only its
    own errors into usage errors, so the ``InputError`` reaches ``main``
    like every other bad number: exit 1 with an ``error:`` line."""

    def __init__(self, option_strings, dest, kind=float, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.kind = kind

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, _numeral(option_string, values, self.kind))


def _add_common(sub):
    sub.add_argument("--topology", required=True, help="topology JSON file")
    sub.add_argument("--demands", required=True, help="demands JSON file")
    sub.add_argument("--arch", help="architecture JSON file (default: all simple)")
    sub.add_argument("--out", required=True, help="output file")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument(
        "--seed", action=_Numeral, kind=int, default=0, help="root seed for all randomness"
    )


def _add_analysis_flags(sub):
    sub.add_argument("--epsilon", action=_Numeral, default=1e-6)
    sub.add_argument("--max-iter", action=_Numeral, kind=int, default=1000)
    sub.add_argument("--damping", action=_Numeral, default=1.0)


def _add_sim_flags(sub):
    sub.add_argument(
        "--warmup", action=_Numeral, help="statistics start (default: 10 mean holds)"
    )
    sub.add_argument("--horizon", action=_Numeral, help="simulation end time")
    sub.add_argument("--replications", action=_Numeral, kind=int, default=1)


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
    sim.add_argument("--trace", help="write a line-per-event trace to this file")

    place = commands.add_parser("place", help="converter placement")
    _add_common(place)
    _add_analysis_flags(place)
    place.add_argument(
        "--converters",
        required=True,
        help="inventory, e.g. full,full,share_per_node:1",
    )
    place.add_argument("--oracle", action="store_true", help="brute force instead of greedy")
    place.add_argument(
        "--guard", action=_Numeral, kind=int, default=100_000, help="brute-force evaluation cap"
    )

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
            "(default: the --arch file, or all-simple; exclusive with --arch)"
        ),
    )

    gen = commands.add_parser("gen-demands", help="generate a random all-pairs demand set")
    gen.add_argument("--topology", required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", action=_Numeral, kind=int, default=0)
    gen.add_argument("--rate-range", default="0.5,1.5")
    gen.add_argument("--hold-range", default="0.5,1.5")
    gen.add_argument("--slots-range", default="1,3")
    gen.add_argument("--traffic", action=_Numeral, help="rescale rates to hit this traffic")
    return parser


def _positive_list(flag: str, text: str, kind=float, count=None) -> list:
    """Comma-separated plain numerals, each read by ``_numeral``; spaces
    around an item are allowed and empty items skipped.  The values must be
    finite, positive and nondecreasing, and exactly ``count`` of them when
    ``count`` is given; anything else is an input error naming ``flag``."""
    values = [_numeral(flag, item.strip(), kind) for item in text.split(",") if item.strip()]
    if count is not None and len(values) != count:
        raise InputError(f"{flag} must hold {count} values: {text!r}")
    if not (values and all(math.isfinite(v) and v > 0 for v in values)) or sorted(values) != values:
        raise InputError(f"{flag} must list finite, positive, nondecreasing numbers: {text!r}")
    return values


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
            # plain digits only: int() also takes "1_0", "+2" and " 3"
            if not (count.isascii() and count.isdigit()):
                raise InputError(f"bad SCB count in {item!r}")
            n_sc = int(count)
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


def _analysis_config(args) -> AnalysisConfig:
    return AnalysisConfig(
        epsilon=args.epsilon,
        max_iter=args.max_iter,
        seed=derive_seed(args.seed, "analysis"),
        damping=args.damping,
    )


def _sim_config(args) -> SimConfig:
    return SimConfig(
        seed=derive_seed(args.seed, "simulation"),
        warmup=args.warmup,
        horizon=args.horizon,
        replications=args.replications,
    )


def _cmd_analyze(args) -> tuple[int, dict]:
    graph, demands, archs = _load_inputs(args)
    config = _analysis_config(args)
    routes = route_all(graph, demands)
    result = fixed_point(graph, demands, archs, config, routes=routes)
    write_analysis(args.out, args.format, result, graph, demands, routes)
    outcome = {"converged": result.converged, "iterations": result.iterations}
    return 0 if result.converged else 2, outcome


def _cmd_simulate(args) -> tuple[int, dict]:
    graph, demands, archs = _load_inputs(args)
    config = _sim_config(args)
    # input errors surface here, before the trace file is created
    routes = route_all(graph, demands)
    resolve_windows(demands, config)
    with open(args.trace, "w") if args.trace else nullcontext() as trace_file:
        trace = trace_file.write if trace_file else None
        result = simulate(graph, demands, archs, config, routes=routes, trace=trace)
    write_simulation(args.out, args.format, result, graph, demands)
    return 0, {"warmup": result.warmup, "horizon": result.horizon}


def _cmd_place(args) -> tuple[int, dict]:
    graph, demands, archs = _load_inputs(args)
    inventory = parse_converter_spec(args.converters)
    config = _analysis_config(args)
    if args.oracle:
        result = place_brute_force(graph, demands, inventory, config, archs, guard=args.guard)
    else:
        result = place_heuristic(graph, demands, inventory, config, archs)
    write_placement(args.out, args.format, result, graph)
    return 0 if result.all_converged else 2, {
        "evaluations": result.evaluations,
        "all_converged": result.all_converged,
    }


def _cmd_sweep(args) -> tuple[int, dict]:
    if args.arch and args.arch_sweep:
        raise InputError("--arch and --arch-sweep are exclusive")
    graph, demands, archs = _load_inputs(args)
    targets = _positive_list("--traffic", args.traffic)
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
    config = _analysis_config(args)
    # checked also without --with-sim: the manifest records these flags
    sim_config = _sim_config(args)

    rows = []
    any_unconverged = False
    for target in targets:
        scale = target / base_traffic
        scaled = scale_demands(demands, scale)
        routing = compile_routing(graph, scaled, routes)
        for name, setting in settings:
            analytic = fixed_point(graph, scaled, setting, config, routing=routing)
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
    return 2 if any_unconverged else 0, {
        "traffic": targets,
        "settings": [name for name, _ in settings],
        "base_traffic": base_traffic,
    }


def _cmd_gen_demands(args) -> tuple[int, dict]:
    if args.traffic is not None and not (math.isfinite(args.traffic) and args.traffic > 0):
        raise InputError(f"--traffic must be finite and positive, got {args.traffic}")
    graph = load_topology(Path(args.topology).read_text())
    demands = generate_demands(
        graph,
        seed=derive_seed(args.seed, "demands"),
        rate_range=_positive_list("--rate-range", args.rate_range, count=2),
        hold_range=_positive_list("--hold-range", args.hold_range, count=2),
        slots_range=_positive_list("--slots-range", args.slots_range, int, count=2),
        traffic_target=args.traffic,
    )
    Path(args.out).write_text(demands_document(graph, demands) + "\n")
    return 0, {"pairs": len(demands)}


_COMMANDS = {
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "place": _cmd_place,
    "sweep": _cmd_sweep,
    "gen-demands": _cmd_gen_demands,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    try:
        args = build_parser().parse_args(argv)
        code, outcome = _COMMANDS[args.command](args)
        # the manifest records every flag as parsed (the root seed, not a
        # derived one), the input files with their hashes, and on top what
        # the command resolved or measured
        flags = dict(vars(args))
        command, out = flags.pop("command"), flags.pop("out")
        inputs = {r: flags.pop(r) for r in ("topology", "demands", "arch") if r in flags}
        write_manifest(out, command, {**flags, **outcome}, inputs)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
