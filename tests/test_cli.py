import argparse
import csv
import json
from pathlib import Path

import pytest

from eonspectra.analyzer import AnalysisConfig, fixed_point
from eonspectra.cli import (
    build_parser,
    derive_seed,
    main,
    parse_arch_sweep,
    parse_converter_spec,
)
from eonspectra.errors import InputError
from eonspectra.fixtures import demands_document, generate_demands
from eonspectra.lightpath import FULL, SHARE_PER_NODE, NodeArchitecture, load_architectures
from eonspectra.topology import (
    load_demands,
    load_topology,
    network_traffic,
    route_all,
    scale_demands,
)

TOPOLOGY = {
    "name": "square",
    "slot_count": 6,
    "nodes": [1, 2, 3, 4],
    "edges": [
        {"a": 1, "b": 2, "weight": 1},
        {"a": 2, "b": 3, "weight": 1},
        {"a": 3, "b": 4, "weight": 1},
        {"a": 4, "b": 1, "weight": 1},
    ],
}

DEMANDS = [
    {"src": 1, "dst": 3, "rate": 1.5, "hold": 1.0, "slots": 2},
    {"src": 2, "dst": 4, "rate": 1.0, "hold": 1.0, "slots": 1},
    {"src": 3, "dst": 1, "rate": 0.5, "hold": 2.0, "slots": [{"s": 1, "p": 0.5}, {"s": 2, "p": 0.5}]},
]

ARCHS = {"2": {"kind": "full"}, "3": {"kind": "share_per_node", "n_sc": 1}}


@pytest.fixture
def inputs(tmp_path):
    topo = tmp_path / "topology.json"
    topo.write_text(json.dumps(TOPOLOGY))
    demands = tmp_path / "demands.json"
    demands.write_text(json.dumps(DEMANDS))
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(ARCHS))
    return tmp_path, topo, demands, arch


def read_csv(path):
    with open(path) as handle:
        return list(csv.reader(handle))


def test_analyze_writes_results_and_manifest(inputs):
    tmp, topo, demands, arch = inputs
    out = tmp / "analysis.csv"
    code = main([
        "analyze", "--topology", str(topo), "--demands", str(demands),
        "--arch", str(arch), "--out", str(out), "--seed", "42",
        "--epsilon", "1e-6", "--damping", "0.5",
    ])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["src", "dst", "hops", "blocking"]
    assert len(rows) == 1 + len(DEMANDS)
    links = read_csv(tmp / "analysis.links.csv")
    assert len(links) == 1 + 8  # four bidirectional edges
    run = json.loads((tmp / "analysis.run.json").read_text())
    assert run["converged"] is True
    manifest = json.loads((tmp / "analysis.manifest.json").read_text())
    assert manifest["command"] == "analyze"
    assert manifest["inputs"]["topology"]["sha256"]
    parameters = manifest["parameters"]
    assert (parameters["seed"], parameters["epsilon"], parameters["damping"]) == (42, 1e-6, 0.5)


def test_analyze_json_format(inputs):
    tmp, topo, demands, _ = inputs
    out = tmp / "analysis.json"
    code = main([
        "analyze", "--topology", str(topo), "--demands", str(demands),
        "--out", str(out), "--format", "json", "--damping", "0.6",
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert len(doc["demands"]) == len(DEMANDS)
    assert len(doc["links"]) == 8
    assert doc["network_blocking"] == pytest.approx(
        sum(d["blocking"] * per["rate"] * per["hold"] for d, per in zip(doc["demands"], DEMANDS))
        / sum(p["rate"] * p["hold"] for p in DEMANDS),
        abs=1e-12,
    )


def test_analyze_malformed_demands_exits_1_without_output(inputs):
    tmp, topo, _, _ = inputs
    bad = tmp / "bad.json"
    bad.write_text("{ not json")
    out = tmp / "nope.csv"
    code = main(["analyze", "--topology", str(topo), "--demands", str(bad), "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_analyze_nan_rate_exits_1_without_output(inputs):
    tmp, topo, _, _ = inputs
    bad = tmp / "nan.json"
    bad.write_text(json.dumps([dict(DEMANDS[0], rate=float("nan"))]))
    out = tmp / "nope.csv"
    code = main(["analyze", "--topology", str(topo), "--demands", str(bad), "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_analyze_unreachable_epsilon_exits_2_with_output(inputs):
    tmp, topo, demands, _ = inputs
    out = tmp / "analysis.csv"
    code = main([
        "analyze", "--topology", str(topo), "--demands", str(demands),
        "--out", str(out), "--epsilon", "1e-15", "--max-iter", "4",
    ])
    assert code == 2
    run = json.loads((tmp / "analysis.run.json").read_text())
    assert run["converged"] is False
    assert run["iterations"] == 4


def test_simulate_deterministic_and_row_counts(inputs):
    tmp, topo, demands, arch = inputs
    args = [
        "simulate", "--topology", str(topo), "--demands", str(demands),
        "--arch", str(arch), "--seed", "7",
        "--warmup", "5", "--horizon", "200", "--replications", "4",
    ]
    out1, out2 = tmp / "sim1.csv", tmp / "sim2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp / "sim1.demands.csv").read_bytes() == (tmp / "sim2.demands.csv").read_bytes()
    rows = read_csv(out1)
    assert len(rows) == 1 + 4 + 1  # header, one per replication, aggregate
    assert rows[-1][0] == "aggregate"
    by_demand = read_csv(tmp / "sim1.demands.csv")
    assert len(by_demand) == 1 + len(DEMANDS)


def test_simulate_manifest_records_resolved_windows(inputs):
    tmp, topo, demands, _ = inputs
    out = tmp / "sim.csv"
    code = main([
        "simulate", "--topology", str(topo), "--demands", str(demands),
        "--out", str(out), "--horizon", "100",
    ])
    assert code == 0
    parameters = json.loads((tmp / "sim.manifest.json").read_text())["parameters"]
    # default warm-up: 10 mean holds of the longest-holding demand
    assert (parameters["warmup"], parameters["horizon"]) == (20.0, 100.0)


def test_simulate_trace(inputs):
    tmp, topo, demands, _ = inputs
    out = tmp / "sim.csv"
    trace = tmp / "events.log"
    code = main([
        "simulate", "--topology", str(topo), "--demands", str(demands),
        "--out", str(out), "--warmup", "0", "--horizon", "40", "--trace", str(trace),
    ])
    assert code == 0
    assert "arrival" in trace.read_text()


@pytest.mark.parametrize("case", ["horizon below warm-up", "unreachable demand"])
def test_simulate_input_error_leaves_no_trace(capsys, inputs, case):
    tmp, topo, demands, _ = inputs
    flags = []
    if case == "horizon below warm-up":
        flags = ["--horizon", "1"]  # the default warm-up is 10 mean holds, 20 here
    else:
        topo.write_text(json.dumps(dict(TOPOLOGY, nodes=[1, 2, 3, 4, 5])))
        demands.write_text(json.dumps([dict(DEMANDS[0], dst=5)]))
    out, trace = tmp / "nope.csv", tmp / "events.log"
    code = main(["simulate", "--topology", str(topo), "--demands", str(demands),
                 "--out", str(out), "--trace", str(trace), *flags])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    assert not trace.exists()


def test_place_reports_steps_and_assignment(inputs):
    tmp, topo, demands, _ = inputs
    out = tmp / "place.csv"
    code = main([
        "place", "--topology", str(topo), "--demands", str(demands),
        "--out", str(out), "--converters", "full,share_per_node:1",
        "--epsilon", "1e-5", "--damping", "0.5",
    ])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["step", "kind", "n_sc", "node", "blocking", "converged", "chosen"]
    assert len(rows) == 1 + 4 + 3  # K=2 over 4 then 3 candidate nodes
    summary = json.loads((tmp / "place.summary.json").read_text())
    assert summary["evaluations"] == 7
    assert len(summary["assignment"]) == 2
    assert summary["achieved_blocking"] <= summary["baseline_blocking"] + 1e-12


def test_place_baseline_only(inputs):
    # undamped, the square's baseline orbits (its network blocking
    # alternates between about 0.085 and 0.349), and with nothing to place
    # it is the only solve, so the placement exits 2
    tmp, topo, demands, _ = inputs
    out = tmp / "place.json"
    code = main([
        "place", "--topology", str(topo), "--demands", str(demands),
        "--out", str(out), "--converters", "", "--format", "json",
    ])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["all_converged"] is False
    assert doc["assignment"] == []
    assert doc["evaluations"] == 0
    assert doc["achieved_blocking"] == pytest.approx(doc["baseline_blocking"])


def test_place_too_many_converters_exits_1(inputs):
    tmp, topo, demands, _ = inputs
    code = main([
        "place", "--topology", str(topo), "--demands", str(demands),
        "--out", str(tmp / "x.csv"), "--converters", "full,full,full,full,full",
    ])
    assert code == 1


def test_place_oracle_small(inputs):
    tmp, topo, demands, _ = inputs
    out = tmp / "oracle.json"
    code = main([
        "place", "--topology", str(topo), "--demands", str(demands),
        "--out", str(out), "--converters", "full", "--oracle", "--format", "json",
        "--damping", "0.5",
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "brute-force"
    assert doc["evaluations"] == 4


def test_sweep_rows_and_scaling(inputs):
    tmp, topo, demands, arch = inputs
    out = tmp / "sweep.csv"
    code = main([
        "sweep", "--topology", str(topo), "--demands", str(demands),
        "--out", str(out), "--traffic", "0.05,0.1",
        "--arch-sweep", "simple,full", "--seed", "5",
    ])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 1 + 2 * 2
    manifest = json.loads((tmp / "sweep.manifest.json").read_text())
    base = manifest["parameters"]["base_traffic"]
    scales = [float(r[2]) for r in rows[1:]]
    assert scales[0] == pytest.approx(0.05 / base)
    assert scales[2] == pytest.approx(0.1 / base)
    # per-setting blocking must not decrease with traffic
    simple_rows = [r for r in rows[1:] if r[1] == "simple"]
    assert float(simple_rows[0][3]) <= float(simple_rows[1][3]) + 1e-12


def test_sweep_arch_file_is_one_setting(inputs):
    tmp, topo, demands, arch = inputs
    out = tmp / "sweep.json"
    code = main([
        "sweep", "--topology", str(topo), "--demands", str(demands), "--arch", str(arch),
        "--out", str(out), "--format", "json", "--traffic", "0.05,0.1", "--seed", "5",
    ])
    assert code == 0
    rows = json.loads(out.read_text())
    assert [row["setting"] for row in rows] == ["arch-file", "arch-file"]
    # each row is the solve of the file's architectures at that row's scale
    graph = load_topology(topo.read_text())
    base = load_demands(demands.read_text(), graph)
    archs = load_architectures(arch.read_text(), graph)
    config = AnalysisConfig(seed=derive_seed(5, "analysis"))
    for row in rows:
        scaled = scale_demands(base, row["scale"])
        result = fixed_point(graph, scaled, archs, config)
        assert row["analytic_blocking"] == result.network_blocking_prob


def test_sweep_with_sim_adds_columns(inputs):
    tmp, topo, demands, _ = inputs
    out = tmp / "sweep.csv"
    code = main([
        "sweep", "--topology", str(topo), "--demands", str(demands),
        "--out", str(out), "--traffic", "0.08", "--with-sim",
        "--warmup", "5", "--horizon", "150", "--seed", "5",
    ])
    assert code == 0
    rows = read_csv(out)
    assert rows[1][5] != ""  # simulated blocking present
    assert rows[0][5] == "sim_blocking"


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("replications", [1, 3])
def test_interval_needs_two_replications(inputs, command, replications):
    # one replication measures no interval: JSON null and an empty CSV cell
    tmp, topo, demands, _ = inputs
    args = [command, "--topology", str(topo), "--demands", str(demands), "--warmup", "5",
            "--horizon", "100", "--replications", str(replications)]
    if command == "sweep":
        args += ["--traffic", "0.08", "--with-sim"]
    assert main([*args, "--out", str(tmp / "out.json"), "--format", "json"]) == 0
    assert main([*args, "--out", str(tmp / "out.csv")]) == 0
    doc = json.loads((tmp / "out.json").read_text())
    header, *rows = read_csv(tmp / "out.csv")
    if command == "simulate":
        half_width, cell = doc["ci95_half_width"], rows[-1][header.index("ci95_half_width")]
    else:
        half_width, cell = doc[0]["sim_ci95"], rows[0][header.index("sim_ci95")]
    if replications == 1:
        assert (half_width, cell) == (None, "")
    else:
        assert half_width > 0.0
        assert float(cell) == half_width


@pytest.mark.parametrize(
    "flags",
    [
        ["--with-sim", "--trace", "events.log"],
        ["--arch", "arch.json", "--arch-sweep", "full"],
        # simulator flags are checked also when the sweep does not simulate
        ["--replications", "0", "--horizon", "nan"],
        ["--warmup", "5", "--horizon", "1"],
    ],
)
def test_sweep_flag_misuse_exits_1_without_output(capsys, monkeypatch, inputs, flags):
    tmp, topo, demands, _ = inputs
    monkeypatch.chdir(tmp)
    before = sorted(tmp.iterdir())
    argv = ["sweep", "--topology", str(topo), "--demands", str(demands),
            "--out", "sweep.csv", "--traffic", "0.1", *flags]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag sweep does not take
        code = exc.code
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert sorted(tmp.iterdir()) == before


def test_sweep_rejects_unsorted_targets(inputs):
    tmp, topo, demands, _ = inputs
    code = main([
        "sweep", "--topology", str(topo), "--demands", str(demands),
        "--out", str(tmp / "s.csv"), "--traffic", "0.2,0.1",
    ])
    assert code == 1


def test_manifest_records_every_flag_as_parsed(monkeypatch, inputs):
    # hand-kept per-command lists once left out place's --guard, simulate's
    # --trace and sweep's --arch-sweep
    tmp, topo, demands, _ = inputs
    monkeypatch.chdir(tmp)
    minimal_flags = {
        "analyze": ["--damping", "0.5"],
        "simulate": ["--warmup", "5", "--horizon", "60"],
        "place": ["--converters", "full", "--damping", "0.5"],
        "sweep": ["--traffic", "0.05", "--arch-sweep", "simple"],
        "gen-demands": [],
    }
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(commands.choices) == sorted(minimal_flags)
    # what the command resolved stands in the manifest for the flag
    resolved = {"simulate": {"warmup": 5.0, "horizon": 60.0}, "sweep": {"traffic": [0.05]}}
    for command, sub in commands.choices.items():
        demand_flags = [] if command == "gen-demands" else ["--demands", str(demands)]
        argv = [command, "--topology", str(topo), *demand_flags, "--out", f"{command}.json",
                *minimal_flags[command]]
        assert main(argv) == 0
        parsed = vars(parser.parse_args(argv))
        parameters = json.loads((tmp / f"{command}.manifest.json").read_text())["parameters"]
        for action in sub._actions:
            if action.dest in ("help", "command", "out", "topology", "demands", "arch"):
                continue
            expected = resolved.get(command, {}).get(action.dest, parsed[action.dest])
            assert parameters.get(action.dest, "absent") == expected, (command, action.dest)


def test_gen_demands_roundtrip(tmp_path, inputs):
    tmp, topo, _, _ = inputs
    out = tmp / "generated.json"
    code = main([
        "gen-demands", "--topology", str(topo), "--out", str(out),
        "--seed", "11", "--slots-range", "1,2", "--traffic", "0.12",
    ])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 4 * 3  # one per ordered pair
    # generated demands load cleanly and hit the requested traffic
    graph = load_topology(Path(topo).read_text())
    demands = load_demands(out.read_text(), graph)
    routes = route_all(graph, demands)
    assert network_traffic(graph, demands, routes) == pytest.approx(0.12)
    # determinism
    out2 = tmp / "generated2.json"
    main(["gen-demands", "--topology", str(topo), "--out", str(out2),
          "--seed", "11", "--slots-range", "1,2", "--traffic", "0.12"])
    assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("slots_range", ["1,40", "0,2", "9,9"])
def test_gen_demands_slots_beyond_fiber_exits_1_without_output(capsys, tmp_path, slots_range):
    from importlib import resources

    topo = tmp_path / "sixnode.json"  # fibers carry 8 slots
    topo.write_text(resources.files("eonspectra.data").joinpath("sixnode.json").read_text())
    out = tmp_path / "generated.json"
    code = main(["gen-demands", "--topology", str(topo), "--out", str(out),
                 "--slots-range", slots_range])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [topo]


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("gen-demands", "--rate-range", "nan,1"),
        ("gen-demands", "--hold-range", "1,inf"),
        ("gen-demands", "--hold-range", "0,0"),
        ("gen-demands", "--rate-range", "-1,1"),
        ("gen-demands", "--traffic", "0"),
        ("gen-demands", "--traffic", "-1"),
        ("gen-demands", "--traffic", "nan"),
        ("gen-demands", "--rate-range", "abc"),
        ("gen-demands", "--rate-range", "1,0.5"),
        ("sweep", "--traffic", "nan"),
        ("sweep", "--traffic", "inf"),
        ("sweep", "--traffic", "0.2,x"),
        # float() and int() read these as 10, 20 and 3
        ("gen-demands", "--rate-range", "1_0, 2_0"),
        ("gen-demands", "--slots-range", "1,2_0"),
        ("gen-demands", "--traffic", "1_0"),
        ("gen-demands", "--traffic", " 3"),
        ("sweep", "--traffic", "0.1, 1_0"),
    ],
)
def test_bad_range_or_traffic_names_the_flag_and_exits_1(capsys, inputs, command, flag, value):
    # these once ended in an OverflowError traceback from the generator, or
    # in a demand error about rates and holds the user never gave
    tmp, topo, demands, _ = inputs
    before = sorted(tmp.iterdir())
    demand_flags = [] if command == "gen-demands" else ["--demands", str(demands)]
    # one argument, so that argparse takes a value such as -1,1 for the flag's
    code = main([command, "--topology", str(topo), *demand_flags, "--out", str(tmp / "out.json"),
                 f"{flag}={value}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert sorted(tmp.iterdir()) == before


def _nsf_files(tmp_path):
    from importlib import resources

    data = resources.files("eonspectra.data")
    topo = tmp_path / "nsf.json"
    topo.write_text(data.joinpath("nsf14.json").read_text())
    demands = tmp_path / "demands.json"
    demands.write_text(data.joinpath("nsf14_demands.json").read_text())
    return topo, demands


def test_analyze_nsf_fixture_has_182_demand_rows(tmp_path):
    topo, demands = _nsf_files(tmp_path)
    out = tmp_path / "nsf_analysis.csv"
    code = main(["analyze", "--topology", str(topo), "--demands", str(demands),
                 "--out", str(out), "--seed", "1"])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 1 + 182  # header + one row per directed pair
    links = read_csv(tmp_path / "nsf_analysis.links.csv")
    assert len(links) == 1 + 42


@pytest.mark.parametrize("loads", [
    ((1e200, 1e200), (1.0, 1.0)),  # one demand's rate * hold overflows
    ((1e154, 1e154), (1e154, 1e154)),  # each is finite, their sum is not
], ids=["demand", "sum"])
def test_analyze_overflowing_slot_load_exits_1_without_output(capsys, tmp_path, loads):
    topo, _ = _nsf_files(tmp_path)
    demands = tmp_path / "overflow.json"
    demands.write_text(json.dumps([
        {"src": src, "dst": dst, "rate": rate, "hold": hold, "slots": 1}
        for (src, dst), (rate, hold) in zip(((1, 6), (2, 4)), loads)
    ]))
    out = tmp_path / "nope.csv"
    code = main(["analyze", "--topology", str(topo), "--demands", str(demands), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows" in err
    assert not out.exists()


def test_place_nsf_three_converters(tmp_path):
    topo, demands = _nsf_files(tmp_path)
    out = tmp_path / "place.csv"
    code = main([
        "place", "--topology", str(topo), "--demands", str(demands),
        "--out", str(out), "--converters", "full,full,share_per_node:1",
        "--epsilon", "1e-4", "--max-iter", "200",
    ])
    assert code == 0
    summary = json.loads((tmp_path / "place.summary.json").read_text())
    assert len(summary["assignment"]) == 3
    assert summary["evaluations"] == 14 + 13 + 12
    rows = read_csv(out)
    assert len(rows) == 1 + 14 + 13 + 12  # per-step candidate trace
    assert summary["achieved_blocking"] < summary["baseline_blocking"]


def test_place_unconverged_trials_exit_2_with_output(tmp_path):
    # NSF at twice its bundled traffic (T = 0.4): undamped, every trial
    # solve orbits, so the placement ranks iterates and must say so
    topo, demands = _nsf_files(tmp_path)
    graph = load_topology(topo.read_text())
    bundled = load_demands(demands.read_text(), graph)
    scale = 0.4 / network_traffic(graph, bundled, route_all(graph, bundled))
    scaled = tmp_path / "scaled.json"
    scaled.write_text(demands_document(graph, scale_demands(bundled, scale)))
    out = tmp_path / "place.json"
    code = main([
        "place", "--topology", str(topo), "--demands", str(scaled), "--out", str(out),
        "--converters", "full,full,share_per_node:1", "--max-iter", "50", "--format", "json",
    ])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["all_converged"] is False
    assert len(doc["assignment"]) == 3
    manifest = json.loads((tmp_path / "place.manifest.json").read_text())
    assert manifest["parameters"]["all_converged"] is False
    assert manifest["parameters"]["damping"] == 1.0


def test_place_unconverged_baseline_exits_2_with_output(tmp_path):
    # NSF at T = 0.4 with nothing to place: the baseline is the only solve,
    # and undamped it orbits (its last network delta is about 0.48), so the
    # placement reports a baseline blocking that is an iterate
    topo, _ = _nsf_files(tmp_path)
    graph = load_topology(topo.read_text())
    demands = tmp_path / "demands.json"
    demands.write_text(demands_document(graph, generate_demands(graph, seed=1, traffic_target=0.4)))
    out = tmp_path / "place.json"
    code = main([
        "place", "--topology", str(topo), "--demands", str(demands), "--out", str(out),
        "--converters", "", "--max-iter", "50", "--format", "json",
    ])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["all_converged"] is False
    assert doc["evaluations"] == 0 and doc["assignment"] == []
    manifest = json.loads((tmp_path / "place.manifest.json").read_text())
    assert manifest["parameters"]["all_converged"] is False


def test_analyze_long_all_full_line_exits_0(tmp_path):
    # 22 interior full converters on the one 23-hop route
    nodes = list(range(1, 25))
    topo = tmp_path / "line.json"
    topo.write_text(json.dumps({
        "name": "line24",
        "slot_count": 4,
        "nodes": nodes,
        "edges": [{"a": a, "b": a + 1, "weight": 1} for a in nodes[:-1]],
    }))
    demands = tmp_path / "demands.json"
    demands.write_text(json.dumps([{"src": 1, "dst": 24, "rate": 0.5, "hold": 1.0, "slots": 2}]))
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps({str(v): {"kind": "full"} for v in nodes}))
    out = tmp_path / "line.csv"
    code = main(["analyze", "--topology", str(topo), "--demands", str(demands),
                 "--arch", str(arch), "--out", str(out), "--damping", "0.5"])
    assert code == 0
    rows = read_csv(out)
    assert rows[1][:3] == ["1", "24", "23"]
    assert 0.0 <= float(rows[1][3]) <= 1.0


def test_converter_spec_parsing():
    inv = parse_converter_spec("full,full,share_per_node:1")
    assert inv == [
        NodeArchitecture(FULL),
        NodeArchitecture(FULL),
        NodeArchitecture(SHARE_PER_NODE, 1),
    ]
    assert parse_converter_spec("") == []
    with pytest.raises(InputError):
        parse_converter_spec("simple")
    with pytest.raises(InputError):
        parse_converter_spec("share_per_link")
    with pytest.raises(InputError):
        parse_converter_spec("warp:3")


def test_arch_sweep_parsing():
    graph = load_topology(TOPOLOGY)
    settings = parse_arch_sweep(" simple,, share_per_node:1,", graph)
    assert [name for name, _ in settings] == ["simple", "share_per_node:1"]
    assert settings[0][1] == {}
    assert settings[1][1] == {n: NodeArchitecture(SHARE_PER_NODE, 1) for n in (1, 2, 3, 4)}
    for bad in (",", "share_per_node:x", "share_per_link", "warp"):
        with pytest.raises(InputError):
            parse_arch_sweep(bad, graph)


def test_bad_arch_sweep_count_exits_1(capsys, inputs):
    tmp, topo, demands, _ = inputs
    out = tmp / "nope.csv"
    code = main(["sweep", "--topology", str(topo), "--demands", str(demands),
                 "--out", str(out), "--traffic", "0.1", "--arch-sweep", "share_per_node:x"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_exits_1(tmp_path):
    code = main([
        "analyze", "--topology", str(tmp_path / "absent.json"),
        "--demands", str(tmp_path / "absent2.json"), "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 1


def test_bad_flag_exits_1(capsys, inputs):
    tmp, topo, demands, _ = inputs
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--topology", str(topo), "--demands", str(demands)])
    assert info.value.code == 1


@pytest.mark.parametrize(
    "command, flags",
    [
        ("simulate", ["--horizon", "nan"]),
        ("simulate", ["--warmup", "nan"]),
        ("simulate", ["--replications", "0"]),
        ("analyze", ["--epsilon", "nan"]),
        ("analyze", ["--epsilon", "-1"]),
        ("analyze", ["--damping", "nan"]),
        ("analyze", ["--seed", "-1"]),
        ("simulate", ["--seed", "-1"]),
        ("place", ["--converters", "full", "--seed", "-1"]),
        ("sweep", ["--traffic", "0.1", "--seed", "-1"]),
        ("gen-demands", ["--seed", "-1"]),
        # float() and int() read these as 10
        ("analyze", ["--epsilon", "1_0"]),
        ("analyze", ["--max-iter", "1_0"]),
        ("analyze", ["--damping", "1_0"]),
        ("analyze", ["--seed", "1_0"]),
        ("simulate", ["--warmup", "1_0"]),
        ("simulate", ["--horizon", "1_0"]),
        ("simulate", ["--replications", "1_0"]),
        ("place", ["--converters", "full", "--oracle", "--guard", "1_0"]),
        ("sweep", ["--traffic", "0.1", "--max-iter", "1_0"]),
        ("gen-demands", ["--seed", "1_0"]),
    ],
)
def test_out_of_range_flag_exits_1_without_output(capsys, inputs, command, flags):
    tmp, topo, demands, _ = inputs
    out = tmp / "nope.csv"
    demand_flags = [] if command == "gen-demands" else ["--demands", str(demands)]
    code = main([command, "--topology", str(topo), *demand_flags, "--out", str(out), *flags])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags", [("place", ["--converters", "full"]), ("sweep", ["--traffic", "0.1"])]
)
def test_topology_without_links_exits_1_without_output(capsys, tmp_path, command, flags):
    topo = tmp_path / "isolated.json"
    topo.write_text(json.dumps({**TOPOLOGY, "edges": []}))
    demands = tmp_path / "demands.json"
    demands.write_text("[]")
    code = main([command, "--topology", str(topo), "--demands", str(demands),
                 "--out", str(tmp_path / "nope.csv"), *flags])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([topo, demands])


@pytest.mark.parametrize(
    "field, value", [("weight", "1"), ("weight", None), ("weight", True), ("directed", "false")]
)
def test_malformed_edge_field_exits_1_without_output(capsys, inputs, field, value):
    tmp, topo, demands, _ = inputs
    edges = [dict(TOPOLOGY["edges"][0], **{field: value})] + TOPOLOGY["edges"][1:]
    topo.write_text(json.dumps({**TOPOLOGY, "edges": edges}))
    before = sorted(tmp.iterdir())
    code = main(["analyze", "--topology", str(topo), "--demands", str(demands),
                 "--out", str(tmp / "nope.csv")])
    assert code == 1
    assert f"error: edge 1-2: {field}" in capsys.readouterr().err
    assert sorted(tmp.iterdir()) == before


def test_topology_nodes_that_are_a_number_exit_1_without_output(capsys, inputs):
    # list() of the number once ended in a TypeError traceback
    tmp, topo, demands, _ = inputs
    topo.write_text(json.dumps({**TOPOLOGY, "nodes": 5}))
    before = sorted(tmp.iterdir())
    code = main(["analyze", "--topology", str(topo), "--demands", str(demands),
                 "--out", str(tmp / "nope.csv")])
    assert code == 1
    assert "error: nodes must be a JSON array" in capsys.readouterr().err
    assert sorted(tmp.iterdir()) == before


@pytest.mark.parametrize("key", ["0_2", " 3 ", "+4", "02"])
def test_architecture_key_that_is_not_a_label_exits_1_without_output(capsys, inputs, key):
    # int() once read each of these as a node label of the square
    tmp, topo, demands, arch = inputs
    arch.write_text(json.dumps({key: {"kind": "full"}}))
    before = sorted(tmp.iterdir())
    code = main(["analyze", "--topology", str(topo), "--demands", str(demands),
                 "--arch", str(arch), "--out", str(tmp / "nope.csv")])
    assert code == 1
    assert "error: unknown node label" in capsys.readouterr().err
    assert sorted(tmp.iterdir()) == before


@pytest.mark.parametrize(
    "field, value", [("rate", True), ("hold", "1_0"), ("p", " 1 ")]
)
def test_demand_number_that_is_not_a_number_exits_1_without_output(capsys, inputs, field, value):
    tmp, topo, demands, _ = inputs
    entry = dict(DEMANDS[0], **{field: value})
    if field == "p":
        entry = dict(DEMANDS[2], slots=[{"s": 1, "p": value}])
    demands.write_text(json.dumps([entry]))
    before = sorted(tmp.iterdir())
    code = main(["analyze", "--topology", str(topo), "--demands", str(demands),
                 "--out", str(tmp / "nope.csv")])
    assert code == 1
    assert f"{field} must be a number" in capsys.readouterr().err
    assert sorted(tmp.iterdir()) == before


@pytest.mark.parametrize(
    "command, flags",
    [
        ("place", ["--converters", "share_per_node:1_0"]),
        ("place", ["--converters", "full,share_per_link:+1"]),
        ("sweep", ["--traffic", "0.1", "--arch-sweep", "share_per_node:1_0"]),
        ("sweep", ["--traffic", "0.1", "--arch-sweep", "share_per_node: 2"]),
    ],
)
def test_converter_count_that_is_not_plain_digits_exits_1_without_output(capsys, inputs, command, flags):
    tmp, topo, demands, _ = inputs
    before = sorted(tmp.iterdir())
    code = main([command, "--topology", str(topo), "--demands", str(demands),
                 "--out", str(tmp / "nope.csv"), *flags])
    assert code == 1
    assert "error: bad SCB count" in capsys.readouterr().err
    assert sorted(tmp.iterdir()) == before


def test_sweep_without_traffic_exits_1_without_output(capsys, inputs):
    tmp, topo, demands, _ = inputs
    demands.write_text("[]")
    before = sorted(tmp.iterdir())
    code = main(["sweep", "--topology", str(topo), "--demands", str(demands),
                 "--out", str(tmp / "nope.csv"), "--traffic", "0.1"])
    assert code == 1
    assert "error: base demand set carries no traffic" in capsys.readouterr().err
    assert sorted(tmp.iterdir()) == before


def test_converter_count_on_a_full_node_exits_1(capsys, inputs):
    tmp, topo, demands, _ = inputs
    out = tmp / "nope.csv"
    code = main(["place", "--topology", str(topo), "--demands", str(demands),
                 "--converters", "full:-3,share_per_node:1", "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_fractional_converter_count_exits_1(inputs):
    tmp, topo, demands, _ = inputs
    arch = tmp / "fractional.json"
    arch.write_text(json.dumps({"2": {"kind": "share_per_node", "n_sc": 1.5}}))
    out = tmp / "nope.csv"
    code = main(["analyze", "--topology", str(topo), "--demands", str(demands),
                 "--arch", str(arch), "--out", str(out)])
    assert code == 1
    assert not out.exists()


def _same(cell: str, value) -> bool:
    """A CSV cell holds the JSON value it projects; floats parse back exactly."""
    if value is None:
        return cell == ""
    if isinstance(value, float):
        return float(cell) == value
    return cell == str(value)


def _assert_projects(path, records):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        for column, cell in row.items():
            assert _same(cell, record[column]), (path.name, column, cell, record[column])


@pytest.mark.parametrize(
    "command, flags",
    [
        ("analyze", ["--arch", "arch.json"]),
        ("simulate", ["--arch", "arch.json", "--warmup", "5", "--horizon", "60",
                      "--replications", "3"]),
        # undamped, three of the four first-step trials orbit and place exits 2
        ("place", ["--converters", "full,share_per_node:1", "--damping", "0.5"]),
        ("place", ["--converters", "full,share_per_node:1", "--oracle", "--damping", "0.5"]),
        ("sweep", ["--traffic", "0.05,0.1", "--arch-sweep", "simple,full", "--with-sim",
                   "--warmup", "5", "--horizon", "60", "--replications", "2"]),
    ],
)
def test_csv_projects_the_json_document(monkeypatch, inputs, command, flags):
    tmp, topo, demands, _ = inputs
    monkeypatch.chdir(tmp)
    for fmt in ("csv", "json"):
        code = main([command, "--topology", str(topo), "--demands", str(demands),
                     "--out", f"out.{fmt}", "--format", fmt, "--seed", "4", *flags])
        assert code == 0
    doc = json.loads((tmp / "out.json").read_text())
    main_csv = tmp / "out.csv"
    if command == "analyze":
        _assert_projects(main_csv, doc["demands"])
        _assert_projects(tmp / "out.links.csv", doc["links"])
        run = json.loads((tmp / "out.run.json").read_text())
        assert run == {k: doc[k] for k in ("network", "converged", "iterations",
                                           "network_blocking")}
    elif command == "simulate":
        replications = [
            {"replication": i, "blocking": b, "ci95_half_width": None}
            for i, b in enumerate(doc["replication_blockings"])
        ]
        aggregate = dict(doc, replication="aggregate", blocking=doc["network_blocking"])
        rows = read_csv(main_csv)[1:]
        for row, record in zip(rows, replications):
            record.update(offered=int(row[1]), blocked=int(row[2]))
        assert sum(r["offered"] for r in replications) == doc["offered"]
        assert sum(r["blocked"] for r in replications) == doc["blocked"]
        _assert_projects(main_csv, [*replications, aggregate])
        _assert_projects(tmp / "out.demands.csv", doc["demands"])
        # admission has no fallback path, so the document has no count of one
        assert "fallback_admissions" not in doc
    elif command == "place":
        trials = [
            dict(step, **cand, step=i, chosen=int(cand["node"] == step["chosen_node"]))
            for i, step in enumerate(doc["steps"])
            for cand in step["candidates"]
        ]
        _assert_projects(main_csv, trials)
        summary = json.loads((tmp / "out.summary.json").read_text())
        assert summary == {k: v for k, v in doc.items() if k != "steps"}
    else:
        assert all(row["sim_blocking"] is not None for row in doc)
        _assert_projects(main_csv, doc)
