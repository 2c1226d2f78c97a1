import csv
import json
from pathlib import Path

import pytest

from eonspectra.cli import main, parse_arch_sweep, parse_converter_spec
from eonspectra.errors import InputError
from eonspectra.lightpath import FULL, SHARE_PER_NODE, NodeArchitecture
from eonspectra.topology import load_topology

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
        "--arch", str(arch), "--out", str(out), "--seed", "3",
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
    assert manifest["parameters"]["seed"] == 3


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
        "--epsilon", "1e-5",
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
    tmp, topo, demands, _ = inputs
    out = tmp / "place.json"
    code = main([
        "place", "--topology", str(topo), "--demands", str(demands),
        "--out", str(out), "--converters", "", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out.read_text())
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


def test_sweep_rejects_unsorted_targets(inputs):
    tmp, topo, demands, _ = inputs
    code = main([
        "sweep", "--topology", str(topo), "--demands", str(demands),
        "--out", str(tmp / "s.csv"), "--traffic", "0.2,0.1",
    ])
    assert code == 1


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
    from eonspectra.topology import load_demands, load_topology, network_traffic, route_all

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
    ],
)
def test_out_of_range_flag_exits_1_without_output(capsys, inputs, command, flags):
    tmp, topo, demands, _ = inputs
    out = tmp / "nope.csv"
    code = main([command, "--topology", str(topo), "--demands", str(demands),
                 "--out", str(out), *flags])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


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
