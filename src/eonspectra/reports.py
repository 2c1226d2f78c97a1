"""Result document writers and the reproducibility manifest.

Every CLI run writes its primary document plus ``<stem>.manifest.json``
recording the artifact version, the parameters and the SHA-256 of each
input file: enough to reproduce the run byte for byte.  Each result is
one document: ``--format json`` writes it whole, ``--format csv`` writes
projections of it as fixed-order tables (see the README for the schemas).
Some results carry more than one table, which CSV cannot hold in a single
file, so those write documented sidecar files next to the main one.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from . import __version__


def _stem(path: Path) -> Path:
    return path.with_suffix("") if path.suffix else path


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_path, command: str, parameters: dict, inputs: dict) -> None:
    """``inputs`` maps role -> file path (or None); hashes are recorded."""
    manifest = {
        "artifact": "eonspectra",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "inputs": {
            role: None if path is None else {"path": str(path), "sha256": sha256_file(path)}
            for role, path in inputs.items()
        },
    }
    _write_json(_stem(Path(out_path)).with_suffix(".manifest.json"), manifest)


def _write(out_path, fmt: str, doc, tables: list, summary: tuple | None = None) -> None:
    """Write ``doc`` whole as JSON, or for CSV each ``(suffix, header, rows)``
    table, suffix ``""`` naming the main file, then the ``(suffix, dict)``
    JSON summary.  Rows are dicts keyed by column, keys outside the header
    left out; a missing or ``None`` cell is empty and ``csv`` writes floats
    by ``repr``."""
    out_path = Path(out_path)
    if fmt == "json":
        _write_json(out_path, doc)
        return
    for suffix, header, rows in tables:
        path = _stem(out_path).with_suffix(suffix) if suffix else out_path
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, header, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
    if summary is not None:
        suffix, data = summary
        _write_json(_stem(out_path).with_suffix(suffix), data)


def write_analysis(out_path, fmt, result, graph, demands, routes) -> None:
    """JSON: one document.  CSV: per-demand table in the main file, per-link
    table in ``<stem>.links.csv``, run summary in ``<stem>.run.json``."""
    doc = {
        "network": graph.name,
        "converged": result.converged,
        "iterations": result.iterations,
        "network_blocking": result.network_blocking_prob,
        "demands": [
            {
                "src": graph.label_of(d.src),
                "dst": graph.label_of(d.dst),
                "hops": r.hop_count,
                "blocking": b,
            }
            for d, r, b in zip(demands, routes, result.demand_blockings)
        ],
        "links": [
            {
                "link": link.id,
                "tail": graph.label_of(link.tail),
                "head": graph.label_of(link.head),
                "phi": result.phis[link.id],
            }
            for link in graph.links
        ],
        "trajectory": result.trajectory,
    }
    tables = [
        ("", ["src", "dst", "hops", "blocking"], doc["demands"]),
        (".links.csv", ["link", "tail", "head", "phi"], doc["links"]),
    ]
    run = {k: doc[k] for k in ("network", "converged", "iterations", "network_blocking")}
    _write(out_path, fmt, doc, tables, (".run.json", run))


def write_simulation(out_path, fmt, result, graph, demands) -> None:
    """JSON: one document.  CSV: one row per replication plus an aggregate
    row; the per-demand table goes to ``<stem>.demands.csv``."""
    doc = {
        "network": graph.name,
        "replications": len(result.replication_blockings),
        "warmup": result.warmup,
        "horizon": result.horizon,
        "offered": result.offered_total,
        "blocked": result.blocked_total,
        "network_blocking": result.network_blocking_prob,
        "ci95_half_width": result.ci95_half_width,
        "replication_blockings": result.replication_blockings,
        "demands": [
            {
                "src": graph.label_of(d.src),
                "dst": graph.label_of(d.dst),
                "offered": o,
                "blocked": b,
                "blocking": p,
            }
            for d, o, b, p in zip(
                demands, result.demand_offered, result.demand_blocked, result.demand_blocking
            )
        ],
    }
    # the per-replication counts are summed over demands; the document keeps
    # only each replication's blocking
    replications = [
        {
            "replication": i,
            "offered": sum(result.per_replication_offered[i]),
            "blocked": sum(result.per_replication_blocked[i]),
            "blocking": blocking,
        }
        for i, blocking in enumerate(doc["replication_blockings"])
    ]
    aggregate = {**doc, "replication": "aggregate", "blocking": doc["network_blocking"]}
    header = ["replication", "offered", "blocked", "blocking", "ci95_half_width"]
    tables = [
        ("", header, [*replications, aggregate]),
        (".demands.csv", ["src", "dst", "offered", "blocked", "blocking"], doc["demands"]),
    ]
    _write(out_path, fmt, doc, tables)


def write_placement(out_path, fmt, result, graph) -> None:
    """JSON: one document.  CSV: the per-step candidate table in the main
    file, summary and final assignment in ``<stem>.summary.json``."""

    def arch_entry(arch):
        return {"kind": arch.kind, "n_sc": arch.n_sc}

    doc = {
        "network": graph.name,
        "method": result.method,
        "baseline_blocking": result.baseline_blocking,
        "achieved_blocking": result.achieved_blocking,
        "evaluations": result.evaluations,
        "all_converged": result.all_converged,
        "ranked_inventory": [
            {**arch_entry(arch), "merit": merit} for arch, merit in result.ranked
        ],
        "assignment": [
            {"node": graph.label_of(node), **arch_entry(arch)}
            for node, arch in sorted(result.assignment.items())
        ],
        "steps": [
            {
                **arch_entry(step.arch),
                "chosen_node": graph.label_of(step.chosen_node),
                "blocking": step.blocking,
                "candidates": [
                    {"node": graph.label_of(n), "blocking": b, "converged": c}
                    for n, b, c in step.candidates
                ],
            }
            for step in result.steps
        ],
    }
    trials = [
        {"step": i, **step, **cand, "chosen": int(cand["node"] == step["chosen_node"])}
        for i, step in enumerate(doc["steps"])
        for cand in step["candidates"]
    ]
    header = ["step", "kind", "n_sc", "node", "blocking", "converged", "chosen"]
    summary = {k: v for k, v in doc.items() if k != "steps"}
    _write(out_path, fmt, doc, [("", header, trials)], (".summary.json", summary))


def write_sweep(out_path, fmt, rows: list[dict]) -> None:
    """One row per (traffic target, architecture setting)."""
    header = [
        "traffic",
        "setting",
        "scale",
        "analytic_blocking",
        "analytic_converged",
        "sim_blocking",
        "sim_ci95",
    ]
    _write(out_path, fmt, rows, [("", header, rows)])
