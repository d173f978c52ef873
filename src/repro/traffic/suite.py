"""Runner for the traffic scenario suite (the ``repro traffic`` CLI).

Runs each :class:`~repro.traffic.scenarios.Scenario` on a deployment,
collects offered/admitted/committed/dropped accounting, latency
percentiles (p50/p99/p999, per tenant where applicable), and a
goodput-vs-offered-load curve, and writes one deterministic JSON
artifact per scenario under ``benchmarks/``.

Artifacts carry no wall-clock stamps: the same ``(seed, scenario)`` must
produce byte-identical files on every run — CI runs each twice and diffs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from repro.bench.report import rounded, write_json
from repro.traffic.scenarios import (
    N_GROUPS,
    NODES_PER_GROUP,
    SCENARIOS,
    ScenarioRun,
)


def run_one(
    run: ScenarioRun,
    seed: int = 0,
) -> Dict:
    """Execute one scenario run and return its artifact record."""
    from repro.protocols import GeoDeployment, protocol_by_name
    from repro.topology import scaled_cluster
    from repro.workloads import make_workload

    traffic = run.traffic
    deployment = GeoDeployment(
        scaled_cluster(n_groups=N_GROUPS, nodes_per_group=NODES_PER_GROUP),
        protocol_by_name(run.protocol),
        make_workload(run.workload, **run.workload_kwargs),
        offered_load={gid: run.provisioned for gid in range(N_GROUPS)},
        seed=seed,
        traffic=traffic,
    )
    metrics = deployment.run(duration=run.duration, warmup=run.warmup)
    measured = metrics.measured_duration()
    offered_peak = sum(
        traffic.peak_rate(gid) for gid in range(N_GROUPS)
    )
    record: Dict = {
        "label": run.label,
        "protocol": run.protocol,
        "workload": run.workload,
        "provisioned_tps_per_group": run.provisioned,
        "offered_peak_tps_total": offered_peak,
        "duration": run.duration,
        "warmup": run.warmup,
        "traffic": traffic.describe(),
        "accounting": metrics.traffic_summary(),
        "offered_tps": metrics.offered_txns / measured,
        "goodput_tps": metrics.throughput,
        "metrics": {
            "p50_latency_s": metrics.p50_latency,
            "p99_latency_s": metrics.p99_latency,
            "p999_latency_s": metrics.p999_latency,
            "mean_latency_s": metrics.mean_latency,
            "abort_rate": metrics.abort_rate,
            "mean_batch_size": metrics.mean_batch_size,
        },
    }
    tenant_rows = metrics.tenant_rows()
    if tenant_rows:
        record["tenants"] = tenant_rows
    return rounded(record)


def run_scenario(
    name: str,
    seed: int = 0,
    quick: bool = False,
    log=None,
) -> Dict:
    """Run every deployment run of one named scenario; return the artifact."""
    scenario = SCENARIOS[name]
    records: List[Dict] = []
    for run in scenario.runs(quick):
        if log is not None:
            log(
                f"  {scenario.name}/{run.label}: "
                f"{run.traffic.name} traffic, provisioned "
                f"{run.provisioned:.0f} tps/group, {run.duration}s"
            )
        records.append(run_one(run, seed=seed))
    curve = [
        {
            "label": r["label"],
            "offered_tps": r["offered_tps"],
            "goodput_tps": r["goodput_tps"],
            "dropped": r["accounting"]["dropped"],
            "p50_latency_s": r["metrics"]["p50_latency_s"],
            "p99_latency_s": r["metrics"]["p99_latency_s"],
            "p999_latency_s": r["metrics"]["p999_latency_s"],
        }
        for r in records
    ]
    return {
        "scenario": scenario.name,
        "description": scenario.description,
        "seed": seed,
        "quick": quick,
        "cluster": {"groups": N_GROUPS, "nodes_per_group": NODES_PER_GROUP},
        "goodput_curve": curve,
        "runs": records,
    }


def write_artifact(doc: Dict, out_dir) -> Path:
    """Write one scenario artifact as deterministic JSON."""
    name = f"traffic_{doc['scenario'].replace('-', '_')}.json"
    return write_json(Path(out_dir) / name, doc)


def run_suite(
    names=None,
    seed: int = 0,
    quick: bool = False,
    out_dir=None,
    log=None,
) -> List[Dict]:
    """Run the listed scenarios (default: all) and optionally write
    artifacts; returns the artifact documents in run order."""
    if names is None:
        names = list(SCENARIOS)
    docs = []
    for name in names:
        if log is not None:
            log(f"scenario {name} (seed {seed}):")
        doc = run_scenario(name, seed=seed, quick=quick, log=log)
        if out_dir is not None:
            path = write_artifact(doc, out_dir)
            if log is not None:
                log(f"  wrote {path}")
        docs.append(doc)
    return docs


__all__ = [
    "NODES_PER_GROUP",
    "N_GROUPS",
    "run_one",
    "run_scenario",
    "run_suite",
    "write_artifact",
]
