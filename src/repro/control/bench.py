"""A/B benchmark: static baseline vs adaptive control policies.

Runs each scenario once per policy (``static`` first — the baseline is
today's uncontrolled behaviour) and reports goodput, latency
percentiles, shed counts, and the controller's decision log. Three
scenarios cover the regimes the controller targets:

* ``fig08`` — the homogeneous nationwide saturation point. The guard:
  an adaptive policy must not regress it (hysteresis thresholds keep
  the controller quiet when nothing is skewed).
* ``fig14-hetero`` — heterogeneous per-node WAN bandwidth (a minority
  of slow links per group). The win condition: adaptive must beat the
  static baseline on goodput or p99 here.
* ``flash-crowd`` — a regional spike against the admission gates.

Artifacts are deterministic JSON (same bytes on every run — CI runs the
sweep twice and diffs), written as ``benchmarks/control_ab.json``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from repro.bench.report import rounded, write_json

#: Policies compared, baseline first.
POLICIES = ("static", "aimd", "target")

#: Allowed goodput regression on the homogeneous guard scenario.
FIG08_REGRESSION_TOLERANCE = 0.02


class Scenario:
    """One named deployment recipe the A/B bench sweeps policies over."""

    def __init__(self, name, description, build, duration, warmup):
        self.name = name
        self.description = description
        self.build = build  # (quick) -> (cluster, offered_load, traffic)
        self.duration = duration
        self.warmup = warmup

    def durations(self, quick: bool):
        if quick:
            return max(2.0, self.duration / 3), max(0.5, self.warmup / 3)
        return self.duration, self.warmup


def _fig08(quick: bool):
    from repro.topology.presets import nationwide_cluster

    nodes = 4 if quick else 7
    load = 25_000.0 if quick else 30_000.0
    return nationwide_cluster(nodes), load, None


def _fig14_hetero(quick: bool):
    from repro.topology.presets import hetero_nationwide_cluster

    nodes = 4 if quick else 7
    slow = 1 if quick else 2
    load = 25_000.0 if quick else 30_000.0
    cluster = hetero_nationwide_cluster(
        nodes_per_group=nodes, slow_nodes=slow, slow_bandwidth=5e6
    )
    return cluster, load, None


def _flash_crowd(quick: bool):
    from repro.topology.presets import nationwide_cluster
    from repro.traffic import TrafficSpec

    nodes = 4 if quick else 7
    base = 5_000.0 if quick else 8_000.0
    duration = 6.0 if quick else 9.0
    traffic = TrafficSpec.flash_crowd(
        base=base,
        spike=6.0 * base,
        start=duration / 4,
        duration=duration / 3,
        n_groups=3,
        hot_groups=(0,),
        ramp=0.1,
    )
    return nationwide_cluster(nodes), traffic.offered_load(range(3)), traffic


SCENARIOS = {
    "fig08": Scenario(
        "fig08",
        "homogeneous nationwide saturation (regression guard)",
        _fig08,
        duration=6.0,
        warmup=1.5,
    ),
    "fig14-hetero": Scenario(
        "fig14-hetero",
        "heterogeneous per-node WAN bandwidth (adaptive win condition)",
        _fig14_hetero,
        duration=6.0,
        warmup=1.5,
    ),
    "flash-crowd": Scenario(
        "flash-crowd",
        "regional flash crowd against the admission gates",
        _flash_crowd,
        duration=9.0,
        warmup=1.5,
    ),
}


def run_point(
    scenario: Scenario,
    policy: str,
    seed: int = 0,
    quick: bool = False,
) -> Dict:
    """One (scenario, policy) deployment run -> artifact record."""
    from repro.protocols import GeoDeployment, protocol_by_name
    from repro.workloads import make_workload

    cluster, offered_load, traffic = scenario.build(quick)
    duration, warmup = scenario.durations(quick)
    deployment = GeoDeployment(
        cluster,
        protocol_by_name("massbft"),
        make_workload("ycsb-a"),
        offered_load=offered_load,
        seed=seed,
        traffic=traffic,
        control=policy,
    )
    metrics = deployment.run(duration=duration, warmup=warmup)
    decisions = metrics.control_summary()
    return rounded(
        {
            "policy": policy,
            "goodput_tps": metrics.throughput,
            "p50_latency_s": metrics.p50_latency,
            "p99_latency_s": metrics.p99_latency,
            "mean_latency_s": metrics.mean_latency,
            "committed": metrics.committed,
            "accounting": metrics.traffic_summary(),
            "mean_batch_size": metrics.mean_batch_size,
            "control_epoch": deployment.control_epoch,
            "decision_count": len(decisions),
            "decisions": decisions,
        }
    )


def evaluate(doc: Dict) -> Dict:
    """Derive the pass/fail gates from a finished A/B document.

    * ``hetero_adaptive_wins`` — the best adaptive policy beats static
      on goodput or p99 on ``fig14-hetero``;
    * ``fig08_within_tolerance`` — no adaptive policy loses more than
      ``FIG08_REGRESSION_TOLERANCE`` of static goodput on ``fig08``.
    """
    verdict: Dict = {"ok": True}
    by_scenario = {s["scenario"]: s for s in doc["scenarios"]}

    hetero = by_scenario.get("fig14-hetero")
    if hetero is not None:
        static = next(
            r for r in hetero["runs"] if r["policy"] == "static"
        )
        wins = {}
        for run in hetero["runs"]:
            if run["policy"] == "static":
                continue
            wins[run["policy"]] = (
                run["goodput_tps"] > static["goodput_tps"]
                or run["p99_latency_s"] < static["p99_latency_s"]
            )
        verdict["hetero_adaptive_wins"] = wins
        verdict["hetero_ok"] = any(wins.values()) if wins else True
        verdict["ok"] = verdict["ok"] and verdict["hetero_ok"]

    fig08 = by_scenario.get("fig08")
    if fig08 is not None:
        static = next(r for r in fig08["runs"] if r["policy"] == "static")
        floor = static["goodput_tps"] * (1.0 - FIG08_REGRESSION_TOLERANCE)
        regressions = {
            run["policy"]: run["goodput_tps"] < floor
            for run in fig08["runs"]
            if run["policy"] != "static"
        }
        verdict["fig08_regressions"] = regressions
        verdict["fig08_ok"] = not any(regressions.values())
        verdict["ok"] = verdict["ok"] and verdict["fig08_ok"]

    return verdict


def run_ab(
    scenarios=None,
    policies=POLICIES,
    seed: int = 0,
    quick: bool = False,
    log=None,
) -> Dict:
    """Run the full A/B sweep and return the artifact document."""
    if scenarios is None:
        scenarios = list(SCENARIOS)
    docs: List[Dict] = []
    for name in scenarios:
        scenario = SCENARIOS[name]
        runs = []
        for policy in policies:
            if log is not None:
                log(f"  {name} / {policy} (seed {seed})")
            runs.append(run_point(scenario, policy, seed=seed, quick=quick))
        docs.append(
            {
                "scenario": scenario.name,
                "description": scenario.description,
                "runs": runs,
            }
        )
    doc = {
        "bench": "control_ab",
        "seed": seed,
        "quick": quick,
        "policies": list(policies),
        "scenarios": docs,
    }
    doc["verdict"] = evaluate(doc)
    return doc


def write_artifact(doc: Dict, out_dir) -> Path:
    """Write the A/B artifact as deterministic JSON."""
    return write_json(Path(out_dir) / "control_ab.json", doc)


__all__ = [
    "FIG08_REGRESSION_TOLERANCE",
    "POLICIES",
    "SCENARIOS",
    "evaluate",
    "run_ab",
    "run_point",
    "write_artifact",
]
