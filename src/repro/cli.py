"""Command-line interface: run experiments without writing Python.

Usage (after ``pip install -e .``)::

    python -m repro plan 4 7                 # Algorithm 1 transfer plan
    python -m repro run --protocol massbft   # one deployment run
    python -m repro compare --workload tpcc  # all protocols side by side
    python -m repro check --episodes 20      # safety-invariant sweep

Every option mirrors a :class:`repro.protocols.GeoDeployment`
constructor argument; defaults reproduce the paper's nationwide setup.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.bench.report import (
    format_control_decisions,
    format_queue_gating,
    format_table,
    format_tenant_table,
    format_traffic_accounting,
    merge_results,
    write_json,
)
from repro.core.transfer_plan import generate_transfer_plan
from repro.obs.presets import PRESETS as TRACE_PRESETS
from repro.protocols import GeoDeployment, protocol_by_name
from repro.topology import nationwide_cluster, scaled_cluster, worldwide_cluster
from repro.workloads import make_workload

PROTOCOL_CHOICES = ("massbft", "baseline", "geobft", "steward", "iss", "br", "ebr")
WORKLOAD_CHOICES = ("ycsb-a", "ycsb-b", "smallbank", "tpcc")
CLUSTER_CHOICES = ("nationwide", "worldwide")
#: Mirrors repro.control.policies.policy_names() — kept literal so the
#: parser builds without importing the runtime.
CONTROL_CHOICES = ("static", "aimd", "target")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MassBFT reproduction: run simulated geo-consensus experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="print an Algorithm 1 transfer plan")
    plan.add_argument("n1", type=int, help="sender group size")
    plan.add_argument("n2", type=int, help="receiver group size")
    plan.add_argument(
        "--assignments", action="store_true", help="list every chunk assignment"
    )

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", choices=WORKLOAD_CHOICES, default="ycsb-a")
        p.add_argument("--cluster", choices=CLUSTER_CHOICES, default="nationwide")
        p.add_argument("--nodes", type=int, default=7, help="nodes per group")
        p.add_argument("--groups", type=int, default=3, help="number of groups")
        p.add_argument(
            "--load", type=float, default=20_000.0, help="offered txns/s per group"
        )
        p.add_argument("--duration", type=float, default=2.0)
        p.add_argument("--warmup", type=float, default=0.5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--control",
            choices=CONTROL_CHOICES,
            default=None,
            help="attach the closed-loop adaptive controller with this "
            "policy (decisions print as a per-knob log)",
        )

    run = sub.add_parser("run", help="run one protocol deployment")
    run.add_argument(
        "--protocol", choices=PROTOCOL_CHOICES, default="massbft"
    )
    add_run_options(run)
    run.add_argument(
        "--breakdown", action="store_true", help="print the latency breakdown"
    )
    run.add_argument(
        "--metrics-out",
        default=None,
        metavar="JSON",
        help="write the metrics summary as deterministic JSON",
    )

    compare = sub.add_parser("compare", help="run several protocols side by side")
    compare.add_argument(
        "--protocols",
        default="massbft,baseline,geobft,steward,iss",
        help="comma-separated protocol names",
    )
    add_run_options(compare)

    check = sub.add_parser(
        "check",
        help="deterministic simulation checker: sweep seeded fault "
        "schedules and audit safety invariants",
    )
    check.add_argument(
        "--protocols",
        default="massbft,geobft",
        help="comma-separated protocol names (massbft-weak is the "
        "intentionally unsafe sensitivity variant)",
    )
    check.add_argument("--episodes", type=int, default=20, help="seeds per protocol")
    check.add_argument("--seed", type=int, default=0, help="base seed")
    check.add_argument("--duration", type=float, default=None)
    check.add_argument("--load", type=float, default=None, help="offered txns/s per group")
    check.add_argument("--groups", type=int, default=None)
    check.add_argument("--nodes", type=int, default=None, help="nodes per group")
    check.add_argument(
        "--churn",
        action="store_true",
        help="extend the fault grammar with reconfiguration ops "
        "(join, leave, leader move, region degrade, group resize); "
        "defaults --nodes to 5 so leaves keep quorums viable",
    )
    check.add_argument(
        "--max-churn-ops",
        type=int,
        default=None,
        help="cap on churn ops per generated schedule (with --churn)",
    )
    check.add_argument(
        "--trace-dir",
        default="check-traces",
        help="directory for violation traces (JSONL)",
    )
    check.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip schedule minimisation of violating episodes",
    )
    check.add_argument(
        "--expect-violation",
        action="store_true",
        help="invert the exit code: fail if NO violation is found "
        "(CI sensitivity check for the weak variant)",
    )
    check.add_argument(
        "--saturation",
        action="store_true",
        help="drive each episode with a flash-crowd traffic spec offered "
        "above the provisioned rate: safety invariants must hold under "
        "sustained overload and client shedding",
    )
    check.add_argument(
        "--control",
        nargs="?",
        const="aimd",
        choices=CONTROL_CHOICES,
        default=None,
        help="run every episode with the closed-loop adaptive controller "
        "attached (default policy: aimd); safety invariants must hold "
        "while the controller actuates knobs live",
    )
    check.add_argument(
        "--replay",
        metavar="TRACE",
        default=None,
        help="replay a recorded trace instead of sweeping; exit 0 iff "
        "the violation reproduces identically",
    )

    bench = sub.add_parser(
        "bench",
        help="reconfiguration recovery benchmark: goodput dip depth and "
        "time-to-recovery across a leader move and a node join",
    )
    bench.add_argument("--seed", type=int, default=2)
    bench.add_argument(
        "--scenario",
        choices=("leader-move", "node-join", "all"),
        default="all",
    )
    bench.add_argument(
        "--record",
        metavar="RESULTS_JSON",
        default=None,
        help="merge the rows into a results JSON file "
        "(e.g. benchmarks/results.json)",
    )

    sub.add_parser(
        "perf",
        help="wall-clock overhead budgets of an attached tracer and "
        "controller on the fig08 point (speed itself: python3 -m perfbench)",
    )

    scale = sub.add_parser(
        "scale",
        help="synthetic scale point: per-group consensus message storms "
        "plus WAN certificates on the event core alone (deterministic "
        "per-group digests)",
    )
    scale.add_argument("--groups", type=int, default=8, help="number of groups")
    scale.add_argument("--nodes", type=int, default=7, help="nodes per group")
    scale.add_argument("--duration", type=float, default=0.5)
    scale.add_argument(
        "--out",
        default=None,
        metavar="JSON",
        help="write the deterministic result record",
    )

    traffic = sub.add_parser(
        "traffic",
        help="internet-scale traffic scenario suite: steady, diurnal, "
        "flash-crowd, hotspot-drift, multi-tenant, overload; emits "
        "goodput-under-overload curves and per-tenant p99/p999 tables",
    )
    traffic.add_argument(
        "--scenario",
        default="all",
        help="comma-separated scenario names, or 'all' "
        "(steady, diurnal, flash-crowd, hotspot-drift, multi-tenant, "
        "overload)",
    )
    traffic.add_argument("--seed", type=int, default=0)
    traffic.add_argument(
        "--quick", action="store_true", help="CI smoke preset (shorter runs)"
    )
    traffic.add_argument(
        "--out-dir",
        default=None,
        metavar="DIR",
        help="write one deterministic traffic_<scenario>.json per "
        "scenario (e.g. benchmarks/)",
    )
    traffic.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )

    control = sub.add_parser(
        "control",
        help="closed-loop control A/B bench: static baseline vs each "
        "adaptive policy across the homogeneous (fig08), "
        "heterogeneous-bandwidth (fig14), and flash-crowd scenarios; "
        "fails unless adaptive wins on hetero without regressing fig08",
    )
    control.add_argument(
        "--scenario",
        default="all",
        help="comma-separated scenario names, or 'all' "
        "(fig08, fig14-hetero, flash-crowd)",
    )
    control.add_argument(
        "--policies",
        default=",".join(CONTROL_CHOICES),
        help="comma-separated policy names (static is the baseline)",
    )
    control.add_argument("--seed", type=int, default=0)
    control.add_argument(
        "--quick", action="store_true", help="CI smoke preset (shorter runs)"
    )
    control.add_argument(
        "--out-dir",
        default=None,
        metavar="DIR",
        help="write the deterministic control_ab.json artifact here "
        "(e.g. benchmarks/)",
    )
    control.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )

    trace = sub.add_parser(
        "trace",
        help="run one traced deployment; export a Perfetto-loadable "
        "trace bundle and a critical-path latency report",
    )
    trace.add_argument("--protocol", choices=PROTOCOL_CHOICES, default="massbft")
    trace.add_argument(
        "--preset",
        choices=sorted(TRACE_PRESETS),
        default="nationwide-ycsb-a",
        help="named operating point (cluster, workload, load, duration)",
    )
    trace.add_argument("--out", default="trace-out", help="bundle output directory")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument(
        "--nodes", type=int, default=None, help="override nodes per group"
    )
    trace.add_argument(
        "--load", type=float, default=None, help="override offered txns/s per group"
    )
    trace.add_argument("--duration", type=float, default=None)
    trace.add_argument("--warmup", type=float, default=None)
    trace.add_argument(
        "--telemetry-interval",
        type=float,
        default=0.005,
        help="NIC/consensus sampling period in simulated seconds (0 disables)",
    )
    trace.add_argument(
        "--slowest", type=int, default=5, help="slowest entries to report"
    )
    trace.add_argument(
        "--validate",
        action="store_true",
        help="validate the exported bundle against the trace JSON schemas",
    )
    return parser


def _make_cluster(args: argparse.Namespace):
    if args.groups != 3:
        return scaled_cluster(n_groups=args.groups, nodes_per_group=args.nodes)
    if args.cluster == "worldwide":
        return worldwide_cluster(nodes_per_group=args.nodes)
    return nationwide_cluster(nodes_per_group=args.nodes)


def _run_one(protocol: str, args: argparse.Namespace):
    deployment = GeoDeployment(
        _make_cluster(args),
        protocol_by_name(protocol),
        make_workload(args.workload),
        offered_load=args.load,
        seed=args.seed,
        control=args.control,
    )
    metrics = deployment.run(duration=args.duration, warmup=args.warmup)
    return deployment, metrics


def cmd_plan(args: argparse.Namespace) -> int:
    plan = generate_transfer_plan(args.n1, args.n2)
    print(f"Transfer plan {args.n1} -> {args.n2} nodes (Algorithm 1):")
    print(f"  total chunks : {plan.n_total} = lcm({args.n1}, {args.n2})")
    print(f"  data chunks  : {plan.n_data}")
    print(f"  parity chunks: {plan.n_parity} "
          f"(= {plan.nc1}*f1 + {plan.nc2}*f2)")
    print(f"  per sender   : {plan.nc1} chunks")
    print(f"  per receiver : {plan.nc2} chunks")
    print(f"  WAN overhead : {plan.overhead:.3f} entry copies")
    if args.assignments:
        rows = [[a.chunk, f"N1.{a.sender}", f"N2.{a.receiver}"] for a in plan.assignments]
        print(format_table(["chunk", "sender", "receiver"], rows))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    deployment, metrics = _run_one(args.protocol, args)
    print(f"{args.protocol} on {deployment.cluster.describe()}, "
          f"{args.workload}, {args.load:.0f} txns/s/group offered:")
    print(f"  throughput  : {metrics.throughput / 1000:8.2f} ktps")
    print(f"  mean latency: {metrics.mean_latency * 1000:8.1f} ms")
    print(f"  p99 latency : {metrics.p99_latency * 1000:8.1f} ms")
    print(f"  abort rate  : {metrics.abort_rate:8.2%}")
    print(f"  WAN traffic : {deployment.network.wan_bytes_total / 1e6:8.1f} MB")
    accounting = format_traffic_accounting(metrics)
    if accounting:
        print(f"  clients     : {accounting}")
    if args.breakdown:
        print("  latency breakdown:")
        for phase, seconds in sorted(metrics.phase_durations().items()):
            print(f"    {phase:<20} {seconds * 1000:7.2f} ms")
    if args.metrics_out is not None:
        record = {
            "committed": metrics.committed,
            "events": deployment.sim.events_processed,
            "summary": metrics.summary(),
        }
        write_json(args.metrics_out, record)
        print(f"  wrote {args.metrics_out}")
    gate_table = format_queue_gating(metrics)
    if gate_table:
        print(gate_table)
    tenant_table = format_tenant_table(metrics)
    if tenant_table:
        print(tenant_table)
    control_table = format_control_decisions(metrics)
    if control_table:
        print(control_table)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    for protocol in [p.strip() for p in args.protocols.split(",") if p.strip()]:
        _, metrics = _run_one(protocol, args)
        rows.append(
            [
                protocol,
                round(metrics.throughput / 1000, 2),
                round(metrics.mean_latency * 1000, 1),
                round(metrics.abort_rate, 3),
            ]
        )
    print(
        format_table(
            ["protocol", "ktps", "latency_ms", "abort_rate"],
            rows,
            title=f"{args.cluster} / {args.workload} / "
            f"{args.groups}x{args.nodes} nodes / {args.load:.0f} tps/group offered",
        )
    )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    # Imported lazily: the checker pulls in the whole runtime and is only
    # needed by this subcommand.
    from repro.check import CheckConfig, explore, replay_trace
    from repro.check.scenarios import ScenarioConfig

    if args.replay is not None:
        reproduced, result = replay_trace(Path(args.replay), log=print)
        return 0 if reproduced else 1

    nodes = args.nodes
    if args.churn and nodes is None:
        # Churn leaves must keep the surviving quorum viable; 5-node
        # groups leave room for one graceful departure.
        nodes = 5
    overrides = {
        key: value
        for key, value in (
            ("duration", args.duration),
            ("offered_load", args.load),
            ("n_groups", args.groups),
            ("nodes_per_group", nodes),
        )
        if value is not None
    }
    if args.churn:
        scenario_kw = {"churn": True}
        if args.max_churn_ops is not None:
            scenario_kw["max_churn_ops"] = args.max_churn_ops
        overrides["scenario"] = ScenarioConfig(**scenario_kw)
    if args.saturation:
        overrides["traffic"] = "saturation"
    if args.control is not None:
        overrides["control"] = args.control
    config = CheckConfig(**overrides)
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    results = explore(
        protocols,
        episodes=args.episodes,
        base_seed=args.seed,
        config=config,
        trace_dir=Path(args.trace_dir),
        shrink=not args.no_shrink,
        log=print,
    )
    violating = [r for r in results if not r.ok]
    print(
        f"\n{len(results)} episode(s), {len(violating)} violating "
        f"({', '.join(sorted({v.invariant for r in violating for v in r.violations})) or 'all invariants held'})"
    )
    if args.expect_violation:
        if violating:
            return 0
        print("expected a violation (sensitivity check) but none was found")
        return 1
    return 1 if violating else 0


def cmd_bench(args: argparse.Namespace) -> int:
    # Imported lazily: the recovery bench pulls in the whole runtime.
    from repro.bench.reconfig import SCENARIOS, run_recovery

    scenarios = SCENARIOS if args.scenario == "all" else (args.scenario,)
    results = [run_recovery(s, seed=args.seed) for s in scenarios]
    print(
        format_table(
            ["scenario", "steady_tps", "dip_tps", "dip_ratio",
             "recovery_s", "recovered"],
            [r.row() for r in results],
            title=f"reconfiguration recovery (seed {args.seed})",
        )
    )
    for result in results:
        marks = ", ".join(
            f"{kind}@{at:.2f}s(e{epoch})" for at, kind, epoch in result.events
        )
        print(f"  {result.scenario}: {marks or 'no reconfig events'}")
    failed = [r for r in results if not r.recovered or r.min_bin_tps <= 0]
    if args.record is not None:
        path = merge_results(
            args.record,
            "reconfig_recovery",
            [r.to_jsonable() for r in results],
        )
        print(f"  recorded under 'reconfig_recovery' in {path}")
    if failed:
        for result in failed:
            print(
                f"FAILED: {result.scenario} did not recover to "
                f"90% of steady (or goodput hit zero)"
            )
        return 1
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    # Imported lazily: the harness pulls in the whole runtime and is only
    # needed by this subcommand.
    from repro.perf.harness import run_perf

    return 0 if run_perf()["ok"] else 1


def cmd_scale(args: argparse.Namespace) -> int:
    # Imported lazily: the scale bench pulls in the sim + topology stack.
    from repro.perf.scalebench import scale_point

    record = scale_point(
        args.groups, nodes_per_group=args.nodes, duration=args.duration
    )
    print(
        f"{record['groups']} groups x "
        f"{record['nodes_per_group']} nodes ({record['total_nodes']} total), "
        f"{record['duration']}s simulated: {record['events']} events, "
        f"merged digest {record['merged_digest']}"
    )
    if args.out is not None:
        write_json(args.out, record)
        print(f"wrote {args.out}")
    return 0


def cmd_traffic(args: argparse.Namespace) -> int:
    # Imported lazily: the suite pulls in the whole runtime.
    from repro.traffic.scenarios import SCENARIOS
    from repro.traffic.suite import run_suite

    if args.list:
        for name, scenario in SCENARIOS.items():
            print(f"{name:<14} {scenario.description}")
        return 0
    if args.scenario == "all":
        names = list(SCENARIOS)
    else:
        names = [s.strip() for s in args.scenario.split(",") if s.strip()]
        unknown = [n for n in names if n not in SCENARIOS]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)}")
            print(f"available: {', '.join(SCENARIOS)}")
            return 2
    docs = run_suite(
        names,
        seed=args.seed,
        quick=args.quick,
        out_dir=args.out_dir,
        log=print,
    )
    for doc in docs:
        rows = [
            [
                point["label"],
                round(point["offered_tps"] / 1000, 2),
                round(point["goodput_tps"] / 1000, 2),
                point["dropped"],
                round(point["p50_latency_s"] * 1000, 1),
                round(point["p99_latency_s"] * 1000, 1),
                round(point["p999_latency_s"] * 1000, 1),
            ]
            for point in doc["goodput_curve"]
        ]
        print(
            format_table(
                ["run", "offered_ktps", "goodput_ktps", "dropped",
                 "p50_ms", "p99_ms", "p999_ms"],
                rows,
                title=f"\n{doc['scenario']}: {doc['description']} "
                f"(seed {doc['seed']})",
            )
        )
        for record in doc["runs"]:
            if "tenants" not in record:
                continue
            print(
                format_table(
                    ["tenant", "prio", "offered", "admitted", "committed",
                     "dropped", "p50_ms", "p99_ms", "p999_ms", "slo"],
                    [
                        [
                            t["tenant"],
                            t["priority"],
                            t["offered"],
                            t["admitted"],
                            t["committed"],
                            t["dropped"],
                            round(t["p50_latency_s"] * 1000, 1),
                            round(t["p99_latency_s"] * 1000, 1),
                            round(t["p999_latency_s"] * 1000, 1),
                            "ok" if t["slo_met"] else "MISS",
                        ]
                        for t in record["tenants"]
                    ],
                    title=f"{doc['scenario']}/{record['label']} tenants",
                )
            )
    return 0


def cmd_control(args: argparse.Namespace) -> int:
    # Imported lazily: the A/B bench pulls in the whole runtime.
    from repro.control.bench import SCENARIOS, run_ab, write_artifact

    if args.list:
        for name, scenario in SCENARIOS.items():
            print(f"{name:<14} {scenario.description}")
        return 0
    if args.scenario == "all":
        names = list(SCENARIOS)
    else:
        names = [s.strip() for s in args.scenario.split(",") if s.strip()]
        unknown = [n for n in names if n not in SCENARIOS]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)}")
            print(f"available: {', '.join(SCENARIOS)}")
            return 2
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    doc = run_ab(
        names,
        policies=policies,
        seed=args.seed,
        quick=args.quick,
        log=print,
    )
    for scenario_doc in doc["scenarios"]:
        rows = [
            [
                run["policy"],
                round(run["goodput_tps"] / 1000, 2),
                round(run["p50_latency_s"] * 1000, 1),
                round(run["p99_latency_s"] * 1000, 1),
                run["committed"],
                run["decision_count"],
                run["control_epoch"],
            ]
            for run in scenario_doc["runs"]
        ]
        print(
            format_table(
                ["policy", "goodput_ktps", "p50_ms", "p99_ms",
                 "committed", "decisions", "ctl_epoch"],
                rows,
                title=f"\n{scenario_doc['scenario']}: "
                f"{scenario_doc['description']} (seed {doc['seed']})",
            )
        )
        for run in scenario_doc["runs"]:
            for decision in run["decisions"]:
                print(
                    f"  {run['policy']}: t={decision['at']:.2f}s "
                    f"g{int(decision['gid'])} {decision['knob']} "
                    f"{decision['old']:g} -> {decision['new']:g} "
                    f"({decision['trigger']}={decision['value']:g}, "
                    f"epoch {int(decision['epoch'])})"
                )
    if args.out_dir is not None:
        path = write_artifact(doc, args.out_dir)
        print(f"\nwrote {path}")
    verdict = doc["verdict"]
    print(f"\nverdict: {'ok' if verdict['ok'] else 'FAILED'}")
    if "hetero_ok" in verdict:
        wins = ", ".join(
            f"{p}={'win' if w else 'no win'}"
            for p, w in sorted(verdict["hetero_adaptive_wins"].items())
        )
        print(f"  fig14-hetero adaptive wins: {wins or 'n/a'}")
    if "fig08_ok" in verdict:
        regressed = [
            p for p, bad in sorted(verdict["fig08_regressions"].items()) if bad
        ]
        print(
            f"  fig08 regression guard: "
            f"{'FAILED for ' + ', '.join(regressed) if regressed else 'ok'}"
        )
    return 0 if verdict["ok"] else 1


def cmd_trace(args: argparse.Namespace) -> int:
    # Imported lazily: span building and exporters are only needed here.
    from repro.obs import (
        analyze,
        breakdowns_agree,
        compare_breakdowns,
        format_report,
        validate_bundle,
        write_bundle,
    )

    preset = TRACE_PRESETS[args.preset]
    nodes = args.nodes if args.nodes is not None else preset.nodes_per_group
    if preset.cluster == "worldwide":
        cluster = worldwide_cluster(nodes_per_group=nodes)
    else:
        cluster = nationwide_cluster(nodes_per_group=nodes)
    load = args.load if args.load is not None else preset.offered_load
    duration = args.duration if args.duration is not None else preset.duration
    warmup = args.warmup if args.warmup is not None else preset.warmup

    deployment = GeoDeployment(
        cluster,
        protocol_by_name(args.protocol),
        make_workload(preset.workload),
        offered_load=load,
        seed=args.seed,
    )
    tracer = deployment.attach_tracer(
        telemetry_interval=args.telemetry_interval
    )
    print(
        f"tracing {args.protocol} on {preset.name} "
        f"({preset.cluster} x{nodes}, {preset.workload}, "
        f"{load:.0f} tx/s/group, {duration}s + {warmup}s warmup, "
        f"seed {args.seed})"
    )
    metrics = deployment.run(duration=duration, warmup=warmup)
    trace = tracer.build()
    trace.meta.update(
        {
            "protocol": args.protocol,
            "preset": preset.name,
            "cluster": preset.cluster,
            "workload": preset.workload,
            "nodes_per_group": nodes,
            "offered_load": load,
            "duration": duration,
            "warmup": warmup,
            "committed": metrics.committed,
            "throughput_tps": metrics.throughput,
            "mean_latency_s": metrics.mean_latency,
        }
    )

    report = analyze(trace, warmup=warmup, slowest=args.slowest)
    stamp = metrics.phase_durations()
    report_text = format_report(report, stamp)
    paths = write_bundle(trace, args.out, report_text=report_text)

    print(
        f"  committed {metrics.committed} txns "
        f"({metrics.throughput / 1000:.2f} ktps), "
        f"{trace.meta['entries']} entry spans, "
        f"{trace.meta['message_spans']} message spans, "
        f"{len(trace.telemetry)} telemetry series"
    )
    print()
    print(report_text)
    print()
    for kind in ("trace", "spans", "telemetry", "report"):
        if kind in paths:
            print(f"  wrote {paths[kind]}")
    print("  open trace.json at https://ui.perfetto.dev (or chrome://tracing)")

    if args.validate:
        counts = validate_bundle(paths["trace"], paths["spans"])
        print(
            f"  schema validation ok: {counts['trace_events']} trace events, "
            f"{counts['spans']} spans"
        )
    agreement = compare_breakdowns(report.breakdown, stamp)
    if not breakdowns_agree(agreement):
        print("  ERROR: trace-derived breakdown disagrees with stamp-based")
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "plan": cmd_plan,
        "run": cmd_run,
        "compare": cmd_compare,
        "check": cmd_check,
        "bench": cmd_bench,
        "perf": cmd_perf,
        "scale": cmd_scale,
        "trace": cmd_trace,
        "traffic": cmd_traffic,
        "control": cmd_control,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
