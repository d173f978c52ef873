#!/usr/bin/env python3
"""Fault-tolerance demo: Byzantine chunk tampering and a datacenter loss.

Replays the paper's Fig 15 scenario on the nationwide cluster:

*  t = 2 s — two colluding Byzantine nodes per group start encoding a
   *tampered* entry into chunks (with a perfectly consistent Merkle tree)
   and flooding those chunks instead of the correct ones. Correct nodes
   bucket chunks by Merkle root, catch the fakes when a fake bucket's
   rebuild fails certificate validation, blacklist those chunk ids, and
   keep rebuilding from honest chunks: throughput is unaffected.

*  t = 4 s — the Zhangjiakou data center (group 0) goes dark. Entries
   keep replicating but cannot execute: every VTS needs group 0's clock
   element. After a timeout, the lowest live group wins a takeover
   election for group 0's Raft instance and assigns its frozen clock on
   its behalf; execution resumes at ~2/3 of the original rate (group 0's
   clients are gone).

Run:  python examples/fault_tolerance_demo.py
"""

from repro import GeoDeployment, massbft, nationwide_cluster, make_workload

BYZANTINE_AT = 2.0
CRASH_AT = 4.0
END = 7.0


def main() -> None:
    print("=== MassBFT under attack (the Fig 15 scenario) ===\n")
    cluster = nationwide_cluster(nodes_per_group=7)
    deployment = GeoDeployment(
        cluster,
        massbft(),
        make_workload("ycsb-a"),
        offered_load=15_000,
        seed=2,
        takeover_timeout=0.8,
    )

    # Byzantine nodes at disjoint plan positions per group (the worst
    # case the parity budget is sized for).
    for gid, indices in ((0, [1, 2]), (1, [3, 4]), (2, [5, 6])):
        deployment.make_byzantine_at(gid=gid, count=2, at=BYZANTINE_AT, indices=indices)
    deployment.crash_group_at(0, at=CRASH_AT)

    metrics = deployment.run(duration=END, warmup=0.0)
    metrics.end_time = END

    print(f"{'time':>6} {'throughput':>12} {'latency':>10}  event")
    events = {BYZANTINE_AT: "<- Byzantine tampering starts",
              CRASH_AT: "<- group 0 (Zhangjiakou) crashes"}
    latency = dict(metrics.latency_timeline.window_means(0.5, end=END))
    for t, committed in metrics.throughput_timeline.window_sums(0.5, end=END):
        marker = events.get(t, "")
        print(
            f"{t:5.1f}s {committed / 0.5 / 1000:9.2f} ktps "
            f"{latency.get(t, 0.0) * 1000:7.0f} ms  {marker}"
        )

    failures = deployment.transport.monitor_counters.get("rebuild_failures", 0)
    print(f"\nTampered buckets detected and blacklisted: {failures}")
    takeover = deployment.groups[1].global_phase.instances[0].takeover_leader
    print(f"Group 0's Raft instance taken over by: group {takeover}")
    print(f"Total committed transactions: {metrics.committed:,}")


if __name__ == "__main__":
    main()
