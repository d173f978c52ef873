"""Integration tests: full deployments of every protocol.

These run short simulations at modest load and check end-to-end
behaviour: transactions commit, agreement holds across observer nodes,
and each protocol's distinguishing feature is visible.
"""

import pytest

from repro.protocols import (
    GeoDeployment,
    baseline,
    br,
    ebr,
    geobft,
    iss,
    massbft,
    protocol_by_name,
    steward,
)
from repro.protocols.registry import feature_table
from repro.protocols.runtime.events import EntryBatched
from repro.workloads import make_workload
from tests.conftest import tiny_cluster

ALL_SPECS = [massbft(), baseline(), geobft(), steward(), iss(), br(), ebr()]


def deploy(spec, sizes=(4, 4, 4), load=2000, observers="leaders", **kwargs):
    return GeoDeployment(
        tiny_cluster(sizes),
        spec,
        make_workload("ycsb-a"),
        offered_load=load,
        observers=observers,
        seed=11,
        **kwargs,
    )


class TestProtocolSpec:
    def test_registry_resolves_all(self):
        for name in ("massbft", "baseline", "geobft", "steward", "iss", "br", "ebr"):
            assert protocol_by_name(name).name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            protocol_by_name("pbft9000")

    def test_invalid_combinations_rejected(self):
        from repro.protocols import ProtocolSpec

        with pytest.raises(ValueError):
            ProtocolSpec("x", "teleport", "raft", "round")
        with pytest.raises(ValueError):
            ProtocolSpec("x", "leader", "none", "async")

    def test_feature_table_matches_paper(self):
        table = feature_table()
        assert table["MassBFT"]["coding"] == "Erasure-coded"
        assert table["Steward"]["multi_master"] == "N"
        assert table["GeoBFT"]["consensus"] == "Broadcast"
        # Table II's five systems plus the Fig 12 ablations (BR, EBR).
        assert len(table) == 7


class TestCommitsFlow:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_transactions_commit(self, spec):
        deployment = deploy(spec)
        metrics = deployment.run(duration=1.5, warmup=0.25)
        assert metrics.committed > 200, spec.name
        assert 0 < metrics.mean_latency < 1.0

    def test_multi_master_serves_all_groups(self):
        metrics = deploy(massbft()).run(duration=1.5, warmup=0.25)
        for g in range(3):
            assert metrics.committed_by_group[g] > 0

    def test_steward_is_single_master(self):
        deployment = deploy(steward())
        metrics = deployment.run(duration=1.5, warmup=0.25)
        assert metrics.committed_by_group[0] > 0
        assert metrics.committed_by_group[1] == 0
        assert metrics.committed_by_group[2] == 0

    def test_latency_breakdown_phases_present(self):
        deployment = deploy(massbft())
        metrics = deployment.run(duration=1.5, warmup=0.25)
        phases = metrics.phase_durations()
        for key in ("batching", "local_consensus", "global_replication"):
            assert key in phases and phases[key] >= 0

    def test_wan_traffic_ranking(self):
        """Encoded replication moves fewer WAN bytes per committed txn
        than leader unicast (the Fig 10 effect). At the paper's 7-node
        groups the coded overhead is 2*(7/3) ~= 4.7 entry copies versus
        2*(f+1) = 6 full copies for the Baseline. (At 4-node groups the
        two coincide — 2*(4/2) = 2*(1+1) — so n=7 is the relevant size.)"""
        per_txn = {}
        for spec in (massbft(), baseline()):
            deployment = deploy(spec, sizes=(7, 7, 7))
            metrics = deployment.run(duration=1.5, warmup=0.25)
            per_txn[spec.name] = (
                deployment.network.wan_bytes_total / metrics.committed
            )
        assert per_txn["MassBFT"] < per_txn["Baseline"]


class TestAgreement:
    @pytest.mark.parametrize(
        "spec", [massbft(), baseline(), geobft()], ids=lambda s: s.name
    )
    def test_all_observers_execute_same_order(self, spec):
        deployment = deploy(spec, observers="all", load=1500)
        orders = {}
        for node in deployment.nodes.values():
            if node.orderer is None:
                continue
            executed = []
            orders[node.addr] = executed
            original = node.orderer.on_execute

            def wrapped(eid, executed=executed, original=original):
                executed.append(eid)
                original(eid)

            node.orderer.on_execute = wrapped
        deployment.run(duration=1.5, warmup=0.0)
        sequences = list(orders.values())
        reference = max(sequences, key=len)
        assert len(reference) > 10
        for seq in sequences:
            # Prefix agreement: no observer may diverge from another.
            assert seq == reference[: len(seq)]

    def test_execution_is_deterministic_across_runs(self):
        def run_once():
            deployment = deploy(massbft(), load=1500)
            metrics = deployment.run(duration=1.0, warmup=0.0)
            return metrics.committed, round(metrics.mean_latency, 9)

        assert run_once() == run_once()


class TestWindowing:
    def test_round_window_paces_fast_group(self):
        """With round-based ordering the fast group cannot run ahead of
        execution by more than the round window."""
        deployment = deploy(baseline(), load=4000)
        deployment.run(duration=1.5, warmup=0.0)
        for runtime in deployment.groups.values():
            assert (
                runtime.next_seq - runtime.last_executed_round
                <= runtime.load_stage.round_window + 1
            )

    def test_iss_epoch_gating_increases_latency(self):
        lat = {}
        for spec in (baseline(), iss(epoch_slots=3)):
            metrics = deploy(spec, load=2000).run(duration=2.0, warmup=0.5)
            lat[spec.name] = metrics.mean_latency
        assert lat["ISS"] >= lat["Baseline"]

    def test_batch_respects_cap(self):
        deployment = deploy(massbft(), load=3000)
        metrics = deployment.run(duration=1.0, warmup=0.0)
        assert metrics.batch_sizes.max <= deployment.max_batch_txns

    def test_load_stage_settings_before_run_hold_from_first_batch(self):
        """A group's batch cap and pipeline window set on its LoadStage
        after construction and before run() govern its very first batch:
        every batch holds the lowered cap, and with a window of one no
        group proposes an entry while an earlier one awaits its global
        commit (the default cap and window would allow both)."""
        deployment = deploy(massbft(), load=3000)
        assert deployment.max_batch_txns == 60
        for runtime in deployment.groups.values():
            runtime.load_stage.max_batch_txns = 7
            runtime.load_stage.pipeline_window = 1
        batched = []

        def on_batched(event):
            runtime = deployment.groups[event.entry_id.gid]
            outstanding = runtime.next_seq - runtime.last_own_committed
            batched.append((event.entry_id, event.tx_count, outstanding))

        deployment.bus.subscribe(EntryBatched, on_batched)
        deployment.run(duration=1.0, warmup=0.0)
        firsts = [row for row in batched if row[0].seq == 1]
        assert len(firsts) == 3
        assert all(count == 7 for _, count, _ in firsts)
        assert all(count <= 7 for _, count, _ in batched)
        assert all(outstanding == 1 for _, _, outstanding in batched)
        assert all(
            deployment.groups[gid].next_seq > 3 for gid in deployment.groups
        )


class TestExecutionModes:
    def test_full_execution_with_real_coding(self):
        """End-to-end with real payload bytes: serialize, erasure-code,
        Merkle-verify, rebuild, execute against the real store."""
        deployment = GeoDeployment(
            tiny_cluster((4, 4, 4)),
            massbft(),
            make_workload("smallbank", n_accounts=500),
            offered_load=400,
            coding="real",
            execution="full",
            seed=13,
        )
        metrics = deployment.run(duration=1.0, warmup=0.0)
        assert metrics.committed > 50
        observer = deployment.observer_of(0)
        assert observer.pipeline.store.batches_applied > 0

    def test_abort_metrics_recorded_for_hotspots(self):
        deployment = GeoDeployment(
            tiny_cluster((4, 4, 4)),
            massbft(),
            make_workload("tpcc", n_warehouses=2),
            offered_load=3000,
            seed=14,
        )
        metrics = deployment.run(duration=1.5, warmup=0.25)
        assert metrics.abort_rate > 0.01
