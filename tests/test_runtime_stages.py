"""Tests for the runtime stage wiring: event bus, stage records, selection."""

import pytest

from repro.core.entry import EntryId
from repro.core.ordering import DeterministicOrderer, RoundBasedOrderer
from repro.core.replication import (
    BijectiveTransport,
    EncodedBijectiveTransport,
    LeaderUnicastTransport,
)
from repro.protocols import GeoDeployment, massbft, protocol_by_name, registry
from repro.protocols.runtime import (
    DirectBroadcastPhase,
    EntryBatched,
    EntryExecuted,
    EventBus,
    RaftGlobalPhase,
    SequenceOrderer,
    SerialSlotPhase,
)
from repro.workloads import make_workload
from tests.conftest import tiny_cluster


def deploy(spec, load=2000, **kwargs):
    return GeoDeployment(
        tiny_cluster((4, 4, 4)),
        spec,
        make_workload("ycsb-a"),
        offered_load=load,
        seed=21,
        **kwargs,
    )


class TestEventBus:
    def test_dispatch_is_typed_and_ordered(self):
        bus = EventBus()
        seen = []
        bus.subscribe(EntryBatched, lambda e: seen.append(("first", e)))
        bus.subscribe(EntryBatched, lambda e: seen.append(("second", e)))
        bus.subscribe(EntryExecuted, lambda e: seen.append(("exec", e)))
        event = EntryBatched(entry_id=None, at=0.0, tx_count=3, mean_wait=0.0)
        bus.publish(event)
        assert seen == [("first", event), ("second", event)]

    def test_unsubscribed_event_is_dropped(self):
        EventBus().publish(EntryBatched(None, 0.0, 1, 0.0))  # no handlers: no-op


class TestStageRecords:
    """What RunMetrics keeps of the bus's stage events."""

    def test_stage_timeline_is_monotone(self):
        metrics = deploy(massbft()).run(duration=1.0, warmup=0.0)
        complete = [
            s
            for s in metrics.entry_stamps.values()
            if {"batched", "local_committed", "global_committed", "executed"}
            <= s.keys()
        ]
        assert len(complete) > 10
        for stamps in complete:
            assert (
                stamps["batched"]
                <= stamps["local_committed"]
                <= stamps["global_committed"]
                <= stamps["executed"]
            )

    def test_executed_stamps_agree_with_executed_entries(self):
        deployment = deploy(massbft())
        metrics = deployment.run(duration=1.0, warmup=0.0)
        stamped = {
            e for e, stamps in metrics.entry_stamps.items() if "executed" in stamps
        }
        # Each entry is measured once, at its origin group's observer,
        # whose subchain for that group grows in sequence order.
        executed = {
            EntryId(gid, seq)
            for gid in deployment.groups
            for seq in range(
                1, deployment.observer_of(gid).ledger.subchains[gid].height + 1
            )
        }
        assert len(stamped) > 10
        assert stamped == executed

    def test_queue_depths_sampled_at_admission(self):
        metrics = deploy(massbft()).run(duration=0.5, warmup=0.0)
        rows = metrics.queue_summary()
        assert rows
        for row in rows:
            assert row["samples"] > 0
            assert row["wan_backlog_mean"] >= 0.0 and row["cpu_backlog_mean"] >= 0.0

    def test_gating_reported_under_pressure(self):
        deployment = deploy(massbft(), load=2000)
        for group in deployment.groups.values():
            group.load_stage.pipeline_window = 1
        metrics = deployment.run(duration=1.0, warmup=0.0)
        assert any(row.get("gated_window", 0) > 0 for row in metrics.queue_summary())


#: (transport, global phase, orderer) each registered name must build.
STAGES = {
    "massbft": (EncodedBijectiveTransport, RaftGlobalPhase, DeterministicOrderer),
    "ebr+a": (EncodedBijectiveTransport, RaftGlobalPhase, DeterministicOrderer),
    "massbft-weak": (
        EncodedBijectiveTransport, RaftGlobalPhase, DeterministicOrderer,
    ),
    "baseline": (LeaderUnicastTransport, RaftGlobalPhase, RoundBasedOrderer),
    "iss": (LeaderUnicastTransport, RaftGlobalPhase, RoundBasedOrderer),
    "geobft": (LeaderUnicastTransport, DirectBroadcastPhase, RoundBasedOrderer),
    "steward": (LeaderUnicastTransport, SerialSlotPhase, SequenceOrderer),
    "br": (BijectiveTransport, RaftGlobalPhase, RoundBasedOrderer),
    "ebr": (EncodedBijectiveTransport, RaftGlobalPhase, RoundBasedOrderer),
}


class TestStageSelection:
    @pytest.mark.parametrize("name", sorted(registry._FACTORIES))
    def test_spec_strings_select_every_stage(self, name):
        transport, phase, orderer = STAGES[name]
        deployment = deploy(protocol_by_name(name), observers="all")
        assert type(deployment.transport) is transport
        for group in deployment.groups.values():
            assert type(group.global_phase) is phase
        observers = [n for n in deployment.nodes.values() if n.is_observer]
        assert len(observers) == len(deployment.nodes)
        for node in observers:
            assert type(node.orderer) is orderer

        metrics = deployment.run(duration=0.5, warmup=0.0)
        assert metrics.committed > 0
        if phase is DirectBroadcastPhase:
            # Availability is commitment: no global Raft instance starts.
            for group in deployment.groups.values():
                assert group.global_phase.instances == {}
