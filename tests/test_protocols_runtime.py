"""Unit tests for deployment runtime pieces: client load, windows,
sequencers, cost model."""

import pytest

from repro.costs import CostModel
from repro.core.entry import EntryId
from repro.protocols import GeoDeployment, massbft, baseline, steward
from repro.protocols.runtime import ClientLoad, SequenceOrderer
from repro.sim.rng import RngRegistry
from repro.workloads import make_workload
from tests.conftest import tiny_cluster


class TestClientLoad:
    def make(self, rate=1000.0, queue_seconds=0.05):
        return ClientLoad(
            make_workload("ycsb-a"),
            rate=rate,
            rng=RngRegistry(3).stream("load"),
            queue_seconds=queue_seconds,
        )

    def test_arrivals_match_rate(self):
        load = self.make(rate=1000.0)
        txns = load.take(now=0.05)
        # Arrivals at 0.000 .. 0.050 inclusive (51, +-1 for float steps).
        assert 50 <= len(txns) <= 51

    def test_created_at_stamps_are_exact(self):
        load = self.make(rate=100.0)
        txns = load.take(now=0.03)
        assert [round(t.created_at, 4) for t in txns] == [0.0, 0.01, 0.02, 0.03]

    def test_max_n_bounds_batch(self):
        load = self.make(rate=10_000.0)
        txns = load.take(now=0.1, max_n=25)
        assert len(txns) == 25
        # The rest remain queued for the next take.
        more = load.take(now=0.1)
        assert len(more) > 0

    def test_queue_ages_out_old_arrivals(self):
        load = self.make(rate=1000.0, queue_seconds=0.02)
        load.take(now=0.0)
        txns = load.take(now=1.0)  # 1 s gap, queue holds only 20 ms
        assert load.dropped > 900
        assert all(t.created_at >= 0.98 - 1e-9 for t in txns)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            self.make(rate=0.0)


class TestSequenceOrderer:
    def test_in_order_execution(self):
        out = []
        orderer = SequenceOrderer(out.append)
        orderer.deliver(1, EntryId(1, 1))
        assert out == []
        orderer.deliver(0, EntryId(0, 1))
        assert out == [EntryId(0, 1), EntryId(1, 1)]

    def test_gap_blocks(self):
        out = []
        orderer = SequenceOrderer(out.append)
        orderer.deliver(2, EntryId(0, 2))
        orderer.deliver(0, EntryId(0, 1))
        assert len(out) == 1  # slot 1 still missing


class TestCostModel:
    def test_value_verify_scales_with_tx_count(self):
        costs = CostModel()

        class Value:
            size_bytes = 1000
            tx_count = 100

        class Empty:
            size_bytes = 1000
            tx_count = 0

        assert costs.value_verify_seconds(Value()) > 50 * costs.value_verify_seconds(
            Empty()
        )

    def test_coding_costs_linear_in_bytes(self):
        costs = CostModel()
        assert costs.encode_seconds(2000) == pytest.approx(
            2 * costs.encode_seconds(1000)
        )
        assert costs.rebuild_seconds(0) == 0.0

    def test_paper_coding_cost_regime(self):
        """The paper measures ~2.3 ms for encode+rebuild of an entry;
        with default constants a ~270-txn YCSB-A entry lands there."""
        costs = CostModel()
        entry_bytes = 270 * 201
        total_ms = (
            costs.encode_seconds(entry_bytes) + costs.rebuild_seconds(entry_bytes)
        ) * 1000
        assert 0.2 < total_ms < 5.0

    def test_execute_and_certificate(self):
        costs = CostModel()
        assert costs.execute_seconds(10) == pytest.approx(10 * costs.tx_execute_seconds)
        assert costs.certificate_verify_seconds(5) == pytest.approx(
            5 * costs.sig_verify_seconds
        )


class TestProposalWindows:
    def test_backpressure_holds_proposals_when_nics_behind(self):
        deployment = GeoDeployment(
            tiny_cluster((4, 4, 4)),
            massbft(),
            make_workload("ycsb-a"),
            offered_load=2000,
            seed=41,
        )
        runtime = deployment.groups[0]
        runtime.load_stage.wan_backlog_cap = 0.05
        # Artificially saturate every member's uplink.
        for node in runtime.members:
            deployment.network._wan_up[node.addr].acquire(0.0, 20e6)  # 1 s
        assert runtime.load_stage.senders_backlogged()
        assert runtime.load_stage.try_propose() is None

    def test_encoded_gate_ignores_minority_slow_nodes(self):
        deployment = GeoDeployment(
            tiny_cluster((7, 7, 7)),
            massbft(),
            make_workload("ycsb-a"),
            offered_load=2000,
            seed=42,
        )
        runtime = deployment.groups[0]
        runtime.load_stage.wan_backlog_cap = 0.05
        # plan(7,7): n_data=3, nc1=1 -> only the 3 fastest members gate.
        for node in runtime.members[:4]:
            deployment.network._wan_up[node.addr].acquire(0.0, 20e6)
        assert not runtime.load_stage.senders_backlogged()
        for node in runtime.members[4:]:
            deployment.network._wan_up[node.addr].acquire(0.0, 20e6)
        assert runtime.load_stage.senders_backlogged()

    def test_leader_gate_tracks_leader_only(self):
        deployment = GeoDeployment(
            tiny_cluster((4, 4, 4)),
            baseline(),
            make_workload("ycsb-a"),
            offered_load=2000,
            seed=43,
        )
        runtime = deployment.groups[0]
        runtime.load_stage.wan_backlog_cap = 0.05
        for node in runtime.members[1:]:
            deployment.network._wan_up[node.addr].acquire(0.0, 20e6)
        assert not runtime.load_stage.senders_backlogged()  # followers don't send
        deployment.network._wan_up[runtime.rep.addr].acquire(0.0, 20e6)
        assert runtime.load_stage.senders_backlogged()

    def test_steward_token_serializes_slots(self):
        from repro.core.entry import EntryId
        from repro.protocols.runtime import SerialSlotPhase

        deployment = GeoDeployment(
            tiny_cluster((4, 4, 4)),
            steward(),
            make_workload("ycsb-a"),
            offered_load=2000,
            seed=44,
        )
        phase = deployment.groups[0].global_phase
        assert isinstance(phase, SerialSlotPhase)
        token = phase.token
        # The token is deployment-wide: every group shares it.
        assert all(
            g.global_phase.token is token for g in deployment.groups.values()
        )
        assert token.owner() == 0
        slot = token.take(EntryId(0, 1))
        assert token.in_flight
        # Group 0's runtime may not start another slot while in flight.
        assert not deployment.groups[0].load_stage.window_allows()
        token.commit(slot)
        assert not token.in_flight

    def test_async_pipeline_window(self):
        deployment = GeoDeployment(
            tiny_cluster((4, 4, 4)),
            massbft(),
            make_workload("ycsb-a"),
            offered_load=2000,
            seed=45,
        )
        runtime = deployment.groups[0]
        runtime.load_stage.pipeline_window = 2
        runtime.next_seq = 4
        runtime.last_own_committed = 3
        assert runtime.load_stage.window_allows()  # 1 outstanding < window of 2
        runtime.next_seq = 5
        assert not runtime.load_stage.window_allows()  # window full
