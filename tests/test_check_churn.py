"""Checker coverage for churn: the reconfiguration fault grammar, the
20-seed safety sweep, directed churn-plus-fault scenarios, weak-variant
detection with shrinking and replay, and bit-determinism of churn runs."""

import json

import pytest

from repro.check import (
    CheckConfig,
    FaultOp,
    FaultSchedule,
    ScenarioConfig,
    generate_schedule,
    replay_trace,
    run_episode,
    shrink_schedule,
)
from repro.check.explorer import SCENARIO_STREAM, _record_trace
from repro.check.scenarios import CHURN_KINDS, KINDS
from repro.protocols import GeoDeployment, protocol_by_name
from repro.sim.rng import RngRegistry
from repro.topology import scaled_cluster
from repro.workloads import make_workload

#: Churn episodes need 5-node groups so a graceful leave keeps a viable
#: quorum afterwards.
CHURN = CheckConfig(
    nodes_per_group=5, scenario=ScenarioConfig(churn=True)
)

#: Staggered graceful leaves that empty group 0 entirely: the weak
#: variant (commit quorum 1) keeps committing while the group shrinks,
#: so the unreplicated tail dies with the last member.
LEAVE_OF_QUORUM = FaultSchedule(
    tuple(
        FaultOp(kind="leave", at=2.0 + 0.05 * i, gid=0, index=i)
        for i in range(5)
    )
).canonicalize()


def _gen(seed, config=None, nodes_per_group=5):
    rng = RngRegistry(seed).stream(SCENARIO_STREAM)
    return generate_schedule(
        rng,
        scaled_cluster(n_groups=3, nodes_per_group=nodes_per_group),
        config or ScenarioConfig(churn=True),
    )


class TestChurnGrammar:
    def test_churn_off_never_draws_churn_ops(self):
        for seed in range(20):
            schedule = _gen(seed, ScenarioConfig())
            assert all(op.kind in KINDS for op in schedule.ops)

    def test_churn_draws_are_deterministic(self):
        assert _gen(11) == _gen(11)
        assert any(
            op.kind in CHURN_KINDS
            for seed in range(10)
            for op in _gen(seed).ops
        )

    def test_churn_budgets_hold(self):
        config = ScenarioConfig(churn=True, min_ops=4, max_ops=8)
        for seed in range(30):
            schedule = _gen(seed, config)
            churn_ops = [op for op in schedule.ops if op.kind in CHURN_KINDS]
            assert len(churn_ops) <= config.max_churn_ops
            departures = {}
            for op in schedule.ops:
                if op.kind == "leave":
                    departures[op.gid] = departures.get(op.gid, 0) + 1
            for gid, count in departures.items():
                assert 5 - count >= 4  # leaves keep groups quorate

    def test_leaves_may_target_the_leader_index(self):
        # Index 0 (the initial leader) must be drawable — its departure
        # exercises the hand-off path.
        indices = {
            op.index
            for seed in range(60)
            for op in _gen(seed).ops
            if op.kind == "leave"
        }
        assert 0 in indices


class TestCanonicalization:
    """Satellite: shrinking canonicalizes op ordering and timestamps, so
    shrunk schedules replay from a stable (seed, schedule) key."""

    MESSY = FaultSchedule(
        (
            FaultOp(kind="leave", at=1.50000001, gid=0, index=1),
            FaultOp(kind="join", at=0.123456789, gid=2),
            FaultOp(kind="degrade_region", at=1.5, gid=1, until=1.87654321,
                    bandwidth=5_000_000.123456),
        )
    )

    def test_canonicalize_is_a_fixed_point(self):
        canonical = self.MESSY.canonicalize()
        assert canonical.canonicalize() == canonical
        assert canonical != self.MESSY  # it actually normalised something

    def test_canonical_ops_are_sorted_and_rounded(self):
        canonical = self.MESSY.canonicalize()
        assert [op.kind for op in canonical.ops] == [
            "join", "degrade_region", "leave",
        ]
        assert canonical.ops[2].at == 1.5
        assert canonical.ops[1].until == 1.8765

    def test_canonical_form_survives_json_roundtrip(self):
        canonical = self.MESSY.canonicalize()
        decoded = FaultSchedule.from_jsonable(
            json.loads(json.dumps(canonical.to_jsonable()))
        )
        assert decoded == canonical
        assert decoded.canonicalize() == decoded

    def test_without_is_shrink_idempotent(self):
        for i in range(len(self.MESSY)):
            once = self.MESSY.without(i)
            assert once.canonicalize() == once
            for j in range(len(once)):
                assert once.without(j).canonicalize() == once.without(j)

    def test_generated_schedules_are_already_canonical(self):
        for seed in range(10):
            schedule = _gen(seed)
            assert schedule.canonicalize() == schedule


class TestChurnSweep:
    def test_five_seed_churn_sweep_is_clean_on_massbft(self):
        """Seeds 0-4 here; CI ``churn-smoke`` sweeps 0-19 with this
        same ``CheckConfig`` (``repro check --churn --episodes 20``)."""
        for seed in range(5):
            result = run_episode("massbft", seed, CHURN)
            assert result.ok, (
                f"seed {seed} violated "
                f"{sorted({v.invariant for v in result.violations})} under "
                f"{result.schedule.describe()}"
            )
            assert result.committed > 0


class TestDirectedChurnScenarios:
    def test_join_during_partition(self):
        schedule = FaultSchedule(
            (
                FaultOp(kind="partition", at=1.0, gid=1, until=1.4),
                FaultOp(kind="join", at=1.1, gid=1),
            )
        ).canonicalize()
        result = run_episode("massbft", 4, CHURN, schedule=schedule)
        assert result.ok and result.committed > 0

    def test_leave_of_current_leader(self):
        schedule = FaultSchedule(
            (FaultOp(kind="leave", at=1.0, gid=2, index=0),)
        ).canonicalize()
        result = run_episode("massbft", 4, CHURN, schedule=schedule)
        assert result.ok and result.committed > 0

    def test_group_resize_under_load(self):
        schedule = FaultSchedule(
            (
                FaultOp(kind="group_resize", at=1.0, gid=0, count=7),
                FaultOp(kind="crash_node", at=1.3, gid=0, index=2),
            )
        ).canonicalize()
        result = run_episode("massbft", 4, CHURN, schedule=schedule)
        assert result.ok and result.committed > 0


class TestWeakVariantUnderChurn:
    """The checker must catch history loss a leave-of-quorum provokes in
    the weak variant — and prove the stock protocol survives it."""

    @pytest.fixture(scope="class")
    def weak_result(self):
        return run_episode("massbft-weak", 7, CHURN, schedule=LEAVE_OF_QUORUM)

    def test_stock_protocol_survives_leave_of_quorum(self):
        result = run_episode("massbft", 7, CHURN, schedule=LEAVE_OF_QUORUM)
        assert result.ok and result.committed > 0

    def test_weak_variant_loses_committed_entries(self, weak_result):
        assert any(
            v.invariant == "committed-entry-lost"
            for v in weak_result.violations
        )

    def test_shrink_keeps_only_the_necessary_leaves(self, weak_result):
        padded = FaultSchedule(
            LEAVE_OF_QUORUM.ops
            + (
                FaultOp(kind="slow_node", at=0.6, gid=1, index=2,
                        bandwidth=8e6),
                FaultOp(kind="leader_move", at=0.9, gid=2),
            )
        ).canonicalize()
        result = run_episode("massbft-weak", 7, CHURN, schedule=padded)
        assert result.violations
        shrunk = shrink_schedule(
            "massbft-weak", 7, padded, CHURN,
            target_invariants={"committed-entry-lost"},
        )
        assert len(shrunk) < len(padded)
        assert all(op.kind == "leave" for op in shrunk.ops)
        assert shrunk.canonicalize() == shrunk

    def test_trace_records_and_replays_identically(self, weak_result, tmp_path):
        path = _record_trace(weak_result, CHURN, tmp_path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == "repro.check/1"
        assert header["violations"]
        # The event log carries the churn markers, epochs included.
        records = [
            json.loads(line) for line in path.read_text().splitlines()[1:]
        ]
        reconfigs = [r for r in records if r["event"] == "reconfig"]
        assert [r["kind"] for r in reconfigs] == ["leave"] * 5
        assert [r["epoch"] for r in reconfigs] == [1, 2, 3, 4, 5]
        reproduced, fresh = replay_trace(path)
        assert reproduced
        assert fresh.violation_keys() == weak_result.violation_keys()


class TestChurnDeterminism:
    SCHEDULE = FaultSchedule(
        (
            FaultOp(kind="join", at=0.8, gid=0),
            FaultOp(kind="leave", at=1.1, gid=1, index=0),
            FaultOp(kind="leader_move", at=1.3, gid=2),
            FaultOp(kind="degrade_region", at=1.5, gid=0, until=1.9,
                    bandwidth=5e6),
        )
    ).canonicalize()

    def _run(self):
        deployment = GeoDeployment(
            scaled_cluster(n_groups=3, nodes_per_group=5),
            protocol_by_name("massbft"),
            make_workload("ycsb-a"),
            offered_load=1200.0,
            seed=9,
            observers="all",
        )
        tracer = deployment.attach_tracer()
        self.SCHEDULE.apply(deployment)
        deployment.run(duration=3.0)
        trace = tracer.build()
        ledgers = {
            repr(node.addr): list(node.ledger.order())
            for node in deployment.nodes.values()
            if node.is_observer and node.ledger is not None
        }
        markers = [
            (span.name, span.start, span.args["epoch"])
            for span in trace.reconfig_spans
        ]
        epoch_lane = list(trace.telemetry.series("group/g0/epoch").points)
        return ledgers, markers, epoch_lane

    def test_same_seed_same_churn_schedule_is_bit_identical(self):
        a = self._run()
        b = self._run()
        assert a == b
        ledgers, markers, epoch_lane = a
        assert any(ledger for ledger in ledgers.values())
        # Epoch markers are present in the traced bundle and the epoch
        # telemetry lane actually advanced past genesis.
        assert [name for name, _, _ in markers] == [
            "reconfig:join_started", "reconfig:join", "reconfig:leave",
            "reconfig:leader_move", "reconfig:degrade_region",
            "reconfig:restore_region",
        ]
        assert epoch_lane[-1][1] >= 1.0
