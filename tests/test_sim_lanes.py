"""Tests for the laned simulation kernel (plan, strict kernel, engine)."""

import math
import random

import pytest

from repro.sim import (
    WAN_LANE,
    LanedEngine,
    LanedSimulator,
    LanePlan,
    SimulationBudgetExceeded,
    Simulator,
)
from repro.topology import (
    nationwide_cluster,
    scaled_cluster,
    worldwide_scaled_cluster,
)


class TestLanePlan:
    def test_one_lane_per_group_by_default(self):
        plan = LanePlan.from_cluster(nationwide_cluster())
        assert plan.n_lanes == 3
        assert plan.total_lanes == 4  # + the WAN lane
        assert [plan.lane_of_group(g) for g in range(3)] == [1, 2, 3]

    def test_lookahead_is_min_cross_lane_one_way_latency(self):
        cluster = nationwide_cluster()
        plan = LanePlan.from_cluster(cluster)
        # The fastest pair is Chengdu <-> Hangzhou at 26.7 ms RTT.
        assert plan.lookahead == pytest.approx(0.0267 / 2)

    def test_fewer_lanes_groups_contiguously(self):
        plan = LanePlan.from_cluster(scaled_cluster(7), lanes=2)
        lanes = [plan.lane_of_group(g) for g in range(7)]
        assert lanes == sorted(lanes)
        assert set(lanes) == {1, 2}
        assert plan.groups_of_lane(1) == [0, 1, 2, 3]
        assert plan.groups_of_lane(2) == [4, 5, 6]

    def test_same_lane_pairs_do_not_constrain_lookahead(self):
        cluster = scaled_cluster(4)
        full = LanePlan.from_cluster(cluster)
        coarse = LanePlan.from_cluster(cluster, lanes=2)
        # Dropping pairs from the cross-lane set can only raise the min.
        assert coarse.lookahead >= full.lookahead

    def test_single_lane_free_runs(self):
        plan = LanePlan.from_cluster(nationwide_cluster(), lanes=1)
        assert math.isinf(plan.lookahead)

    def test_worker_partition_is_contiguous_and_total(self):
        plan = LanePlan.from_cluster(worldwide_scaled_cluster(8))
        assert plan.worker_of_lane(WAN_LANE, 4) == 0
        workers = [plan.worker_of_lane(lane, 4) for lane in range(1, 9)]
        assert workers == sorted(workers)
        assert set(workers) == {0, 1, 2, 3}

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            LanePlan(n_groups=0, n_lanes=1, lookahead=0.01)
        with pytest.raises(ValueError):
            LanePlan(n_groups=3, n_lanes=4, lookahead=0.01)
        with pytest.raises(ValueError):
            LanePlan(n_groups=3, n_lanes=2, lookahead=0.0)


def _event_soup(sim, seed=11, until=1.0):
    """A random self-extending event workload; returns the firing order."""
    rng = random.Random(seed)
    order = []

    def fire(tag):
        order.append((sim.now, tag))
        if rng.random() < 0.4 and sim.now < until / 2:
            sim.schedule(rng.random() * 0.1, fire, tag * 31 + 7)

    for i in range(80):
        sim.schedule(rng.random() * until, fire, i)
    sim.run(until=until)
    return order


class TestLanedSimulatorStrict:
    def test_identical_execution_to_classic(self):
        plan = LanePlan.from_cluster(nationwide_cluster())
        assert _event_soup(Simulator()) == _event_soup(LanedSimulator(plan))

    def test_worker_count_is_bookkeeping_only(self):
        plan = LanePlan.from_cluster(nationwide_cluster())
        runs = [
            _event_soup(LanedSimulator(plan, workers=w)) for w in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_lane_attribution_follows_context(self):
        plan = LanePlan.from_cluster(nationwide_cluster())
        sim = LanedSimulator(plan)
        seen = []
        with sim.lane_context(2):
            sim.schedule(0.1, lambda: seen.append(sim.current_lane))
        sim.schedule(0.2, lambda: seen.append(sim.current_lane))  # WAN lane
        sim.run(until=1.0)
        assert seen == [2, WAN_LANE]
        assert sim.events_by_lane[2] == 1
        assert sim.events_by_lane[WAN_LANE] == 1

    def test_events_scheduled_from_event_inherit_its_lane(self):
        plan = LanePlan.from_cluster(nationwide_cluster())
        sim = LanedSimulator(plan)
        lanes = []

        def child():
            lanes.append(sim.current_lane)

        def parent():
            sim.schedule(0.05, child)

        with sim.lane_context(3):
            sim.schedule(0.1, parent)
        sim.run(until=1.0)
        assert lanes == [3]
        assert sim.events_by_lane[3] == 2

    def test_reserved_slot_inherits_the_scheduling_lane(self):
        plan = LanePlan.from_cluster(nationwide_cluster())
        sim = LanedSimulator(plan)
        lanes = []

        def parent():
            slot = sim.reserve_slots(1)
            sim.schedule_reserved(0.2, slot, lambda: lanes.append(sim.current_lane))

        with sim.lane_context(3):
            sim.schedule(0.1, parent)
        sim.run(until=1.0)
        assert lanes == [3]
        assert sim.events_by_lane[3] == 2

    def test_cross_lane_post_records_slack(self):
        plan = LanePlan.from_cluster(nationwide_cluster())
        sim = LanedSimulator(plan)

        def sender():
            sim.post(2, sim.now + 0.02, lambda: None)

        with sim.lane_context(1):
            sim.schedule(0.1, sender)
        sim.run(until=1.0)
        assert sim.cross_lane_posts == 1
        assert sim.min_cross_slack == pytest.approx(0.02)
        report = sim.lane_report()
        assert report["conservative_ok"]  # 20 ms > 13.35 ms lookahead

    def test_slack_below_lookahead_flags_report(self):
        plan = LanePlan.from_cluster(nationwide_cluster())
        sim = LanedSimulator(plan)

        def sender():
            sim.post(2, sim.now + 0.001, lambda: None)

        with sim.lane_context(1):
            sim.schedule(0.1, sender)
        sim.run(until=1.0)
        assert not sim.lane_report()["conservative_ok"]

    def test_timer_repush_keeps_lane(self):
        plan = LanePlan.from_cluster(nationwide_cluster())
        sim = LanedSimulator(plan)
        ticks = []
        with sim.lane_context(1):
            sim.set_timer(0.1, lambda: ticks.append(sim.current_lane), interval=0.1)
        sim.run(until=0.55)
        assert ticks == [1] * 5
        assert sim.events_by_lane[1] == 5


class TestBudgetError:
    def test_run_until_idle_raises_on_exhausted_budget(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.001, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationBudgetExceeded) as err:
            sim.run_until_idle(max_events=50)
        assert err.value.max_events == 50
        assert err.value.pending_time > 0
        assert "runaway" in str(err.value)

    def test_clean_drain_does_not_raise(self):
        sim = Simulator()
        hits = []
        for i in range(10):
            sim.schedule(0.01 * i, hits.append, i)
        end = sim.run_until_idle(max_events=100)
        assert len(hits) == 10
        assert end == pytest.approx(0.09)

    def test_explicit_stop_does_not_raise(self):
        sim = Simulator()

        def loop():
            if sim.events_processed >= 5:
                sim.stop()
            sim.schedule(0.001, loop)

        sim.schedule(0.0, loop)
        sim.run_until_idle(max_events=1000)  # stop() is not budget abuse


class _PingPong:
    """Minimal lane program: bounce a counter between two lanes."""

    def __init__(self, lane, peer, hop=0.05, rounds=20):
        self.sim = Simulator()
        self.lane = lane
        self.peer = peer
        self.hop = hop
        self.rounds = rounds
        self.log = []
        self._post = None

    def start(self, post):
        self._post = post
        if self.lane == 1:
            self.sim.schedule(0.01, self._tick, 0)

    def _tick(self, k):
        self.log.append((self.sim.now, k))
        if k < self.rounds:
            self._post(self.peer, self.sim.now + self.hop, k + 1)

    def deliver(self, arrival, src_lane, payload):
        self.sim.schedule_at(arrival, self._tick, payload)

    def digest(self):
        return repr(self.log)

    def stats(self):
        return {"ticks": len(self.log)}


class TestLanedEngine:
    def _run(self, workers, lookahead=0.05):
        engine = LanedEngine(
            {1: lambda: _PingPong(1, 2), 2: lambda: _PingPong(2, 1)},
            lookahead=lookahead,
            workers=workers,
        )
        return engine.run(until=5.0)

    def test_inline_matches_forked(self):
        inline = self._run(workers=1)
        forked = self._run(workers=2)
        assert inline.digests == forked.digests
        assert inline.events == forked.events == 21
        assert inline.merged_digest() == forked.merged_digest()

    def test_min_post_slack_tracked(self):
        result = self._run(workers=1)
        assert result.min_post_slack == pytest.approx(0.05)

    def test_post_inside_lookahead_rejected(self):
        engine = LanedEngine(
            # Hop of 10 ms against a claimed 50 ms lookahead: unsound.
            {1: lambda: _PingPong(1, 2, hop=0.01),
             2: lambda: _PingPong(2, 1, hop=0.01)},
            lookahead=0.05,
        )
        with pytest.raises(ValueError, match="conservative lookahead"):
            engine.run(until=5.0)

    def test_budget_exhaustion_raises(self):
        class _Runaway:
            def __init__(self):
                self.sim = Simulator()

            def start(self, post):
                self.sim.schedule(0.001, self._loop)

            def _loop(self):
                self.sim.schedule(0.001, self._loop)

            def deliver(self, arrival, src_lane, payload):
                pass

            def digest(self):
                return "runaway"

            def stats(self):
                return {}

        engine = LanedEngine({1: _Runaway}, lookahead=math.inf)
        with pytest.raises(SimulationBudgetExceeded):
            engine.run(until=1e9, max_events=100)

    def test_multiple_lanes_require_finite_lookahead(self):
        with pytest.raises(ValueError, match="finite lookahead"):
            LanedEngine(
                {1: lambda: _PingPong(1, 2), 2: lambda: _PingPong(2, 1)},
                lookahead=math.inf,
            )


class TestLookaheadProperty:
    def test_lookahead_never_admits_early_cross_lane_arrivals(self):
        """Property: for seeded random topologies and lane counts, every
        cross-lane message in a strict-kernel run arrives at least the
        plan lookahead after its send time."""
        for seed in range(8):
            rng = random.Random(seed)
            n_groups = rng.randrange(2, 9)
            rtts = {
                (i, j): 0.02 + rng.random() * 0.18
                for i in range(n_groups)
                for j in range(i + 1, n_groups)
            }

            class _Cluster:
                name = f"random-{seed}"
                rtt_matrix = rtts

            _Cluster.n_groups = n_groups
            lanes = rng.randrange(2, n_groups + 1)
            plan = LanePlan.from_cluster(_Cluster, lanes=lanes)
            sim = LanedSimulator(plan)

            def send(src, dst):
                # Model a network delivery: one-way latency from the matrix.
                key = (src, dst) if src < dst else (dst, src)
                arrival = sim.now + rtts[key] / 2.0
                sim.post(plan.lane_of_group(dst), arrival, lambda: None)

            for _ in range(200):
                src = rng.randrange(n_groups)
                dst = rng.randrange(n_groups)
                if src == dst:
                    continue
                with sim.lane_context(plan.lane_of_group(src)):
                    sim.schedule(rng.random(), send, src, dst)
            sim.run(until=2.0)
            report = sim.lane_report()
            if report["cross_lane_posts"]:
                assert report["min_cross_slack"] >= plan.lookahead - 1e-12
                assert report["conservative_ok"]
