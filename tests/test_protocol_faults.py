"""Fault-tolerance integration tests (the Fig 15 scenarios)."""


from repro.protocols import GeoDeployment, baseline, massbft
from repro.workloads import make_workload
from tests.conftest import tiny_cluster


def deploy(spec, load=2500, sizes=(4, 4, 4), **kwargs):
    return GeoDeployment(
        tiny_cluster(sizes),
        spec,
        make_workload("ycsb-a"),
        offered_load=load,
        seed=21,
        **kwargs,
    )


def windowed_throughput(metrics, window=0.5, end=None):
    return [v / window for _, v in metrics.throughput_timeline.window_sums(window, end=end)]


class TestByzantineNodes:
    def test_tampering_does_not_reduce_throughput(self):
        """Fig 15 node failures: colluding Byzantine nodes flood tampered
        chunks from t=1.5 s; correct nodes rebuild from correct buckets
        and throughput is unchanged."""
        clean = deploy(massbft())
        clean_metrics = clean.run(duration=3.0, warmup=0.5)

        attacked = deploy(massbft())
        for g in range(3):
            attacked.make_byzantine_at(gid=g, count=1, at=1.5)
        attacked_metrics = attacked.run(duration=3.0, warmup=0.5)

        assert attacked_metrics.committed > 0.9 * clean_metrics.committed

    def test_tampered_buckets_detected(self):
        """At the paper's scale (7-node groups, f=2 colluding Byzantine
        nodes per group) fake buckets fill to n_data and are detected —
        while correct nodes keep committing from genuine buckets."""
        deployment = deploy(massbft(), sizes=(7, 7, 7))
        # Disjoint indices per group: faulty senders of one group and
        # faulty receivers of its peers corrupt different plan positions.
        for g, idx in ((0, [1, 2]), (1, [3, 4]), (2, [5, 6])):
            deployment.make_byzantine_at(gid=g, count=2, at=0.5, indices=idx)
        metrics = deployment.run(duration=2.0, warmup=0.0)
        assert deployment.transport.monitor_counters.get("rebuild_failures", 0) > 0
        assert metrics.committed > 500

    def test_real_coding_under_tampering_small(self):
        deployment = GeoDeployment(
            tiny_cluster((4, 4, 4)),
            massbft(),
            make_workload("ycsb-a"),
            offered_load=300,
            coding="real",
            seed=22,
        )
        deployment.make_byzantine_at(gid=1, count=1, at=0.3)
        metrics = deployment.run(duration=1.5, warmup=0.0)
        assert metrics.committed > 50


class TestGroupCrash:
    def test_crash_stalls_then_takeover_recovers(self):
        """Fig 15 group failure: execution stalls when a group's clock
        stops, then a takeover leader assigns on its behalf and the two
        surviving groups settle at ~2/3 of the original throughput."""
        deployment = deploy(massbft(), load=2500, takeover_timeout=0.5)
        deployment.crash_group_at(0, at=2.0)
        metrics = deployment.run(duration=6.0, warmup=0.0)
        metrics.end_time = 6.0
        tl = windowed_throughput(metrics, window=0.5, end=6.0)
        before = sum(tl[1:4]) / 3
        stall = tl[4]  # immediately after the crash
        after = sum(tl[9:12]) / 3
        assert stall < 0.5 * before
        assert after > 0.35 * before  # recovered (2 of 3 groups serving)
        assert after < 0.95 * before  # crashed group's clients unserved

    def test_takeover_leader_is_lowest_live_group(self):
        deployment = deploy(massbft(), load=1500, takeover_timeout=0.5)
        deployment.crash_group_at(0, at=1.0)
        deployment.run(duration=4.0, warmup=0.0)
        g1_view = deployment.groups[1].global_phase.instances[0]
        assert g1_view.takeover_leader == 1

    def test_no_takeover_without_crash(self):
        deployment = deploy(massbft(), load=1500)
        deployment.run(duration=3.0, warmup=0.0)
        for runtime in deployment.groups.values():
            for state in runtime.global_phase.instances.values():
                assert state.takeover_leader is None

    def test_surviving_observers_agree_after_crash(self):
        deployment = deploy(massbft(), load=1500, observers="all", takeover_timeout=0.5)
        orders = {}
        for node in deployment.nodes.values():
            if node.orderer is None or node.gid == 0:
                continue
            executed = []
            orders[node.addr] = executed
            original = node.orderer.on_execute

            def wrapped(eid, executed=executed, original=original):
                executed.append(eid)
                original(eid)

            node.orderer.on_execute = wrapped
        deployment.crash_group_at(0, at=1.0)
        deployment.run(duration=4.0, warmup=0.0)
        sequences = list(orders.values())
        reference = max(sequences, key=len)
        assert len(reference) > 20
        for seq in sequences:
            assert seq == reference[: len(seq)]


class TestNodeCrashWithinGroup:
    def test_massbft_tolerates_f_crashed_nodes(self):
        deployment = deploy(massbft(), sizes=(4, 4, 4), load=1500)

        def crash_followers():
            # One (f=1) non-representative node per group.
            for g in range(3):
                deployment.groups[g].members[3].crash()

        deployment.sim.schedule_at(0.5, crash_followers)
        metrics = deployment.run(duration=2.5, warmup=1.0)
        assert metrics.committed > 500

    def test_baseline_tolerates_f_crashed_receivers(self):
        deployment = deploy(baseline(), sizes=(4, 4, 4), load=1500)

        def crash_followers():
            for g in range(3):
                deployment.groups[g].members[3].crash()

        deployment.sim.schedule_at(0.5, crash_followers)
        metrics = deployment.run(duration=2.5, warmup=1.0)
        assert metrics.committed > 500


class TestBandwidthDegradation:
    def test_slow_nodes_reduce_massbft_throughput_gracefully(self):
        """Fig 14: replacing fast nodes with slow ones lowers throughput
        but does not collapse it (the transfer plan spreads load)."""
        results = {}
        for n_slow in (0, 4):
            cluster = tiny_cluster((7, 7, 7), wan_bandwidth=40e6)
            for group in cluster.groups:
                for idx in range(n_slow):
                    group.node_bandwidth[idx] = 20e6
            deployment = GeoDeployment(
                cluster,
                massbft(),
                make_workload("ycsb-a"),
                offered_load=20000,
                seed=23,
            )
            metrics = deployment.run(duration=1.5, warmup=0.5)
            results[n_slow] = metrics.throughput
        assert results[4] < results[0]
        assert results[4] > 0.3 * results[0]
