"""Adverse-condition tests: lossy WAN, jitter, leader crashes mid-run.

The paper's network model is partial synchrony (Section III-A): unstable
periods are tolerated as long as a global stabilization time exists.
These tests exercise the corresponding code paths: erasure parity
absorbing chunk loss, jitter not breaking agreement, and group-leader
replacement keeping the system live.
"""


from repro.protocols import GeoDeployment, massbft
from repro.sim.network import LinkQuality
from repro.workloads import make_workload
from tests.conftest import tiny_cluster


def deploy(loss=0.0, jitter=0.0, sizes=(7, 7, 7), load=2000, **kwargs):
    deployment = GeoDeployment(
        tiny_cluster(sizes),
        massbft(),
        make_workload("ycsb-a"),
        offered_load=load,
        seed=61,
        **kwargs,
    )
    deployment.network.wan_quality = LinkQuality(
        loss_probability=loss, jitter=jitter
    )
    return deployment


class TestLossyWan:
    def test_parity_absorbs_light_chunk_loss(self):
        """With 7-node groups, 4 of 7 chunks per entry are parity: a
        fraction of a percent of WAN loss costs some chunks but entries
        still rebuild and the system keeps committing."""
        clean = deploy(loss=0.0).run(duration=1.5, warmup=0.25)
        lossy = deploy(loss=0.005).run(duration=1.5, warmup=0.25)
        assert lossy.committed > 0.75 * clean.committed

    def test_heavier_loss_degrades_but_does_not_wedge(self):
        metrics = deploy(loss=0.03).run(duration=1.5, warmup=0.25)
        assert metrics.committed > 100  # alive, if slower

    def test_jitter_preserves_agreement(self):
        deployment = deploy(jitter=0.005, observers="all", load=1500)
        orders = {}
        for node in deployment.nodes.values():
            if not node.is_observer:
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
            assert seq == reference[: len(seq)]


class TestLeaderCrashWithinGroup:
    def test_follower_group_leader_crash_keeps_system_live(self):
        """Crashing a *follower* group's representative mid-run: the
        local PBFT rotates leadership, global messages re-route to the
        new representative, and the other groups keep committing."""
        deployment = deploy(sizes=(4, 4, 4), load=1500)

        def crash_rep_of_group_1():
            deployment.groups[1].members[0].crash()
            deployment.groups[1].pbft.rotate_leader()

        deployment.sim.schedule_at(0.75, crash_rep_of_group_1)
        metrics = deployment.run(duration=2.5, warmup=0.0)
        # Groups 0 and 2 keep committing after the crash.
        second_half = [
            v
            for t, v in metrics.throughput_timeline.points
            if t > 1.25
        ]
        assert sum(second_half) > 500
        # The new representative is member 1.
        assert deployment.groups[1].rep.index == 1

    def test_rotation_skips_crashed_members(self):
        deployment = deploy(sizes=(4, 4, 4))
        group = deployment.groups[0]
        group.members[0].crash()
        group.members[1].crash()
        group.pbft.rotate_leader()
        assert group.rep.index == 2
