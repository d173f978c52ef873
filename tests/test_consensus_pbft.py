"""Tests for the full PBFT replica: normal case, faults, view changes,
checkpoints, and the prepare-skipping accept variant."""

import copy
import dataclasses
import hashlib

import pytest

import repro.consensus
from repro.consensus.messages import PrePrepare
from repro.consensus.pbft import (
    ModeledPbftGroup,
    PbftConfig,
    PbftReplica,
    value_digest,
)
from repro.core.entry import EntryId
from repro.crypto.keystore import KeyStore
from repro.protocols.runtime.events import ValueCertified
from repro.sim.core import Simulator
from repro.sim.network import Network, NodeAddress
from repro.sim.node import SimNode
from tests.conftest import fast_costs
from tests.eager_reference import eager_certificate


class Value:
    """A proposable value with digest/size/tx_count."""

    def __init__(self, payload, size=1000, tx_count=3):
        self.payload = payload
        self.size_bytes = size
        self.tx_count = tx_count

    @property
    def digest(self):
        return hashlib.sha256(repr(self.payload).encode()).digest()


class Harness:
    def __init__(self, n=4, checkpoint_interval=128):
        self.sim = Simulator()
        self.net = Network(self.sim, rtt_matrix={})
        self.keystore = KeyStore(seed=5)
        members = tuple(NodeAddress(0, i) for i in range(n))
        self.nodes = [SimNode(self.sim, self.net, a) for a in members]
        self.committed = {a: [] for a in members}
        config = PbftConfig(
            members=members, checkpoint_interval=checkpoint_interval
        )
        self.replicas = [
            PbftReplica(
                node,
                config,
                self.keystore,
                on_committed=self._cb(node.addr),
                costs=fast_costs(),
            )
            for node in self.nodes
        ]

    def _cb(self, addr):
        def on_committed(seq, value, cert):
            self.committed[addr].append((seq, value, cert))

        return on_committed

    @property
    def leader(self):
        return next(r for r in self.replicas if r.is_leader)

    def live_histories(self):
        return [
            [(s, v.payload) for s, v, _ in self.committed[n.addr]]
            for n in self.nodes
            if not n.crashed
        ]


class TestNormalCase:
    def test_single_proposal_commits_everywhere(self):
        h = Harness()
        h.leader.propose(Value("v0"))
        h.sim.run(until=0.5)
        for hist in h.live_histories():
            assert hist == [(0, "v0")]

    def test_sequence_order_preserved(self):
        h = Harness()
        for i in range(10):
            h.leader.propose(Value(f"v{i}"))
        h.sim.run(until=0.5)
        expected = [(i, f"v{i}") for i in range(10)]
        for hist in h.live_histories():
            assert hist == expected

    def test_certificates_verify(self):
        h = Harness()
        h.leader.propose(Value("v0"))
        h.sim.run(until=0.5)
        for addr, commits in h.committed.items():
            _, _, cert = commits[0]
            assert cert.signer_count >= 3  # 2f+1 for n=4
            assert cert.verify(h.keystore, quorum=3)

    def test_skip_prepare_commits(self):
        h = Harness()
        h.leader.propose(Value("certified-elsewhere"), skip_prepare=True)
        h.sim.run(until=0.5)
        for hist in h.live_histories():
            assert hist == [(0, "certified-elsewhere")]

    def test_non_leader_cannot_propose(self):
        h = Harness()
        follower = next(r for r in h.replicas if not r.is_leader)
        with pytest.raises(RuntimeError):
            follower.propose(Value("x"))

    def test_larger_group(self):
        h = Harness(n=7)
        for i in range(5):
            h.leader.propose(Value(f"v{i}"))
        h.sim.run(until=0.5)
        for hist in h.live_histories():
            assert [p for _, p in hist] == [f"v{i}" for i in range(5)]


class TestFaultTolerance:
    def test_commits_despite_f_silent_followers(self):
        h = Harness(n=4)
        followers = [r for r in h.replicas if not r.is_leader]
        followers[0].node.crash()
        h.leader.propose(Value("v0"))
        h.sim.run(until=0.5)
        for hist in h.live_histories():
            assert hist == [(0, "v0")]

    def test_stalls_with_more_than_f_crashes(self):
        h = Harness(n=4)
        followers = [r for r in h.replicas if not r.is_leader]
        followers[0].node.crash()
        followers[1].node.crash()
        h.leader.propose(Value("v0"))
        h.sim.run(until=0.5)
        for hist in h.live_histories():
            assert hist == []

    def test_view_change_elects_new_leader(self):
        h = Harness(n=4)
        h.leader.propose(Value("v0"))
        h.sim.run(until=0.5)
        old_leader = h.leader
        old_leader.node.crash()
        for r in h.replicas:
            if not r.node.crashed:
                r.suspect_leader()
        h.sim.run(until=3.0)
        new_leader = next(
            r for r in h.replicas if not r.node.crashed and r.is_leader
        )
        assert new_leader is not old_leader
        new_leader.propose(Value("v1"))
        h.sim.run(until=4.0)
        for hist in h.live_histories():
            assert [p for _, p in hist] == ["v0", "v1"]

    def test_view_change_preserves_prepared_value(self):
        # The leader commits locally then crashes; followers prepared the
        # value, so the new view must re-propose and commit it.
        h = Harness(n=4)
        h.leader.propose(Value("must-survive"))
        h.sim.run(until=0.002)  # prepares are in flight
        h.leader.node.crash()
        for r in h.replicas:
            if not r.node.crashed:
                r.suspect_leader()
        h.sim.run(until=5.0)
        survivors = h.live_histories()
        # Either all committed it, or none did — never divergence.
        payload_sets = {tuple(p for _, p in hist) for hist in survivors}
        assert len(payload_sets) == 1

    def test_partial_broadcast_recovers_via_timeout_view_change(self):
        # A faulty leader sends its pre-prepare to only two followers:
        # they prepare but can never gather 2f+1 commits, their progress
        # timers fire, and the resulting view change (joined by the third
        # follower via the f+1 rule) re-proposes the prepared value.
        h = Harness(n=4)
        from repro.consensus.messages import PrePrepare
        from repro.consensus.pbft import value_digest
        from repro.sim.network import Message

        leader = h.leader
        value = Value("withheld")
        pp = PrePrepare(view=0, seq=0, digest=value_digest(value), value=value)
        followers = [r for r in h.replicas if not r.is_leader]
        for target in followers[:2]:
            target._on_pre_prepare_msg(
                Message(leader.node.addr, target.node.addr, pp, pp.size_bytes)
            )
        leader.node.crash()
        h.sim.run(until=8.0)
        live = [r for r in h.replicas if not r.node.crashed]
        assert all(r.view > 0 for r in live)
        histories = {
            tuple(p for _, p in hist) for hist in h.live_histories()
        }
        # Agreement: whatever happened, no two live replicas diverge.
        assert len(histories) == 1


class TestCheckpoints:
    def test_log_truncated_after_checkpoint(self):
        h = Harness(n=4, checkpoint_interval=4)
        for i in range(8):
            h.leader.propose(Value(f"v{i}"))
        h.sim.run(until=1.0)
        for r in h.replicas:
            assert r.stable_checkpoint >= 3
            assert all(seq > r.stable_checkpoint for seq in r.slots)

    def test_commits_continue_after_checkpoint(self):
        h = Harness(n=4, checkpoint_interval=2)
        for i in range(6):
            h.leader.propose(Value(f"v{i}"))
        h.sim.run(until=1.0)
        for hist in h.live_histories():
            assert len(hist) == 6


class TestModeledPbft:
    """The model's contract: every live member pays its CPU and has its own
    commit instant, and the commit is delivered where it acts — at the
    leader, at the leader's own instant (a new leader's, after a change)."""

    def make(self, n=7):
        sim = Simulator()
        net = Network(sim, rtt_matrix={})
        nodes = [SimNode(sim, net, NodeAddress(0, i)) for i in range(n)]
        group = ModeledPbftGroup(nodes, KeyStore(seed=3), costs=fast_costs())
        seen = {n.addr: [] for n in nodes}
        for node in nodes:
            group.subscribe(
                node.addr,
                lambda s, v, c, a=node.addr: seen[a].append((s, v.payload, sim.now)),
            )
        return sim, nodes, group, seen

    @staticmethod
    def payloads(hist):
        return [(seq, payload) for seq, payload, _ in hist]

    def test_commit_reaches_the_leader_and_charges_every_member(self):
        sim, nodes, group, seen = self.make()
        values = [Value("a"), Value("b")]
        for value in values:
            group.propose(value)
        assert sim.pending_events == 2
        sim.run(until=1.0)
        assert self.payloads(seen[nodes[0].addr]) == [(0, "a"), (1, "b")]
        assert all(not seen[n.addr] for n in nodes[1:])
        verify = sum(group.costs.value_verify_seconds(v) for v in values)
        for node in nodes:
            assert node.cpu.jobs == 2
            assert node.cpu.busy_time == pytest.approx(verify / node.cpu.rate)

    def test_certificate_quorum(self):
        sim, nodes, group, seen = self.make(n=7)
        assert group.quorum == 5
        group.propose(Value("a"))
        sim.run(until=1.0)

    def test_crashed_member_skipped(self):
        sim, nodes, group, seen = self.make()
        nodes[3].crash()
        group.propose(Value("a"))
        sim.run(until=1.0)
        assert seen[nodes[3].addr] == []
        assert self.payloads(seen[nodes[0].addr]) == [(0, "a")]
        assert nodes[3].cpu.jobs == 0

    def test_stalls_without_quorum(self):
        sim, nodes, group, seen = self.make(n=4)
        nodes[1].crash()
        nodes[2].crash()
        assert group.propose(Value("a")) is None
        sim.run(until=1.0)
        assert all(not h for h in seen.values())

    def test_leader_rotation_on_crash(self):
        sim, nodes, group, seen = self.make()
        nodes[0].crash()
        group.propose(Value("a"))
        sim.run(until=1.0)
        assert group.leader is nodes[1]
        assert self.payloads(seen[nodes[1].addr]) == [(0, "a")]

    def test_commit_latency_includes_lan_and_cpu(self):
        sim, nodes, group, seen = self.make()
        group.propose(Value("a", size=1_000_000, tx_count=0))
        # Only the leader skips the value transfer; a follower's commit
        # instant includes it.
        group.set_leader(nodes[1])
        sim.run(until=1.0)
        (_, _, at), = seen[nodes[1].addr]
        # 6 MB over 2.5 Gbps LAN ~= 19 ms serialization, plus phases.
        assert 0.015 < at < 0.1
        assert nodes[1].cpu.next_free > 0.019
        assert seen[nodes[0].addr] == []

    def test_leader_change_delivers_at_the_new_leaders_own_instant_once(self):
        sim, nodes, group, seen = self.make()
        a, b = nodes[0], nodes[1]
        group.propose(Value("x", size=1_000_000, tx_count=0))
        (round_,) = group._rounds
        own = dict(zip(round_.members, round_.times))
        assert own[a] < own[b]
        # A -> B -> A -> B before either instant: one event each.
        for leader in (b, a, b):
            group.set_leader(leader)
        assert sim.pending_events == 2
        sim.run(until=1.0)
        assert seen[b.addr] == [(0, "x", own[b])]
        assert seen[a.addr] == []

    def test_leader_change_back_to_the_proposer_delivers_once(self):
        sim, nodes, group, seen = self.make()
        a, b = nodes[0], nodes[1]
        group.propose(Value("x", size=1_000_000, tx_count=0))
        own = dict(zip(group._rounds[0].members, group._rounds[0].times))
        group.set_leader(b)
        group.set_leader(a)
        assert sim.pending_events == 2
        sim.run(until=1.0)
        assert seen[a.addr] == [(0, "x", own[a])]
        assert seen[b.addr] == []

    def test_leader_change_mid_round_reaches_the_new_leader(self):
        sim, nodes, group, seen = self.make()
        a, b = nodes[0], nodes[1]
        group.propose(Value("x", size=1_000_000, tx_count=0))
        own = dict(zip(group._rounds[0].members, group._rounds[0].times))
        # After A's instant (A already committed), before B's.
        at = (own[a] + own[b]) / 2
        sim.schedule_at(at, group.set_leader, b)
        sim.run(until=1.0)
        assert seen[a.addr] == [(0, "x", own[a])]
        assert seen[b.addr] == [(0, "x", own[b])]

    def test_leader_change_after_the_new_leaders_instant_delivers_nothing(self):
        sim, nodes, group, seen = self.make()
        group.propose(Value("x", size=1_000_000, tx_count=0))
        last = group._rounds[0].last
        sim.run(until=last + 0.001)
        group.set_leader(nodes[1])
        assert sim.pending_events == 0
        sim.run(until=1.0)
        assert seen[nodes[1].addr] == []
        # The next proposal prunes the finished round.
        group.propose(Value("y"))
        assert len(group._rounds) == 1

    def test_leaving_leader_hands_the_round_to_its_successor(self):
        sim, nodes, group, seen = self.make()
        group.propose(Value("x", size=1_000_000, tx_count=0))
        own = dict(zip(group._rounds[0].members, group._rounds[0].times))
        group.remove_member(nodes[0])
        sim.run(until=1.0)
        assert group.leader is nodes[1]
        assert seen[nodes[1].addr] == [(0, "x", own[nodes[1]])]

    def test_small_group_rejected(self):
        sim = Simulator()
        net = Network(sim, rtt_matrix={})
        nodes = [SimNode(sim, net, NodeAddress(0, i)) for i in range(3)]
        with pytest.raises(ValueError):
            ModeledPbftGroup(nodes, KeyStore())


class TestDeferredCertificate:
    def make(self):
        sim = Simulator()
        net = Network(sim, rtt_matrix={})
        nodes = [SimNode(sim, net, NodeAddress(0, i)) for i in range(7)]
        group = ModeledPbftGroup(nodes, KeyStore(seed=3), costs=fast_costs())
        group.epoch = 4
        return group

    def test_unread_certificate_signs_nothing_and_reads_as_the_eager_one(
        self, monkeypatch
    ):
        group = self.make()
        signed = []
        sign_as = KeyStore.sign_as
        monkeypatch.setattr(
            KeyStore,
            "sign_as",
            lambda store, who, msg: signed.append(who) or sign_as(store, who, msg),
        )
        dig = value_digest(Value("a"))
        cert = group._make_certificate(3, dig)
        assert signed == []
        assert cert.signer_count == group.quorum
        assert len(signed) == group.quorum
        eager = eager_certificate(group, 3, dig)
        assert cert.signed() == eager
        assert (cert.statement, cert.signatures, cert.epoch) == (
            eager.statement, eager.signatures, eager.epoch
        )
        assert cert.signers == eager.signers
        assert cert.size_bytes == eager.size_bytes
        assert cert.verify(group.keystore, group.quorum)
        assert len(signed) == 2 * group.quorum  # read again: no new signing

    def test_deepcopy_of_an_unread_certificate(self):
        group = self.make()
        dig = value_digest(Value("a"))
        cert = group._make_certificate(0, dig)
        clone = copy.deepcopy(cert)
        event = ValueCertified(0, 0.0, "entry", EntryId(0, 1), 5, 5, cert)
        assert dataclasses.asdict(event)["certificate"] is cert
        assert cert._signed is None and clone._signed is None
        assert clone.signed() == eager_certificate(group, 0, dig)


class TestEquivocatingLeader:
    """A Byzantine leader sends conflicting pre-prepares for one sequence.

    PBFT's safety argument: prepares and commits are bound to the value
    digest, so two conflicting values cannot both gather 2f+1 votes, and
    a replica shown both proposals starts a view change.
    """

    @staticmethod
    def _pre_prepare(value, seq=0, view=0):
        return PrePrepare(
            view=view, seq=seq, digest=value_digest(value), value=value
        )

    def test_split_pre_prepares_never_commit_two_values(self):
        h = Harness(n=5)  # f=1, quorum=3
        a, b = Value("left"), Value("right")
        leader_node = h.nodes[0]
        # The leader equivocates: value A to three followers, B to the
        # fourth, and never votes itself.
        for pp, targets in ((self._pre_prepare(a), (1, 2, 3)),
                            (self._pre_prepare(b), (4,))):
            for i in targets:
                leader_node.send(h.nodes[i].addr, pp, pp.size_bytes)
        h.sim.run(until=2.0)
        committed = {
            addr: [payload.payload for _, payload, _ in entries]
            for addr, entries in h.committed.items()
            if addr != leader_node.addr
        }
        # The majority partition can commit A; nobody may commit B.
        assert all(hist in ([], ["left"]) for hist in committed.values())
        assert any(hist == ["left"] for hist in committed.values())

    def test_conflicting_pre_prepare_triggers_view_change(self):
        h = Harness(n=4)
        a, b = Value("first"), Value("second")
        leader_node = h.nodes[0]
        target = h.replicas[1]
        pp_a = self._pre_prepare(a)
        leader_node.send(target.node.addr, pp_a, pp_a.size_bytes)
        h.sim.run(until=0.1)  # let the value-verify CPU step finish
        assert target.view == 0 and not target._in_view_change
        pp_b = self._pre_prepare(b)
        leader_node.send(target.node.addr, pp_b, pp_b.size_bytes)
        h.sim.run(until=0.2)
        # The second, conflicting proposal is direct proof of leader
        # equivocation: keep the first value, demand a new view.
        assert target._in_view_change or target.view > 0
        assert all(
            payload.payload != "second"
            for entries in h.committed.values()
            for _, payload, _ in entries
        )


class TestViewChangeBackoff:
    """Pins the exponential backoff + seeded jitter schedule for view
    changes: round 0 exact (fault-free timing unchanged), later rounds
    multiply up to the cap, jitter deterministic per replica address."""

    def test_first_round_is_exact(self):
        h = Harness()
        replica = h.replicas[1]
        assert replica.view_change_delay() == replica.config.view_change_timeout

    def test_backoff_grows_to_cap_with_bounded_jitter(self):
        h = Harness()
        replica = h.replicas[1]
        cfg = replica.config
        for round_ in range(1, 7):
            replica._vc_round = round_
            delay = replica.view_change_delay()
            base = min(
                cfg.view_change_timeout * cfg.view_change_backoff**round_,
                cfg.view_change_timeout_max,
            )
            assert base <= delay <= base * (1 + cfg.view_change_jitter) + 1e-12
        # Deep rounds saturate at the cap (plus at most one jitter).
        replica._vc_round = 40
        assert replica.view_change_delay() <= cfg.view_change_timeout_max * (
            1 + cfg.view_change_jitter
        )

    def test_jitter_is_deterministic_per_replica(self):
        h1, h2 = Harness(), Harness()
        for r1, r2 in zip(h1.replicas, h2.replicas):
            r1._vc_round = r2._vc_round = 3
            assert r1.view_change_delay() == r2.view_change_delay()

    def test_jitter_diverges_across_replicas(self):
        h = Harness()
        for replica in h.replicas:
            replica._vc_round = 3
        delays = {replica.view_change_delay() for replica in h.replicas}
        assert len(delays) == len(h.replicas)

    def test_progress_resets_the_backoff_round(self):
        h = Harness()
        h.leader.propose(Value("v0"))
        h.sim.run(until=0.5)
        for replica in h.replicas:
            assert replica._vc_round == 0


def test_consensus_package_exports_only_what_runs():
    """A test-only substrate (the retired Raft/Paxos) cannot drift back
    in unnoticed: the package is PBFT plus the wire-size helper."""
    assert set(repro.consensus.__all__) == {
        "ModeledPbftGroup",
        "PbftConfig",
        "PbftReplica",
        "wire_size",
    }
