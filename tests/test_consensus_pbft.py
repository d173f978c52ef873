"""Tests for the modeled PBFT group: commit delivery at the leader's own
instant, per-member cost, quorum stalls, and its deferred certificates."""

import copy
import dataclasses
import hashlib

import pytest

import repro.consensus
from repro.consensus.pbft import ModeledPbftGroup, value_digest
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


def test_consensus_package_exports_only_what_runs():
    """A test-only substrate (the retired Raft/Paxos, the message-level
    PBFT replica) cannot drift back in unnoticed: the package is the
    modeled group every deployment runs."""
    assert set(repro.consensus.__all__) == {"ModeledPbftGroup"}
