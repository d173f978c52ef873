"""Transport-level tests: leader unicast, bijective, encoded bijective."""

import hashlib
import os
import random

import pytest

from repro.core.entry import LogEntry
from repro.core.replication import (
    BijectiveTransport,
    ChunkMessage,
    EncodedBijectiveTransport,
    LeaderUnicastTransport,
    _Inbox,
)
from repro.crypto.hashing import digest
from repro.crypto.merkle import MerkleTree
from repro.sim.core import Simulator
from repro.sim.network import LinkQuality, Network, NodeAddress
from repro.sim.node import SimNode
from repro.sim.rng import RngRegistry
from tests.conftest import fast_costs
from tests.eager_reference import EventLog


class Harness:
    def __init__(
        self, transport_cls, sizes=(4, 4), coding=None, payload=b"", **net_kwargs
    ):
        self.sim = Simulator()
        rtts = {
            (i, j): 0.020
            for i in range(len(sizes))
            for j in range(i + 1, len(sizes))
        }
        self.net = Network(self.sim, rtt_matrix=rtts, **net_kwargs)
        self.members = {}
        for gid, n in enumerate(sizes):
            self.members[gid] = [
                SimNode(self.sim, self.net, NodeAddress(gid, i)) for i in range(n)
            ]
        self.delivered = []  # (addr, entry_id, time)
        self.entries = {}
        kwargs = {}
        if coding is not None:
            kwargs["coding"] = coding
        self.transport = transport_cls(
            self.members,
            deliver=lambda node, eid: self.delivered.append(
                (node.addr, eid, self.sim.now)
            ),
            get_entry=lambda eid: self.entries[eid],
            costs=fast_costs(),
            **kwargs,
        )
        payload = payload or os.urandom(2000)
        self.entry = LogEntry(gid=0, seq=1, payload=payload, declared_size=len(payload))
        self.entries[self.entry.entry_id] = self.entry

    def replicate(self):
        group0 = self.members[0]
        self.transport.replicate(self.entry, group0, group0[0])
        self.sim.run(until=5.0)

    def receivers(self, gid):
        return {addr for addr, eid, _ in self.delivered if addr.group == gid}


class TestLeaderUnicast:
    def test_all_nodes_receive(self):
        h = Harness(LeaderUnicastTransport, sizes=(4, 4, 4))
        h.replicate()
        for gid, nodes in h.members.items():
            assert h.receivers(gid) == {n.addr for n in nodes}

    def test_each_node_delivered_once(self):
        h = Harness(LeaderUnicastTransport, sizes=(4, 4))
        h.replicate()
        addrs = [addr for addr, _, _ in h.delivered]
        assert len(addrs) == len(set(addrs))

    def test_leader_sends_f_plus_one_copies_per_group(self):
        h = Harness(LeaderUnicastTransport, sizes=(7, 7, 7))
        h.replicate()
        # f=2 for n=7: 3 copies to each of the 2 remote groups.
        assert h.transport.monitor_counters["wan_entry_copies"] == 6

    def test_byzantine_receivers_tolerated(self):
        h = Harness(LeaderUnicastTransport, sizes=(4, 4))
        # f=1 for n=4: leader sends to 2 receivers; one is Byzantine and
        # silently drops, the correct one forwards to the whole group.
        h.members[1][0].make_byzantine()
        h.replicate()
        correct = {n.addr for n in h.members[1] if not n.byzantine}
        assert correct <= h.receivers(1)

    def test_byzantine_sender_garbage_rejected(self):
        h = Harness(LeaderUnicastTransport, sizes=(4, 4))
        h.members[0][0].make_byzantine()
        h.replicate()
        # Origin group still has the entry (local consensus), but the
        # garbage copies fail certificate verification at group 1.
        assert h.receivers(1) == set()

    def test_wan_traffic_is_copies_times_entry(self):
        h = Harness(LeaderUnicastTransport, sizes=(7, 7))
        h.replicate()
        expected = 3 * (h.entry.size_bytes + h.transport.cert_size + 32)
        assert h.net.wan_bytes_total == expected


class TestBijective:
    def test_all_nodes_receive(self):
        h = Harness(BijectiveTransport, sizes=(7, 7))
        h.replicate()
        assert len(h.receivers(1)) == 7

    def test_f1_plus_f2_plus_1_copies(self):
        h = Harness(BijectiveTransport, sizes=(7, 7))
        h.replicate()
        assert h.transport.monitor_counters["wan_entry_copies"] == 5  # 2+2+1

    def test_distinct_senders_used(self):
        h = Harness(BijectiveTransport, sizes=(7, 7))
        h.replicate()
        senders = {
            addr: bytes_sent
            for addr, bytes_sent in h.net.wan_bytes_by_node.items()
            if addr.group == 0 and bytes_sent > 0
        }
        assert len(senders) == 5

    def test_worst_case_faults_still_deliver(self):
        h = Harness(BijectiveTransport, sizes=(7, 7))
        for node in h.members[0][3:5]:  # f1=2 Byzantine senders
            node.make_byzantine()
        for node in h.members[1][:2]:  # f2=2 Byzantine receivers
            node.make_byzantine()
        h.replicate()
        correct = {n.addr for n in h.members[1] if not n.byzantine}
        assert correct <= h.receivers(1)


class TestEncodedBijectiveSimulated:
    def test_all_nodes_rebuild(self):
        h = Harness(EncodedBijectiveTransport, sizes=(4, 7), coding="simulated")
        h.replicate()
        assert len(h.receivers(1)) == 7
        assert len(h.receivers(0)) == 4  # origin group via local consensus

    def test_chunk_count_follows_plan(self):
        h = Harness(EncodedBijectiveTransport, sizes=(4, 7), coding="simulated")
        h.replicate()
        assert h.transport.monitor_counters["wan_chunks"] == 28

    def test_traffic_near_plan_overhead(self):
        h = Harness(EncodedBijectiveTransport, sizes=(7, 7), coding="simulated")
        h.replicate()
        plan = h.transport.plan_for(0, 1)
        payload_traffic = plan.overhead * h.entry.size_bytes
        # Within 2x: proofs, headers and per-link certificates add a
        # bounded overhead on top of the coded payload bytes.
        assert payload_traffic <= h.net.wan_bytes_total <= 2 * payload_traffic

    def test_every_node_sends_equally(self):
        h = Harness(EncodedBijectiveTransport, sizes=(4, 4), coding="simulated")
        h.replicate()
        sent = [
            h.net.wan_bytes_by_node[n.addr]
            for n in h.members[0]
        ]
        assert len(set(sent)) <= 2  # equal up to the one-off cert bytes
        assert min(sent) > 0

    def test_byzantine_receivers_tolerated(self):
        h = Harness(EncodedBijectiveTransport, sizes=(7, 7), coding="simulated")
        for node in h.members[1][1:3]:
            node.make_byzantine()
        h.replicate()
        correct = {n.addr for n in h.members[1] if not n.byzantine}
        assert correct <= h.receivers(1)

    def test_byzantine_senders_tolerated(self):
        h = Harness(EncodedBijectiveTransport, sizes=(7, 7), coding="simulated")
        for node in h.members[0][3:5]:
            node.make_byzantine()
        h.replicate()
        assert len(h.receivers(1)) >= 5

    def test_combined_worst_case(self):
        h = Harness(EncodedBijectiveTransport, sizes=(7, 7), coding="simulated")
        for node in h.members[0][5:7]:
            node.make_byzantine()
        for node in h.members[1][1:3]:
            node.make_byzantine()
        h.replicate()
        correct = {n.addr for n in h.members[1] if not n.byzantine}
        assert correct <= h.receivers(1)
        assert h.transport.monitor_counters.get("rebuild_failures", 0) >= 1


class TestEncodedBijectiveReal:
    def test_real_coding_roundtrip(self):
        payload = os.urandom(3000)
        h = Harness(
            EncodedBijectiveTransport, sizes=(4, 7), coding="real", payload=payload
        )
        h.replicate()
        assert len(h.receivers(1)) == 7

    def test_real_coding_with_tampering(self):
        payload = os.urandom(1500)
        h = Harness(
            EncodedBijectiveTransport, sizes=(4, 7), coding="real", payload=payload
        )
        h.members[0][3].make_byzantine()
        h.members[1][2].make_byzantine()
        h.replicate()
        correct = {n.addr for n in h.members[1] if not n.byzantine}
        assert correct <= h.receivers(1)

    def test_bad_coding_mode_rejected(self):
        with pytest.raises(ValueError):
            Harness(EncodedBijectiveTransport, sizes=(4, 4), coding="bogus")


class _KeptRebuilds(EncodedBijectiveTransport):
    """Keeps every rebuilder it hands out (inboxes die at delivery) and
    every tampered chunk a Byzantine receiver floods."""

    def _new_rebuild(self, chunk):
        rebuild = super()._new_rebuild(chunk)
        self.__dict__.setdefault("rebuilds", []).append(rebuild)
        return rebuild

    def _tampered_version(self, chunk):
        tampered = super()._tampered_version(chunk)
        self.__dict__.setdefault("floods", []).append(tampered)
        return tampered


@pytest.fixture
def encodings_built(monkeypatch):
    """Counts Reed-Solomon message encodes and Merkle trees the transport
    builds, and proof checks and payload validations its receivers run."""
    from repro.core import replication
    from repro.crypto.merkle import MerkleProof
    from repro.erasure.reed_solomon import ReedSolomonCodec

    counts = {"encode": 0, "tree": 0, "verify": 0, "validate": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        ReedSolomonCodec, "encode", counting("encode", ReedSolomonCodec.encode)
    )
    monkeypatch.setattr(
        replication, "MerkleTree", counting("tree", replication.MerkleTree)
    )
    monkeypatch.setattr(MerkleProof, "verify", counting("verify", MerkleProof.verify))
    rebuilder = replication.OptimisticRebuilder
    monkeypatch.setattr(
        replication,
        "OptimisticRebuilder",
        lambda codec, validator: rebuilder(codec, counting("validate", validator)),
    )
    return counts


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestTamperedEncodingOnDemand:
    """The tampered chunks + tree of an (entry, plan) are built by the first
    sender that really is Byzantine, and by nobody otherwise; what
    receivers verify, reject and deliver is what the parent commit
    (2d65a3c, both encodings built up front) produced."""

    #: (rebuild failures, deliveries, sha256 of the (addr, entry, time)
    #: delivery list, blacklisted chunk ids over all rebuilders and the
    #: sha256 of their sorted per-rebuilder tuples), recorded at the parent.
    NO_FAILURES = (
        0,
        21,
        "529741c20bea936f574d6dff49c3ebeb11136c038085099ccd85466cf45f4f48",
        0,
        "df32efdf0aeb9ab75528e707033296defbd0c59f013c5d66753390b583141fd5",
    )
    WORST_CASE = (
        4,
        14,
        "74c418a693c9484f9059084f7277102d3bba8ded813f0d2ad3b78e3c7203c422",
        12,
        "11ae513cc0c76d19a3215135f9854ad316d5cad3c574754ddf39e93b5d2a7ed4",
    )

    PAYLOAD = random.Random(5).randbytes(6000)

    @classmethod
    def _replicate(cls, sizes, senders=(), receivers=(), release=False):
        """Replicate the entry; with ``release``, the entry drops its
        payload as soon as the genuine encoding is built, so every
        tampered encoding comes after the release."""
        h = Harness(_KeptRebuilds, sizes=sizes, coding="real", payload=cls.PAYLOAD)
        for index in senders:
            h.members[0][index].make_byzantine()
        for index in receivers:
            h.members[1][index].make_byzantine()
        group0 = h.members[0]
        h.transport.replicate(h.entry, group0, group0[0])
        if release:
            h.entry.release(h.sim.now)
        h.sim.run(until=5.0)
        return h

    @classmethod
    def _run(cls, sizes, senders=(), receivers=(), release=False):
        return cls._outcome(cls._replicate(sizes, senders, receivers, release))

    @staticmethod
    def _outcome(h):
        blacklisted = sorted(
            tuple(sorted(rebuild.blacklisted_ids)) for rebuild in h.transport.rebuilds
        )
        return (
            h.transport.monitor_counters.get("rebuild_failures", 0),
            len(h.delivered),
            _sha(h.delivered),
            sum(map(len, blacklisted)),
            _sha(blacklisted),
        )

    def test_one_encoding_per_entry_and_plan_without_byzantine_members(
        self, encodings_built
    ):
        assert self._run((7, 7, 7)) == self.NO_FAILURES
        assert (encodings_built["encode"], encodings_built["tree"]) == (2, 2)

    def test_two_with_byzantine_senders_however_many(self, encodings_built):
        assert self._run((7, 7, 7), senders=(3, 4)) == self.NO_FAILURES
        assert (encodings_built["encode"], encodings_built["tree"]) == (4, 4)

    def test_byzantine_senders_and_receivers_fail_the_same_rebuilds(
        self, encodings_built
    ):
        # One plan: genuine + the senders' tampered encoding, plus one
        # tampered re-encoding by each Byzantine receiver that got a chunk.
        outcome = self._run((7, 7), senders=(0, 2), receivers=(1, 3))
        assert outcome == self.WORST_CASE
        assert (encodings_built["encode"], encodings_built["tree"]) == (4, 4)

    def test_byzantine_receivers_of_a_released_entry_flood_what_they_did_before(self):
        def floods(h):
            return [
                (c.chunk_id, c.data_size, len(c.proof.path), c.root)
                for c in h.transport.floods
            ]

        args = (7, 7), (0, 2), (1, 3)
        held = self._replicate(*args)
        released = self._replicate(*args, release=True)
        assert floods(held) and floods(released) == floods(held)
        # Chunk sizes and proof depths are those of Reed-Solomon over
        # ``b"tampered:" + payload``, what Byzantine members encoded
        # while the payload was kept.
        chunk = held.transport.floods[0]
        codec = held.transport.codec_for_counts(chunk.n_data, chunk.n_total)
        reference = codec.encode(b"tampered:" + self.PAYLOAD)
        tree = MerkleTree(reference)
        assert {flood[:3] for flood in floods(held)} <= {
            (index, len(data), len(tree.proof(index).path))
            for index, data in enumerate(reference)
        }
        # Peers' rebuilds fail, deliver and blacklist as before.
        assert self._outcome(released) == self.WORST_CASE

    def test_real_payload_run_verifies_and_validates_as_much_as_before(
        self, encodings_built
    ):
        """perfbench's ``real_payload`` inputs at seed 0: every WAN and LAN
        chunk still passes its Merkle proof and every rebuild its digest
        validator (7,343 and 2,443 calls at the parent), while only the
        genuine encoding of each (entry, destination plan) is built."""
        from repro.protocols import GeoDeployment, protocol_by_name
        from repro.topology import nationwide_cluster
        from repro.workloads import make_workload

        deployment = GeoDeployment(
            nationwide_cluster(7),
            protocol_by_name("massbft"),
            make_workload("ycsb-a"),
            offered_load=30_000.0,
            seed=0,
            coding="real",
            execution="full",
        )
        deployment.run(duration=2.0, warmup=0.5)
        assert len(deployment.entries) == 189
        assert encodings_built == {
            "encode": 2 * 189,
            "tree": 2 * 189,
            "verify": 7_343,
            "validate": 2_443,
        }
        assert "rebuild_failures" not in deployment.transport.monitor_counters


# ----------------------------------------------------------------------
# Threshold inbox == one delivery event per shared chunk
# ----------------------------------------------------------------------


class _Recorded:
    """Logs every chunk fed to a rebuild, per (node, entry)."""

    def __init__(self, *args, **kwargs):
        self.outcomes = {}
        super().__init__(*args, **kwargs)

    def _apply(self, node, inbox, chunk):
        outcome = super()._apply(node, inbox, chunk)
        self.outcomes.setdefault((node.addr, chunk.entry_id), []).append(
            (chunk.chunk_id, chunk.root, outcome)
        )
        return outcome


class InboxExchange(_Recorded, EncodedBijectiveTransport):
    pass


class PerArrivalExchange(_Recorded, EncodedBijectiveTransport):
    """The reference: every shared chunk is its own delivery event, judged
    (crashed ends, already delivered) and fed to the rebuild the moment it
    lands — the semantics threshold inboxes must be indistinguishable from.
    It uses no pending list, wake or drain."""

    def _share_locally(self, node, chunk):
        receivers, arrivals = node.network.lan_burst(
            node.addr, chunk.size_bytes - chunk.cert_size
        )
        for addr, at in zip(receivers, arrivals):
            if at is not None:
                node.sim.schedule_at(at, self._land, node.addr, addr, chunk)

    def _land(self, sender, addr, chunk):
        node = self._nodes[addr]
        if node.network.is_crashed(addr) or node.network.is_crashed(sender):
            return
        key = (addr, chunk.entry_id)
        if key in self._delivered:
            return
        row = self._inboxes.setdefault(chunk.entry_id, {})
        inbox = row.get(addr)
        if inbox is None:
            inbox = row[addr] = _Inbox(self._new_rebuild(chunk))
        self._apply(node, inbox, chunk)


def _result(h):
    return {
        "delivered": h.delivered,
        "counters": dict(h.transport.monitor_counters),
        "lan_bytes": h.net.lan_bytes_total,
        "dropped": h.net.monitor.counter("network.dropped").value,
    }


def assert_equivalent(inbox, reference):
    """Same deliveries at the same instants, same counters, and per (node,
    entry) the same outcome sequence for as long as outcomes can matter: an
    inbox may leave its last few chunks unfed, but only ones the reference
    saw change nothing (no rebuild, no failed bucket)."""
    assert _result(inbox) == _result(reference)
    fed = inbox.transport.outcomes
    for key, rows in reference.transport.outcomes.items():
        mine = fed.get(key, [])
        assert rows[: len(mine)] == mine, key
        assert not {"rebuilt", "failed"} & {o for _, _, o in rows[len(mine):]}, key
    assert fed.keys() <= reference.transport.outcomes.keys()


def _sim_chunk(entry, chunk_id, root, n_data, n_total, genuine):
    return ChunkMessage(
        entry_id=entry.entry_id,
        root=root,
        chunk_id=chunk_id,
        data=b"",
        data_size=400,
        proof=None,
        n_data=n_data,
        n_total=n_total,
        cert_size=0,
        genuine=genuine,
    )


def _random_exchange(transport_cls, seed):
    """A seeded storm of WAN chunks at one receiving group: genuine and
    tampered roots, repeated chunk ids (duplicates; blacklisted ids once a
    fake bucket fails), Byzantine re-sharers, crashes, and on
    some seeds LAN loss and jitter. Send times sit on a coarse grid and all
    chunks have one size, so arrival times tie often."""
    rnd = random.Random(seed)
    n = rnd.choice((4, 5, 7, 8, 10))
    n_data = rnd.randint(2, 4)
    n_total = 2 * n_data + rnd.randint(1, 4)
    lossy = seed % 3 == 0
    h = Harness(
        transport_cls,
        sizes=(n, n),
        coding="simulated",
        payload=b"x" * 2000,
        lan_quality=LinkQuality(
            loss_probability=0.03 if lossy else 0.0,
            jitter=0.005 if lossy else 0.0,
        ),
        rng=RngRegistry(seed),
    )
    senders, receivers = h.members[0], h.members[1]
    entries = [h.entry, LogEntry(gid=0, seq=2, payload=b"y" * 900)]
    h.entries[entries[1].entry_id] = entries[1]
    for node in rnd.sample(receivers, rnd.randint(0, (n - 1) // 3)):
        node.make_byzantine()
    for entry in entries:
        roots = [
            (digest(b"root:" + entry.digest), True),
            (digest(b"tampered-root:" + entry.digest), False),
            (digest(b"another-fake:" + entry.digest), False),
        ]
        for _ in range(3 * n_total):
            root, genuine = rnd.choices(roots, weights=(6, 3, 1))[0]
            chunk = _sim_chunk(
                entry, rnd.randrange(n_total), root, n_data, n_total, genuine
            )
            h.sim.schedule_at(
                rnd.randrange(40) * 0.00025,
                rnd.choice(senders).send,
                rnd.choice(receivers).addr,
                chunk,
                chunk.size_bytes,
            )
    for node in rnd.sample(receivers, 2):
        h.sim.schedule_at(0.0105 + rnd.random() * 0.01, node.crash)
    h.sim.run(until=1.0)
    return h


class TestThresholdInbox:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_schedules_match_per_arrival_reference(self, seed):
        inbox = _random_exchange(InboxExchange, seed)
        reference = _random_exchange(PerArrivalExchange, seed)
        assert_equivalent(inbox, reference)
        assert inbox.sim.events_processed <= reference.sim.events_processed

    def test_random_schedules_cover_every_outcome(self):
        seen = set()
        for seed in range(40):
            h = _random_exchange(InboxExchange, seed)
            for rows in h.transport.outcomes.values():
                seen.update(outcome for _, _, outcome in rows)
        assert seen == {"pending", "rebuilt", "rejected", "duplicate", "failed"}

    @pytest.mark.parametrize("coding", ["simulated", "real"])
    @pytest.mark.parametrize("seed", range(4))
    def test_replicate_matches_reference_under_faults(self, coding, seed):
        def run(transport_cls):
            h = Harness(
                transport_cls,
                sizes=(7, 7, 4),
                coding=coding,
                payload=bytes(range(256)) * 6,
                lan_quality=LinkQuality(loss_probability=0.03, jitter=0.005),
                wan_quality=LinkQuality(jitter=0.005),
                rng=RngRegistry(seed),
            )
            h.members[0][5].make_byzantine()
            h.members[1][1 + seed % 3].make_byzantine()
            h.sim.schedule_at(0.012 + seed * 0.001, h.members[1][5].crash)
            h.replicate()
            return h

        inbox, reference = run(InboxExchange), run(PerArrivalExchange)
        assert_equivalent(inbox, reference)
        assert len(inbox.receivers(2)) == 4

    def _two_shares(self, transport_cls, faults):
        """Group 1 (n=4, two chunks rebuild): N1.0 and N1.2 each receive a
        WAN chunk 2 ms apart and re-share it; ``faults`` are scheduled
        ``(time, node index)`` crashes in group 1."""
        h = Harness(
            transport_cls, sizes=(4, 4), coding="simulated", payload=b"x" * 2000
        )
        root = digest(b"root:" + h.entry.digest)
        for at, index in ((0.0, 0), (0.002, 2)):
            chunk = _sim_chunk(h.entry, index, root, 2, 4, True)
            h.sim.schedule_at(
                at, h.members[0][index].send, h.members[1][index].addr,
                chunk, chunk.size_bytes,
            )
        for at, index in faults:
            h.sim.schedule_at(at, h.members[1][index].crash)
        h.sim.run(until=1.0)
        return h

    # One-way WAN 10 ms + ~0.3 ms on the wire: N1.0 re-shares at ~10.3 ms
    # and N1.2 at ~12.3 ms; a share is ~0.25 ms in flight on the LAN.

    def test_sender_down_while_its_shares_land(self):
        # N1.0's burst is timed and charged, then N1.0 is down while the
        # shares are in flight: nobody may count them.
        faults = [(0.0104, 0)]
        inbox = self._two_shares(InboxExchange, faults)
        reference = self._two_shares(PerArrivalExchange, faults)
        assert_equivalent(inbox, reference)
        # N1.0 stays down, so no member gets two chunks: a peer counts
        # only N1.2's share.
        assert inbox.receivers(1) == set()
        peer = (NodeAddress(1, 1), inbox.entry.entry_id)
        assert [row[0] for row in inbox.transport.outcomes[peer]] == [2]

    def test_receiver_down_while_one_share_lands(self):
        # N1.1 is up when N1.0's share lands and down for N1.2's; the
        # drain must count the first and skip the second.
        faults = [(0.0120, 1)]
        inbox = self._two_shares(InboxExchange, faults)
        reference = self._two_shares(PerArrivalExchange, faults)
        assert_equivalent(inbox, reference)
        assert NodeAddress(1, 1) not in inbox.receivers(1)
        assert NodeAddress(1, 3) in inbox.receivers(1)

    def test_inbox_dies_with_the_rebuild(self):
        h = Harness(InboxExchange, sizes=(7, 7, 7), coding="simulated")
        h.replicate()
        assert len(h.delivered) == 21
        assert h.transport._inboxes == {}

    def test_inbox_dropped_when_entry_is_delivered_another_way(self):
        # One share pending at every peer (two needed), then the entry is
        # delivered to the whole group by another path: the inboxes go,
        # and a later share neither revives them nor schedules anything.
        h = Harness(InboxExchange, sizes=(4, 4), coding="simulated")
        entry = LogEntry(gid=1, seq=9, payload=b"z" * 500)
        h.entries[entry.entry_id] = entry
        root = digest(b"root:" + entry.digest)
        for at, index in ((0.0, 0), (0.005, 2)):
            chunk = _sim_chunk(entry, index, root, 3, 6, True)
            h.sim.schedule_at(
                at, h.members[0][index].send, h.members[1][index].addr,
                chunk, chunk.size_bytes,
            )
        h.sim.run(until=0.012)
        assert [len(row) for row in h.transport._inboxes.values()] == [4]
        h.transport.mark_origin_delivered(entry.entry_id)
        assert h.transport._inboxes == {}
        h.sim.run(until=1.0)
        assert h.transport._inboxes == {}
        assert h.sim.pending_events == 0
        assert h.transport.outcomes.keys() == {(NodeAddress(1, 0), entry.entry_id)}


class TestChunkExchangeScaling:
    """Guards the event cost of replicating an entry into a group of n.
    With one delivery event per shared chunk it was O(n^2) (the 32-vs-8
    ratio about 9); with a commit event per PBFT member, a LAN notice
    event per member and a no-op per CPU charge it was 196 / 382 / 753
    events per entry at 8 / 16 / 32 nodes. Only events whose handler acts
    are scheduled now: the pins below carry about 10% headroom, so one
    per-member no-op event per round fails them."""

    #: Events per entry measured at 8 / 16 / 32 nodes: 86.9, 150.2, 276.5.
    PINNED = {8: 96, 16: 165, 32: 305}

    @staticmethod
    def _run(nodes_per_group):
        from repro.protocols import GeoDeployment, protocol_by_name
        from repro.topology import scaled_cluster
        from repro.workloads import make_workload

        deployment = GeoDeployment(
            scaled_cluster(n_groups=3, nodes_per_group=nodes_per_group),
            protocol_by_name("massbft"),
            make_workload("ycsb-a"),
            offered_load=2000.0,
            seed=3,
        )
        log = EventLog()
        with log.recording():
            metrics = deployment.run(duration=0.4, warmup=0.1)
        assert metrics.committed > 0
        return deployment, log

    def test_events_per_entry_grow_at_most_linearly(self):
        per_entry = {}
        for n in (8, 16, 32):
            deployment, log = self._run(n)
            per_entry[n] = deployment.sim.events_processed / len(deployment.entries)
            assert per_entry[n] <= self.PINNED[n]
            # No leader changes here: no notice reaches a member without a
            # reading orderer, no commit a non-leader, no charge is an event.
            assert log.inert == 0
            # One commit event per local PBFT round (fired or still due).
            commit = "ModeledPbftGroup._deliver_commit"
            fired = sum(1 for _, _, name in log.acting if name == commit)
            due = dict(deployment.sim.pending_by_handler()).get(commit, 0)
            rounds = sum(g.pbft.next_seq for g in deployment.groups.values())
            assert fired + due == rounds > 0
        assert per_entry[8] < per_entry[16] < per_entry[32]
        assert per_entry[32] <= 6 * per_entry[8]
