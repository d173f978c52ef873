"""Unit tests for the network model: bandwidth queues, latency, failures."""

import pytest

from repro.sim.core import Simulator
from repro.sim.network import LinkQuality, Network, NodeAddress, ResourceQueue
from repro.sim.rng import RngRegistry


def two_group_net(sim, wan=20e6, **kwargs):
    net = Network(sim, rtt_matrix={(0, 1): 0.030}, wan_bandwidth=wan, **kwargs)
    a, b = NodeAddress(0, 0), NodeAddress(1, 0)
    inbox = {a: [], b: []}
    net.register(a, lambda m: inbox[a].append((sim.now, m)))
    net.register(b, lambda m: inbox[b].append((sim.now, m)))
    return net, a, b, inbox


class TestResourceQueue:
    def test_serialization(self):
        queue = ResourceQueue("q", rate=10.0)
        start1, fin1 = queue.acquire(0.0, 5.0)
        assert (start1, fin1) == (0.0, 0.5)
        start2, fin2 = queue.acquire(0.0, 5.0)
        assert (start2, fin2) == (0.5, 1.0)

    def test_idle_gap(self):
        queue = ResourceQueue("q", rate=10.0)
        queue.acquire(0.0, 5.0)
        start, fin = queue.acquire(2.0, 5.0)
        assert (start, fin) == (2.0, 2.5)

    def test_utilization_and_backlog(self):
        queue = ResourceQueue("q", rate=10.0)
        queue.acquire(0.0, 10.0)
        assert queue.busy_time == 1.0
        assert queue.backlog(0.2) == pytest.approx(0.8)
        assert queue.backlog(5.0) == 0.0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ResourceQueue("q", rate=0.0)


class TestTransmission:
    def test_wan_delivery_time(self):
        sim = Simulator()
        net, a, b, inbox = two_group_net(sim)
        # 250 KB at 20 Mbps = 0.1 s serialization + 15 ms one-way.
        net.send(a, b, "x", 250_000)
        sim.run_until_idle()
        assert len(inbox[b]) == 1
        assert inbox[b][0][0] == pytest.approx(0.115)

    def test_sender_nic_serializes_messages(self):
        sim = Simulator()
        net, a, b, inbox = two_group_net(sim)
        net.send(a, b, "m1", 250_000)
        net.send(a, b, "m2", 250_000)
        sim.run_until_idle()
        times = [t for t, _ in inbox[b]]
        assert times == pytest.approx([0.115, 0.215])

    def test_priority_lane_bypasses_bulk_backlog(self):
        sim = Simulator()
        net, a, b, inbox = two_group_net(sim)
        net.send(a, b, "bulk", 2_500_000)  # 1 s of serialization
        net.send(a, b, "ctl", 250, priority=True)
        sim.run_until_idle()
        kinds = [(t, m.payload) for t, m in inbox[b]]
        assert kinds[0][1] == "ctl"
        assert kinds[0][0] < 0.02

    def test_lan_is_fast(self):
        sim = Simulator()
        net = Network(sim, rtt_matrix={})
        a, b = NodeAddress(0, 0), NodeAddress(0, 1)
        seen = []
        net.register(a, lambda m: None)
        net.register(b, lambda m: seen.append(sim.now))
        net.send(a, b, "x", 100_000)
        sim.run_until_idle()
        assert seen[0] < 0.001

    def test_unknown_rtt_raises(self):
        sim = Simulator()
        net = Network(sim, rtt_matrix={})
        a, b = NodeAddress(0, 0), NodeAddress(5, 0)
        net.register(a, lambda m: None)
        net.register(b, lambda m: None)
        with pytest.raises(KeyError):
            net.send(a, b, "x", 100)

    def test_traffic_accounting(self):
        sim = Simulator()
        net, a, b, inbox = two_group_net(sim)
        net.send(a, b, "x", 1000)
        net.send(a, b, "y", 2000)
        assert net.wan_bytes_total == 3000
        assert net.wan_bytes_by_node[a] == 3000
        net.reset_traffic_accounting()
        assert net.wan_bytes_total == 0

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        net = Network(sim, rtt_matrix={})
        net.register(NodeAddress(0, 0), lambda m: None)
        with pytest.raises(ValueError):
            net.register(NodeAddress(0, 0), lambda m: None)


class TestFailures:
    def test_crashed_destination_drops(self):
        sim = Simulator()
        net, a, b, inbox = two_group_net(sim)
        net.crash_node(b)
        net.send(a, b, "x", 1000)
        sim.run_until_idle()
        assert inbox[b] == []

    def test_crashed_source_does_not_send(self):
        sim = Simulator()
        net, a, b, inbox = two_group_net(sim)
        net.crash_node(a)
        assert net.send(a, b, "x", 1000) is None
        sim.run_until_idle()
        assert inbox[b] == []

    def test_crash_drops_in_flight(self):
        sim = Simulator()
        net, a, b, inbox = two_group_net(sim)
        net.send(a, b, "x", 1000)
        net.crash_node(a)  # crash before delivery
        sim.run_until_idle()
        assert inbox[b] == []

    def test_group_crash(self):
        sim = Simulator()
        net, a, b, inbox = two_group_net(sim)
        net.crash_node(b)  # group 1's only member
        assert net.is_crashed(b)
        assert not net.is_crashed(a)

    def test_was_down_judges_a_position_against_the_crash_history(self):
        sim = Simulator()
        net, a, b, inbox = two_group_net(sim)
        assert not net.crashed_at  # nothing to consult until a crash
        sim.schedule_at(1.0, net.crash_node, b)
        tie = sim.reserve_slots(1)  # ordered after the crash at t=1.0
        sim.schedule_at(2.0, net.crash_node, b)  # repeated: the first stands
        sim.run(until=3.0)
        for at, down in ((0.5, False), (1.5, True), (2.5, True)):
            assert net.was_down(b, (at, 0)) is down
        assert not net.was_down(b, (1.0, -1))  # same instant, ordered before
        assert net.was_down(b, (1.0, tie))  # same instant, ordered after
        assert not net.was_down(a, (2.5, 0))
        assert net.crashed_at[b][0] == 1.0

    def test_partition_blocks_wan(self):
        sim = Simulator()
        net, a, b, inbox = two_group_net(sim)
        net.partition_group(1)
        net.send(a, b, "x", 1000)
        sim.run_until_idle()
        assert inbox[b] == []
        net.heal_partition(1)
        net.send(a, b, "y", 1000)
        sim.run_until_idle()
        assert len(inbox[b]) == 1

    def test_loss_probability(self):
        sim = Simulator()
        net = Network(
            sim,
            rtt_matrix={(0, 1): 0.030},
            wan_quality=LinkQuality(loss_probability=1.0),
            rng=RngRegistry(1),
        )
        a, b = NodeAddress(0, 0), NodeAddress(1, 0)
        seen = []
        net.register(a, lambda m: None)
        net.register(b, lambda m: seen.append(m))
        net.send(a, b, "x", 1000)
        sim.run_until_idle()
        assert seen == []

    def test_bandwidth_override(self):
        sim = Simulator()
        net, a, b, inbox = two_group_net(sim)
        net.set_node_bandwidth(a, 40e6)
        net.send(a, b, "x", 250_000)  # 50 ms at 40 Mbps
        sim.run_until_idle()
        assert inbox[b][0][0] == pytest.approx(0.065)


def fanout_net(sim, **kwargs):
    """Three groups, two nodes each; returns (net, nodes, inbox)."""
    rtt = {(0, 1): 0.030, (0, 2): 0.050, (1, 2): 0.040}
    net = Network(sim, rtt_matrix=rtt, wan_bandwidth=20e6, **kwargs)
    nodes = {}
    inbox = {}
    for group in range(3):
        for index in range(2):
            addr = NodeAddress(group, index)
            nodes[(group, index)] = addr
            inbox[addr] = []
            net.register(
                addr,
                lambda m, _addr=addr: inbox[_addr].append((sim.now, m.payload)),
            )
    return net, nodes, inbox


class TestAcquireBatch:
    @pytest.mark.parametrize("count", [1, 3, 7, 8, 20])
    def test_matches_sequential_acquires(self, count):
        # Below _BATCH_VECTOR_MIN (8) the scalar fold runs even with
        # numpy present; at and above it the vectorized path must produce
        # the exact same floats, counters, and job totals.
        batch = ResourceQueue("batch", rate=10.0)
        loop = ResourceQueue("loop", rate=10.0)
        batch.acquire(0.0, 3.0)
        loop.acquire(0.0, 3.0)
        finishes = batch.acquire_batch(0.1, 5.0, count)
        expected = [loop.acquire(0.1, 5.0)[1] for _ in range(count)]
        assert finishes == expected
        assert all(type(f) is float for f in finishes)
        assert batch.next_free == loop.next_free
        assert batch.busy_time == loop.busy_time
        assert batch.jobs == loop.jobs

    def test_idle_queue_starts_at_now(self):
        queue = ResourceQueue("q", rate=10.0)
        finishes = queue.acquire_batch(2.0, 5.0, 2)
        assert finishes == [2.5, 3.0]

    def test_scalar_path_bit_identical_to_numpy(self):
        from repro.sim import network as network_mod

        if network_mod._np is None:
            pytest.skip("numpy unavailable: only the scalar path exists")
        vec = ResourceQueue("vec", rate=7.3)
        finishes_vec = vec.acquire_batch(0.013, 1.9, 16)
        saved = network_mod._np
        network_mod._np = None
        try:
            scalar = ResourceQueue("scalar", rate=7.3)
            finishes_scalar = scalar.acquire_batch(0.013, 1.9, 16)
        finally:
            network_mod._np = saved
        # Bit-equality, not approx: digests depend on exact timestamps.
        assert finishes_vec == finishes_scalar
        assert vec.next_free == scalar.next_free
        assert vec.busy_time == scalar.busy_time


class TestSendFanout:
    DSTS = [(1, 0), (1, 1), (2, 0), (2, 1)]

    def _deliveries(self, use_fanout, prepare=None, priority=False):
        sim = Simulator()
        net, nodes, inbox = fanout_net(sim)
        src = nodes[(0, 0)]
        dsts = [nodes[key] for key in self.DSTS]
        if prepare is not None:
            prepare(net, nodes)
        if use_fanout:
            count = net.send_fanout(src, dsts, "pay", 25_000, priority=priority)
            assert count == len(dsts)
        else:
            for dst in dsts:
                net.send(src, dst, "pay", 25_000, priority=priority)
        # A follow-up message exposes any divergence in msg-id burning or
        # NIC next_free state left behind by the fan-out.
        net.send(src, nodes[(2, 1)], "after", 10_000)
        sim.run_until_idle()
        return {repr(addr): times for addr, times in inbox.items()}

    def test_matches_send_loop(self):
        assert self._deliveries(True) == self._deliveries(False)

    def test_priority_matches_send_loop(self):
        assert self._deliveries(True, priority=True) == self._deliveries(
            False, priority=True
        )

    def test_partition_matches_send_loop(self):
        def prepare(net, nodes):
            net.partition_group(1)

        fanout = self._deliveries(True, prepare)
        loop = self._deliveries(False, prepare)
        assert fanout == loop
        # Partitioned group saw nothing; the others still did.
        assert fanout["N1.0"] == [] and fanout["N1.1"] == []
        assert len(fanout["N2.0"]) == 1

    def test_crashed_sender_sends_nothing(self):
        def prepare(net, nodes):
            net.crash_node(nodes[(0, 0)])

        result = self._deliveries(True, prepare)
        assert all(times == [] for times in result.values())

    def test_same_group_dst_falls_back_to_send(self):
        sim = Simulator()
        net, nodes, inbox = fanout_net(sim)
        src = nodes[(0, 0)]
        dsts = [nodes[(0, 1)], nodes[(1, 0)]]
        net.send_fanout(src, dsts, "pay", 25_000)
        sim.run_until_idle()
        assert len(inbox[nodes[(0, 1)]]) == 1  # LAN delivery
        assert len(inbox[nodes[(1, 0)]]) == 1  # WAN delivery

    def test_unregistered_dst_raises(self):
        sim = Simulator()
        net, nodes, inbox = fanout_net(sim)
        with pytest.raises(KeyError):
            net.send_fanout(
                nodes[(0, 0)], [NodeAddress(7, 7)], "pay", 1000
            )

    def test_lossy_wan_falls_back_deterministically(self):
        # With loss enabled both paths must consume the RNG stream
        # identically (the fan-out falls back to the send loop).
        def run(use_fanout):
            sim = Simulator()
            net, nodes, inbox = fanout_net(
                sim,
                wan_quality=LinkQuality(loss_probability=0.5),
                rng=RngRegistry(42),
            )
            src = nodes[(0, 0)]
            dsts = [nodes[key] for key in self.DSTS]
            if use_fanout:
                net.send_fanout(src, dsts, "pay", 25_000)
            else:
                for dst in dsts:
                    net.send(src, dst, "pay", 25_000)
            sim.run_until_idle()
            return {repr(a): t for a, t in inbox.items()}

        assert run(True) == run(False)


class TestBroadcastFastPath:
    def _lan_net(self, sim, members=4, **kwargs):
        net = Network(sim, rtt_matrix={(0, 1): 0.030}, **kwargs)
        inbox = {}
        for index in range(members):
            addr = NodeAddress(0, index)
            inbox[addr] = []
            net.register(
                addr,
                lambda m, _a=addr: inbox[_a].append((sim.now, m.payload)),
            )
        return net, inbox

    def test_matches_send_loop(self):
        sim_a = Simulator()
        net_a, inbox_a = self._lan_net(sim_a)
        src = NodeAddress(0, 0)
        net_a.broadcast_group(src, 0, "x", 50_000)
        sim_a.run_until_idle()

        sim_b = Simulator()
        net_b, inbox_b = self._lan_net(sim_b)
        for addr in inbox_b:
            if addr != src:
                net_b.send(src, addr, "x", 50_000)
        sim_b.run_until_idle()

        times_a = {repr(a): t for a, t in inbox_a.items()}
        times_b = {repr(a): t for a, t in inbox_b.items()}
        assert times_a == times_b
        assert net_a.lan_bytes_total == net_b.lan_bytes_total

    @pytest.mark.parametrize("members", [4, 7, 12, 40])
    @pytest.mark.parametrize("include_self", [False, True])
    def test_protocol_broadcasts_match_send_loop(self, members, include_self):
        # What every broadcast_group caller sends: the representative's
        # LAN relay of a pushed or received entry and the global phase's
        # LAN notices (8+ receivers take the batched NIC drain). PBFT
        # votes are billed as bytes by ModeledPbftGroup, not sent.
        from repro.core.entry import EntryId
        from repro.core.global_raft import (
            GREntryPush,
            LocalCommitNotice,
            LocalTsNotice,
        )
        from repro.core.replication import LocalEntryShare

        payloads = [
            GREntryPush(instance=1, seq=1, entry_size=900, cert_size=256),
            LocalEntryShare(entry_id=EntryId(1, 1), entry_size=900, cert_size=256),
            LocalTsNotice(assignments=((0, 1, 2, 3),) * 5),
            LocalCommitNotice(gid=1, seq=4),
        ]

        def run(use_broadcast):
            sim = Simulator()
            net = Network(sim, rtt_matrix={(0, 1): 0.030})
            got = []
            for index in range(members):
                net.register(
                    NodeAddress(0, index),
                    lambda m: got.append(
                        (sim.now, repr(m.dst), repr(m.src), m.msg_id, m.sent_at,
                         m.size_bytes, type(m.payload).__name__)
                    ),
                )
            for turn, payload in enumerate(payloads):
                src = NodeAddress(0, turn % members)
                if use_broadcast:
                    fanout = net.broadcast_group(
                        src, 0, payload, payload.size_bytes, include_self
                    )
                    assert fanout == members - (not include_self)
                else:
                    for index in range(members):
                        addr = NodeAddress(0, index)
                        if include_self or addr != src:
                            net.send(src, addr, payload, payload.size_bytes)
            sim.run_until_idle()
            return got, net.lan_bytes_total, sim.events_processed

        assert run(True) == run(False)

    @pytest.mark.parametrize("loss,jitter", [(0.0, 0.0), (0.03, 0.005), (0.0, 0.005)])
    def test_lan_burst_times_what_broadcast_would_deliver(self, loss, jitter):
        # Same sender NIC charge, byte count, message ids, RNG draws (in
        # the same order) and arrival times, whether the burst becomes
        # delivery events or is only timed.
        def net_for(sim):
            return self._lan_net(
                sim,
                members=9,
                lan_quality=LinkQuality(loss_probability=loss, jitter=jitter),
                rng=RngRegistry(5),
            )

        src = NodeAddress(0, 3)
        sim_a = Simulator()
        net_a, inbox_a = net_for(sim_a)
        for _ in range(20):
            net_a.broadcast_group(src, 0, "x", 5_000)
        sim_a.run_until_idle()
        delivered = sorted(
            (t, repr(a)) for a, got in inbox_a.items() for t, _ in got
        )

        sim_b = Simulator()
        net_b, _ = net_for(sim_b)
        timed = []
        for _ in range(20):
            receivers, arrivals = net_b.lan_burst(src, 5_000)
            assert src not in receivers and len(arrivals) == len(receivers) == 8
            timed += [(t, repr(a)) for a, t in zip(receivers, arrivals) if t is not None]
        assert sorted(timed) == delivered
        assert sim_b.pending_events == 0
        assert net_b.lan_bytes_total == net_a.lan_bytes_total
        assert net_b._next_msg_id == net_a._next_msg_id
        assert net_b._rng.random() == net_a._rng.random()
        assert (
            net_b.monitor.counter("network.dropped").value
            == net_a.monitor.counter("network.dropped").value
        )
        assert (loss > 0) == (len(timed) < 160)

    def test_lan_burst_from_crashed_sender_is_empty_and_free(self):
        sim = Simulator()
        net, _ = self._lan_net(sim)
        src = NodeAddress(0, 0)
        net.crash_node(src)
        receivers, arrivals = net.lan_burst(src, 5_000)
        assert len(receivers) == 3 and len(arrivals) == 0
        assert net.lan_bytes_total == 0 and net._next_msg_id == 1

    @pytest.mark.parametrize("loss,jitter", [(0.0, 0.0), (0.03, 0.005)])
    def test_deliver_to_schedules_only_the_named_receivers(self, loss, jitter):
        # Every receiver is charged (NIC, bytes, ids, RNG draws, order
        # slots); only the named ones get their delivery, at the same
        # (time, seq) and with the same message as a full broadcast.
        named = {NodeAddress(0, 2), NodeAddress(0, 7)}

        def run(deliver_to):
            sim = Simulator()
            net = Network(
                sim,
                rtt_matrix={(0, 1): 0.030},
                lan_quality=LinkQuality(loss_probability=loss, jitter=jitter),
                rng=RngRegistry(5),
            )
            got = []
            for index in range(9):
                net.register(
                    NodeAddress(0, index),
                    lambda m: got.append(
                        (sim.position, repr(m.dst), m.msg_id, m.sent_at)
                    ),
                )
            for turn in range(20):
                fanout = net.broadcast_group(
                    NodeAddress(0, turn % 9), 0, "x", 5_000, deliver_to=deliver_to
                )
                assert fanout == 8
            sim.run_until_idle()
            state = (net.lan_bytes_total, net._next_msg_id, net._rng.random())
            return got, state, sim.reserve_slots(0), sim.events_processed

        full, full_state, full_seq, full_events = run(None)
        some, some_state, some_seq, some_events = run(named)
        none, none_state, none_seq, none_events = run(frozenset())
        assert some == [row for row in full if row[1] in map(repr, named)]
        assert none == [] and none_events == 0
        assert full_state == some_state == none_state
        assert full_seq == some_seq == none_seq
        assert 0 < some_events < full_events

    def test_jittered_broadcast_matches_send_loop(self):
        # Jitter forces the stochastic path; with identical seeds it must
        # draw the RNG in the same per-receiver order as N sends.
        def run(use_broadcast):
            sim = Simulator()
            net, inbox = self._lan_net(
                sim,
                lan_quality=LinkQuality(jitter=0.002),
                rng=RngRegistry(7),
            )
            src = NodeAddress(0, 0)
            if use_broadcast:
                net.broadcast_group(src, 0, "x", 50_000)
            else:
                for addr in inbox:
                    if addr != src:
                        net.send(src, addr, "x", 50_000)
            sim.run_until_idle()
            return {repr(a): t for a, t in inbox.items()}

        assert run(True) == run(False)
