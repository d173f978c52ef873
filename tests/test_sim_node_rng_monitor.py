"""Unit tests for SimNode, RNG streams, and stat monitors."""

from array import array

import pytest

from repro.sim.core import Simulator
from repro.sim.monitor import Counter, Histogram, StatMonitor, TimeSeries
from repro.sim.network import Network, NodeAddress
from repro.sim.node import SimNode
from repro.sim.rng import RngRegistry


class Ping:
    size_bytes = 64


class Pong:
    size_bytes = 64


class TestSimNode:
    def make_pair(self):
        sim = Simulator()
        net = Network(sim, rtt_matrix={(0, 1): 0.020})
        a = SimNode(sim, net, NodeAddress(0, 0))
        b = SimNode(sim, net, NodeAddress(1, 0))
        return sim, net, a, b

    def test_handler_dispatch_by_type(self):
        sim, net, a, b = self.make_pair()
        seen = []
        b.on(Ping, lambda m: seen.append("ping"))
        b.on(Pong, lambda m: seen.append("pong"))
        a.send(b.addr, Pong(), 64)
        a.send(b.addr, Ping(), 64)
        sim.run_until_idle()
        assert seen == ["pong", "ping"]

    def test_unhandled_raises_by_default(self):
        sim, net, a, b = self.make_pair()
        a.send(b.addr, Ping(), 64)
        with pytest.raises(LookupError):
            sim.run_until_idle()

    def test_duplicate_handler_rejected(self):
        sim, net, a, b = self.make_pair()
        b.on(Ping, lambda m: None)
        with pytest.raises(ValueError):
            b.on(Ping, lambda m: None)

    def test_crashed_node_ignores_messages(self):
        sim, net, a, b = self.make_pair()
        seen = []
        b.on(Ping, lambda m: seen.append(1))
        b.crash()
        a.send(b.addr, Ping(), 64)
        sim.run_until_idle()
        assert seen == []

    def test_crashed_node_does_not_send(self):
        sim, net, a, b = self.make_pair()
        seen = []
        b.on(Ping, lambda m: seen.append(1))
        a.crash()
        a.send(b.addr, Ping(), 64)
        sim.run_until_idle()
        assert seen == []

    def test_broadcast_local_excludes_self(self):
        sim = Simulator()
        net = Network(sim, rtt_matrix={})
        nodes = [SimNode(sim, net, NodeAddress(0, i)) for i in range(3)]
        seen = {n.addr: [] for n in nodes}
        for n in nodes:
            n.on(Ping, lambda m, a=n.addr: seen[a].append(m))
        nodes[0].broadcast_local(Ping(), 64)
        sim.run_until_idle()
        assert len(seen[nodes[0].addr]) == 0
        assert len(seen[nodes[1].addr]) == 1
        assert len(seen[nodes[2].addr]) == 1

    def test_cpu_queue_serializes_work(self):
        sim = Simulator()
        net = Network(sim, rtt_matrix={})
        node = SimNode(sim, net, NodeAddress(0, 0))
        done = []
        node.consume_cpu(1.0, lambda: done.append(sim.now))
        node.consume_cpu(1.0, lambda: done.append(sim.now))
        sim.run_until_idle()
        assert done == [1.0, 2.0]

    def test_cpu_respects_core_count(self):
        sim = Simulator()
        net = Network(sim, rtt_matrix={})
        node = SimNode(sim, net, NodeAddress(0, 0))
        node.cpu.rate = 4.0  # 4 cores
        done = []
        node.consume_cpu(1.0, lambda: done.append(sim.now))
        sim.run_until_idle()
        assert done == [0.25]

    def test_zero_cpu_work_runs_immediately(self):
        sim = Simulator()
        net = Network(sim, rtt_matrix={})
        node = SimNode(sim, net, NodeAddress(0, 0))
        done = []
        node.consume_cpu(0.0, lambda: done.append(sim.now))
        sim.run_until_idle()
        assert done == [0.0]

    def test_negative_cpu_rejected(self):
        sim = Simulator()
        net = Network(sim, rtt_matrix={})
        node = SimNode(sim, net, NodeAddress(0, 0))
        with pytest.raises(ValueError):
            node.consume_cpu(-1.0, lambda: None)
        with pytest.raises(ValueError):
            node.charge_cpu(-1.0)

    def test_charge_cpu_queues_like_consume_cpu_without_an_event(self):
        # Same CPU queue and the same order slot as a continuation-less
        # consume_cpu; nothing to run, so nothing scheduled.
        def run(charge):
            sim = Simulator()
            node = SimNode(sim, Network(sim, rtt_matrix={}), NodeAddress(0, 0))
            for seconds in (0.5, 0.0, 0.25):
                charge(node, seconds)
            done = []
            node.consume_cpu(1.0, lambda: done.append(sim.position))
            cpu = (node.cpu.next_free, node.cpu.busy_time, node.cpu.jobs)
            pending = sim.pending_events
            sim.run_until_idle()
            return cpu, pending, done

        charged = run(lambda node, s: node.charge_cpu(s))
        consumed = run(lambda node, s: node.consume_cpu(s, lambda: None))
        assert charged[0] == consumed[0] == (1.75, 1.75, 3)
        assert (charged[1], consumed[1]) == (1, 4)
        assert charged[2] == consumed[2] == [(1.75, 3)]


class TestRng:
    def test_streams_are_memoised(self):
        rngs = RngRegistry(seed=1)
        assert rngs.stream("a") is rngs.stream("a")

    def test_streams_are_independent(self):
        rngs = RngRegistry(seed=1)
        a = [rngs.stream("a").random() for _ in range(5)]
        b = [rngs.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_registries(self):
        a = [RngRegistry(7).stream("x").random() for _ in range(1)]
        b = [RngRegistry(7).stream("x").random() for _ in range(1)]
        assert a == b

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream(
            "x"
        ).random()


class TestMonitors:
    def test_counter(self):
        c = Counter("c")
        c.add()
        c.add(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.add(-1)

    def test_histogram_percentiles(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.mean == pytest.approx(50.5)
        assert h.p50 == 50.0
        assert h.p99 == 99.0
        assert h.percentile(100) == 100.0

    def test_histogram_empty(self):
        h = Histogram("h")
        assert h.mean == 0.0
        assert h.p50 == 0.0

    def test_histogram_observe_after_percentile(self):
        h = Histogram("h")
        h.observe(5.0)
        assert h.p50 == 5.0
        h.observe(1.0)
        assert h.p50 == 1.0  # re-sorts after new observation

    def test_histogram_in_order_observes_skip_resort(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 2.0, 3.0):
            h.observe(v)
        # Non-decreasing observations keep the sorted invariant, so reads
        # between observes never trigger a sort.
        assert h._sorted
        assert h.p50 == 2.0
        h.observe(4.0)
        assert h._sorted
        assert h.percentile(100) == 4.0

    def test_histogram_sorts_the_same_bits_without_numpy(self, monkeypatch):
        from repro.sim import monitor

        if monitor._np is None:
            pytest.skip("numpy unavailable: only the pure-Python sort exists")
        rng = RngRegistry(3).stream("h")
        values = [rng.random() for _ in range(500)] + [0.0, -0.0, 0.25, -0.0, 0.0]
        numpy_sorted = monitor.sorted_column(array("d", values))
        monkeypatch.setattr(monitor, "_np", None)
        python_sorted = monitor.sorted_column(array("d", values))
        # repr tells -0.0 from 0.0: the stable sort keeps their order.
        assert repr(numpy_sorted) == repr(python_sorted)
        assert list(python_sorted) == sorted(values)

    def test_histogram_over_a_shared_column_leaves_its_order(self):
        column = array("d", [3.0, 1.0, 2.0])
        h = Histogram("h", column)
        assert (h.p50, h.percentile(0), h.percentile(100)) == (2.0, 1.0, 3.0)
        assert list(column) == [3.0, 1.0, 2.0]
        column.append(0.5)  # the owner appends; the next read re-sorts
        assert h.percentile(0) == 0.5 and h.count == 4

    def test_timeseries_window_sums(self):
        ts = TimeSeries("t")
        ts.record(0.1, 1.0)
        ts.record(0.9, 1.0)
        ts.record(1.5, 1.0)
        sums = ts.window_sums(1.0, end=3.0)
        assert sums == [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]

    def test_timeseries_window_means(self):
        ts = TimeSeries("t")
        ts.record(0.1, 2.0)
        ts.record(0.2, 4.0)
        means = ts.window_means(1.0, end=2.0)
        assert means == [(0.0, 3.0), (1.0, 0.0)]

    def test_statmonitor_namespacing(self):
        mon = StatMonitor()
        mon.counter("a").add(3)
        assert mon.counter("a").value == 3
        assert mon.counter("a") is mon.counter("a")
        assert set(mon.counters) == {"a"}
