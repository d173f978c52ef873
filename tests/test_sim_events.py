"""Unit tests for the event queue and simulator core."""

import pytest

from repro.sim.core import SimulationBudgetExceeded, Simulator
from repro.sim.events import EventQueue


class TestEventQueue:
    def test_fifo_within_same_time(self):
        queue = EventQueue()
        fired = []
        for tag in ("a", "b", "c"):
            queue.push(1.0, fired.append, (tag,))
        while (event := queue.pop()) is not None:
            event.fire()
        assert fired == ["a", "b", "c"]

    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(2.0, lambda: None)
        queue.push(1.0, lambda: None)
        queue.push(3.0, lambda: None)
        times = []
        while (event := queue.pop()) is not None:
            times.append(event.time)
        assert times == [1.0, 2.0, 3.0]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        keep = queue.push(1.0, fired.append, ("keep",))
        drop = queue.push(0.5, fired.append, ("drop",))
        drop.cancel()
        while (event := queue.pop()) is not None:
            event.fire()
        assert fired == ["keep"]
        assert keep.time == 1.0

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(0.5, lambda: None)
        queue.push(1.5, lambda: None)
        first.cancel()
        assert queue.peek_time() == 1.5

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(-1.0, lambda: None)

    def test_clear(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.clear()
        assert len(queue) == 0
        assert queue.pop() is None


class TestReservedSlots:
    def test_reserved_slot_fires_where_an_eager_event_would(self):
        # Three things known to happen at t=1.0; only the middle one is
        # turned into an event, and only later. It must still fire
        # between events scheduled before and after the reservation.
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "before")
        first = sim.reserve_slots(3)
        sim.schedule_at(1.0, fired.append, "after")
        sim.schedule_at(0.5, lambda: sim.schedule_reserved(
            1.0, first + 1, fired.append, "reserved"))
        sim.run(until=2.0)
        assert fired == ["before", "reserved", "after"]

    def test_reserving_consumes_exactly_count_sequence_numbers(self):
        queue = EventQueue()
        assert queue.reserve(4) == 0
        assert queue.push(1.0, lambda: None).seq == 4
        assert queue.reserve(0) == 5
        assert queue.push(1.0, lambda: None).seq == 5

    def test_unused_slots_cost_no_event(self):
        sim = Simulator()
        sim.reserve_slots(100)
        sim.run(until=1.0)
        assert sim.events_processed == 0 and sim.pending_events == 0

    def test_position_is_the_executing_events_slot(self):
        sim = Simulator()
        seen = []
        slot = sim.reserve_slots(1)
        sim.schedule_reserved(0.25, slot, lambda: seen.append(sim.position))
        event = sim.schedule_at(0.25, lambda: seen.append(sim.position))
        sim.run(until=1.0)
        assert seen == [(0.25, slot), (0.25, event.seq)]

    def test_slot_in_the_past_rejected(self):
        sim = Simulator()
        slot = sim.reserve_slots(1)
        late = sim.schedule_at(0.5, lambda: None)

        def too_late():
            with pytest.raises(ValueError):
                sim.schedule_reserved(0.5, slot, lambda: None)

        sim.schedule_at(0.5, too_late)
        sim.run(until=1.0)
        assert late.seq > slot


class TestVolatileEvents:
    def test_fires_and_returns_to_freelist(self):
        queue = EventQueue()
        fired = []
        queue.push_volatile(1.0, fired.append, ("v",))
        event = queue.pop()
        event.fire()
        queue.recycle(event)
        assert fired == ["v"]
        assert event.callback is None and event.args == ()

    def test_recycled_event_is_reused(self):
        queue = EventQueue()
        first = queue.push_volatile(1.0, lambda: None)
        popped = queue.pop()
        assert popped is first
        queue.recycle(popped)
        second = queue.push_volatile(2.0, lambda: None)
        assert second is first  # same object, fresh fields
        assert second.time == 2.0 and not second.cancelled
        assert second.volatile

    def test_shares_seq_counter_with_push(self):
        # Interleaved volatile and plain pushes at one instant must fire
        # in scheduling order: one tie-break counter, not two.
        queue = EventQueue()
        fired = []
        queue.push(1.0, fired.append, ("a",))
        queue.push_volatile(1.0, fired.append, ("b",))
        queue.push(1.0, fired.append, ("c",))
        queue.push_volatile(1.0, fired.append, ("d",))
        while (event := queue.pop()) is not None:
            event.fire()
        assert fired == ["a", "b", "c", "d"]

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push_volatile(-1.0, lambda: None)

    def test_simulator_schedule_volatile(self):
        sim = Simulator()
        seen = []
        sim.schedule_volatile(1.0, seen.append, "x")
        sim.schedule_at_volatile(2.0, seen.append, "y")
        sim.run_until_idle()
        assert seen == ["x", "y"]
        # Both events were recycled by the run loop.
        assert len(sim._queue._free) == 2

    def test_volatile_order_matches_plain_schedule(self):
        # The same mixed schedule through volatile and plain paths must
        # produce the same firing order.
        def drive(sim, volatile):
            seen = []
            sched = sim.schedule_volatile if volatile else sim.schedule
            for tag, delay in (("a", 0.2), ("b", 0.1), ("c", 0.2), ("d", 0.0)):
                sched(delay, seen.append, tag)
            sim.run_until_idle()
            return seen

        assert drive(Simulator(), True) == drive(Simulator(), False)


class TestSimulator:
    def test_time_advances_to_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_run_until_advances_even_without_events(self):
        sim = Simulator()
        end = sim.run(until=5.0)
        assert end == 5.0
        assert sim.now == 5.0

    def test_until_excludes_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.schedule(3.0, seen.append, 3)
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0
        sim.run(until=4.0)
        assert seen == [1, 3]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(0.5, seen.append, "nested"))
        sim.run_until_idle()
        assert seen == ["nested"]
        assert sim.now == 1.5

    def test_max_events_bound(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.1, reschedule)

        sim.schedule(0.0, reschedule)
        sim.run(max_events=50)
        assert sim.events_processed == 50

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        error = []

        def inner():
            try:
                sim.run(until=10.0)
            except RuntimeError as exc:
                error.append(exc)

        sim.schedule(0.5, inner)
        sim.run(until=1.0)
        assert len(error) == 1


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

    def test_budget_error_names_pending_events_by_handler(self):
        # A runaway timer that sends a message every tick: the error names
        # the timer's own callback and the deliveries by payload type.
        from repro.sim.network import Network, NodeAddress

        class Ping:
            pass

        sim = Simulator()
        net = Network(sim, rtt_matrix={(0, 1): 0.050})
        src, dst = NodeAddress(0, 0), NodeAddress(1, 0)
        net.register(src, lambda m: None)
        net.register(dst, lambda m: None)

        def runaway_tick():
            net.send(src, dst, Ping(), 100)

        sim.set_timer(0.001, runaway_tick, interval=0.001)
        sim.schedule(5.0, sorted)
        with pytest.raises(SimulationBudgetExceeded) as err:
            sim.run_until_idle(max_events=200)
        pending = dict(err.value.pending)
        timer = "Timer(TestBudgetError.test_budget_error_names_pending_events_by_handler"
        timer += ".<locals>.runaway_tick)"
        assert pending[timer] == 1
        assert pending["Network._deliver[Ping]"] >= 20
        assert pending["sorted"] == 1
        assert err.value.pending[0][0] == "Network._deliver[Ping]"
        assert sum(pending.values()) == sim.pending_events
        assert "pending by handler: Network._deliver[Ping] x" in str(err.value)
        assert timer in str(err.value)

    def test_clean_drain_does_not_raise(self):
        sim = Simulator()
        hits = []
        for i in range(10):
            sim.schedule(0.01 * i, hits.append, i)
        end = sim.run_until_idle(max_events=100)
        assert len(hits) == 10
        assert end == pytest.approx(0.09)


class TestTimer:
    def test_one_shot(self):
        sim = Simulator()
        fired = []
        sim.set_timer(1.0, lambda: fired.append(sim.now))
        sim.run(until=5.0)
        assert fired == [1.0]

    def test_repeating(self):
        sim = Simulator()
        fired = []
        sim.set_timer(1.0, lambda: fired.append(sim.now), interval=1.0)
        sim.run(until=3.5)
        assert fired == [1.0, 2.0, 3.0]

    def test_cancel_stops_timer(self):
        sim = Simulator()
        fired = []
        timer = sim.set_timer(1.0, lambda: fired.append(sim.now), interval=1.0)
        sim.schedule(2.5, timer.cancel)
        sim.run(until=6.0)
        assert fired == [1.0, 2.0]
        assert not timer.active

    def test_cancel_from_within_callback(self):
        sim = Simulator()
        fired = []

        def callback():
            fired.append(sim.now)
            if len(fired) == 2:
                timer.cancel()

        timer = sim.set_timer(1.0, callback, interval=1.0)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]
