"""The simulation event loop.

:class:`Simulator` owns simulated time and the event queue. Protocol code
never sleeps or spins; it schedules callbacks (:meth:`Simulator.schedule`)
and timers (:meth:`Simulator.set_timer`) and reacts to message-delivery
events injected by :class:`repro.sim.network.Network`.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Optional, Tuple

from repro.sim.events import Event, EventQueue


class SimulationBudgetExceeded(RuntimeError):
    """An event budget ran out while live events were still pending.

    Raised by :meth:`Simulator.run_until_idle` instead of silently
    returning: a drained budget almost always means a runaway timer or a
    livelocked protocol, and a silent partial run masks it as "idle".
    """

    #: Handlers named in the message (all of them are in ``pending``).
    SHOWN = 5

    def __init__(
        self,
        max_events: int,
        pending_time: float,
        control_epoch: int = 0,
        pending: Tuple[Tuple[str, int], ...] = (),
    ) -> None:
        shown = ", ".join(f"{name} x{count}" for name, count in pending[: self.SHOWN])
        super().__init__(
            f"event budget of {max_events} events exhausted with live events "
            f"still pending (earliest at t={pending_time:.6f}s, control "
            f"epoch {control_epoch}); raise max_events or fix the runaway "
            f"event source"
            + (f"; pending by handler: {shown}" if shown else "")
        )
        self.max_events = max_events
        self.pending_time = pending_time
        #: The simulator's active control-actuation epoch at the moment
        #: the budget drained. Diagnosing a runaway under an adaptive
        #: controller needs to know whether an actuation was in flight;
        #: 0 means no controller ever actuated.
        self.control_epoch = control_epoch
        #: Live pending events tallied by handler (see
        #: :func:`handler_name`), most frequent first.
        self.pending = pending


def handler_name(callback: Callable[..., None], args: Tuple[Any, ...]) -> str:
    """What an event runs, for diagnostics: the callback's qualified name;
    a timer's own callback rather than its ``Timer._fire``; and a message
    delivery split by payload type (``Network._deliver[GRAccept]``)."""
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, Timer):
        return f"Timer({handler_name(owner._callback, ())})"
    name = getattr(callback, "__qualname__", type(callback).__name__)
    payload = getattr(args[0], "payload", None) if args else None
    if payload is not None:
        name += f"[{type(payload).__name__}]"
    return name


class Timer:
    """A cancellable, optionally repeating timer bound to a simulator.

    Created through :meth:`Simulator.set_timer`. ``cancel()`` is safe to
    call at any point, including from within the timer callback itself.
    """

    __slots__ = ("_sim", "_callback", "_interval", "_event", "_active")

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        callback: Callable[[], None],
        interval: Optional[float] = None,
    ) -> None:
        self._sim = sim
        self._callback = callback
        self._interval = interval
        self._active = True
        self._event = sim.schedule(delay, self._fire)

    @property
    def active(self) -> bool:
        return self._active

    def _fire(self) -> None:
        if not self._active:
            return
        if self._interval is not None:
            # The just-fired event is out of the heap, so it can be reused
            # for the next tick: no per-interval Event allocation.
            self._event = self._sim._queue.repush(
                self._sim._now + self._interval, self._event
            )
        else:
            self._active = False
        self._callback()

    def cancel(self) -> None:
        self._active = False
        self._event.cancel()


class Simulator:
    """Discrete-event simulator with deterministic execution order.

    Typical driving loop::

        sim = Simulator()
        sim.schedule(0.0, boot)
        sim.run(until=10.0)      # run 10 simulated seconds

    The simulator also supports *stop conditions* used by benchmarks (stop
    once N transactions have committed) via :meth:`stop`.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        #: Sequence number of the event being executed (see position).
        self._seq_now = -1
        self._running = False
        self._stopped = False
        self.events_processed = 0
        #: Monotonic counter bumped by the adaptive-control stage on every
        #: actuation (mirroring the deployment's membership epoch). Plain
        #: bookkeeping — the loop never reads it — but error paths carry
        #: it so a budget blow-up under an active controller is
        #: attributable to the actuation epoch it happened in.
        self.control_epoch = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def position(self) -> Tuple[float, int]:
        """``(time, seq)`` of the executing event: everything ordered
        before it has run, nothing ordered after it has."""
        return self._now, self._seq_now

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self._queue.push(self._now + delay, callback, args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        return self._queue.push(time, callback, args)

    def schedule_volatile(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Fire-and-forget :meth:`schedule`: the event is recycled after it
        runs, so callers must not retain (or cancel) the returned handle.
        The hot delivery/CPU paths use this to stop allocating an Event
        per message."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self._queue.push_volatile(self._now + delay, callback, args)

    def schedule_at_volatile(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Fire-and-forget :meth:`schedule_at` (see :meth:`schedule_volatile`)."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        return self._queue.push_volatile(time, callback, args)

    def reserve_slots(self, count: int) -> int:
        """Take ``count`` consecutive event-order slots; returns the first
        (see :meth:`EventQueue.reserve`)."""
        return self._queue.reserve(count)

    def schedule_reserved(
        self, time: float, seq: int, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` at ``time`` in reserved order slot ``seq``."""
        if (time, seq) <= (self._now, self._seq_now):
            raise ValueError(f"slot ({time}, {seq}) is already in the past")
        return self._queue.push_reserved(time, seq, callback, args)

    def set_timer(
        self,
        delay: float,
        callback: Callable[[], None],
        interval: Optional[float] = None,
    ) -> Timer:
        """Create a one-shot (or repeating, if ``interval`` is given) timer."""
        return Timer(self, delay, callback, interval)

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Process events until the queue drains, ``until`` passes, or stop().

        Returns the simulated time at which the run ended. Time advances to
        ``until`` even if the queue drains earlier, so rate computations
        (txns / elapsed) stay well-defined.

        This loop is the simulator's hottest code: each iteration does one
        single-pass ``pop_until`` (no separate peek) and invokes the event
        callback directly, so per-event overhead is a heap pop plus one
        call. Behaviour is identical to the straightforward
        peek/pop/fire formulation.
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        processed_this_run = 0
        pop_until = self._queue.pop_until
        recycle = self._queue.recycle
        try:
            while not self._stopped:
                if max_events is not None and processed_this_run >= max_events:
                    break
                event = pop_until(until)
                if event is None:
                    break
                self._now = event.time
                self._seq_now = event.seq
                event.callback(*event.args)
                if event.volatile:
                    recycle(event)
                self.events_processed += 1
                processed_this_run += 1
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self._running = False
        return self._now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain. Guards against runaway loops.

        Raises :class:`SimulationBudgetExceeded` when the budget drains
        with live events still queued — a silent partial drain here has
        historically masked runaway timer loops as clean completions. The
        error names the pending events by handler.
        """
        before = self.events_processed
        end = self.run(max_events=max_events)
        if self.events_processed - before >= max_events and not self._stopped:
            pending = self._queue.peek_time()
            if pending is not None:
                raise SimulationBudgetExceeded(
                    max_events, pending, self.control_epoch, self.pending_by_handler()
                )
        return end

    def pending_by_handler(self) -> Tuple[Tuple[str, int], ...]:
        """Live pending events tallied by :func:`handler_name`, most
        frequent first (ties by name)."""
        tally = Counter(
            handler_name(event.callback, event.args)
            for _, _, event in self._queue._heap
            if not event.cancelled
        )
        return tuple(sorted(tally.items(), key=lambda item: (-item[1], item[0])))
