"""Event primitives for the discrete-event simulator.

An :class:`Event` is a callback scheduled at a simulated time. Events are
totally ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing tie-breaker, so two events scheduled for the same instant fire
in scheduling order. This determinism matters: every experiment in the
benchmark suite must be exactly reproducible from its seed.

The queue's heap holds ``(time, seq, event)`` triples rather than bare
events: heap sift comparisons then run entirely on C-level float/int
tuple ordering and never call back into Python. On the saturated-load
benchmarks this is one of the two dominant event-loop costs (the other
being the peek/pop double traversal, removed by :meth:`EventQueue.pop_until`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional, Tuple


class Event:
    """A scheduled callback.

    Events should be created through :meth:`EventQueue.push` (or the
    higher-level :meth:`repro.sim.core.Simulator.schedule`) rather than
    directly. Cancelling an event is O(1): the event is flagged and skipped
    when popped.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "volatile")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Fire-and-forget events (no caller ever holds the handle, so no
        #: one can cancel or re-arm them) are returned to the queue's
        #: freelist right after their callback runs. Scheduled via
        #: :meth:`EventQueue.push_volatile`.
        self.volatile = False

    def cancel(self) -> None:
        """Mark this event so it will be skipped when its time comes."""
        self.cancelled = True

    def fire(self) -> None:
        """Invoke the callback (no-op if cancelled)."""
        if not self.cancelled:
            self.callback(*self.args)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, seq={self.seq}, {name}{state})"


class EventQueue:
    """A priority queue of :class:`Event` objects.

    Thin wrapper over :mod:`heapq` that owns the sequence counter used for
    deterministic FIFO tie-breaking.
    """

    __slots__ = ("_heap", "_seq", "_free")

    def __init__(self) -> None:
        self._heap: list[Tuple[float, int, Event]] = []
        self._seq = 0
        #: Recycled fire-and-forget events (see :meth:`push_volatile`).
        self._free: list[Event] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time`` and return the event."""
        if time < 0:
            raise ValueError(f"cannot schedule event at negative time {time}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args)
        heappush(self._heap, (time, seq, event))
        return event

    def push_volatile(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> Event:
        """Schedule a fire-and-forget event, reusing a recycled one if any.

        The returned event must not be retained, cancelled, or re-armed
        by the caller: the run loop hands it back to the freelist the
        moment its callback returns, after which its fields belong to the
        next volatile event. Message deliveries and CPU-consumption
        continuations — the two dominant allocation sources on saturated
        runs — go through here. Sequence numbers come from the same
        counter as :meth:`push`, so the deterministic total order is
        unchanged.
        """
        if time < 0:
            raise ValueError(f"cannot schedule event at negative time {time}")
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, seq, callback, args)
            event.volatile = True
        heappush(self._heap, (time, seq, event))
        return event

    def reserve(self, count: int) -> int:
        """Set aside ``count`` consecutive order slots; returns the first.

        For occurrences that need not all become events: one later pushed
        with :meth:`push_reserved` fires exactly where an eagerly scheduled
        event would have, and every other event keeps its sequence number.
        """
        seq = self._seq
        self._seq = seq + count
        return seq

    def push_reserved(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``callback(*args)`` into a slot from :meth:`reserve`."""
        event = Event(time, seq, callback, args)
        heappush(self._heap, (time, seq, event))
        return event

    def recycle(self, event: Event) -> None:
        """Return a fired volatile event to the freelist (run-loop only)."""
        event.callback = None  # type: ignore[assignment]
        event.args = ()
        self._free.append(event)

    def repush(self, time: float, event: Event) -> Event:
        """Re-arm an already-fired event at a new ``time`` and return it.

        Only valid for events no longer in the heap (i.e. just popped and
        fired) — reusing a still-pending event would leave a stale heap
        entry aliased to the re-armed one. Repeating timers use this to
        avoid allocating a fresh :class:`Event` per tick.
        """
        if time < 0:
            raise ValueError(f"cannot schedule event at negative time {time}")
        seq = self._seq
        self._seq = seq + 1
        event.time = time
        event.seq = seq
        event.cancelled = False
        heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or None if empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if not event.cancelled:
                return event
        return None

    def pop_until(self, until: Optional[float]) -> Optional[Event]:
        """One-pass peek+pop: the earliest live event with ``time <= until``.

        Cancelled heads are discarded on the way; a live head beyond
        ``until`` is left in place and None is returned. This merges the
        ``peek_time`` / ``pop`` double heap traversal of the simulator's
        hot loop into a single one.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2].cancelled:
                heappop(heap)
                continue
            if until is not None and head[0] > until:
                return None
            return heappop(heap)[2]
        return None

    def peek_time(self) -> Optional[float]:
        """Return the time of the earliest pending event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if heap:
            return heap[0][0]
        return None

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
