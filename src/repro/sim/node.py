"""Node runtime: the base class every protocol replica builds on.

A :class:`SimNode` owns an address on the :class:`repro.sim.network.Network`,
a dispatch table from payload type to handler, a single-core CPU queue used
to account for compute costs (signature verification, erasure coding,
transaction execution), and crash/Byzantine switches used by the
fault-tolerance experiments.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Dict, Optional, Type

from repro.sim.core import Simulator
from repro.sim.network import Message, Network, NodeAddress, ResourceQueue


class SimNode:
    """A protocol replica attached to the simulated network.

    Subclasses register payload handlers in ``__init__`` via
    :meth:`on`; the network invokes :meth:`deliver` which dispatches by
    payload type. Messages arriving at a crashed node are dropped.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        addr: NodeAddress,
        wan_bandwidth: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.addr = addr
        self.crashed = False
        self.byzantine = False
        self._handlers: Dict[Type, Callable[[Message], None]] = {}
        self.cpu = ResourceQueue(f"{addr}.cpu", 1.0)
        network.register(addr, self.deliver, wan_bandwidth=wan_bandwidth)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def on(self, payload_type: Type, handler: Callable[[Message], None]) -> None:
        """Route messages whose payload is ``payload_type`` to ``handler``."""
        if payload_type in self._handlers:
            raise ValueError(
                f"{self.addr}: handler for {payload_type.__name__} already registered"
            )
        self._handlers[payload_type] = handler

    def deliver(self, msg: Message) -> None:
        """Network entry point: dispatch an arriving message."""
        if self.crashed:
            return
        handler = self._handlers.get(type(msg.payload))
        if handler is None:
            self.on_unhandled(msg)
        else:
            handler(msg)

    def on_unhandled(self, msg: Message) -> None:
        """Hook for messages with no registered handler (default: error).

        Protocols that legitimately ignore stray message kinds override this.
        """
        raise LookupError(
            f"{self.addr} received unhandled {msg.kind} from {msg.src}"
        )

    def send(
        self, dst: NodeAddress, payload: Any, size_bytes: int, priority: bool = False
    ) -> None:
        if self.crashed:
            return
        self.network.send(self.addr, dst, payload, size_bytes, priority=priority)

    def send_fanout(
        self,
        dsts: Any,
        payload: Any,
        size_bytes: int,
        priority: bool = False,
    ) -> None:
        """Send one payload to many addresses (batched NIC accounting).

        Same semantics as a loop of :meth:`send` calls — see
        :meth:`repro.sim.network.Network.send_fanout`.
        """
        if self.crashed:
            return
        self.network.send_fanout(
            self.addr, dsts, payload, size_bytes, priority=priority
        )

    def broadcast_local(
        self,
        payload: Any,
        size_bytes: int,
        deliver_to: Optional[Collection[NodeAddress]] = None,
    ) -> None:
        """Send to every other node in this node's own group via LAN.

        ``deliver_to`` names the receivers that read the payload (see
        :meth:`repro.sim.network.Network.broadcast_group`); every member
        is charged either way.
        """
        if self.crashed:
            return
        self.network.broadcast_group(
            self.addr, self.addr.group, payload, size_bytes, deliver_to=deliver_to
        )

    # ------------------------------------------------------------------
    # Compute model
    # ------------------------------------------------------------------

    def consume_cpu(self, seconds: float, then: Callable[[], None]) -> None:
        """Queue ``seconds`` of CPU work, invoking ``then`` when it completes.

        If ``seconds`` is zero the continuation runs immediately (still via
        the event queue, preserving deterministic ordering).
        """
        if seconds < 0:
            raise ValueError("CPU work must be non-negative")
        # CPU completions are fire-and-forget (nothing ever cancels one;
        # crash filtering happens in _run_if_alive), so they ride the
        # volatile-event freelist.
        if seconds == 0:
            self.sim.schedule_volatile(0.0, self._run_if_alive, then)
            return
        _, finish = self.cpu.acquire(self.sim.now, seconds)
        self.sim.schedule_at_volatile(finish, self._run_if_alive, then)

    def charge_cpu(self, seconds: float) -> None:
        """Queue ``seconds`` of CPU work that nothing waits on.

        Occupies the CPU queue exactly as :meth:`consume_cpu` does (zero
        seconds leave it untouched) but schedules no completion event.
        The order slot that event would have taken is still used up, so
        every later event keeps the ``(time, seq)`` it would have had.
        """
        if seconds < 0:
            raise ValueError("CPU work must be non-negative")
        if seconds:
            self.cpu.acquire(self.sim.now, seconds)
        self.sim.reserve_slots(1)

    def _run_if_alive(self, fn: Callable[[], None]) -> None:
        if not self.crashed:
            fn()

    # ------------------------------------------------------------------
    # Failure control
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Stop processing and drop network traffic (also at the network)."""
        self.crashed = True
        self.network.crash_node(self.addr)

    def make_byzantine(self) -> None:
        """Flag this node as adversary-controlled.

        The flag itself does nothing; protocol subclasses consult it (or
        attach adversary behaviours) at the points where a faulty node can
        deviate — e.g. tampering with erasure-coded chunks in
        :mod:`repro.core.replication`.
        """
        self.byzantine = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            flag
            for flag, present in (("X", self.crashed), ("B", self.byzantine))
            if present
        )
        return f"<{type(self).__name__} {self.addr}{' ' + flags if flags else ''}>"
