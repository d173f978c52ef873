"""Geo-distributed network model.

The model mirrors the paper's testbed (Section VI):

* nodes in the same group share a data center and talk over a fast LAN
  (default 2.5 Gbps, sub-millisecond latency);
* every node owns an *exclusive* WAN attachment with limited bandwidth
  (default 20 Mbps) used for all inter-group traffic;
* inter-group propagation latency comes from an RTT matrix (nationwide:
  26.7-43.4 ms, worldwide: 156-206 ms).

Bandwidth is modeled with serialization queues (:class:`ResourceQueue`):
a message occupies the sender's outbound NIC for ``size/bandwidth`` seconds,
then incurs one-way propagation latency; the cap is on egress, so the
receiver's inbound side never queues. This queueing — not a closed-form
formula — is what produces the leader-bottleneck collapse of Fig 1b/13a
and the aggregate-bandwidth scaling of MassBFT.

The network also provides failure injection: message loss, group
partitions, and per-node crash/bandwidth overrides (Fig 14, Fig 15).
"""

from __future__ import annotations

import os
from bisect import insort
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple

from repro.sim.core import Simulator
from repro.sim.monitor import StatMonitor
from repro.sim.rng import RngRegistry

# Vectorized NIC-queue math rides numpy when present; REPRO_NO_NUMPY=1
# forces the scalar path (the CI no-numpy leg proves bit-equivalence).
try:
    if os.environ.get("REPRO_NO_NUMPY"):
        _np = None
    else:
        import numpy as _np
except ImportError:  # pragma: no cover - numpy is baked into the image
    _np = None

#: Default LAN bandwidth within a data center (bits/second): 2.5 Gbps.
DEFAULT_LAN_BANDWIDTH = 2.5e9
#: Default exclusive WAN bandwidth per node (bits/second): 20 Mbps.
DEFAULT_WAN_BANDWIDTH = 20e6
#: Default one-way LAN latency (seconds).
DEFAULT_LAN_LATENCY = 0.00025


@dataclass(frozen=True, order=True)
class NodeAddress:
    """Identifies node ``N_{group,index}`` in the deployment.

    Addresses key nearly every per-message dict in the simulator, so the
    hash is computed once at construction instead of per lookup.
    """

    group: int
    index: int
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.group, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"N{self.group}.{self.index}"

    @classmethod
    def of(cls, group: int, index: int) -> "NodeAddress":
        """Interned construction: one address object per (group, index).

        Addresses are immutable values compared by content, so sharing
        instances is invisible to callers — it just stops deployment
        builders and per-run scenario code from re-allocating the same
        few thousand addresses (plus their cached hashes) on every run.
        """
        key = (group, index)
        addr = _ADDR_CACHE.get(key)
        if addr is None:
            addr = _ADDR_CACHE[key] = cls(group, index)
        return addr


#: Process-wide intern table for :meth:`NodeAddress.of` — bounded by the
#: largest topology built in the process, not by run count.
_ADDR_CACHE: Dict[Tuple[int, int], NodeAddress] = {}


@dataclass(slots=True)
class Message:
    """A message in flight.

    ``payload`` is an arbitrary protocol object; ``size_bytes`` is the wire
    size used for bandwidth accounting (protocol messages compute it from
    their contents: a :data:`repro.consensus.messages.HEADER_SIZE`
    envelope plus digests, signatures and payload bytes).
    """

    src: NodeAddress
    dst: NodeAddress
    payload: Any
    size_bytes: int
    msg_id: int = 0
    sent_at: float = 0.0

    @property
    def kind(self) -> str:
        return type(self.payload).__name__


@dataclass
class LinkQuality:
    """Stochastic quality of a link class (loss and jitter)."""

    loss_probability: float = 0.0
    jitter: float = 0.0


class ResourceQueue:
    """A serialized resource: a NIC or a CPU core.

    Work items occupy the resource one after another. ``acquire`` returns
    the (start, finish) interval for a job submitted now; the queue also
    tracks total busy time for utilization reports.
    """

    __slots__ = ("name", "rate", "next_free", "busy_time", "jobs")

    def __init__(self, name: str, rate: float) -> None:
        """``rate`` is in units/second (bits/s for NICs, seconds of work
        per second — i.e. 1.0 — for CPU queues)."""
        if rate <= 0:
            raise ValueError(f"resource rate must be positive, got {rate}")
        self.name = name
        self.rate = rate
        self.next_free = 0.0
        self.busy_time = 0.0
        self.jobs = 0

    def acquire(self, now: float, amount: float) -> Tuple[float, float]:
        """Occupy the resource for ``amount`` units starting no earlier than now."""
        duration = amount / self.rate
        start = max(now, self.next_free)
        finish = start + duration
        self.next_free = finish
        self.busy_time += duration
        self.jobs += 1
        return start, finish

    #: Below this batch size the numpy round trip costs more than it saves.
    _BATCH_VECTOR_MIN = 8

    def acquire_batch(self, now: float, amount: float, count: int) -> List[float]:
        """``count`` back-to-back equal-size jobs; returns their finish times.

        Bit-identical to ``count`` sequential :meth:`acquire` calls: after
        the first job the queue is busy until at least ``now``, so every
        later start equals the previous finish and the whole drain is one
        left fold ``finish += duration``. ``np.add.accumulate`` *is* that
        sequential left fold (ufunc accumulation is defined element-order
        sequential), so the vector path reproduces the scalar timestamps
        exactly — enforced by tests and the CI no-numpy leg. Results are
        converted back to Python floats so no numpy scalar ever leaks
        into event timestamps or JSON artifacts.
        """
        if count <= 0:
            return []
        duration = amount / self.rate
        start = max(now, self.next_free)
        first = start + duration
        if _np is not None and count >= self._BATCH_VECTOR_MIN:
            steps = _np.full(count, duration)
            steps[0] = first
            finishes = _np.add.accumulate(steps).tolist()
            busy = _np.full(count + 1, duration)
            busy[0] = self.busy_time
            self.busy_time = float(_np.add.accumulate(busy)[-1])
        else:
            finishes = []
            append = finishes.append
            finish = first
            busy_time = self.busy_time
            append(finish)
            busy_time += duration
            for _ in range(count - 1):
                finish = finish + duration
                append(finish)
                busy_time += duration
            self.busy_time = busy_time
        self.next_free = finishes[-1]
        self.jobs += count
        return finishes

    def backlog(self, now: float) -> float:
        """Seconds of queued work not yet completed."""
        return max(0.0, self.next_free - now)


class Network:
    """Routes messages between registered nodes with bandwidth + latency.

    Nodes register a delivery callback via :meth:`register`. The network
    owns three :class:`ResourceQueue` instances per node (LAN, WAN bulk,
    WAN priority) plus failure state (crashed nodes, partitioned groups).
    WAN caps apply to egress only, as on the paper's cloud clusters: a
    message's receive side is never serialized.
    """

    def __init__(
        self,
        sim: Simulator,
        rtt_matrix: Dict[Tuple[int, int], float],
        lan_bandwidth: float = DEFAULT_LAN_BANDWIDTH,
        wan_bandwidth: float = DEFAULT_WAN_BANDWIDTH,
        lan_latency: float = DEFAULT_LAN_LATENCY,
        wan_quality: Optional[LinkQuality] = None,
        lan_quality: Optional[LinkQuality] = None,
        rng: Optional[RngRegistry] = None,
    ) -> None:
        """``rtt_matrix`` maps unordered group pairs (i, j) with i < j to
        round-trip times in seconds; one-way latency is RTT/2."""
        self.sim = sim
        self.rtt_matrix = dict(rtt_matrix)
        self.lan_bandwidth = lan_bandwidth
        self.default_wan_bandwidth = wan_bandwidth
        self.lan_latency = lan_latency
        self.wan_quality = wan_quality or LinkQuality()
        self.lan_quality = lan_quality or LinkQuality()
        self.monitor = StatMonitor()
        self._rng = (rng or RngRegistry()).stream("network")
        self._next_msg_id = 1
        #: Optional observability tap (set by ``repro.obs.Tracer``): called
        #: as ``hook(msg, lane, tx_start, tx_done, deliver_at)`` for every
        #: unicast transmission; ``deliver_at`` is None when the message
        #: was lost on the wire. Stays None in untraced runs, so the hot
        #: path pays one identity check and zero allocations.
        self.transmit_hook: Optional[
            Callable[[Message, str, float, float, Optional[float]], None]
        ] = None

        self._handlers: Dict[NodeAddress, Callable[[Message], None]] = {}
        self._group_cache: Dict[int, List[NodeAddress]] = {}
        #: Per-group receiver lists (members minus a given sender),
        #: precomputed so the broadcast hot path never rescans membership.
        #: Keyed by group, then (sender, include_self); dropped wholesale
        #: for a group when its membership epoch bumps.
        self._receiver_cache: Dict[
            int, Dict[Tuple[NodeAddress, bool], List[NodeAddress]]
        ] = {}
        #: Bumped on every membership change (node registration or an
        #: explicit reconfiguration notice); lets callers cache routing
        #: derived from membership and invalidate precisely.
        self.membership_epoch = 0
        #: Memoized one-way latencies by ordered (src_group, dst_group).
        self._latency_cache: Dict[Tuple[int, int], float] = {}
        self._lan_up: Dict[NodeAddress, ResourceQueue] = {}
        self._wan_up: Dict[NodeAddress, ResourceQueue] = {}
        self._wan_ctl: Dict[NodeAddress, ResourceQueue] = {}
        #: Per crashed address, the event-order position at which it
        #: crashed (see was_down). A crash is permanent.
        self.crashed_at: Dict[NodeAddress, Tuple[float, int]] = {}
        self._partitioned_groups: set = set()

        # Traffic accounting (bytes), used by the Fig 10 experiment.
        self.wan_bytes_by_node: Dict[NodeAddress, int] = {}
        self.wan_bytes_total = 0
        self.lan_bytes_total = 0

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------

    def register(
        self,
        addr: NodeAddress,
        handler: Callable[[Message], None],
        wan_bandwidth: Optional[float] = None,
    ) -> None:
        """Attach a node; ``handler`` receives delivered messages."""
        if addr in self._handlers:
            raise ValueError(f"node {addr} already registered")
        wan = wan_bandwidth if wan_bandwidth is not None else self.default_wan_bandwidth
        self._handlers[addr] = handler
        members = self._group_cache.get(addr.group)
        if members is None:
            self._group_cache[addr.group] = [addr]
        else:
            # Incremental sorted insert: registering node k of a group is
            # O(group size), not a rescan of every registered node (the
            # old rebuild made 1000-node cluster setup quadratic).
            insort(members, addr)
        self.note_membership_change(addr.group)
        self._lan_up[addr] = ResourceQueue(f"{addr}.lan_up", self.lan_bandwidth)
        self._wan_up[addr] = ResourceQueue(f"{addr}.wan_up", wan)
        # Priority lane for small control messages (consensus votes,
        # commit notices): real stacks fair-share flows, so sub-KB control
        # traffic never sits behind half a second of bulk data.
        self._wan_ctl[addr] = ResourceQueue(f"{addr}.wan_ctl", wan)
        self.wan_bytes_by_node[addr] = 0

    def set_node_bandwidth(self, addr: NodeAddress, wan_bandwidth: float) -> None:
        """Change a node's WAN bandwidth (heterogeneous-bandwidth runs, Fig 14).

        Only affects messages submitted after the change.
        """
        self._require_registered(addr)
        self._wan_up[addr].rate = wan_bandwidth
        self._wan_ctl[addr].rate = wan_bandwidth

    def _members(self, group: int) -> List[NodeAddress]:
        """Sorted member list, maintained incrementally by register()."""
        members = self._group_cache.get(group)
        if members is None:
            members = self._group_cache[group] = sorted(
                a for a in self._handlers if a.group == group
            )
        return members

    def note_membership_change(self, group: int) -> None:
        """Invalidate routing caches for ``group`` and bump the epoch.

        Called on registration and by reconfiguration paths whenever a
        group's effective membership changes; anything caching receiver
        lists (here or in transports) keys its validity off
        :attr:`membership_epoch`.
        """
        self.membership_epoch += 1
        self._receiver_cache.pop(group, None)

    def _receivers(
        self, group: int, src: NodeAddress, include_self: bool
    ) -> List[NodeAddress]:
        """Precomputed broadcast receiver list (members minus the sender).

        Same order as scanning the sorted member list and skipping the
        sender, so message ids and delivery times are unchanged — the
        per-send linear scan is just gone.
        """
        by_sender = self._receiver_cache.get(group)
        if by_sender is None:
            by_sender = self._receiver_cache[group] = {}
        key = (src, include_self)
        receivers = by_sender.get(key)
        if receivers is None:
            receivers = by_sender[key] = [
                addr
                for addr in self._members(group)
                if include_self or addr != src
            ]
        return receivers

    def _require_registered(self, addr: NodeAddress) -> None:
        if addr not in self._handlers:
            raise KeyError(f"node {addr} is not registered")

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def crash_node(self, addr: NodeAddress) -> None:
        """Silently drop all traffic to/from ``addr`` from now on."""
        self._require_registered(addr)
        if addr not in self.crashed_at:
            self.crashed_at[addr] = self.sim.position

    def was_down(self, addr: NodeAddress, position: Tuple[float, int]) -> bool:
        """Whether ``addr`` was crashed at event-order ``position`` — what
        :meth:`_deliver` would have seen had it run there."""
        at = self.crashed_at.get(addr)
        return at is not None and position >= at

    def is_crashed(self, addr: NodeAddress) -> bool:
        return addr in self.crashed_at

    def partition_group(self, group: int) -> None:
        """Cut WAN connectivity for a group (its LAN keeps working)."""
        self._partitioned_groups.add(group)

    def heal_partition(self, group: int) -> None:
        self._partitioned_groups.discard(group)

    # ------------------------------------------------------------------
    # Latency model
    # ------------------------------------------------------------------

    def one_way_latency(self, src_group: int, dst_group: int) -> float:
        """One-way propagation delay between two groups (RTT/2).

        Memoized per ordered pair: the RTT matrix and LAN latency are
        fixed at construction, and this lookup sits on every WAN send.
        """
        latency = self._latency_cache.get((src_group, dst_group))
        if latency is None:
            if src_group == dst_group:
                latency = self.lan_latency
            else:
                key = (min(src_group, dst_group), max(src_group, dst_group))
                rtt = self.rtt_matrix.get(key)
                if rtt is None:
                    raise KeyError(f"no RTT configured for group pair {key}")
                latency = rtt / 2.0
            self._latency_cache[(src_group, dst_group)] = latency
        return latency

    # ------------------------------------------------------------------
    # Message transmission
    # ------------------------------------------------------------------

    def send(
        self,
        src: NodeAddress,
        dst: NodeAddress,
        payload: Any,
        size_bytes: int,
        priority: bool = False,
    ) -> Optional[Message]:
        """Transmit ``payload`` from ``src`` to ``dst``.

        Returns the in-flight :class:`Message`, or None if it was dropped at
        submission time (crashed sender). Losses on the wire still consume
        sender bandwidth, as in reality.
        """
        handlers = self._handlers
        if src not in handlers:
            raise KeyError(f"node {src} is not registered")
        if dst not in handlers:
            raise KeyError(f"node {dst} is not registered")
        if size_bytes < 0:
            raise ValueError("message size must be non-negative")
        if src in self.crashed_at:
            return None

        now = self.sim.now
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        msg = Message(src, dst, payload, size_bytes, msg_id, now)
        bits = size_bytes * 8

        if src.group == dst.group:
            quality = self.lan_quality
            lane_name = "lan_up"
            tx_start, tx_done = self._lan_up[src].acquire(now, bits)
            latency = self.lan_latency
            self.lan_bytes_total += size_bytes
            deliver_at = tx_done + latency
        else:
            quality = self.wan_quality
            if src.group in self._partitioned_groups or dst.group in self._partitioned_groups:
                return msg  # swallowed by the partition
            lane_name = "wan_ctl" if priority else "wan_up"
            lane = self._wan_ctl[src] if priority else self._wan_up[src]
            tx_start, tx_done = lane.acquire(now, bits)
            latency = self.one_way_latency(src.group, dst.group)
            self.wan_bytes_by_node[src] += size_bytes
            self.wan_bytes_total += size_bytes
            deliver_at = tx_done + latency

        dropped = False
        if quality.loss_probability > 0 and self._rng.random() < quality.loss_probability:
            self.monitor.counter("network.dropped").add()
            dropped = True
        elif quality.jitter > 0:
            deliver_at += self._rng.random() * quality.jitter

        if not dropped:
            self.sim.schedule_at_volatile(deliver_at, self._deliver, msg)
        if self.transmit_hook is not None:
            self.transmit_hook(
                msg, lane_name, tx_start, tx_done, None if dropped else deliver_at
            )
        return msg

    def broadcast_group(
        self,
        src: NodeAddress,
        group: int,
        payload: Any,
        size_bytes: int,
        include_self: bool = False,
        deliver_to: Optional[Collection[NodeAddress]] = None,
    ) -> int:
        """Send ``payload`` to every member of ``group``; returns fan-out.

        Intra-group broadcasts take a fast path that hoists the per-message
        queue/quality/latency lookups out of the loop: a LAN broadcast is one
        NIC serialization burst, not N independent ``send`` submissions. The
        per-destination ``ResourceQueue.acquire`` calls (and any loss/jitter
        RNG draws) still happen in the exact same order as N ``send`` calls,
        so delivery times stay bit-identical.

        ``deliver_to`` (intra-group only) names the receivers whose handler
        reads ``payload``. Every receiver is still charged — NIC time, LAN
        bytes, message ids, loss/jitter draws and event-order slots — but
        only those named get a delivery event, in the slot it would have
        had. For a payload the other members provably ignore, their
        arrivals are not events at all.
        """
        if src.group != group or src not in self._handlers:
            # Cross-group (or unregistered-sender error path): per-message
            # routing differs per destination, go through send().
            count = 0
            for addr in self._members(group):
                if addr == src and not include_self:
                    continue
                self.send(src, addr, payload, size_bytes)
                count += 1
            return count

        now = self.sim.now
        msg_id = self._next_msg_id
        receivers, arrivals = self.lan_burst(src, size_bytes, include_self)
        deliver = self._deliver
        if deliver_to is None:
            schedule_at = self.sim.schedule_at_volatile
            for addr, deliver_at in zip(receivers, arrivals):
                if deliver_at is not None:
                    schedule_at(
                        deliver_at,
                        deliver,
                        Message(src, addr, payload, size_bytes, msg_id, now),
                    )
                msg_id += 1
            return len(receivers)
        slot = self.sim.reserve_slots(len(arrivals) - arrivals.count(None))
        if not deliver_to:
            return len(receivers)
        for addr, deliver_at in zip(receivers, arrivals):
            if deliver_at is not None:
                if addr in deliver_to:
                    self.sim.schedule_reserved(
                        deliver_at,
                        slot,
                        deliver,
                        Message(src, addr, payload, size_bytes, msg_id, now),
                    )
                slot += 1
            msg_id += 1
        return len(receivers)

    def lan_burst(
        self, src: NodeAddress, size_bytes: int, include_self: bool = False
    ) -> Tuple[List[NodeAddress], Sequence[Optional[float]]]:
        """Time one LAN broadcast from ``src`` to its own group.

        Charges the sender's LAN NIC, the byte counter, one message id per
        receiver and the loss/jitter RNG exactly as N ``send`` calls would,
        and returns ``(receivers, arrival times)`` without scheduling
        anything: ``None`` for a message lost on the wire, no arrivals from
        a crashed sender. :meth:`broadcast_group` makes each arrival a
        delivery event; the chunk exchange reads the times instead.
        """
        if size_bytes < 0:
            raise ValueError("message size must be non-negative")
        receivers = self._receivers(src.group, src, include_self)
        if src in self.crashed_at:
            return receivers, ()
        now = self.sim.now
        bits = size_bytes * 8
        lan_queue = self._lan_up[src]
        latency = self.lan_latency
        loss_p = self.lan_quality.loss_probability
        jitter = self.lan_quality.jitter
        count = len(receivers)
        self._next_msg_id += count
        self.lan_bytes_total += size_bytes * count
        if loss_p == 0 and jitter == 0:
            # Deterministic drain: every receiver's NIC slot comes from one
            # batched (numpy when available) accumulate over the equal-size
            # bursts, bit-identical to the per-message acquire loop.
            return receivers, [
                tx_done + latency
                for tx_done in lan_queue.acquire_batch(now, bits, count)
            ]
        rng = self._rng
        arrivals: List[Optional[float]] = []
        for _ in receivers:
            _, tx_done = lan_queue.acquire(now, bits)
            deliver_at: Optional[float] = tx_done + latency
            if loss_p > 0 and rng.random() < loss_p:
                self.monitor.counter("network.dropped").add()
                deliver_at = None
            elif jitter > 0:
                deliver_at += rng.random() * jitter
            arrivals.append(deliver_at)
        return receivers, arrivals

    def send_fanout(
        self,
        src: NodeAddress,
        dsts: Sequence[NodeAddress],
        payload: Any,
        size_bytes: int,
        priority: bool = False,
    ) -> int:
        """Send one payload from ``src`` to every address in ``dsts``.

        The WAN fan-out hot path of the replication transports: when the
        drain is deterministic (no loss, no jitter, no transmit hook) and
        every destination is cross-group, the sender's NIC slots come from
        one :meth:`ResourceQueue.acquire_batch` instead of per-message
        acquires — bit-identical to the equivalent loop of :meth:`send`
        calls, including message-id allocation for
        destinations swallowed by a partition (which, exactly like
        ``send``, consume an id but no bandwidth). Anything stochastic or
        instrumented falls back to that loop. Returns the fan-out count.
        """
        wan = self.wan_quality
        handlers = self._handlers
        if (
            wan.loss_probability > 0
            or wan.jitter > 0
            or self.transmit_hook is not None
            or any(dst.group == src.group for dst in dsts)
        ):
            for dst in dsts:
                self.send(src, dst, payload, size_bytes, priority)
            return len(dsts)

        if src not in handlers:
            raise KeyError(f"node {src} is not registered")
        if size_bytes < 0:
            raise ValueError("message size must be non-negative")
        if src in self.crashed_at:
            return len(dsts)

        now = self.sim.now
        src_group = src.group
        partitioned = self._partitioned_groups
        src_part = src_group in partitioned
        msg_id = self._next_msg_id
        live: List[Message] = []
        for dst in dsts:
            if dst not in handlers:
                raise KeyError(f"node {dst} is not registered")
            msg = Message(src, dst, payload, size_bytes, msg_id, now)
            msg_id += 1
            if src_part or dst.group in partitioned:
                continue  # swallowed by the partition, id already burned
            live.append(msg)
        self._next_msg_id = msg_id
        if not live:
            return len(dsts)

        bits = size_bytes * 8
        queue = self._wan_ctl[src] if priority else self._wan_up[src]
        finishes = queue.acquire_batch(now, bits, len(live))
        sent_bytes = size_bytes * len(live)
        self.wan_bytes_by_node[src] += sent_bytes
        self.wan_bytes_total += sent_bytes
        latency_of = self.one_way_latency
        deliver = self._deliver
        schedule_at = self.sim.schedule_at_volatile
        for msg, tx_done in zip(live, finishes):
            schedule_at(
                tx_done + latency_of(src_group, msg.dst.group),
                deliver,
                msg,
            )
        return len(dsts)

    def _deliver(self, msg: Message) -> None:
        if msg.dst in self.crashed_at or msg.src in self.crashed_at:
            return
        handler = self._handlers.get(msg.dst)
        if handler is not None:
            handler(msg)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def nic_queues(self, addr: NodeAddress) -> Dict[str, ResourceQueue]:
        """The node's NIC serialization queues, by lane name.

        Telemetry samplers read backlog/rate/busy_time off these; the
        objects are live, not copies.
        """
        self._require_registered(addr)
        return {
            "wan_up": self._wan_up[addr],
            "wan_ctl": self._wan_ctl[addr],
            "lan_up": self._lan_up[addr],
        }

    def wan_backlog(self, addr: NodeAddress) -> float:
        return self._wan_up[addr].backlog(self.sim.now)

    def reset_traffic_accounting(self) -> None:
        """Zero the byte counters (used between warmup and measurement)."""
        self.wan_bytes_total = 0
        self.lan_bytes_total = 0
        for addr in self.wan_bytes_by_node:
            self.wan_bytes_by_node[addr] = 0
