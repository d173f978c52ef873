"""Practical Byzantine Fault Tolerance (Castro & Liskov) for local consensus.

:class:`ModeledPbftGroup` is the local consensus every deployment runs:
a closed-form model of one group's PBFT round (Section II-A). It keeps
PBFT's observable contract -- entries commit in sequence order, each
with a 2f+1 quorum certificate, and the group stalls once more than f
members have crashed -- while costing O(n) work and one simulator event
per entry instead of O(n^2) messages. The leader's value push queues on
its LAN NIC and every member's verification on its CPU; prepare and
commit votes are billed to the LAN byte counter and as LAN delays, not
sent as messages. The *prepare-skipping* variant (``skip_prepare``) is
the global accept phase's: the receiving group need not agree on an
input the sender group already certified (after Ziziphus).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.costs import CostModel
from repro.crypto.certificates import DeferredCertificate, QuorumCertificate
from repro.crypto.hashing import digest
from repro.crypto.keystore import KeyStore
from repro.sim.network import NodeAddress
from repro.sim.node import SimNode

#: Callback invoked on a member when a round commits there:
#: ``fn(seq, value, certificate)``.
CommitCallback = Callable[[int, Any, QuorumCertificate], None]


def value_digest(value: Any) -> bytes:
    """Canonical digest of a proposable value."""
    explicit = getattr(value, "digest", None)
    if isinstance(explicit, bytes):
        return explicit
    if callable(explicit):
        return explicit()
    return digest(repr(value))


class _Round:
    """One :class:`ModeledPbftGroup` round still in flight: each member
    live at propose time, its commit instant, and the event-order slot
    its commit event takes (``first_slot + i`` for ``members[i]``)."""

    __slots__ = ("members", "times", "first_slot", "last", "delivered", "args")

    def __init__(
        self,
        members: List[SimNode],
        times: List[float],
        first_slot: int,
        args: Tuple[int, Any, DeferredCertificate],
    ) -> None:
        self.members = members
        self.times = times
        self.first_slot = first_slot
        self.last = max(times)
        #: Members whose commit event is scheduled (at most once each).
        self.delivered: Set[SimNode] = set()
        self.args = args


class ModeledPbftGroup:
    """Aggregate PBFT model: same commits, O(n) work and O(1) events per entry.

    The group is driven by :meth:`propose` (call on behalf of the current
    leader). Commit latency reproduces the three LAN phases:

    1. leader serializes n-1 copies of the value out of its LAN NIC, plus
       per-member CPU to verify the value;
    2. prepare round: n^2 small messages (accounted on the LAN byte
       counter), one LAN delay;
    3. commit round: same.

    Every live member has its own commit instant and pays its own CPU, but
    the commit is *delivered* only where it acts: at the group's leader
    (the representative, the only member whose commit callback does
    anything). Each live member's commit takes one event-order slot; the
    leader's commit fires in the leader's own slot. When leadership
    changes mid-round, the new leader's commit is scheduled in *its* own
    slot, if that instant is still ahead — so the commit fires exactly
    when and where the member would have acted had every member been
    given an event. Crashed members are skipped; if more than f members
    have crashed the group stalls (matching real PBFT liveness).
    """

    #: Wire size of a prepare/commit/small control message.
    SMALL_MSG = 128

    def __init__(
        self,
        nodes: List[SimNode],
        keystore: KeyStore,
        costs: Optional[CostModel] = None,
        instance: str = "pbft",
    ) -> None:
        if len(nodes) < 4:
            raise ValueError("PBFT needs at least 4 members")
        self.nodes = sorted(nodes, key=lambda n: n.addr)
        self.keystore = keystore
        self.costs = costs or CostModel()
        self.instance = instance
        self.sim = nodes[0].sim
        self.network = nodes[0].network
        self.leader_index = 0
        self.next_seq = 0
        #: Membership epoch stamped into certificates; the reconfiguration
        #: stage bumps this on every join/leave/leader move so validators
        #: judge each certificate against the view it was formed in.
        self.epoch = 0
        self._subscribers: Dict[NodeAddress, CommitCallback] = {}
        #: Rounds whose last commit instant has not passed, oldest first.
        self._rounds: Deque[_Round] = deque()
        for node in self.nodes:
            keystore.register(node.addr)
            node.cpu.rate = self.costs.cpu_cores

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def f(self) -> int:
        return (self.n - 1) // 3

    @property
    def quorum(self) -> int:
        return 2 * self.f + 1

    @property
    def leader(self) -> SimNode:
        return self.nodes[self.leader_index]

    def rotate_leader(self) -> None:
        """Advance leadership to the next live member (view change stand-in)."""
        for _ in range(self.n):
            self.leader_index = (self.leader_index + 1) % self.n
            if not self.leader.crashed:
                self._deliver_in_flight()
                return
        raise RuntimeError("no live member to lead the group")

    def set_leader(self, node: SimNode) -> None:
        """Move leadership to a specific member (deliberate re-placement)."""
        self.leader_index = self.nodes.index(node)
        self._deliver_in_flight()

    def add_member(self, node: SimNode) -> None:
        """Admit a caught-up joiner; quorum recomputes from the new size.

        The current leader keeps its role even if the joiner sorts ahead
        of it in address order.
        """
        if node in self.nodes:
            return
        leader = self.leader
        self.keystore.register(node.addr)
        node.cpu.rate = self.costs.cpu_cores
        self.nodes.append(node)
        self.nodes.sort(key=lambda n: n.addr)
        self.leader_index = self.nodes.index(leader)

    def remove_member(self, node: SimNode) -> None:
        """Retire a member. The group may shrink below the 3f+1 floor of
        construction; quorum recomputes and liveness degrades gracefully
        (``propose`` stalls only when live members drop below quorum)."""
        if node not in self.nodes:
            return
        leader = self.leader
        if leader is node:
            # Hand leadership to the next live member before departing.
            survivors = [n for n in self.nodes if n is not node]
            live = [n for n in survivors if not n.crashed]
            leader = (live or survivors or [node])[0]
        self.nodes.remove(node)
        self._subscribers.pop(node.addr, None)
        self.leader_index = self.nodes.index(leader) if self.nodes else 0
        if self.nodes:
            self._deliver_in_flight()

    def subscribe(self, addr: NodeAddress, callback: CommitCallback) -> None:
        """Register a per-node commit callback: it fires at the node's own
        commit instant of each round, if the node leads the group then."""
        self._subscribers[addr] = callback

    def live_members(self) -> List[SimNode]:
        return [n for n in self.nodes if not n.crashed]

    def propose(self, value: Any, skip_prepare: bool = False) -> Optional[int]:
        """Run one consensus instance; returns the sequence number.

        Returns None (stall) when liveness is lost (> f crashed members).
        """
        live = self.live_members()
        if len(live) < self.quorum:
            return None
        if self.leader.crashed:
            self.rotate_leader()
        leader = self.leader
        seq = self.next_seq
        self.next_seq += 1

        size = int(getattr(value, "size_bytes", 0) or self.SMALL_MSG)
        dig = value_digest(value)
        lan_latency = self.network.lan_latency
        lan_bw = self.network.lan_bandwidth
        now = self.sim.now

        # Phase 1: leader pushes the value to n-1 members over its LAN NIC.
        bits = size * 8 * (self.n - 1)
        _, tx_done = self.network._lan_up[leader.addr].acquire(now, bits)
        self.network.lan_bytes_total += size * (self.n - 1)
        arrive = tx_done + lan_latency

        # Every member verifies the value (tx signatures): CPU-queued work.
        verify = self.costs.value_verify_seconds(value)
        phases = 1 if skip_prepare else 2
        tail = phases * (lan_latency + self.SMALL_MSG * 8 / lan_bw)
        self.network.lan_bytes_total += phases * self.n * (self.n - 1) * self.SMALL_MSG

        cert = self._make_certificate(seq, dig)
        times = []
        for node in live:
            ready = arrive if node is not leader else now
            _, cpu_done = node.cpu.acquire(ready, verify)
            times.append(cpu_done + tail)
        round_ = _Round(
            live, times, self.sim.reserve_slots(len(live)), (seq, value, cert)
        )
        rounds = self._rounds
        while rounds and rounds[0].last < now:
            rounds.popleft()
        rounds.append(round_)
        self._schedule_commit(round_, leader)
        return seq

    def _deliver_in_flight(self) -> None:
        """Give a new leader the commits of the rounds still in flight."""
        leader = self.leader
        for round_ in self._rounds:
            self._schedule_commit(round_, leader)

    def _schedule_commit(self, round_: _Round, node: SimNode) -> None:
        """Schedule ``node``'s commit of ``round_`` at its own instant and
        in its own slot — unless already scheduled, the node was not live
        at propose time, or that ``(time, slot)`` has already passed."""
        if node in round_.delivered:
            return
        try:
            i = round_.members.index(node)
        except ValueError:
            return
        at, slot = round_.times[i], round_.first_slot + i
        if (at, slot) <= self.sim.position:
            return
        round_.delivered.add(node)
        self.sim.schedule_reserved(
            at, slot, self._deliver_commit, node, *round_.args
        )

    def _make_certificate(self, seq: int, dig: bytes) -> DeferredCertificate:
        statement = f"{self.instance}:commit:{seq}:".encode("utf-8") + dig
        return DeferredCertificate(
            self.keystore,
            statement,
            [node.addr for node in self.nodes[: self.quorum]],
            epoch=self.epoch,
        )

    def _deliver_commit(
        self, node: SimNode, seq: int, value: Any, cert: DeferredCertificate
    ) -> None:
        # A commit scheduled for a leader that has since lost the lead
        # (or crashed) is not delivered.
        if node.crashed or node is not self.leader:
            return
        callback = self._subscribers.get(node.addr)
        if callback is not None:
            callback(seq, value, cert)
