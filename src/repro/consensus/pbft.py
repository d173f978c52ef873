"""Practical Byzantine Fault Tolerance (Castro & Liskov) for local consensus.

Two implementations share one observable contract ("entries commit in
sequence order on every correct group member, each with a 2f+1 quorum
certificate"):

* :class:`PbftReplica` — the full message-level protocol: pre-prepare /
  prepare / commit, view changes on leader failure, checkpoint-based log
  truncation, and the *prepare-skipping* mode used by the global accept
  phase (the receiving group does not need to agree on the input because
  the sender group already certified it — Section II-A, after Ziziphus).

* :class:`ModeledPbftGroup` — a calibrated aggregate model that produces
  the same commits with the same timing/traffic characteristics but one
  simulator event per entry (the commit at the leader, the only member
  that acts on it) instead of O(n^2) messages. Large-scale benchmark
  sweeps use it; correctness tests and the fault experiments use the full
  replica.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.consensus.messages import (
    Checkpoint,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.costs import CostModel
from repro.crypto.certificates import DeferredCertificate, QuorumCertificate
from repro.crypto.hashing import digest
from repro.crypto.keystore import KeyStore
from repro.sim.network import Message, NodeAddress
from repro.sim.node import SimNode

#: Callback invoked on each replica when a slot commits:
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


@dataclass
class PbftConfig:
    """Static configuration of one PBFT group instance."""

    members: Tuple[NodeAddress, ...]
    checkpoint_interval: int = 128
    view_change_timeout: float = 1.0
    #: Successive view changes without progress back off geometrically …
    view_change_backoff: float = 2.0
    #: … up to this cap (seconds, before jitter).
    view_change_timeout_max: float = 8.0
    #: Fractional jitter on backed-off timeouts, drawn from a per-replica
    #: seeded stream so replicas desynchronize instead of thrashing in
    #: lockstep under sustained leader loss. The *first* timeout of a
    #: round is exact (no jitter), so fault-free runs are unchanged.
    view_change_jitter: float = 0.1
    #: Label namespacing signatures when one node runs several instances.
    instance: str = "pbft"

    def __post_init__(self) -> None:
        if len(self.members) < 4:
            raise ValueError(
                f"PBFT needs n >= 4 members (3f+1, f >= 1), got {len(self.members)}"
            )
        self.members = tuple(sorted(self.members))

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def f(self) -> int:
        """Tolerated Byzantine members: floor((n-1)/3)."""
        return (self.n - 1) // 3

    @property
    def quorum(self) -> int:
        return 2 * self.f + 1

    def leader_of(self, view: int) -> NodeAddress:
        return self.members[view % self.n]


@dataclass
class _Slot:
    """Per-sequence-number consensus state."""

    seq: int
    view: int = 0
    pre_prepare: Optional[PrePrepare] = None
    value: Any = None
    value_digest: Optional[bytes] = None
    prepares: Dict[NodeAddress, Any] = field(default_factory=dict)
    commits: Dict[NodeAddress, Any] = field(default_factory=dict)
    prepared: bool = False
    committed: bool = False
    executed: bool = False


class PbftReplica:
    """One group member's full PBFT state machine.

    Attach one replica per node; the replica registers handlers on the
    node for the PBFT message types (namespaced per instance via the
    payload's ``instance`` check — one node may host several instances,
    e.g. entry consensus and accept consensus, distinguished by config).
    """

    def __init__(
        self,
        node: SimNode,
        config: PbftConfig,
        keystore: KeyStore,
        on_committed: CommitCallback,
        costs: Optional[CostModel] = None,
    ) -> None:
        if node.addr not in config.members:
            raise ValueError(f"{node.addr} is not a member of this PBFT group")
        self.node = node
        self.config = config
        self.keystore = keystore
        self.on_committed = on_committed
        self.costs = costs or CostModel()
        keystore.register(node.addr)

        self.view = 0
        self.next_seq = 0  # leader's next sequence number to assign
        self.last_executed = -1
        self.stable_checkpoint = -1
        self.slots: Dict[int, _Slot] = {}
        self._checkpoints: Dict[int, Dict[NodeAddress, bytes]] = {}
        self._executed_digests: List[bytes] = []

        self._in_view_change = False
        self._view_changes: Dict[int, Dict[NodeAddress, ViewChange]] = {}
        self._vc_timer = None
        #: Consecutive view changes without execution progress; indexes the
        #: exponential backoff schedule.
        self._vc_round = 0
        self._pending_view = 0
        # Jitter must be deterministic per (instance, replica) and stable
        # across processes: seed from a cryptographic digest, never from
        # hash() (PYTHONHASHSEED) or wall-clock state.
        seed_material = digest(f"vc:{config.instance}:{node.addr!r}".encode())
        self._vc_rng = random.Random(int.from_bytes(seed_material[:8], "big"))

        node.on(PrePrepare, self._on_pre_prepare_msg)
        node.on(Prepare, self._on_prepare_msg)
        node.on(Commit, self._on_commit_msg)
        node.on(Checkpoint, self._on_checkpoint_msg)
        node.on(ViewChange, self._on_view_change_msg)
        node.on(NewView, self._on_new_view_msg)

    # ------------------------------------------------------------------
    # Role helpers
    # ------------------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.config.leader_of(self.view) == self.node.addr

    @property
    def leader(self) -> NodeAddress:
        return self.config.leader_of(self.view)

    def _slot(self, seq: int) -> _Slot:
        slot = self.slots.get(seq)
        if slot is None:
            slot = _Slot(seq=seq)
            self.slots[seq] = slot
        return slot

    # ------------------------------------------------------------------
    # Normal case
    # ------------------------------------------------------------------

    def propose(self, value: Any, skip_prepare: bool = False) -> int:
        """Leader API: start consensus on ``value``; returns its sequence.

        ``skip_prepare`` runs the two-phase accept variant (pre-prepare +
        commit) used when the value is already certified externally.
        """
        if not self.is_leader:
            raise RuntimeError(
                f"{self.node.addr} is not the leader of view {self.view}"
            )
        if self._in_view_change:
            raise RuntimeError("cannot propose during a view change")
        seq = self.next_seq
        self.next_seq += 1
        pp = PrePrepare(
            view=self.view,
            seq=seq,
            digest=value_digest(value),
            value=value,
            skip_prepare=skip_prepare,
        )
        self.node.broadcast_local(pp, pp.size_bytes)
        self._accept_pre_prepare(pp)
        return seq

    def _on_pre_prepare_msg(self, msg: Message) -> None:
        pp: PrePrepare = msg.payload
        if pp.view != self.view or self._in_view_change:
            return
        if msg.src != self.leader:
            return  # only the leader of this view may pre-prepare
        if pp.seq <= self.stable_checkpoint:
            return
        slot = self._slot(pp.seq)
        if slot.value_digest is not None and slot.value_digest != pp.digest:
            # Equivocating leader: keep first, trigger a view change.
            self._start_view_change(self.view + 1)
            return
        # Validating the value costs CPU (tx signature verification).
        self.node.consume_cpu(
            self.costs.value_verify_seconds(pp.value),
            lambda: self._accept_pre_prepare(pp),
        )

    def _accept_pre_prepare(self, pp: PrePrepare) -> None:
        if pp.view != self.view or self._in_view_change:
            return
        slot = self._slot(pp.seq)
        if slot.pre_prepare is not None:
            return
        slot.pre_prepare = pp
        slot.view = pp.view
        slot.value = pp.value
        slot.value_digest = pp.digest
        self._arm_view_change_timer()
        if pp.skip_prepare:
            slot.prepared = True
            self._broadcast_commit(slot)
        else:
            if not self.is_leader:
                prepare = Prepare(
                    view=self.view,
                    seq=pp.seq,
                    digest=pp.digest,
                    sender=self.node.addr,
                    signature=self._sign("prepare", pp.seq, pp.digest),
                )
                self.node.broadcast_local(prepare, prepare.size_bytes)
                slot.prepares[self.node.addr] = prepare.signature
            self._check_prepared(slot)

    def _on_prepare_msg(self, msg: Message) -> None:
        prepare: Prepare = msg.payload
        if prepare.view != self.view or self._in_view_change:
            return
        if not self.keystore.verify_from(
            prepare.sender,
            self._statement("prepare", prepare.seq, prepare.digest),
            prepare.signature,
        ):
            return
        slot = self._slot(prepare.seq)
        if slot.value_digest is not None and slot.value_digest != prepare.digest:
            return
        slot.prepares[prepare.sender] = prepare.signature
        self._check_prepared(slot)

    def _check_prepared(self, slot: _Slot) -> None:
        if slot.prepared or slot.pre_prepare is None:
            return
        # The leader's pre-prepare counts as its prepare.
        votes = set(slot.prepares)
        votes.add(self.config.leader_of(slot.view))
        if len(votes) >= self.config.quorum:
            slot.prepared = True
            self._broadcast_commit(slot)

    def _broadcast_commit(self, slot: _Slot) -> None:
        commit = Commit(
            view=slot.view,
            seq=slot.seq,
            digest=slot.value_digest,
            sender=self.node.addr,
            signature=self._sign("commit", slot.seq, slot.value_digest),
        )
        self.node.broadcast_local(commit, commit.size_bytes)
        slot.commits[self.node.addr] = commit.signature
        self._check_committed(slot)

    def _on_commit_msg(self, msg: Message) -> None:
        commit: Commit = msg.payload
        if self._in_view_change:
            return
        if not self.keystore.verify_from(
            commit.sender,
            self._statement("commit", commit.seq, commit.digest),
            commit.signature,
        ):
            return
        slot = self._slot(commit.seq)
        if slot.value_digest is not None and slot.value_digest != commit.digest:
            return
        slot.commits[commit.sender] = commit.signature
        self._check_committed(slot)

    def _check_committed(self, slot: _Slot) -> None:
        if slot.committed or not slot.prepared or slot.pre_prepare is None:
            return
        if len(slot.commits) >= self.config.quorum:
            slot.committed = True
            self._execute_ready()

    def _execute_ready(self) -> None:
        """Deliver committed slots in sequence order."""
        while True:
            slot = self.slots.get(self.last_executed + 1)
            if slot is None or not slot.committed or slot.executed:
                break
            slot.executed = True
            self.last_executed = slot.seq
            self._executed_digests.append(slot.value_digest)
            cert = QuorumCertificate.assemble(
                self._statement("commit", slot.seq, slot.value_digest),
                dict(list(slot.commits.items())[: self.config.quorum]),
            )
            self._disarm_view_change_timer_if_idle()
            self.on_committed(slot.seq, slot.value, cert)
            if (slot.seq + 1) % self.config.checkpoint_interval == 0:
                self._emit_checkpoint(slot.seq)

    # ------------------------------------------------------------------
    # Checkpoints (log truncation)
    # ------------------------------------------------------------------

    def _state_digest(self) -> bytes:
        from repro.crypto.hashing import combine_digests

        return combine_digests(self._executed_digests[-1:] or [b""])

    def _emit_checkpoint(self, seq: int) -> None:
        cp = Checkpoint(
            seq=seq,
            state_digest=self._state_digest(),
            sender=self.node.addr,
            signature=self._sign("checkpoint", seq, self._state_digest()),
        )
        self.node.broadcast_local(cp, cp.size_bytes)
        self._record_checkpoint(cp)

    def _on_checkpoint_msg(self, msg: Message) -> None:
        cp: Checkpoint = msg.payload
        if not self.keystore.verify_from(
            cp.sender,
            self._statement("checkpoint", cp.seq, cp.state_digest),
            cp.signature,
        ):
            return
        self._record_checkpoint(cp)

    def _record_checkpoint(self, cp: Checkpoint) -> None:
        votes = self._checkpoints.setdefault(cp.seq, {})
        votes[cp.sender] = cp.state_digest
        if len(votes) >= self.config.quorum and cp.seq > self.stable_checkpoint:
            self.stable_checkpoint = cp.seq
            for seq in [s for s in self.slots if s <= cp.seq]:
                del self.slots[seq]
            for seq in [s for s in self._checkpoints if s <= cp.seq]:
                del self._checkpoints[seq]

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------

    def view_change_delay(self) -> float:
        """Current view-change timeout: exponential backoff plus jitter.

        Round 0 (no recent view change) is exactly
        ``view_change_timeout`` so fault-free timing is unchanged; each
        further round multiplies by ``view_change_backoff`` up to
        ``view_change_timeout_max``, then adds seeded multiplicative
        jitter so replicas spread out instead of re-suspecting the new
        leader in lockstep.
        """
        base = self.config.view_change_timeout * (
            self.config.view_change_backoff**self._vc_round
        )
        base = min(base, self.config.view_change_timeout_max)
        if self._vc_round == 0:
            return base
        return base * (1.0 + self.config.view_change_jitter * self._vc_rng.random())

    def _arm_view_change_timer(self) -> None:
        if self._vc_timer is None or not self._vc_timer.active:
            self._vc_timer = self.node.set_timer(
                self.view_change_delay(), self._on_progress_timeout
            )

    def _disarm_view_change_timer_if_idle(self) -> None:
        pending = any(
            not slot.committed and slot.pre_prepare is not None
            for slot in self.slots.values()
        )
        if not pending:
            # Execution progress: the backoff schedule starts over.
            self._vc_round = 0
            if self._vc_timer is not None and self._vc_timer.active:
                self._vc_timer.cancel()

    def _on_progress_timeout(self) -> None:
        pending = any(
            not slot.committed and slot.pre_prepare is not None
            for slot in self.slots.values()
        )
        if pending:
            self._start_view_change(self.view + 1)

    def suspect_leader(self) -> None:
        """External liveness hook: a client/protocol suspects the leader."""
        self._start_view_change(self.view + 1)

    def _start_view_change(self, new_view: int) -> None:
        if new_view <= self.view and not self._in_view_change:
            return
        if self._in_view_change and new_view <= self._pending_view:
            return  # already campaigning for this view or a later one
        self._in_view_change = True
        self._pending_view = new_view
        self._vc_round += 1
        # Escalation: if this view change itself stalls (the prospective
        # leader is also down), time out — with backoff — into view+1.
        if self._vc_timer is not None and self._vc_timer.active:
            self._vc_timer.cancel()
        self._vc_timer = self.node.set_timer(
            self.view_change_delay(), self._on_view_change_stalled
        )
        prepared_proofs = tuple(
            (slot.seq, slot.value_digest)
            for slot in sorted(self.slots.values(), key=lambda s: s.seq)
            if slot.prepared and not slot.committed and slot.value_digest
        )
        vc = ViewChange(
            new_view=new_view,
            last_stable_seq=self.stable_checkpoint,
            prepared=prepared_proofs,
            sender=self.node.addr,
            signature=self._sign("viewchange", new_view, b""),
        )
        self.node.broadcast_local(vc, vc.size_bytes)
        self._record_view_change(vc)

    def _on_view_change_msg(self, msg: Message) -> None:
        vc: ViewChange = msg.payload
        if vc.new_view <= self.view:
            return
        if not self.keystore.verify_from(
            vc.sender, self._statement("viewchange", vc.new_view, b""), vc.signature
        ):
            return
        self._record_view_change(vc)
        # Liveness rule: join a view change once f+1 members are in it.
        votes = self._view_changes.get(vc.new_view, {})
        if len(votes) > self.config.f and not self._in_view_change:
            self._start_view_change(vc.new_view)

    def _record_view_change(self, vc: ViewChange) -> None:
        votes = self._view_changes.setdefault(vc.new_view, {})
        votes[vc.sender] = vc
        if (
            len(votes) >= self.config.quorum
            and self.config.leader_of(vc.new_view) == self.node.addr
            and vc.new_view > self.view
        ):
            self._broadcast_new_view(vc.new_view, votes)

    def _broadcast_new_view(
        self, new_view: int, votes: Dict[NodeAddress, ViewChange]
    ) -> None:
        # Re-propose every prepared-but-uncommitted value this (new) leader
        # holds. Digests it lacks the value for would be state-transferred
        # in a real deployment; with 2f+1 honest view-change participants
        # the new leader prepared them too in all our scenarios.
        reproposals = []
        max_seq = self.stable_checkpoint
        prepared_seqs: Set[int] = set()
        for vc in votes.values():
            for seq, _ in vc.prepared:
                prepared_seqs.add(seq)
                max_seq = max(max_seq, seq)
        for seq in sorted(prepared_seqs):
            slot = self.slots.get(seq)
            if slot is not None and slot.value is not None and not slot.committed:
                reproposals.append(
                    PrePrepare(
                        view=new_view,
                        seq=seq,
                        digest=slot.value_digest,
                        value=slot.value,
                        skip_prepare=slot.pre_prepare.skip_prepare
                        if slot.pre_prepare
                        else False,
                    )
                )
        nv = NewView(
            new_view=new_view,
            view_changes=tuple(votes.values()),
            reproposals=tuple(reproposals),
        )
        self.node.broadcast_local(nv, nv.size_bytes)
        self._adopt_new_view(nv)

    def _on_new_view_msg(self, msg: Message) -> None:
        nv: NewView = msg.payload
        if nv.new_view <= self.view:
            return
        if msg.src != self.config.leader_of(nv.new_view):
            return
        if len({vc.sender for vc in nv.view_changes}) < self.config.quorum:
            return
        self._adopt_new_view(nv)

    def _on_view_change_stalled(self) -> None:
        if self._in_view_change:
            self._start_view_change(self._pending_view + 1)

    def _adopt_new_view(self, nv: NewView) -> None:
        self.view = nv.new_view
        self._in_view_change = False
        self._pending_view = nv.new_view
        self._vc_round = 0
        if self._vc_timer is not None and self._vc_timer.active:
            self._vc_timer.cancel()
        self._view_changes = {
            v: votes for v, votes in self._view_changes.items() if v > nv.new_view
        }
        # Reset per-slot votes gathered in prior views for uncommitted slots.
        max_seq = self.stable_checkpoint
        for slot in self.slots.values():
            max_seq = max(max_seq, slot.seq)
            if not slot.committed:
                slot.prepares.clear()
                slot.commits.clear()
                slot.prepared = False
                slot.pre_prepare = None
        self.next_seq = max_seq + 1
        for pp in nv.reproposals:
            self._accept_pre_prepare(pp)

    # ------------------------------------------------------------------
    # Signing helpers
    # ------------------------------------------------------------------

    def _statement(self, phase: str, seq: int, dig: bytes) -> bytes:
        return (
            f"{self.config.instance}:{phase}:{seq}:".encode("utf-8") + (dig or b"")
        )

    def _sign(self, phase: str, seq: int, dig: bytes):
        return self.keystore.sign_as(
            self.node.addr, self._statement(phase, seq, dig)
        )


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
