"""Inter-group log replication transports (Section IV).

Three strategies move a locally-committed entry from its proposing group
to every other group; all deliver the same event ("this node now holds
entry e, certificate-verified") but differ in who sends and how much:

* :class:`LeaderUnicastTransport` — the group leader sends a full entry
  copy to ``f+1`` nodes of each destination group (Baseline, GeoBFT,
  Steward, ISS; the GeoBFT optimisation of Section VI applied to all).
  The leader's upstream WAN NIC serializes every copy: the single-node
  bottleneck of Fig 1b/13a.

* :class:`BijectiveTransport` — ``f1+f2+1`` distinct senders each ship a
  full copy to a distinct receiver (Section IV-A; the BR ablation of
  Fig 12). No leader bottleneck, but still whole-entry redundancy.

* :class:`EncodedBijectiveTransport` — MassBFT's strategy (Section IV-B):
  every node sends only its transfer-plan share of Reed-Solomon chunks,
  each chunk carrying a Merkle proof; receivers exchange chunks over LAN
  and optimistically rebuild (Section IV-C).

Transports operate on *participant* objects
(``repro.protocols.runtime.GeoNode``) exposing ``gid``/``index`` plus
the SimNode messaging API, and call ``deliver(node, entry_id)`` exactly
once per (node, entry) when the entry is locally available and validated.

Coding modes: ``real`` erasure-codes the entry's actual payload bytes
(used by correctness tests, examples, and the fault experiments);
``simulated`` ships size-accurate placeholder chunks and counts them
(used by large throughput sweeps). Byzantine tampering is supported in
both modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.consensus.messages import HEADER_SIZE
from repro.core.entry import EntryId, LogEntry
from repro.core.rebuild import OptimisticRebuilder
from repro.core.transfer_plan import TransferPlan, generate_transfer_plan
from repro.costs import CostModel
from repro.crypto.hashing import digest
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.erasure.reed_solomon import ReedSolomonCodec
from repro.sim.network import Message, NodeAddress

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.node import SimNode

#: deliver(node, entry_id): the entry is now locally present & verified.
DeliverCallback = Callable[["SimNode", EntryId], None]
#: Entry lookup (the deployment's registry).
EntryLookup = Callable[[EntryId], LogEntry]

#: Default wire size of a quorum certificate (2f+1 signatures, n=7).
DEFAULT_CERT_SIZE = 6 * 72 + 32


# ----------------------------------------------------------------------
# Wire messages
# ----------------------------------------------------------------------


@dataclass
class EntryMessage:
    """A full entry copy with its certificate (leader/bijective sending)."""

    entry_id: EntryId
    entry_size: int
    cert_size: int
    genuine: bool = True  # False when a Byzantine sender shipped garbage

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE + self.entry_size + self.cert_size


@dataclass
class LocalEntryShare:
    """Intra-group forward of a received entry."""

    entry_id: EntryId
    entry_size: int
    cert_size: int
    genuine: bool = True

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE + self.entry_size + self.cert_size


@dataclass
class ChunkMessage:
    """One erasure-coded chunk crossing the WAN.

    ``data`` is the real chunk bytes in real-coding mode and ``b""`` in
    simulated mode (``data_size`` is authoritative for the wire either
    way). ``root`` identifies the encoding; ``genuine`` marks whether the
    chunk derives from the certified entry (simulated-mode stand-in for
    actually checking the rebuilt payload).
    """

    entry_id: EntryId
    root: bytes
    chunk_id: int
    data: bytes
    data_size: int
    proof: Optional[MerkleProof]
    n_data: int
    n_total: int
    cert_size: int  # 0 when the cert was already sent on this link
    genuine: bool = True

    @property
    def size_bytes(self) -> int:
        proof_size = self.proof.size_bytes if self.proof is not None else 48
        return HEADER_SIZE + self.data_size + proof_size + self.cert_size


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------


class _TransportBase:
    """State and helpers common to all three transports."""

    def __init__(
        self,
        members: Dict[int, List["SimNode"]],
        deliver: DeliverCallback,
        get_entry: EntryLookup,
        costs: Optional[CostModel] = None,
        cert_size: int = DEFAULT_CERT_SIZE,
    ) -> None:
        self.members = {gid: sorted(nodes, key=lambda n: n.addr) for gid, nodes in members.items()}
        self.deliver = deliver
        self.get_entry = get_entry
        self.costs = costs or CostModel()
        self.cert_size = cert_size
        #: (node addr, entry_id) pairs already delivered.
        self._delivered: Set[Tuple[object, EntryId]] = set()
        self.monitor_counters: Dict[str, int] = {}
        #: Cached destination-group route lists, one per source group.
        #: Invalidated on membership change (the epoch counts changes).
        self._route_cache: Dict[int, List[int]] = {}
        self.membership_epoch = 0

    def group_size(self, gid: int) -> int:
        return len(self.members[gid])

    # -- membership churn --------------------------------------------------

    def _attach_node_handlers(self, node: "SimNode") -> None:
        """Register this transport's message handlers on one node.

        Subclasses that registered handlers in ``__init__`` override this
        so nodes joining mid-run get the same wiring.
        """

    def add_member(self, gid: int, node: "SimNode") -> None:
        """Admit a node into ``gid``'s sender/receiver set mid-run.

        Transfer plans re-derive from group sizes (``plan_for`` caches by
        size), so the plan geometry follows membership automatically.
        """
        nodes = self.members[gid]
        if node in nodes:
            return
        nodes.append(node)
        nodes.sort(key=lambda n: n.addr)
        self.membership_epoch += 1
        self._route_cache.clear()
        self._attach_node_handlers(node)

    def remove_member(self, gid: int, node: "SimNode") -> None:
        """Retire a node: it stops sending and receiving shares."""
        try:
            self.members[gid].remove(node)
        except ValueError:
            pass
        else:
            self.membership_epoch += 1
            self._route_cache.clear()

    def faulty_bound(self, gid: int) -> int:
        return (self.group_size(gid) - 1) // 3

    def other_groups(self, gid: int) -> List[int]:
        routes = self._route_cache.get(gid)
        if routes is None:
            routes = [g for g in sorted(self.members) if g != gid]
            self._route_cache[gid] = routes
        return routes

    def _count(self, key: str, amount: int = 1) -> None:
        self.monitor_counters[key] = self.monitor_counters.get(key, 0) + amount

    def _deliver_once(self, node: "SimNode", entry_id: EntryId) -> None:
        key = (node.addr, entry_id)
        if key in self._delivered:
            return
        self._delivered.add(key)
        self.deliver(node, entry_id)

    def mark_origin_delivered(self, entry_id: EntryId) -> None:
        """Origin-group nodes hold the entry from local consensus."""
        gid = entry_id.gid
        for node in self.members[gid]:
            if not node.crashed:
                self._deliver_once(node, entry_id)


# ----------------------------------------------------------------------
# Leader unicast (Baseline / GeoBFT / Steward / ISS)
# ----------------------------------------------------------------------


class LeaderUnicastTransport(_TransportBase):
    """The group leader ships ``f+1`` full copies to each remote group."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for nodes in self.members.values():
            for node in nodes:
                self._attach_node_handlers(node)

    def _attach_node_handlers(self, node: "SimNode") -> None:
        node.on(EntryMessage, self._make_wan_handler(node))
        node.on(LocalEntryShare, self._make_local_handler(node))

    def replicate(
        self, entry: LogEntry, group_nodes: List["SimNode"], leader: "SimNode"
    ) -> None:
        """Called once per entry after local commit; only ``leader`` sends."""
        sender = leader
        self.mark_origin_delivered(entry.entry_id)
        # One payload object and one batched fan-out over every remote
        # receiver: the leader's NIC drains in a single accumulate instead
        # of per-copy acquires (same copy order, so same wire schedule).
        msg = EntryMessage(
            entry_id=entry.entry_id,
            entry_size=entry.size_bytes,
            cert_size=self.cert_size,
            genuine=not sender.byzantine,
        )
        targets = [
            receiver.addr
            for dst_gid in self.other_groups(entry.gid)
            for receiver in self.members[dst_gid][
                : self.faulty_bound(dst_gid) + 1
            ]
        ]
        if targets:
            sender.send_fanout(targets, msg, msg.size_bytes)
            self._count("wan_entry_copies", len(targets))

    def _make_wan_handler(self, node: "SimNode"):
        def handler(msg: Message) -> None:
            payload: EntryMessage = msg.payload
            if not payload.genuine:
                return  # certificate verification rejects garbage
            # Verify the certificate, then forward to the whole group.
            verify = self.costs.certificate_verify_seconds(
                2 * self.faulty_bound(node.addr.group) + 1
            )
            node.consume_cpu(verify, lambda: self._accept_and_share(node, payload))

        return handler

    def _accept_and_share(self, node: "SimNode", payload: EntryMessage) -> None:
        key = (node.addr, payload.entry_id)
        if key in self._delivered:
            return
        if node.byzantine:
            return  # a faulty receiver silently drops the entry
        share = LocalEntryShare(
            entry_id=payload.entry_id,
            entry_size=payload.entry_size,
            cert_size=payload.cert_size,
            genuine=payload.genuine,
        )
        node.broadcast_local(share, share.size_bytes)
        self._deliver_once(node, payload.entry_id)

    def _make_local_handler(self, node: "SimNode"):
        def handler(msg: Message) -> None:
            payload: LocalEntryShare = msg.payload
            if payload.genuine:
                self._deliver_once(node, payload.entry_id)

        return handler


# ----------------------------------------------------------------------
# Bijective full-copy (BR ablation, Section IV-A)
# ----------------------------------------------------------------------


class BijectiveTransport(LeaderUnicastTransport):
    """``f1+f2+1`` senders each ship one full copy to a distinct receiver.

    Reuses the unicast receive path (cert verify + local share); only the
    sending fan-out differs. When a group pair cannot field ``f1+f2+1``
    distinct pairs the plan clips to the smaller group (the partitioned
    bijective generalisation the paper cites, reduced to the case our
    topologies need).
    """

    def replicate(
        self, entry: LogEntry, group_nodes: List["SimNode"], leader: "SimNode"
    ) -> None:
        """Called once per entry; ``f1+f2+1`` members transmit independently."""
        self.mark_origin_delivered(entry.entry_id)
        src_gid = entry.gid
        f1 = self.faulty_bound(src_gid)
        # Group the (sender, receiver) pairs by sender so each sender's
        # copies drain its NIC in one batched fan-out. Per-sender copy
        # order (destination groups in route order) is unchanged, and the
        # senders' queues are independent, so the wire schedule is the
        # same as the per-pair loop.
        per_sender: List[Tuple["SimNode", List[NodeAddress]]] = []
        index_of: Dict[int, int] = {}
        for dst_gid in self.other_groups(src_gid):
            f2 = self.faulty_bound(dst_gid)
            pairs = min(
                f1 + f2 + 1, self.group_size(src_gid), self.group_size(dst_gid)
            )
            for k in range(pairs):
                sender = self.members[src_gid][k]
                receiver = self.members[dst_gid][k]
                if sender.crashed:
                    continue
                slot = index_of.get(k)
                if slot is None:
                    index_of[k] = len(per_sender)
                    per_sender.append((sender, [receiver.addr]))
                else:
                    per_sender[slot][1].append(receiver.addr)
        for sender, targets in per_sender:
            msg = EntryMessage(
                entry_id=entry.entry_id,
                entry_size=entry.size_bytes,
                cert_size=self.cert_size,
                genuine=not sender.byzantine,
            )
            sender.send_fanout(targets, msg, msg.size_bytes)
            self._count("wan_entry_copies", len(targets))


# ----------------------------------------------------------------------
# Encoded bijective (MassBFT, Section IV-B/IV-C)
# ----------------------------------------------------------------------


class EncodedBijectiveTransport(_TransportBase):
    """Erasure-coded chunk transfer along Algorithm 1 plans."""

    def __init__(
        self,
        members: Dict[int, List["SimNode"]],
        deliver: DeliverCallback,
        get_entry: EntryLookup,
        costs: Optional[CostModel] = None,
        cert_size: int = DEFAULT_CERT_SIZE,
        coding: str = "simulated",
    ) -> None:
        super().__init__(members, deliver, get_entry, costs, cert_size)
        if coding not in ("real", "simulated"):
            raise ValueError(f"unknown coding mode {coding!r}")
        self.coding = coding
        #: A sender further behind than this skips its (redundant) chunks
        #: — its contribution is covered by the parity budget, and real
        #: systems drop stale redundant data rather than queue forever.
        self.stale_send_backlog = 0.35
        self._plans: Dict[Tuple[int, int], TransferPlan] = {}
        self._codecs: Dict[Tuple[int, int], ReedSolomonCodec] = {}
        #: Receiver-side state, ``{entry_id: {node addr: inbox}}``: an
        #: inbox lives from the first chunk its node hears of until the
        #: entry is delivered to it, a row until its last inbox goes.
        self._inboxes: Dict[EntryId, Dict[NodeAddress, _Inbox]] = {}
        #: Every node ever attached: local exchange files into peers'
        #: inboxes instead of sending them messages.
        self._nodes: Dict[NodeAddress, "SimNode"] = {}
        for nodes in self.members.values():
            for node in nodes:
                self._attach_node_handlers(node)

    def _attach_node_handlers(self, node: "SimNode") -> None:
        node.on(ChunkMessage, lambda msg: self._ingest(node, msg.payload))
        self._nodes[node.addr] = node

    # -- plan/codec caches ------------------------------------------------

    def plan_for(self, src_gid: int, dst_gid: int) -> TransferPlan:
        key = (self.group_size(src_gid), self.group_size(dst_gid))
        plan = self._plans.get(key)
        if plan is None:
            plan = generate_transfer_plan(*key)
            self._plans[key] = plan
        return plan

    # -- sender side -------------------------------------------------------

    def replicate(
        self, entry: LogEntry, group_nodes: List["SimNode"], leader: "SimNode"
    ) -> None:
        """Called once per entry after local commit: every group member
        transmits its plan share to every destination group."""
        self.mark_origin_delivered(entry.entry_id)
        src_gid = entry.gid
        encode_cost = self.costs.encode_seconds(entry.size_bytes)
        for dst_gid in self.other_groups(src_gid):
            plan = self.plan_for(src_gid, dst_gid)
            chunk_size = max(1, -(-entry.size_bytes // plan.n_data))
            # Shared by this (entry, plan)'s senders; the first one that
            # really is Byzantine adds the tampered encoding.
            encodings = {True: self._encode(entry, plan.n_data, plan.n_total, True)}
            for sender in self.members[src_gid]:
                if sender.crashed:
                    continue
                sender.consume_cpu(
                    encode_cost,
                    self._make_send_share(
                        sender, entry, dst_gid, plan, chunk_size, encodings
                    ),
                )

    def _encode(self, entry: LogEntry, n_data: int, n_total: int, genuine: bool) -> Tuple:
        """``(chunks, Merkle tree)`` of the entry's payload — or of a
        tampered one — in real mode; ``(None, root)`` in simulated mode.

        Only the genuine encoding reads the payload, and it runs at
        replication, before any observer executes the entry. The
        tampered payload is derived from the digest alone, so it can be
        built after the entry released its payload."""
        if self.coding != "real":
            tag = b"root:" if genuine else b"tampered-root:"
            return None, digest(tag + entry.digest)
        payload = entry.payload if genuine else _tampered_payload(entry)
        chunks = self.codec_for_counts(n_data, n_total).encode(payload)
        return chunks, MerkleTree(chunks)

    def _make_send_share(
        self,
        sender: "SimNode",
        entry: LogEntry,
        dst_gid: int,
        plan: TransferPlan,
        chunk_size: int,
        encodings: Dict[bool, Tuple],
    ):
        def send_share() -> None:
            if sender.network.wan_backlog(sender.addr) > self.stale_send_backlog:
                self._count("chunks_skipped_stale")
                return
            genuine = not sender.byzantine
            # Plan positions are list positions, which coincide with
            # address indices only while membership is static. Re-resolve
            # at send time: a sender that left since encoding skips its
            # shares, and shares aimed past a shrunken destination are
            # dropped (the parity budget and the global-phase entry-push
            # retry absorb both — graceful degradation, not an error).
            src_members = self.members[sender.addr.group]
            if sender not in src_members:
                self._count("chunks_skipped_departed")
                return
            sender_index = src_members.index(sender)
            encoding = encodings.get(genuine)
            if encoding is None:
                encoding = encodings[genuine] = self._encode(
                    entry, plan.n_data, plan.n_total, genuine
                )
            chunks, tree = encoding
            cert_sent: Set[object] = set()
            receivers = self.members[dst_gid]
            for assignment in plan.chunks_sent_by(sender_index):
                if assignment.receiver >= len(receivers):
                    self._count("chunks_skipped_departed")
                    continue
                receiver = receivers[assignment.receiver]
                if chunks is not None:
                    data = chunks[assignment.chunk]
                    proof = tree.proof(assignment.chunk)
                    root = tree.root
                    size = len(data)
                else:
                    root = tree
                    data = b""
                    proof = None
                    size = chunk_size
                cert = 0 if receiver.addr in cert_sent else self.cert_size
                cert_sent.add(receiver.addr)
                msg = ChunkMessage(
                    entry_id=entry.entry_id,
                    root=root,
                    chunk_id=assignment.chunk,
                    data=data,
                    data_size=size,
                    proof=proof,
                    n_data=plan.n_data,
                    n_total=plan.n_total,
                    cert_size=cert,
                    genuine=genuine,
                )
                sender.send(receiver.addr, msg, msg.size_bytes)
                self._count("wan_chunks")

        return send_share

    # -- receiver side -----------------------------------------------------

    def _ingest(self, node: "SimNode", chunk: ChunkMessage) -> None:
        """A chunk arrived over the WAN: re-share it, then count it."""
        key = (node.addr, chunk.entry_id)
        if key in self._delivered:
            return
        if node.byzantine:
            # A faulty receiver floods tampered chunks locally instead of
            # forwarding what it received (Fig 15's attack).
            self._share_locally(node, self._tampered_version(chunk))
            return
        self._share_locally(node, chunk)
        row = self._inboxes.setdefault(chunk.entry_id, {})
        inbox = row.get(node.addr)
        if inbox is None:
            inbox = row[node.addr] = _Inbox(self._new_rebuild(chunk))
        # Peers' shares that landed before this chunk go in first.
        self._drain(node, inbox)
        if not inbox.done:
            self._apply(node, inbox, chunk)
        self._arm(node, inbox)

    def _tampered_version(self, chunk: ChunkMessage) -> ChunkMessage:
        chunks, tree = self._encode(
            self.get_entry(chunk.entry_id), chunk.n_data, chunk.n_total, False
        )
        if chunks is None:
            return replace(
                chunk, root=tree, data=b"", proof=None, cert_size=0, genuine=False
            )
        data = chunks[chunk.chunk_id]
        return replace(
            chunk,
            root=tree.root,
            data=data,
            data_size=len(data),
            proof=tree.proof(chunk.chunk_id),
            cert_size=0,
            genuine=False,
        )

    def _share_locally(self, node: "SimNode", chunk: ChunkMessage) -> None:
        """Intra-group exchange of a received chunk (Section IV-C): the
        LAN burst is charged like any broadcast, but its arrivals are filed
        in the peers' inboxes, each with the event-order slot its delivery
        event would have taken (DESIGN.md section 8, threshold inboxes)."""
        receivers, arrivals = node.network.lan_burst(
            node.addr, chunk.size_bytes - chunk.cert_size
        )
        if not arrivals:
            return
        slot = node.sim.reserve_slots(len(arrivals) - arrivals.count(None)) - 1
        sender = node.addr
        entry_id = chunk.entry_id
        nodes = self._nodes
        row = self._inboxes.setdefault(entry_id, {})
        for addr, at in zip(receivers, arrivals):
            if at is None:
                continue  # lost on the wire
            slot += 1
            inbox = row.get(addr)
            if inbox is None:
                # On the LAN but not (yet) a transport member, or it
                # already holds the entry.
                if addr not in nodes or (addr, entry_id) in self._delivered:
                    continue
                inbox = row[addr] = _Inbox(self._new_rebuild(chunk))
            elif inbox.done:
                continue
            inbox.pending.append((at, slot, sender, chunk))
            wake = inbox.wake
            if wake is None:
                if len(inbox.pending) >= inbox.need:
                    self._arm(nodes[addr], inbox)
            elif (at, slot) < (wake.time, wake.seq):
                self._arm(nodes[addr], inbox)
        if not row:
            del self._inboxes[entry_id]

    def _new_rebuild(self, chunk: ChunkMessage):
        if self.coding != "real":
            return _SimRebuildState(n_data=chunk.n_data)
        entry_id = chunk.entry_id
        header = f"entry:{entry_id.gid}:{entry_id.seq}:".encode("utf-8")

        def validator(payload: bytes) -> bool:
            return digest(header + payload) == self.get_entry(entry_id).digest

        return OptimisticRebuilder(
            self.codec_for_counts(chunk.n_data, chunk.n_total), validator
        )

    def codec_for_counts(self, n_data: int, n_total: int) -> ReedSolomonCodec:
        key = (n_data, n_total)
        codec = self._codecs.get(key)
        if codec is None:
            codec = ReedSolomonCodec(n_data, n_total - n_data)
            self._codecs[key] = codec
        return codec

    def _arm(self, node: "SimNode", inbox: "_Inbox") -> None:
        """Schedule the wake in the slot of the ``need``-th pending arrival:
        the fullest bucket lacks ``need`` chunks, so nothing can be rebuilt
        (or fail) sooner, whatever the arrivals carry. An armed wake only
        moves earlier; a stale early one drains, falls short and re-arms."""
        if inbox.done:
            return
        pending = inbox.pending
        need = inbox.need = inbox.rebuild.missing
        if len(pending) < need:
            return
        pending.sort()
        at, slot = pending[need - 1][:2]
        wake = inbox.wake
        if wake is not None:
            if (wake.time, wake.seq) <= (at, slot):
                return
            wake.cancel()
        inbox.wake = node.sim.schedule_reserved(at, slot, self._wake, node, inbox)

    def _wake(self, node: "SimNode", inbox: "_Inbox") -> None:
        inbox.wake = None
        self._drain(node, inbox)
        self._arm(node, inbox)

    def _drain(self, node: "SimNode", inbox: "_Inbox") -> None:
        """Feed the rebuild every arrival up to the executing event, in
        order; one counts iff neither end was crashed where it landed."""
        pending = inbox.pending
        if not pending:
            return
        pending.sort()
        now = node.sim.position
        network = node.network
        crashes = network.crashed_at
        receiver = node.addr
        taken = 0
        for at, slot, sender, chunk in pending:
            landed = (at, slot)
            if landed > now:
                break
            taken += 1
            if crashes and (
                network.was_down(receiver, landed)
                or network.was_down(sender, landed)
            ):
                continue
            self._apply(node, inbox, chunk)
            if inbox.done:
                return  # closed: nothing left pending
        del pending[:taken]

    def _apply(self, node: "SimNode", inbox: "_Inbox", chunk: ChunkMessage) -> str:
        """Feed one chunk to the rebuild; returns what happened."""
        entry_id = chunk.entry_id
        real = self.coding == "real"
        if real:
            result = inbox.rebuild.add_chunk(
                chunk.root, chunk.chunk_id, chunk.data, chunk.proof
            )
            outcome = result.status
        else:
            outcome = inbox.rebuild.add(chunk.root, chunk.chunk_id, chunk.genuine)
        if outcome == "rebuilt":
            inbox.close()  # whatever else arrives is a duplicate
            size = len(result.payload) if real else self.get_entry(entry_id).size_bytes
            node.consume_cpu(
                self.costs.rebuild_seconds(size),
                lambda: self._deliver_once(node, entry_id),
            )
        elif outcome == "failed":
            self._count("rebuild_failures")
        return outcome

    def _deliver_once(self, node: "SimNode", entry_id: EntryId) -> None:
        # The inbox dies with the rebuild, whichever path delivered first.
        row = self._inboxes.get(entry_id)
        if row is not None:
            inbox = row.pop(node.addr, None)
            if inbox is not None:
                inbox.close()
            if not row:
                del self._inboxes[entry_id]
        super()._deliver_once(node, entry_id)


#: What a Byzantine member prepends to the payload it pretends to ship.
_TAMPERED_TAG = b"tampered:"


def _tampered_payload(entry: LogEntry) -> bytes:
    """The bytes a Byzantine member encodes in place of ``entry``'s
    payload: the tag, then a fill derived from the entry's digest, as
    long as the payload. It reads only the digest and the payload size,
    so it can be built after the entry released its payload."""
    size = entry.payload_size
    fill = digest(_TAMPERED_TAG + entry.digest)
    return _TAMPERED_TAG + (fill * (size // len(fill) + 1))[:size]


class _Inbox:
    """One node's rebuild of one entry plus its threshold inbox: ``pending``
    holds the shares ``(time, order slot, sender, chunk)`` not yet fed to
    ``rebuild``; ``wake`` is the one event that will drain them."""

    __slots__ = ("rebuild", "need", "pending", "wake", "done")

    def __init__(self, rebuild) -> None:
        self.rebuild = rebuild
        self.need: int = rebuild.missing
        self.pending: List[Tuple[float, int, NodeAddress, ChunkMessage]] = []
        self.wake = None
        self.done = False

    def close(self) -> None:
        self.done = True
        self.pending.clear()
        if self.wake is not None:
            self.wake.cancel()
            self.wake = None


@dataclass
class _SimRebuildState:
    """Counting stand-in for :class:`OptimisticRebuilder` (simulated mode)."""

    n_data: int
    buckets: Dict[bytes, Set[int]] = field(default_factory=dict)
    blacklisted: Set[int] = field(default_factory=set)
    genuine_roots: Set[bytes] = field(default_factory=set)
    failed_roots: Set[bytes] = field(default_factory=set)
    done: bool = False

    @property
    def missing(self) -> int:
        """Chunks the fullest bucket still lacks."""
        return self.n_data - max(map(len, self.buckets.values()), default=0)

    def add(self, root: bytes, chunk_id: int, genuine: bool) -> str:
        if self.done:
            return "duplicate"
        if chunk_id in self.blacklisted or root in self.failed_roots:
            return "rejected"
        if genuine:
            self.genuine_roots.add(root)
        bucket = self.buckets.setdefault(root, set())
        if chunk_id in bucket:
            return "duplicate"
        bucket.add(chunk_id)
        if len(bucket) < self.n_data:
            return "pending"
        if root in self.genuine_roots:
            self.done = True
            return "rebuilt"
        self.failed_roots.add(root)
        self.blacklisted.update(bucket)
        bucket.clear()
        return "failed"
