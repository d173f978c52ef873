"""Global consensus phase: group-as-replica agreement across the WAN.

A :class:`GlobalPhase` is the per-group strategy object deciding what
happens after an entry commits locally. Three implementations cover the
paper's protocol space:

* :class:`RaftGlobalPhase` — MassBFT/Baseline/ISS/BR/EBR: ``n_g``
  parallel Raft instances (propose -> accept -> commit with accept- and
  commit-phase local PBFT rounds), VTS piggybacking, and crashed-group
  takeover (Section V-C, via :class:`TakeoverMixin`).
* :class:`DirectBroadcastPhase` — GeoBFT: availability *is* commitment;
  no global messages at all.
* :class:`SerialSlotPhase` — Steward: the Raft machinery gated by a
  deployment-wide :class:`SlotToken` so one global slot is in flight at
  a time, committed in slot order.

:meth:`~repro.protocols.runtime.deployment.GeoDeployment.make_global_phase`
picks one from the spec's ``global_consensus`` string; a new global
phase is a new string value and its branch there.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.entry import EntryId, LogEntry
from repro.core.global_raft import (
    GRAccept,
    GRCommit,
    GREntryPush,
    GRPropose,
    GRTakeoverRequest,
    GRTakeoverVote,
    GRTsAck,
    GRTsReplicate,
    InstanceState,
    LocalCommitNotice,
    LocalTsNotice,
    TsAssignment,
)
from repro.core.replication import DEFAULT_CERT_SIZE
from repro.protocols.runtime.events import EntryGloballyCommitted
from repro.protocols.runtime.ordering_exec import SequenceOrderer
from repro.protocols.runtime.slots import SlotToken
from repro.protocols.runtime.takeover import TakeoverMixin
from repro.protocols.runtime.values import AcceptValue, CommitValue

#: Seconds between flushes of an async instance's batched timestamp
#: replications.
TS_FLUSH_INTERVAL = 0.005


class GlobalPhase:
    """Interface every global consensus strategy implements (per group)."""

    def __init__(self, group) -> None:
        self.group = group
        self.deployment = group.deployment
        self.spec = group.spec
        self.sim = group.sim
        self.gid = group.gid
        self.instances: Dict[int, InstanceState] = {}

    # Wiring -----------------------------------------------------------
    def register_handlers(self, node) -> None:
        """Attach this phase's WAN message handlers to ``node``."""

    def install_timers(self, offset: float) -> None:
        """Register the phase's periodic work (flushes, liveness checks)."""

    # Hooks, in pipeline order ----------------------------------------
    def may_propose(self) -> bool:
        """Phase-specific admission (e.g. Steward's slot token)."""
        return True

    def on_entry_batched(self, entry: LogEntry) -> None:
        """A new entry formed at this group (pre local consensus)."""

    def on_local_entry_committed(self, node, entry: LogEntry) -> None:
        """Entry certified by local PBFT at the representative."""

    def on_entry_available(self, node, entry_id: EntryId) -> None:
        """Entry body present and verified at ``node``."""

    def on_accept_certified(self, node, value: AcceptValue) -> None:
        """The accept-phase local PBFT round completed."""

    def on_commit_certified(self, node, value: CommitValue) -> None:
        """The commit-phase local PBFT round completed."""


class DirectBroadcastPhase(GlobalPhase):
    """GeoBFT: no global consensus — replication is commitment."""

    def on_entry_available(self, node, entry_id: EntryId) -> None:
        # Having the entry is commitment; each node feeds its own
        # (round) orderer directly.
        node.on_global_commit(entry_id.gid, entry_id.seq)
        if entry_id.gid == self.gid:
            self.group.last_own_committed = max(
                self.group.last_own_committed, entry_id.seq
            )


class RaftGlobalPhase(TakeoverMixin, GlobalPhase):
    """The group-as-replica global Raft engine (Section V-A)."""

    def __init__(self, group) -> None:
        super().__init__(group)
        self.instances = {
            g: InstanceState(instance=g) for g in range(group.deployment.n_groups)
        }
        #: Append-only log of every assignment our clock made — the
        #: reliable stream body (assigner = self.gid). The stream is the
        #: *only* WAN path that applies assignment values: it delivers
        #: each assigner's values in creation order, which the orderer's
        #: lower-bound inference depends on. (A value arriving ahead of
        #: an older one — e.g. piggybacked on a propose — would raise
        #: bounds past the older value and poison its later assignment.)
        self.ts_log: List[TsAssignment] = []
        #: While leading takeovers: instance -> append-only log of
        #: assignments made on the crashed group's behalf.
        self.takeover_logs: Dict[int, List[TsAssignment]] = {}
        #: Own entries that committed before every live group accepted
        #: them: seq -> (groups missing the body, pushes remaining, time
        #: before which no push goes out — in-flight chunks get a grace
        #: period, and a late accept cancels the group's push entirely).
        self._repush: Dict[int, Tuple[List[int], int, float]] = {}
        #: Sender side: (assigner, peer gid) -> acked log index / high-water.
        self._stream_acked: Dict[Tuple[int, int], int] = {}
        self._pt_acked: Dict[Tuple[int, int], int] = {}
        #: Sender side go-back-N window: highest log index sent, when the
        #: oldest unacked batch went out, and when the high-water-only
        #: flush was last sent.
        self._stream_sent: Dict[Tuple[int, int], int] = {}
        self._stream_sent_at: Dict[Tuple[int, int], float] = {}
        self._pt_sent_at: Dict[Tuple[int, int], float] = {}
        #: Receiver side: (origin gid, assigner) -> applied log index.
        self._stream_applied: Dict[Tuple[int, int], int] = {}
        #: Receiver side: instance -> seq through which we have ensured
        #: our own clock element exists (catch-up for missed proposes).
        self._catchup_through: Dict[int, int] = {}
        #: Every assignment ever learned, by assigner: (gid, seq) -> ts.
        #: First value wins, mirroring the orderer's conflict policy.
        self.archive: Dict[int, Dict[Tuple[int, int], int]] = {}

    def register_handlers(self, node) -> None:
        node.on(GRPropose, lambda m, n=node: self.on_gr_propose(n, m))
        node.on(GRAccept, lambda m, n=node: self.on_gr_accept(n, m))
        node.on(GRCommit, lambda m, n=node: self.on_gr_commit(n, m))
        node.on(GRTsReplicate, lambda m, n=node: self.on_gr_ts_replicate(n, m))
        node.on(GRTsAck, lambda m, n=node: self.on_gr_ts_ack(n, m))
        node.on(GREntryPush, lambda m, n=node: self.on_gr_entry_push(n, m))
        node.on(
            GRTakeoverRequest, lambda m, n=node: self.on_takeover_request(n, m)
        )
        node.on(GRTakeoverVote, lambda m, n=node: self.on_takeover_vote(n, m))

    def install_timers(self, offset: float) -> None:
        if self.spec.ordering != "async":
            return
        deployment = self.deployment
        deployment.sim.set_timer(
            TS_FLUSH_INTERVAL + offset,
            self.flush_ts_outbox,
            interval=TS_FLUSH_INTERVAL,
        )
        deployment.sim.set_timer(
            0.25 + offset, self.check_instance_liveness, interval=0.25
        )

    # ------------------------------------------------------------------
    # Proposer side: initiate global consensus on our own instance
    # ------------------------------------------------------------------

    def commit_quorum(self) -> int:
        """Accepting groups required to commit globally (f_g + 1).

        ``spec.unsafe_commit_quorum`` (test-only, see
        :class:`~repro.protocols.runtime.spec.ProtocolSpec`) overrides it
        so the ``repro.check`` subsystem can demonstrate that weakening
        the quorum loses committed entries under group crashes.
        """
        if self.spec.unsafe_commit_quorum is not None:
            return self.spec.unsafe_commit_quorum
        return self.deployment.f_g + 1

    def on_local_entry_committed(self, node, entry: LogEntry) -> None:
        state = self.instances[self.gid]
        out = state.outstanding_entry(entry.seq)
        out.accepts.add(self.gid)
        out.proposed_at = self.sim.now
        propose = GRPropose(
            instance=self.gid,
            seq=entry.seq,
            digest=entry.digest,
            entry_size=entry.size_bytes,
            tx_count=entry.tx_count,
            cert_size=DEFAULT_CERT_SIZE,
        )
        for gid in self.deployment.other_groups(self.gid):
            rep = self.deployment.groups[gid].rep
            node.send(rep.addr, propose, propose.size_bytes, priority=True)
        # If we lead a takeover, our own entries also need the crashed
        # group's element assigned on its behalf.
        self._takeover_assign(node, self.gid, entry.seq)
        # With the stock quorum (f_g + 1) our own accept never suffices;
        # a weakened quorum of 1 commits here, before any peer holds the
        # entry — exactly the bug repro.check exists to catch.
        self._maybe_commit_own(node, entry.seq)

    def on_entry_available(self, node, entry_id: EntryId) -> None:
        if entry_id.gid != self.gid and self.group.is_rep(node):
            state = self.instances[entry_id.gid]
            if entry_id.seq <= state.committed_through:
                return  # pushed body of an already-committed entry
            slot = state.slot(entry_id.seq)
            self._try_accept(node, entry_id.gid, slot)

    # ------------------------------------------------------------------
    # Follower side
    # ------------------------------------------------------------------

    def on_gr_propose(self, node, msg) -> None:
        propose: GRPropose = msg.payload
        if not self.group.is_rep(node) or node.crashed:
            return
        state = self.instances[propose.instance]
        state.last_heard = self.sim.now
        state.frozen_clock = max(state.frozen_clock, propose.seq)
        if propose.seq <= state.committed_through:
            return  # retransmission of an already-committed entry
        slot = state.slot(propose.seq)
        if slot.propose_received and slot.accept_sent:
            # Retried propose for an entry we accepted long ago: our
            # accept must have been lost (accepts are otherwise sent
            # exactly once). Resend it, or the origin's commit — and,
            # through the in-order gate, its whole instance — would hang.
            self._send_accept(node, propose.instance, slot.seq, slot.ts)
            return
        slot.propose_received = True
        if self.spec.ordering == "async" and slot.ts is None and self.spec.overlap_vts:
            self._assign_ts(node, state, slot, propose.instance)
        # A takeover leader also assigns the crashed group's element.
        self._takeover_assign(node, propose.instance, propose.seq)
        self._try_accept(node, propose.instance, slot)

    def _assign_ts(self, node, state, slot, instance: int) -> None:
        # Idempotent across slot lifetimes: a retransmitted propose (or a
        # late accept) for an entry we already stamped — possibly through
        # a since-popped slot or the catch-up path — must reuse the first
        # value; a second clock read here would be a conflicting real
        # assignment, which forks the deterministic order.
        existing = self.archive.get(self.gid, {}).get((instance, slot.seq))
        if existing is not None:
            slot.ts = existing
            return
        slot.ts = self.group.clock.read()
        self._record_own_assignment(node, instance, slot.seq, slot.ts)

    def _record_own_assignment(
        self, node, instance: int, seq: int, ts: int
    ) -> None:
        """Register one assignment by our clock: append it to the reliable
        stream log (the clock is monotonic, so the log is ts-ordered) and
        share it with our own group."""
        self.ts_log.append((instance, seq, ts))
        self._notify_ts(node, [(self.gid, instance, seq, ts)])

    def _try_accept(self, node, instance: int, slot) -> None:
        if slot.accept_pbft_started or not slot.propose_received:
            return
        entry_id = EntryId(instance, slot.seq)
        if entry_id not in node.available_entries:
            return
        if slot.ts is None:
            if self.spec.ordering == "async":
                self._assign_ts(node, self.instances[instance], slot, instance)
            else:
                slot.ts = 0
        slot.accept_pbft_started = True
        # The accept itself reaches local PBFT consensus (prepare skipped:
        # the value is already certified by the sender group).
        self.group.local.certify(
            AcceptValue(instance=instance, seq=slot.seq, ts=slot.ts)
        )

    def on_accept_certified(self, node, value: AcceptValue) -> None:
        if not self.group.is_rep(node):
            return
        slot = self.instances[value.instance].slot(value.seq)
        slot.accept_sent = True
        self._send_accept(node, value.instance, value.seq, value.ts)

    def _send_accept(self, node, instance: int, seq: int, ts: int) -> None:
        deployment = self.deployment
        accept = GRAccept(
            instance=instance,
            seq=seq,
            from_gid=self.gid,
            ts=ts,
            cert_size=DEFAULT_CERT_SIZE,
        )
        if self.spec.ordering == "async":
            # MassBFT broadcasts accepts to every representative: the
            # slow-receiver notification and the VTS replication vehicle.
            for gid in deployment.other_groups(self.gid):
                rep = deployment.groups[gid].rep
                node.send(rep.addr, accept, accept.size_bytes, priority=True)
        else:
            owner = deployment.groups[instance]
            node.send(owner.rep.addr, accept, accept.size_bytes, priority=True)

    # ------------------------------------------------------------------
    # Leader side
    # ------------------------------------------------------------------

    def on_gr_accept(self, node, msg) -> None:
        accept: GRAccept = msg.payload
        if not self.group.is_rep(node) or node.crashed:
            return
        state = self.instances[accept.instance]
        if accept.instance == self.gid:
            # An accept — even one arriving after commit — proves the
            # group holds the body: cancel any pending repush to it.
            pending = self._repush.get(accept.seq)
            if pending is not None and accept.from_gid in pending[0]:
                missing = [g for g in pending[0] if g != accept.from_gid]
                if missing:
                    self._repush[accept.seq] = (missing, pending[1], pending[2])
                else:
                    del self._repush[accept.seq]
        if accept.seq <= state.committed_through:
            return  # late accept for an already-committed entry
        if accept.instance == self.gid:
            out = state.outstanding_entry(accept.seq)
            out.accepts.add(accept.from_gid)
            self._maybe_commit_own(node, accept.seq)
        else:
            # Accept broadcast from a sibling follower (slow-receiver
            # path): after f_g+1 accepts we may assign our clock even
            # without holding the entry yet.
            slot = state.slot(accept.seq)
            slot.propose_received = True
            state.last_heard = self.sim.now
            if (
                self.spec.ordering == "async"
                and slot.ts is None
                and self.spec.overlap_vts
            ):
                self._assign_ts(node, state, slot, accept.instance)
            self._try_accept(node, accept.instance, slot)

    def _maybe_commit_own(self, node, seq: int) -> None:
        """Note the accept quorum and start any commit rounds now ready."""
        state = self.instances[self.gid]
        out = state.outstanding_entry(seq)
        if len(out.accepts) >= self.commit_quorum():
            out.quorum_reached = True
        self._start_ready_commits(node)

    def _start_ready_commits(self, node) -> None:
        """Start commit-phase PBFT rounds in strict sequence order.

        Raft prefix-commit: an entry's commit round may not start while a
        lower seq still lacks its accept quorum. Without the gate,
        entries proposed after a partition heals would commit while the
        partition-window entries are still being re-replicated, making
        ``committed_through`` (and the stream's ``safe_through``) a lying
        high-water over an uncommitted gap.
        """
        state = self.instances[self.gid]
        for seq in sorted(state.outstanding):
            out = state.outstanding[seq]
            if out.commit_pbft_started:
                continue
            if not out.quorum_reached:
                break
            out.commit_pbft_started = True
            entry_id = EntryId(self.gid, seq)
            self.group.local.certify(
                CommitValue(
                    instance=self.gid,
                    seq=seq,
                    slot=self._slot_of(entry_id),
                )
            )

    def on_commit_certified(self, node, value: CommitValue) -> None:
        if not self.group.is_rep(node):
            return
        commit = GRCommit(
            instance=value.instance, seq=value.seq, cert_size=DEFAULT_CERT_SIZE
        )
        for gid in self.deployment.other_groups(self.gid):
            rep = self.deployment.groups[gid].rep
            node.send(rep.addr, commit, commit.size_bytes, priority=True)
        self._handle_commit(node, value.instance, value.seq, value.slot)

    def on_gr_commit(self, node, msg) -> None:
        commit: GRCommit = msg.payload
        if not self.group.is_rep(node) or node.crashed:
            return
        self.instances[commit.instance].last_heard = self.sim.now
        slot = self._slot_of(EntryId(commit.instance, commit.seq))
        self._handle_commit(node, commit.instance, commit.seq, slot)

    def _handle_commit(self, node, instance: int, seq: int, slot: int) -> None:
        group = self.group
        state = self.instances[instance]
        state.committed_through = max(state.committed_through, seq)
        entry_id = EntryId(instance, seq)
        if instance == self.gid:
            # Our own entry completed consensus: advance our clock.
            group.clock.advance_to(seq)
            group.last_own_committed = max(group.last_own_committed, seq)
            self.deployment.bus.publish(
                EntryGloballyCommitted(entry_id, self.sim.now)
            )
            # Quorum reached without every group: keep pushing the body
            # to the stragglers for a while so their observers can still
            # order past this entry once their partition heals. Grace
            # period first — in a healthy run the last group's chunks and
            # accept are merely in flight (commit needs only f_g+1), and
            # its accept cancels the push before anything is sent.
            out = state.outstanding.get(seq)
            if out is not None and self.spec.ordering == "async":
                missing = [
                    g
                    for g in self.deployment.other_groups(self.gid)
                    if g not in out.accepts
                ]
                if missing:
                    self._repush[seq] = (
                        missing, 6, self.sim.now + self.REPLICATION_RETRY
                    )
        state.outstanding.pop(seq, None)
        state.slots.pop(seq, None)
        self._on_slot_committed(slot)
        # Notify group members (round ordering feeds on this).
        notice = LocalCommitNotice(gid=instance, seq=seq)
        node.broadcast_local(
            notice, notice.size_bytes, deliver_to=self.group.commit_readers
        )
        self._local_commit_at(node, instance, seq, slot)

    def _local_commit_at(self, node, instance: int, seq: int, slot: int) -> None:
        if isinstance(node.orderer, SequenceOrderer) and slot >= 0:
            node.orderer.deliver(slot, EntryId(instance, seq))
        else:
            node.on_global_commit(instance, seq)

    # ------------------------------------------------------------------
    # Entry-body retransmission (reconciliation fallback, Section V-C)
    # ------------------------------------------------------------------

    #: How long an outstanding propose may go unaccepted by a live group
    #: before the full entry is pushed to it. Comfortably above a healthy
    #: WAN round trip plus the accept-phase PBFT round, so the path only
    #: fires when chunks were actually lost (crash or partition).
    REPLICATION_RETRY = 0.5

    def check_instance_liveness(self) -> None:
        super().check_instance_liveness()
        self._retry_replication()

    def _retry_replication(self) -> None:
        """Re-propose and push the full entry to live groups that still
        have not accepted an old outstanding proposal.

        The replication transports are fire-and-forget: chunks swallowed
        by a partition are never resent, leaving the entry unavailable at
        the receiver — which both stalls the global round (no accept) and,
        once VTS catch-up completes the entry's timestamp, wedges
        Algorithm 2 at every observer behind an unfetchable global
        minimum. The origin knows exactly which groups are lagging
        (``OutstandingEntry.accepts``), so it periodically retries them
        with the whole body.
        """
        if self.group.crashed or self.spec.ordering != "async":
            return
        node = self.group.rep
        deployment = self.deployment
        now = self.sim.now
        state = self.instances[self.gid]
        for seq in sorted(state.outstanding):
            out = state.outstanding[seq]
            if out.commit_pbft_started or out.proposed_at <= 0.0:
                continue
            if now - out.proposed_at < self.REPLICATION_RETRY:
                continue
            entry = deployment.entries.get(EntryId(self.gid, seq))
            if entry is None:
                continue
            laggards = [
                g
                for g in deployment.other_groups(self.gid)
                if g not in out.accepts and not deployment.groups[g].crashed
            ]
            if not laggards:
                continue
            out.proposed_at = now  # back off until the next interval
            propose = GRPropose(
                instance=self.gid,
                seq=seq,
                digest=entry.digest,
                entry_size=entry.size_bytes,
                tx_count=entry.tx_count,
                cert_size=DEFAULT_CERT_SIZE,
            )
            push = GREntryPush(
                instance=self.gid,
                seq=seq,
                entry_size=entry.size_bytes,
                cert_size=DEFAULT_CERT_SIZE,
            )
            for g in laggards:
                rep = deployment.groups[g].rep
                node.send(rep.addr, propose, propose.size_bytes, priority=True)
                node.send(rep.addr, push, push.size_bytes)
        # Already-committed entries some live group still lacks: a few
        # more pushes (bounded — the receiver cannot ack them) so a
        # healed partition leaves no observer wedged on a missing body.
        for seq in sorted(self._repush):
            missing, remaining, due = self._repush[seq]
            entry = deployment.entries.get(EntryId(self.gid, seq))
            live = [g for g in missing if not deployment.groups[g].crashed]
            if entry is None or not live or remaining <= 0:
                del self._repush[seq]
                continue
            if now < due:
                continue
            self._repush[seq] = (missing, remaining - 1, due)
            push = GREntryPush(
                instance=self.gid,
                seq=seq,
                entry_size=entry.size_bytes,
                cert_size=DEFAULT_CERT_SIZE,
            )
            for g in live:
                node.send(deployment.groups[g].rep.addr, push, push.size_bytes)

    def on_gr_entry_push(self, node, msg) -> None:
        push: GREntryPush = msg.payload
        if node.crashed:
            return
        entry_id = EntryId(push.instance, push.seq)
        if msg.src.group != self.gid and self.group.is_rep(node):
            # Relay the body over the LAN so every member — not just the
            # representative — regains availability for ordering.
            node.broadcast_local(push, push.size_bytes)
        if entry_id not in node.available_entries:
            node.on_entry_available(entry_id)

    # Serial-slot hooks (no-ops for plain Raft) ------------------------

    def _slot_of(self, entry_id: EntryId) -> int:
        return -1

    def _on_slot_committed(self, slot: int) -> None:
        pass

    # ------------------------------------------------------------------
    # Timestamp distribution
    # ------------------------------------------------------------------

    def _notify_ts(self, node, assignments: List[Tuple[int, int, int, int]]) -> None:
        """Share VTS assignments with all group members (LAN) + self."""
        if self.spec.ordering != "async":
            return
        for assigner, g, s, t in assignments:
            self.archive.setdefault(assigner, {}).setdefault((g, s), t)
        notice = LocalTsNotice(assignments=tuple(assignments))
        node.broadcast_local(
            notice, notice.size_bytes, deliver_to=self.group.ts_readers
        )
        node.apply_ts_assignments(notice.assignments)

    def _streams(self) -> List[Tuple[int, List[TsAssignment], int]]:
        """(assigner, log, committed high-water) per stream we send."""
        streams = [(self.gid, self.ts_log, self.instances[self.gid].committed_through)]
        for instance, log in self.takeover_logs.items():
            streams.append((instance, log, self.instances[instance].committed_through))
        return streams

    #: Go-back-N retransmission timeout — comfortably above a WAN round
    #: trip, so in the healthy case each assignment crosses the wire once.
    STREAM_RETRANSMIT = 0.15

    def flush_ts_outbox(self) -> None:
        """Periodic flush: drive every assignment stream's send window.

        Each flush ships the log suffix not yet sent; the suffix past the
        receiver's last acknowledged index is retransmitted (go-back-N)
        only after :data:`STREAM_RETRANSMIT` without progress, so batches
        lost to a WAN partition go out again and every live
        representative eventually converges on the same assignment set
        (the property the deterministic orderers need for agreement) —
        without re-sending the whole in-flight window every 5 ms.
        """
        if self.group.crashed or self.spec.ordering != "async":
            return
        node = self.group.rep
        deployment = self.deployment
        now = self.sim.now
        streams = self._streams()
        for gid in deployment.other_groups(self.gid):
            if deployment.groups[gid].crashed:
                continue
            rep = deployment.groups[gid].rep
            for assigner, log, safe_through in streams:
                key = (assigner, gid)
                acked = self._stream_acked.get(key, 0)
                sent = max(acked, self._stream_sent.get(key, 0))
                if (
                    acked < sent
                    and now - self._stream_sent_at.get(key, now)
                    >= self.STREAM_RETRANSMIT
                ):
                    sent = acked  # in-flight window presumed lost
                tail = log[sent:]
                if not tail:
                    # Nothing new: refresh the committed high-water alone,
                    # rate-limited — it only has to outrun partitions.
                    if (
                        safe_through <= self._pt_acked.get(key, 0)
                        or now - self._pt_sent_at.get(key, -1.0)
                        < self.STREAM_RETRANSMIT
                    ):
                        continue
                if sent == acked:
                    self._stream_sent_at[key] = now
                self._stream_sent[key] = sent + len(tail)
                self._pt_sent_at[key] = now
                flush = GRTsReplicate(
                    assigner=assigner,
                    assignments=tuple(tail),
                    origin=self.gid,
                    start_index=sent,
                    safe_through=safe_through,
                )
                node.send(rep.addr, flush, flush.size_bytes, priority=True)

    def on_gr_ts_replicate(self, node, msg) -> None:
        flush: GRTsReplicate = msg.payload
        if not self.group.is_rep(node) or node.crashed:
            return
        deployment = self.deployment
        if flush.assigner < deployment.n_groups:
            state = self.instances[flush.assigner]
            if flush.origin == flush.assigner:
                state.last_heard = self.sim.now
            state.frozen_clock = max(state.frozen_clock, flush.safe_through)
        key = (flush.origin, flush.assigner)
        applied = self._stream_applied.get(key, 0)
        if flush.start_index > applied:
            # A gap means an older batch is still in flight or lost; the
            # sender retransmits from our last ack, so just wait for it.
            return
        fresh = flush.assignments[applied - flush.start_index :]
        if fresh:
            self._notify_ts(
                node, [(flush.assigner, g, s, t) for (g, s, t) in fresh]
            )
        self._stream_applied[key] = max(
            applied, flush.start_index + len(flush.assignments)
        )
        self._catch_up(node, flush.assigner, flush.safe_through)
        origin_group = deployment.groups.get(flush.origin)
        if origin_group is not None and not origin_group.crashed:
            ack = GRTsAck(
                assigner=flush.assigner,
                origin=flush.origin,
                through=self._stream_applied[key],
                safe_through=flush.safe_through,
            )
            node.send(origin_group.rep.addr, ack, ack.size_bytes, priority=True)

    def on_gr_ts_ack(self, node, msg) -> None:
        ack: GRTsAck = msg.payload
        if not self.group.is_rep(node) or node.crashed:
            return
        peer = msg.src.group
        key = (ack.assigner, peer)
        before = self._stream_acked.get(key, 0)
        self._stream_acked[key] = max(before, ack.through)
        if ack.through > before:
            # Progress restarts the go-back-N timeout for what remains.
            self._stream_sent_at[key] = self.sim.now
        self._pt_acked[key] = max(self._pt_acked.get(key, 0), ack.safe_through)

    def _catch_up(self, node, instance: int, through: int) -> None:
        """Assign our clock element for committed instance entries whose
        propose and accept broadcasts we missed (e.g. during a partition).

        Without this, an entry that commits while we are partitioned
        would lack our VTS element forever and block Algorithm 2 at every
        observer. ``through`` is the assigner's *committed* high-water
        (see :class:`~repro.core.global_raft.GRTsReplicate`): bounding
        the catch-up by commitment guarantees the bodies we complete the
        VTS for still exist at a live quorum."""
        if instance == self.gid or self.spec.ordering != "async":
            return
        state = self.instances[instance]
        own = self.archive.setdefault(self.gid, {})
        start = self._catchup_through.get(instance, 0) + 1
        for seq in range(start, through + 1):
            if seq > state.committed_through:
                slot = state.slot(seq)
                slot.propose_received = True
                if slot.ts is None:
                    self._assign_ts(node, state, slot, instance)
            elif (instance, seq) not in own:
                # Already committed without us; our element is still
                # needed for ordering, but no follower slot should exist.
                self._record_own_assignment(
                    node, instance, seq, self.group.clock.read()
                )
        if through > self._catchup_through.get(instance, 0):
            self._catchup_through[instance] = through


class SerialSlotPhase(RaftGlobalPhase):
    """Steward: the Raft engine serialised by a shared slot token."""

    def __init__(self, group, token: SlotToken) -> None:
        super().__init__(group)
        self.token = token

    def may_propose(self) -> bool:
        return self.token.owner() == self.gid and not self.token.in_flight

    def on_entry_batched(self, entry: LogEntry) -> None:
        self.token.take(entry.entry_id)

    def _slot_of(self, entry_id: EntryId) -> int:
        return self.token.slot_of(entry_id)

    def _on_slot_committed(self, slot: int) -> None:
        self.token.commit(slot)
