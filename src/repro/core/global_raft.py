"""Global (inter-group) consensus messages and per-instance state.

MassBFT runs ``n_g`` Raft instances in parallel: group ``G_i`` leads the
i-th instance and follows in all others (Section V-A). Groups act as
logical replicas; the group's current representative (its local PBFT
leader) exchanges these messages with other representatives over the WAN.
Entry *bodies* do not travel in these messages — the replication
transports (:mod:`repro.core.replication`) move them; the global messages
carry digests, certificates, vector-timestamp assignments, quorum
bookkeeping, and the takeover votes used when a whole group crashes.

The runtime driving these messages lives in
:class:`repro.protocols.runtime.RaftGlobalPhase`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.consensus.messages import HEADER_SIZE
from repro.crypto.hashing import DIGEST_SIZE

#: (target gid, target seq, timestamp) — one VTS element assignment.
TsAssignment = Tuple[int, int, int]


@dataclass
class GRPropose:
    """Instance leader's propose: digest + certificate (entry travels
    separately via the transport). ``ts_assignments`` may piggyback
    timestamp assignments; the stock runtime leaves it empty — values
    must reach observers in each assigner's creation order, which only
    the reliable stream (:class:`GRTsReplicate`) guarantees."""

    instance: int
    seq: int
    digest: bytes
    entry_size: int
    tx_count: int
    cert_size: int
    ts_assignments: Tuple[TsAssignment, ...] = ()

    @property
    def size_bytes(self) -> int:
        return (
            HEADER_SIZE
            + DIGEST_SIZE
            + self.cert_size
            + 12 * len(self.ts_assignments)
        )


@dataclass
class GRAccept:
    """A follower group's accept receipt for (instance, seq).

    Carries the acceptor group's clock assignment for the entry
    (overlapped VTS, Fig 7b). In MassBFT this message is broadcast to
    *all* representatives for the slow-receiver optimisation
    (Section V-C); the assignment value itself is replicated by the
    reliable in-order stream, never consumed from this message.
    """

    instance: int
    seq: int
    from_gid: int
    ts: int
    cert_size: int

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE + 12 + self.cert_size


@dataclass
class GRCommit:
    """Instance leader's commit announcement after f_g+1 accepts."""

    instance: int
    seq: int
    cert_size: int

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE + self.cert_size


@dataclass
class GRTsReplicate:
    """One batch of a reliable, in-order assignment stream.

    Each representative replicates its clock's assignments (and, while
    leading a takeover, the crashed group's) as an append-only log: every
    flush resends the log suffix past what the receiver last acknowledged
    (:class:`GRTsAck`), so batches swallowed by a partition are simply
    retransmitted on the next flush. ``start_index`` positions the batch
    in the stream (receivers apply only the unseen tail); ``origin`` is
    the sending group (equal to ``assigner`` except under takeover);
    ``safe_through`` carries the assigner instance's *committed*
    high-water so receivers can assign their own clock element for
    entries whose propose/accept messages they missed entirely. It must
    never run ahead of commitment: a committed entry's body provably
    reached an accept quorum and stays fetchable, whereas completing the
    VTS of a never-committed entry whose chunks were lost would wedge
    Algorithm 2 at every observer behind an unfetchable global minimum
    (uncommitted entries instead stay partially set and are passed over
    through inferred lower bounds).
    """

    assigner: int
    assignments: Tuple[TsAssignment, ...]
    origin: int = -1
    start_index: int = 0
    safe_through: int = 0

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE + 8 + 12 * len(self.assignments)


@dataclass
class GRTsAck:
    """Receiver's cumulative acknowledgement of an assignment stream."""

    assigner: int
    origin: int
    through: int
    safe_through: int

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE + 8


@dataclass
class GREntryPush:
    """Full-entry retransmission to a group that missed the chunks.

    The normal transports are fire-and-forget; when the origin sees a
    live group that still has not accepted ``(instance, seq)`` after a
    retry timeout (e.g. the chunks were swallowed by a partition), it
    pushes the whole entry to that group's representative, which relays
    it over the LAN. The reconciliation fallback of Section V-C."""

    instance: int
    seq: int
    entry_size: int
    cert_size: int

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE + self.entry_size + self.cert_size


@dataclass
class GRTakeoverRequest:
    """Candidacy to lead a (presumed crashed) group's Raft instance."""

    instance: int
    candidate: int
    term: int

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE


@dataclass
class GRTakeoverVote:
    """Takeover vote; when granted it carries every assignment the voter
    ever received from the crashed group's clock, so the elected leader
    replays them before inventing frozen-clock values — the equivalent of
    a Raft leader completing the log before serving (no live replica's
    consumed assignment can be contradicted). ``frozen`` is the voter's
    own frozen-clock estimate for the instance, so the leader's frozen
    value ends up >= any lower bound a live observer may have inferred
    from the crashed clock's past assignments."""

    instance: int
    candidate: int
    term: int
    voter: int
    granted: bool
    known: Tuple[TsAssignment, ...] = ()
    frozen: int = 0

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE + 12 * len(self.known)


# ----------------------------------------------------------------------
# Intra-group (LAN) notifications from the representative to members
# ----------------------------------------------------------------------


@dataclass
class LocalTsNotice:
    """Representative -> members: learned VTS assignments."""

    assignments: Tuple[Tuple[int, int, int, int], ...]  # (assigner, gid, seq, ts)

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE + 16 * len(self.assignments)


@dataclass
class LocalCommitNotice:
    """Representative -> members: entry (gid, seq) is globally committed."""

    gid: int
    seq: int

    @property
    def size_bytes(self) -> int:
        return HEADER_SIZE


# ----------------------------------------------------------------------
# Per-instance bookkeeping
# ----------------------------------------------------------------------


@dataclass
class OutstandingEntry:
    """Leader-side state for one proposed (instance, seq)."""

    seq: int
    accepts: Set[int] = field(default_factory=set)
    committed: bool = False
    commit_pbft_started: bool = False
    #: Accept quorum reached (commit round may still be gated on order).
    quorum_reached: bool = False
    #: When the propose went out; drives entry-body retransmission.
    proposed_at: float = 0.0


@dataclass
class FollowerSlot:
    """Follower-side state for one (instance, seq)."""

    seq: int
    propose_received: bool = False
    ts: Optional[int] = None
    ts_flushed: bool = False
    accept_pbft_started: bool = False
    accept_sent: bool = False
    committed: bool = False


@dataclass
class InstanceState:
    """One group's view of one global Raft instance."""

    instance: int
    #: As leader: seq -> OutstandingEntry.
    outstanding: Dict[int, OutstandingEntry] = field(default_factory=dict)
    #: As follower: seq -> FollowerSlot.
    slots: Dict[int, FollowerSlot] = field(default_factory=dict)
    #: Highest seq known committed on this instance.
    committed_through: int = 0
    #: Last simulated time we heard from the instance leader.
    last_heard: float = 0.0
    #: Takeover: which group currently leads this instance (None = owner).
    takeover_leader: Optional[int] = None
    takeover_term: int = 0
    takeover_votes: Set[int] = field(default_factory=set)
    #: Voters' reported knowledge of the owner's assignments:
    #: (gid, seq) -> ts, merged from granted takeover votes.
    takeover_known: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: Frozen clock value a takeover leader assigns on the owner's behalf.
    frozen_clock: int = 0

    def slot(self, seq: int) -> FollowerSlot:
        state = self.slots.get(seq)
        if state is None:
            state = FollowerSlot(seq=seq)
            self.slots[seq] = state
        return state

    def outstanding_entry(self, seq: int) -> OutstandingEntry:
        state = self.outstanding.get(seq)
        if state is None:
            state = OutstandingEntry(seq=seq)
            self.outstanding[seq] = state
        return state
