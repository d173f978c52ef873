"""The per-group composition: stages wired together for one group.

A :class:`GroupRuntime` holds the group's stage objects —
``load_stage`` (:class:`~repro.protocols.runtime.load.LoadStage`),
``local`` (:class:`~repro.protocols.runtime.local.LocalConsensusStage`)
and the spec-selected ``global_phase``
(:class:`~repro.protocols.runtime.global_phase.GlobalPhase`) — plus the
small amount of genuinely shared group state (local sequence counter,
group clock, execution watermark). Callers reach a stage's work through
the stage itself.
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.core.entry import EntryId
from repro.core.vts import GroupClock
from repro.protocols.runtime.load import ClientLoad, LoadStage
from repro.protocols.runtime.local import LocalConsensusStage


class GroupRuntime:
    """Everything group ``G_i`` does, composed from its stages."""

    def __init__(
        self,
        deployment,
        gid: int,
        members: List,
        load: ClientLoad,
    ) -> None:
        self.deployment = deployment
        self.gid = gid
        self.members = members
        self.sim = deployment.sim
        self.spec = deployment.spec
        self.clock = GroupClock(gid)
        self.next_seq = 0  # local sequence of the last proposed entry
        self.last_own_committed = 0
        self.last_executed_round = 0
        #: Members whose orderer reads a LocalTsNotice / LocalCommitNotice;
        #: the notices reach only them (set by the ordering stage).
        self.ts_readers: FrozenSet = frozenset()
        self.commit_readers: FrozenSet = frozenset()
        # Stages.
        self.local = LocalConsensusStage(self)
        self.pbft = self.local.pbft
        self.load_stage = LoadStage(self, load)
        self.global_phase = deployment.make_global_phase(self)

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------

    @property
    def rep(self):
        """The group representative (current local PBFT leader)."""
        return self.pbft.leader

    @property
    def crashed(self) -> bool:
        return all(node.crashed for node in self.members)

    def is_rep(self, node) -> bool:
        return node is self.rep

    # ------------------------------------------------------------------
    # Execution feedback
    # ------------------------------------------------------------------

    def note_executed_round(self, entry_id: EntryId) -> None:
        if entry_id.gid == self.gid:
            self.last_executed_round = max(self.last_executed_round, entry_id.seq)
