"""Epoch-versioned group membership.

Live reconfiguration (node join/leave, group resize, leader moves) makes
"who is in group g, and how many signatures certify an entry" a function
of *time*. This module pins that function down: every reconfiguration
produces a new immutable :class:`MembershipView` stamped with a
deployment-wide, monotonically increasing epoch number. Certificates
carry the epoch they were formed in (:class:`repro.crypto.certificates.
QuorumCertificate`), and validators resolve quorum size and the set of
legitimate signers against the view of that epoch — a certificate formed
just before a join must not be judged against the enlarged quorum, and
one signed by a member that later left must not be rejected for it.

The log is pure bookkeeping: it consumes no randomness and allocates a
handful of tuples per reconfiguration, so building it unconditionally
keeps unchurned runs bit-identical to before.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.sim.network import NodeAddress


@dataclass(frozen=True)
class MembershipView:
    """One group's membership during one epoch interval.

    A view is valid from the epoch it was formed in until the group's
    next view; the global epoch counter may advance in between because
    of *other* groups' reconfigurations.
    """

    epoch: int
    gid: int
    members: Tuple[NodeAddress, ...]
    leader: NodeAddress
    formed_at: float
    reason: str

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def f(self) -> int:
        """Byzantine members tolerated in this view: floor((n-1)/3)."""
        return (self.n - 1) // 3

    @property
    def quorum(self) -> int:
        return 2 * self.f + 1

    def describe(self) -> str:
        return (
            f"epoch {self.epoch} g{self.gid}: n={self.n} quorum={self.quorum}"
            f" leader={self.leader} ({self.reason})"
        )


class MembershipLog:
    """Append-only history of membership views, one lane per group.

    The epoch counter is deployment-wide: any reconfiguration anywhere
    advances it, so a single integer totally orders all membership
    changes — the property certificate validation and the checker's
    epoch-monotonicity invariant rely on.
    """

    def __init__(self) -> None:
        self.epoch = 0
        self._views: Dict[int, List[MembershipView]] = {}

    def genesis(
        self, gid: int, members: Sequence[NodeAddress], leader: NodeAddress
    ) -> MembershipView:
        """Record a group's initial membership under epoch 0."""
        if gid in self._views:
            raise ValueError(f"group {gid} already has a genesis view")
        view = MembershipView(
            epoch=0,
            gid=gid,
            members=tuple(sorted(members)),
            leader=leader,
            formed_at=0.0,
            reason="genesis",
        )
        self._views[gid] = [view]
        return view

    def record(
        self,
        gid: int,
        members: Sequence[NodeAddress],
        leader: NodeAddress,
        at: float,
        reason: str,
    ) -> MembershipView:
        """Append a new view for ``gid``, advancing the global epoch."""
        if gid not in self._views:
            raise ValueError(f"group {gid} has no genesis view")
        self.epoch += 1
        view = MembershipView(
            epoch=self.epoch,
            gid=gid,
            members=tuple(sorted(members)),
            leader=leader,
            formed_at=at,
            reason=reason,
        )
        self._views[gid].append(view)
        return view

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def view_of(self, gid: int) -> MembershipView:
        """The group's current (latest) view."""
        return self._views[gid][-1]

    def at_epoch(self, gid: int, epoch: int) -> MembershipView:
        """The view of ``gid`` that was in force at global ``epoch``.

        That is the group's latest view whose own epoch is <= ``epoch``
        (other groups' reconfigurations advance the counter without
        touching this group's membership).
        """
        views = self._views[gid]
        i = bisect_right([v.epoch for v in views], epoch)
        if i == 0:
            raise ValueError(
                f"group {gid} has no view at epoch {epoch} "
                f"(earliest is {views[0].epoch})"
            )
        return views[i - 1]

    def quorum_at(self, gid: int, epoch: int) -> int:
        return self.at_epoch(gid, epoch).quorum

    def members_at(self, gid: int, epoch: int) -> Tuple[NodeAddress, ...]:
        return self.at_epoch(gid, epoch).members
