"""Local consensus stage: per-group PBFT and commit dispatch.

Wraps :class:`repro.consensus.pbft.ModeledPbftGroup` for one group and
routes its commit callbacks, which act only at the group representative
(the PBFT leader, the one member the model delivers a commit to):
freshly certified :class:`LogEntry` values
go to the dissemination stage and then the global phase; certified
:class:`AcceptValue`/:class:`CommitValue` receipts (the accept- and
commit-phase local rounds of Section II-A) go straight to the global
phase.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.pbft import ModeledPbftGroup
from repro.core.entry import EntryId, LogEntry
from repro.protocols.runtime.events import EntryLocallyCommitted, ValueCertified
from repro.protocols.runtime.values import AcceptValue, CommitValue


class LocalConsensusStage:
    """Local PBFT for one group plus the certified-value dispatcher."""

    def __init__(self, group) -> None:
        self.group = group
        deployment = group.deployment
        self.pbft = ModeledPbftGroup(
            group.members,
            deployment.keystore,
            costs=deployment.costs,
            instance=f"g{group.gid}",
        )
        for node in group.members:
            self.pbft.subscribe(node.addr, self._make_callback(node))

    def attach_member(self, node) -> None:
        """Wire a node that joined after construction into commit dispatch."""
        self.pbft.subscribe(node.addr, self._make_callback(node))

    # ------------------------------------------------------------------
    # Proposals
    # ------------------------------------------------------------------

    def propose(self, entry: LogEntry) -> None:
        """Run a fresh entry through the full local PBFT round."""
        self.pbft.propose(entry)

    def certify(self, value: Any) -> None:
        """Certify an accept/commit receipt (prepare skipped: the value
        is already certified by the sender group)."""
        self.pbft.propose(value, skip_prepare=True)

    # ------------------------------------------------------------------
    # Commit dispatch
    # ------------------------------------------------------------------

    def _make_callback(self, node):
        def on_committed(seq: int, value: Any, cert: Any) -> None:
            if isinstance(value, LogEntry):
                self._publish_certified(node, "entry", value.entry_id, cert)
                self._on_entry_locally_committed(node, value)
            elif isinstance(value, AcceptValue):
                self._publish_certified(
                    node, "accept", EntryId(value.instance, value.seq), cert
                )
                self.group.global_phase.on_accept_certified(node, value)
            elif isinstance(value, CommitValue):
                self._publish_certified(
                    node, "commit", EntryId(value.instance, value.seq), cert
                )
                self.group.global_phase.on_commit_certified(node, value)

        return on_committed

    def _publish_certified(self, node, kind: str, entry_id, cert) -> None:
        group = self.group
        if not group.is_rep(node):
            return
        # Nothing subscribes to ValueCertified in an untraced run (the
        # metrics bridge ignores it); skip the event construction, the
        # quorum lookup feeding it and — since nothing else reads the
        # certificate — its signing, unless a tracer or checker wants it.
        if not group.deployment.bus.wants(ValueCertified):
            return
        # Quorum is epoch-scoped: a certificate formed just before a
        # membership change must be judged against the quorum of the
        # epoch it was formed in, not whatever the group's size is when
        # the commit is delivered.
        quorum = self.pbft.quorum
        membership = group.deployment.membership
        if cert.epoch < membership.epoch:
            quorum = membership.quorum_at(group.gid, cert.epoch)
        group.deployment.bus.publish(
            ValueCertified(
                gid=group.gid,
                at=group.sim.now,
                kind=kind,
                entry_id=entry_id,
                signer_count=cert.signer_count,
                quorum=quorum,
                certificate=cert,
            )
        )

    def _on_entry_locally_committed(self, node, entry: LogEntry) -> None:
        group = self.group
        if not group.is_rep(node):
            return
        deployment = group.deployment
        deployment.bus.publish(
            EntryLocallyCommitted(entry.entry_id, group.sim.now)
        )
        deployment.dissemination.replicate(entry, group, node)
        group.global_phase.on_local_entry_committed(node, entry)
