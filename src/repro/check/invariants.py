"""Safety invariants: online event-bus checkers + end-of-run ledger audits.

The checker asserts the paper's safety claims, not its performance claims:

* **agreement / no fork** — every pair of live observers' hash-chained
  ledgers share an identical common prefix (audit, via
  :meth:`repro.ledger.ledger.GlobalLedger.matches`; failures are located
  with :meth:`~repro.ledger.ledger.GlobalLedger.divergence`);
* **monotonic subchain execution** — at every observer, entries of each
  group execute in strictly increasing sequence order, exactly once
  (online, by wrapping each observer's orderer callback);
* **no duplicate global commit** — each entry completes global consensus
  at most once (online, from ``EntryGloballyCommitted``);
* **no committed entry lost** — every entry that committed globally well
  before the end of the run (``commit_slack`` before, leaving room for
  crashed-group takeover) appears in some live observer's ledger (audit);
* **certificate validity** — every quorum certificate local PBFT emits
  carries >= 2f+1 valid signatures, where both the quorum size and the
  set of legitimate signers are resolved against the membership view of
  the epoch the certificate was *formed* in (online, from
  ``ValueCertified``) — a certificate spanning a reconfiguration
  boundary must validate under its own epoch, not the current one;
* **epoch monotonicity** — membership epochs announced on the bus only
  ever increase, and advance on every membership change (online, from
  ``ReconfigApplied``);
* **executed-state determinism** — live observers whose ledgers reached
  the same height hold bit-identical execution stores (audit);
* **subchain integrity** — every observer's per-group subchains pass
  their hash-linkage check (audit).

All checks are safety properties: they hold under arbitrary *tolerated*
fault schedules (<= f Byzantine/crashed nodes per group, <= f_g crashed
groups, finite partitions), even while liveness is temporarily lost.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Set, Tuple

from repro.core.entry import EntryId
from repro.crypto.hashing import digest
from repro.protocols.runtime.events import (
    EntryGloballyCommitted,
    ReconfigApplied,
    ValueCertified,
)

#: Reconfig kinds that change membership and must advance the epoch.
_MEMBERSHIP_KINDS = ("join", "leave", "leader_move")


@dataclass(frozen=True)
class Violation:
    """One observed safety violation.

    ``gid``/``seq`` identify the offending entry when one exists
    (-1 otherwise); ``height`` is the ledger height a fork audit
    pinpointed (-1 otherwise).
    """

    invariant: str
    at: float
    message: str
    gid: int = -1
    seq: int = -1
    height: int = -1

    def key(self) -> Tuple[str, int, int, int]:
        """Identity of the violation for replay comparison: the invariant
        plus the entry/height it names (times and prose excluded)."""
        return (self.invariant, self.gid, self.seq, self.height)

    def to_jsonable(self) -> dict:
        return asdict(self)

    @classmethod
    def from_jsonable(cls, data: dict) -> "Violation":
        return cls(**data)


class InvariantSuite:
    """All safety checkers attached to one deployment.

    Usage::

        suite = InvariantSuite.attach(deployment, commit_slack=2.0)
        deployment.run(duration=4.5)
        violations = suite.audit(end_time=4.5)
    """

    def __init__(self, deployment, commit_slack: float = 2.0) -> None:
        self.deployment = deployment
        self.commit_slack = commit_slack
        self.violations: List[Violation] = []
        #: entry -> time of its (first) global commit.
        self.committed: Dict[EntryId, float] = {}
        #: observer address -> executed entries, in execution order.
        self.executed: Dict = {}
        #: (observer address, gid) -> highest executed seq of that group.
        self._subchain_high: Dict[Tuple, int] = {}
        #: Highest membership epoch seen on the bus so far.
        self._epoch_high = 0
        self._audited = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    @classmethod
    def attach(cls, deployment, commit_slack: float = 2.0) -> "InvariantSuite":
        """Subscribe the online checkers to a freshly built deployment."""
        suite = cls(deployment, commit_slack=commit_slack)
        deployment.bus.subscribe(EntryGloballyCommitted, suite._on_global_commit)
        deployment.bus.subscribe(ValueCertified, suite._on_value_certified)
        deployment.bus.subscribe(ReconfigApplied, suite._on_reconfig)
        for node in deployment.nodes.values():
            if node.is_observer:
                suite._wrap_orderer(node)
        return suite

    def _wrap_orderer(self, node) -> None:
        self.executed[node.addr] = []
        original = node.orderer.on_execute

        def wrapped(entry_id: EntryId, node=node, original=original):
            self._on_executed(node, entry_id)
            original(entry_id)

        node.orderer.on_execute = wrapped

    def _report(self, violation: Violation) -> None:
        self.violations.append(violation)

    # ------------------------------------------------------------------
    # Online checks
    # ------------------------------------------------------------------

    def _on_global_commit(self, event: EntryGloballyCommitted) -> None:
        if event.entry_id in self.committed:
            self._report(
                Violation(
                    invariant="no-duplicate-commit",
                    at=event.at,
                    message=(
                        f"entry {event.entry_id} completed global consensus "
                        f"twice (first at {self.committed[event.entry_id]:.4f})"
                    ),
                    gid=event.entry_id.gid,
                    seq=event.entry_id.seq,
                )
            )
            return
        self.committed[event.entry_id] = event.at

    def _on_value_certified(self, event: ValueCertified) -> None:
        cert = event.certificate
        if event.signer_count < event.quorum:
            self._report(
                Violation(
                    invariant="certificate-quorum",
                    at=event.at,
                    message=(
                        f"{event.kind} certificate for {event.entry_id} at group "
                        f"{event.gid} has {event.signer_count} signers, "
                        f"quorum is {event.quorum}"
                    ),
                    gid=event.entry_id.gid,
                    seq=event.entry_id.seq,
                )
            )
        elif cert is not None:
            # Epoch-scoped validation: signers and quorum come from the
            # membership view of the epoch the certificate was formed in.
            allowed = self.deployment.membership.members_at(
                event.gid, cert.epoch
            )
            if not cert.verify(
                self.deployment.keystore,
                quorum=event.quorum,
                allowed_signers=allowed,
            ):
                self._report(
                    Violation(
                        invariant="certificate-signatures",
                        at=event.at,
                        message=(
                            f"{event.kind} certificate for {event.entry_id} at "
                            f"group {event.gid} failed signature verification "
                            f"against epoch {cert.epoch} membership"
                        ),
                        gid=event.entry_id.gid,
                        seq=event.entry_id.seq,
                    )
                )

    def _on_reconfig(self, event: ReconfigApplied) -> None:
        if event.epoch < self._epoch_high:
            self._report(
                Violation(
                    invariant="epoch-monotonicity",
                    at=event.at,
                    message=(
                        f"reconfiguration {event.kind} at group {event.gid} "
                        f"announced epoch {event.epoch} after epoch "
                        f"{self._epoch_high} was already in force"
                    ),
                    gid=event.gid,
                )
            )
        elif event.kind in _MEMBERSHIP_KINDS and event.epoch == self._epoch_high:
            self._report(
                Violation(
                    invariant="epoch-monotonicity",
                    at=event.at,
                    message=(
                        f"membership change {event.kind} at group {event.gid} "
                        f"did not advance the epoch (still {event.epoch})"
                    ),
                    gid=event.gid,
                )
            )
        self._epoch_high = max(self._epoch_high, event.epoch)

    def _on_executed(self, node, entry_id: EntryId) -> None:
        if node.byzantine:  # honest replicas only; see _live_observers
            return
        now = self.deployment.sim.now
        key = (node.addr, entry_id.gid)
        high = self._subchain_high.get(key, 0)
        if entry_id.seq <= high:
            kind = "re-executed" if entry_id.seq == high else "executed out of order"
            self._report(
                Violation(
                    invariant="monotonic-subchain-execution",
                    at=now,
                    message=(
                        f"observer {node.addr} {kind} {entry_id} "
                        f"(already at seq {high} for group {entry_id.gid})"
                    ),
                    gid=entry_id.gid,
                    seq=entry_id.seq,
                )
            )
        else:
            self._subchain_high[key] = entry_id.seq
        self.executed[node.addr].append(entry_id)

    # ------------------------------------------------------------------
    # End-of-run audits
    # ------------------------------------------------------------------

    def _live_observers(self) -> List:
        # Safety claims cover honest replicas only: a Byzantine node may
        # corrupt its own ledger arbitrarily without violating anything.
        return [
            node
            for node in self.deployment.nodes.values()
            if node.is_observer
            and not node.crashed
            and not node.byzantine
            and node.ledger is not None
        ]

    @staticmethod
    def _state_fingerprint(node) -> bytes:
        items = sorted(node.pipeline.store.scan_prefix(""))
        return digest(repr(items).encode("utf-8"))

    def audit(self, end_time: float) -> List[Violation]:
        """Run the end-of-run ledger audits; returns all violations."""
        if self._audited:
            return self.violations
        self._audited = True
        observers = self._live_observers()
        if observers:
            self._audit_agreement(observers, end_time)
            self._audit_state_determinism(observers, end_time)
            self._audit_committed_not_lost(observers, end_time)
            self._audit_subchain_integrity(observers, end_time)
        return self.violations

    def _audit_agreement(self, observers, end_time: float) -> None:
        # Prefix agreement with the tallest ledger is transitive: if a and
        # b both match the reference, their common prefixes agree too.
        reference = max(observers, key=lambda n: n.ledger.height)
        for node in observers:
            if node is reference or reference.ledger.matches(node.ledger):
                continue
            split = reference.ledger.divergence(node.ledger)
            ref_rec = reference.ledger.records[split]
            other_rec = node.ledger.records[split]
            self._report(
                Violation(
                    invariant="agreement-no-fork",
                    at=end_time,
                    message=(
                        f"ledgers of {reference.addr} and {node.addr} fork at "
                        f"height {split}: {ref_rec.entry_id} vs {other_rec.entry_id}"
                    ),
                    gid=other_rec.entry_id.gid,
                    seq=other_rec.entry_id.seq,
                    height=split,
                )
            )

    def _audit_state_determinism(self, observers, end_time: float) -> None:
        by_height: Dict[int, List] = {}
        for node in observers:
            by_height.setdefault(node.ledger.height, []).append(node)
        for height, nodes in by_height.items():
            if height == 0 or len(nodes) < 2:
                continue
            reference = nodes[0]
            want = self._state_fingerprint(reference)
            for node in nodes[1:]:
                if self._state_fingerprint(node) != want:
                    self._report(
                        Violation(
                            invariant="state-determinism",
                            at=end_time,
                            message=(
                                f"observers {reference.addr} and {node.addr} "
                                f"reached ledger height {height} with "
                                f"different execution stores"
                            ),
                            height=height,
                        )
                    )

    def _audit_committed_not_lost(self, observers, end_time: float) -> None:
        surviving: Set[EntryId] = set()
        for node in observers:
            surviving.update(node.ledger.order())
        horizon = end_time - self.commit_slack
        for entry_id in sorted(self.committed):
            committed_at = self.committed[entry_id]
            if committed_at <= horizon and entry_id not in surviving:
                self._report(
                    Violation(
                        invariant="committed-entry-lost",
                        at=end_time,
                        message=(
                            f"entry {entry_id} committed globally at "
                            f"{committed_at:.4f} but appears in no live "
                            f"observer's ledger by {end_time:.4f} "
                            f"(agreement violated: committed history was lost)"
                        ),
                        gid=entry_id.gid,
                        seq=entry_id.seq,
                    )
                )

    def _audit_subchain_integrity(self, observers, end_time: float) -> None:
        for node in observers:
            for gid, subchain in node.ledger.subchains.items():
                if not subchain.verify():
                    self._report(
                        Violation(
                            invariant="subchain-integrity",
                            at=end_time,
                            message=(
                                f"observer {node.addr} holds a broken hash "
                                f"chain for group {gid}'s subchain"
                            ),
                            gid=gid,
                        )
                    )
