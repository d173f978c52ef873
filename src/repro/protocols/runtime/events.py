"""The typed in-process event bus wiring the runtime stages together.

Every stage publishes what happened to it (an entry was batched, locally
committed, became available at a remote representative, committed
globally, executed) instead of reaching into :class:`RunMetrics`
directly. :class:`MetricsBridge` feeds
:class:`repro.bench.metrics.RunMetrics`, so benchmark reporting is just
another bus consumer; :class:`repro.obs.Tracer` subscribes beside it
when a run is traced.

Publishing is synchronous and deterministic: handlers run immediately,
in subscription order, on the simulated thread that published.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple, Type

from repro.bench.metrics import RunMetrics
from repro.core.entry import EntryId


# ----------------------------------------------------------------------
# Events (one frozen dataclass per topic)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EntryBatched:
    """The load stage formed an entry from pending client arrivals."""

    entry_id: EntryId
    at: float
    tx_count: int
    mean_wait: float


@dataclass(frozen=True)
class EntryLocallyCommitted:
    """Local PBFT consensus on the entry completed at the representative."""

    entry_id: EntryId
    at: float


@dataclass(frozen=True)
class EntryAvailableRemote:
    """The entry was rebuilt/received at a remote group's representative."""

    entry_id: EntryId
    at: float
    observer_gid: int


@dataclass(frozen=True)
class EntryGloballyCommitted:
    """The origin group gathered f_g+1 accepts and committed globally."""

    entry_id: EntryId
    at: float


@dataclass(frozen=True)
class EntryExecuted:
    """The entry executed at its origin group's measurement observer.

    ``commit_times`` carries the ``created_at`` stamp of every committed
    transaction so latency accounting needs no second lookup;
    ``commit_tenants`` carries the matching tenant indices when the
    deployment runs a multi-tenant traffic spec (empty otherwise, so
    single-tenant runs allocate nothing extra).
    """

    entry_id: EntryId
    at: float
    gid: int
    commit_times: Tuple[float, ...]
    aborted: int
    commit_tenants: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ClientArrivals:
    """Offered/admitted/dropped arrival deltas since the last publish.

    Published by the load stage after each admission pass; ``dropped``
    counts client timeouts (queue aging / priority shedding). The
    per-tenant tuples are populated only under a multi-tenant traffic
    spec and are index-aligned with the deployment's tenant names.
    """

    gid: int
    at: float
    offered: int
    admitted: int
    dropped: int
    offered_by_tenant: Tuple[int, ...] = ()
    admitted_by_tenant: Tuple[int, ...] = ()
    dropped_by_tenant: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ValueCertified:
    """Local PBFT certified a value (entry, accept, or commit receipt).

    Published once per certified value, at the group representative.
    ``certificate`` carries the :class:`~repro.crypto.certificates.
    QuorumCertificate` so auditors (e.g. ``repro.check``) can verify
    quorum size and signatures; trace recorders drop the object and keep
    only ``signer_count``.
    """

    gid: int
    at: float
    kind: str  # "entry" | "accept" | "commit"
    entry_id: EntryId
    signer_count: int
    quorum: int
    certificate: Any = None


@dataclass(frozen=True)
class FaultInjected:
    """The fault injector applied a scheduled fault to the deployment."""

    at: float
    kind: str  # "crash_group" | "crash_node" | "byzantine" | "partition" | "heal" | "slow_node"
    gid: int
    index: int = -1
    detail: str = ""


@dataclass(frozen=True)
class ReconfigApplied:
    """The reconfiguration stage applied a membership/placement change.

    ``epoch`` is the deployment-wide membership epoch *after* the change
    (unchanged for QoS-only ops like region degradation). Publishing on
    the bus is what keeps churn schedules bit-deterministic and
    traceable: tracers render these as instant markers, the checker
    audits epoch monotonicity from them.
    """

    at: float
    # "join_started" | "join" | "join_failed" | "leave" | "leave_noop" |
    # "leader_move" | "leader_move_noop" | "resize" | "degrade_region" |
    # "restore_region"
    kind: str
    gid: int
    epoch: int
    index: int = -1
    detail: str = ""


@dataclass(frozen=True)
class ReconfigHandoff:
    """Leadership moved; in-flight global-phase work was handed across.

    ``carried`` lists sequence numbers whose accept consensus was already
    under way (they ride out the transition untouched); ``reproposed``
    lists sequences the new configuration re-proposes promptly instead of
    waiting out the retry timer.
    """

    at: float
    gid: int
    epoch: int
    from_index: int
    to_index: int
    carried: Tuple[int, ...]
    reproposed: Tuple[int, ...]


@dataclass(frozen=True)
class EntryReplicationStarted:
    """The dissemination stage began shipping an entry to remote groups.

    Published only when someone subscribed (``bus.wants``): the event
    exists for tracers, and the hot path must stay allocation-free when
    nothing is listening.
    """

    entry_id: EntryId
    at: float
    bytes_total: int


@dataclass(frozen=True)
class ControlDecision:
    """The adaptive-control stage actuated one protocol knob.

    Published by :class:`repro.control.ControlStage` every time a policy
    changes a knob — a seeded, replayable event: the decision is a pure
    function of the sampled telemetry window, so the same (seed,
    schedule) produces the same sequence on every run. ``epoch`` is the
    deployment-wide control epoch *after* the actuation (it piggybacks on
    the membership-epoch invalidation machinery). ``trigger``/``value``
    name the telemetry signal that tripped the policy and its sampled
    magnitude.
    """

    at: float
    gid: int
    # "max_batch_txns" | "batch_timeout" | "pipeline_window" |
    # "round_window" | "stale_send_backlog" | "queue_seconds"
    knob: str
    old: float
    new: float
    trigger: str
    value: float
    policy: str
    epoch: int


@dataclass(frozen=True)
class QueueDepthsSampled:
    """Admission-gate snapshot taken when a group evaluates its windows."""

    gid: int
    at: float
    wan_backlog: float
    cpu_backlog: float


@dataclass(frozen=True)
class ProposalGated:
    """A batch timer fired but admission control held the proposal."""

    gid: int
    at: float
    reason: str  # "wan" | "cpu" | "phase" | "window"


# ----------------------------------------------------------------------
# Bus
# ----------------------------------------------------------------------


class EventBus:
    """Synchronous publish/subscribe keyed by event type."""

    __slots__ = ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: Dict[Type, List[Callable[[Any], None]]] = {}

    def subscribe(self, event_type: Type, handler: Callable[[Any], None]) -> None:
        self._subscribers.setdefault(event_type, []).append(handler)

    def wants(self, event_type: Type) -> bool:
        """True when at least one handler is subscribed to ``event_type``.

        Publishers of optional (tracing-only) events check this before
        constructing the event object, so a run without subscribers pays
        one dict lookup and zero allocations.
        """
        return event_type in self._subscribers

    def publish(self, event: Any) -> None:
        handlers = self._subscribers.get(type(event))
        if handlers:
            for handler in handlers:
                handler(event)


# ----------------------------------------------------------------------
# Standard subscribers
# ----------------------------------------------------------------------


class MetricsBridge:
    """Feeds :class:`RunMetrics` from bus traffic.

    This is the only place the runtime touches the metrics object, which
    keeps the stage modules measurement-free and lets alternative
    collectors (traces, live dashboards) subscribe beside it.
    """

    def __init__(self, bus: EventBus, metrics: RunMetrics) -> None:
        self.metrics = metrics
        bus.subscribe(EntryBatched, self._on_batched)
        bus.subscribe(EntryLocallyCommitted, self._on_local_committed)
        bus.subscribe(EntryAvailableRemote, self._on_available_remote)
        bus.subscribe(EntryGloballyCommitted, self._on_global_committed)
        bus.subscribe(EntryExecuted, self._on_executed)
        bus.subscribe(ClientArrivals, self._on_arrivals)
        bus.subscribe(QueueDepthsSampled, self._on_queue_depths)
        bus.subscribe(ProposalGated, self._on_gated)
        bus.subscribe(ControlDecision, self._on_control_decision)

    def _on_batched(self, event: EntryBatched) -> None:
        self.metrics.stamp(event.entry_id, "batched", event.at)
        self.metrics.record_batch(event.tx_count, event.mean_wait)

    def _on_local_committed(self, event: EntryLocallyCommitted) -> None:
        self.metrics.stamp(event.entry_id, "local_committed", event.at)

    def _on_available_remote(self, event: EntryAvailableRemote) -> None:
        self.metrics.stamp(event.entry_id, "available_remote", event.at)

    def _on_global_committed(self, event: EntryGloballyCommitted) -> None:
        self.metrics.stamp(event.entry_id, "global_committed", event.at)

    def _on_executed(self, event: EntryExecuted) -> None:
        self.metrics.stamp(event.entry_id, "executed", event.at)
        self.metrics.record_commits(event.commit_times, event.at, event.gid)
        self.metrics.record_aborts(event.aborted, event.at)
        if event.commit_tenants:
            self.metrics.record_tenant_commits(
                event.commit_times, event.commit_tenants, event.at
            )

    def _on_arrivals(self, event: ClientArrivals) -> None:
        self.metrics.record_traffic(
            event.offered,
            event.admitted,
            event.dropped,
            event.at,
            event.offered_by_tenant,
            event.admitted_by_tenant,
            event.dropped_by_tenant,
        )

    def _on_queue_depths(self, event: QueueDepthsSampled) -> None:
        self.metrics.record_queue_sample(
            event.gid, event.at, event.wan_backlog, event.cpu_backlog
        )

    def _on_gated(self, event: ProposalGated) -> None:
        self.metrics.record_gated(event.gid, event.reason, event.at)

    def _on_control_decision(self, event: ControlDecision) -> None:
        self.metrics.record_control_decision(
            event.at, event.gid, event.knob, event.old, event.new,
            event.trigger, event.value, event.policy, event.epoch,
        )

