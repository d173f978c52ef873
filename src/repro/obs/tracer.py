"""The tracer: turns one deployment run into a span forest + telemetry.

Attach *before* the run::

    deployment = GeoDeployment(...)
    tracer = deployment.attach_tracer()          # or Tracer.attach(deployment)
    metrics = deployment.run(duration=2.0, warmup=0.5)
    trace = tracer.build()

The tracer is a pure observer. It subscribes to the runtime's event bus,
taps :attr:`repro.sim.network.Network.transmit_hook` for NIC-level
message spans, and installs a read-only telemetry sampler timer. None of
that touches protocol state or RNG streams, so a traced run commits the
same transactions and produces the same ledger digests as an untraced
one — the determinism tests enforce this.

Span trees per entry (simulated time)::

    entry g0:17                                  cat=entry
    ├── batching                                 client wait -> batch formed
    ├── local_consensus                          batch -> local PBFT commit
    ├── dissemination                            commit -> last remote arrival
    │   ├── replicate->g1                        per-receiver erasure transfer
    │   └── replicate->g2                        (critical=True on the slowest)
    ├── global_consensus                         last arrival -> global commit
    │   ├── certify@g1                           remote accept certification
    │   └── certify@g2
    └── ordering_execution                       global commit -> executed
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.entry import EntryId
from repro.obs.spans import Span, flatten
from repro.obs.telemetry import NicSampler, TelemetryRegistry
from repro.protocols.runtime.events import (
    ControlDecision,
    EntryAvailableRemote,
    EntryBatched,
    EntryExecuted,
    EntryGloballyCommitted,
    EntryLocallyCommitted,
    EntryReplicationStarted,
    FaultInjected,
    ProposalGated,
    QueueDepthsSampled,
    ReconfigApplied,
    ValueCertified,
)


class _EntryRecord:
    """Per-entry lifecycle stamps accumulated during the run (lean)."""

    __slots__ = (
        "batched_at",
        "mean_wait",
        "tx_count",
        "local_committed",
        "repl_started",
        "bytes_total",
        "available",
        "accept_certs",
        "global_committed",
        "executed_at",
        "committed_tx",
        "aborted",
    )

    def __init__(self, batched_at: float, mean_wait: float, tx_count: int) -> None:
        self.batched_at = batched_at
        self.mean_wait = mean_wait
        self.tx_count = tx_count
        self.local_committed: Optional[float] = None
        self.repl_started: Optional[float] = None
        self.bytes_total: int = 0
        self.available: Dict[int, float] = {}
        self.accept_certs: Dict[int, float] = {}
        self.global_committed: Optional[float] = None
        self.executed_at: Optional[float] = None
        self.committed_tx: int = 0
        self.aborted: int = 0


@dataclass
class Trace:
    """Everything one traced run produced."""

    entry_roots: List[Span]
    message_spans: List[Span]
    fault_spans: List[Span]
    telemetry: TelemetryRegistry
    reconfig_spans: List[Span] = field(default_factory=list)
    control_spans: List[Span] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def spans(self) -> List[Span]:
        """Every span, deterministic order: entries, messages, faults,
        reconfigurations, control decisions."""
        return (
            flatten(self.entry_roots)
            + self.message_spans
            + self.fault_spans
            + self.reconfig_spans
            + self.control_spans
        )

    def root_for(self, entry_id: EntryId) -> Optional[Span]:
        name = f"entry g{entry_id.gid}:{entry_id.seq}"
        for root in self.entry_roots:
            if root.name == name:
                return root
        return None


class Tracer:
    """Collects bus events, NIC transmissions and telemetry for one run."""

    def __init__(
        self,
        deployment,
        telemetry_interval: float = 0.005,
        message_lanes: Tuple[str, ...] = ("wan_up", "wan_ctl"),
        max_message_spans: int = 250_000,
    ) -> None:
        self.deployment = deployment
        self.telemetry_interval = telemetry_interval
        self.message_lanes = frozenset(message_lanes)
        self.max_message_spans = max_message_spans
        self.telemetry = TelemetryRegistry()
        self.sampler = NicSampler(deployment, self.telemetry)
        self._entries: Dict[EntryId, _EntryRecord] = {}
        self._messages: List[Tuple] = []
        self._faults: List[FaultInjected] = []
        self._reconfigs: List[ReconfigApplied] = []
        self._controls: List[ControlDecision] = []
        self._gated: Dict[Tuple[int, str], int] = {}
        self._gated_total: Dict[int, int] = {}
        self.dropped_message_spans = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    @classmethod
    def attach(cls, deployment, **options: Any) -> "Tracer":
        """Subscribe a tracer to ``deployment``; call before ``run()``."""
        tracer = cls(deployment, **options)
        bus = deployment.bus
        bus.subscribe(EntryBatched, tracer._on_batched)
        bus.subscribe(EntryLocallyCommitted, tracer._on_local_committed)
        bus.subscribe(EntryReplicationStarted, tracer._on_replication_started)
        bus.subscribe(EntryAvailableRemote, tracer._on_available_remote)
        bus.subscribe(EntryGloballyCommitted, tracer._on_global_committed)
        bus.subscribe(EntryExecuted, tracer._on_executed)
        bus.subscribe(ValueCertified, tracer._on_certified)
        bus.subscribe(QueueDepthsSampled, tracer._on_queue_depths)
        bus.subscribe(ProposalGated, tracer._on_gated)
        bus.subscribe(FaultInjected, tracer._faults.append)
        bus.subscribe(ReconfigApplied, tracer._reconfigs.append)
        bus.subscribe(ControlDecision, tracer._on_control_decision)
        deployment.network.transmit_hook = tracer._on_transmit
        if tracer.telemetry_interval > 0:
            tracer.sampler.interval = tracer.telemetry_interval
            deployment.sim.set_timer(
                tracer.telemetry_interval,
                tracer.sampler.sample,
                interval=tracer.telemetry_interval,
            )
        return tracer

    # ------------------------------------------------------------------
    # Bus handlers (lean: dict writes only)
    # ------------------------------------------------------------------

    def _on_batched(self, event: EntryBatched) -> None:
        self._entries[event.entry_id] = _EntryRecord(
            event.at, event.mean_wait, event.tx_count
        )

    def _on_local_committed(self, event: EntryLocallyCommitted) -> None:
        record = self._entries.get(event.entry_id)
        if record is not None and record.local_committed is None:
            record.local_committed = event.at

    def _on_replication_started(self, event: EntryReplicationStarted) -> None:
        record = self._entries.get(event.entry_id)
        if record is not None and record.repl_started is None:
            record.repl_started = event.at
            record.bytes_total = event.bytes_total

    def _on_available_remote(self, event: EntryAvailableRemote) -> None:
        record = self._entries.get(event.entry_id)
        if record is not None:
            seen = record.available.get(event.observer_gid)
            if seen is None or event.at > seen:
                record.available[event.observer_gid] = event.at

    def _on_global_committed(self, event: EntryGloballyCommitted) -> None:
        record = self._entries.get(event.entry_id)
        if record is not None and record.global_committed is None:
            record.global_committed = event.at

    def _on_executed(self, event: EntryExecuted) -> None:
        record = self._entries.get(event.entry_id)
        if record is not None and record.executed_at is None:
            record.executed_at = event.at
            record.committed_tx = len(event.commit_times)
            record.aborted = event.aborted

    def _on_certified(self, event: ValueCertified) -> None:
        if event.kind != "accept":
            return
        record = self._entries.get(event.entry_id)
        if record is not None:
            record.accept_certs.setdefault(event.gid, event.at)

    def _on_queue_depths(self, event: QueueDepthsSampled) -> None:
        self.telemetry.record(
            f"group/g{event.gid}/wan_backlog_s", event.at, event.wan_backlog
        )
        self.telemetry.record(
            f"group/g{event.gid}/cpu_backlog_s", event.at, event.cpu_backlog
        )

    def _on_gated(self, event: ProposalGated) -> None:
        self._gated[(event.gid, event.reason)] = (
            self._gated.get((event.gid, event.reason), 0) + 1
        )
        total = self._gated_total.get(event.gid, 0) + 1
        self._gated_total[event.gid] = total
        self.telemetry.record(
            f"group/g{event.gid}/gated_total", event.at, float(total)
        )

    def _on_control_decision(self, event: ControlDecision) -> None:
        self._controls.append(event)
        # One telemetry lane per (group, knob): the decision sequence is
        # plottable beside the queue-depth lanes that triggered it.
        self.telemetry.record(
            f"control/g{event.gid}/{event.knob}", event.at, event.new
        )

    def _on_transmit(self, msg, lane, tx_start, tx_done, deliver_at) -> None:
        if lane not in self.message_lanes:
            return
        if len(self._messages) >= self.max_message_spans:
            self.dropped_message_spans += 1
            return
        self._messages.append(
            (
                msg.src,
                msg.dst,
                msg.kind,
                msg.size_bytes,
                lane,
                msg.sent_at,
                tx_start,
                tx_done,
                deliver_at,
                getattr(msg.payload, "entry_id", None),
            )
        )

    # ------------------------------------------------------------------
    # Span construction (post-run)
    # ------------------------------------------------------------------

    def build(self) -> Trace:
        """Assemble the span forest; call after the run completes."""
        next_id = [0]

        def new_id() -> int:
            next_id[0] += 1
            return next_id[0]

        roots = [
            self._build_entry(entry_id, record, new_id)
            for entry_id, record in self._entries.items()
        ]
        messages = [self._build_message(row, new_id) for row in self._messages]
        faults = [
            Span(
                span_id=new_id(),
                name=f"fault:{event.kind}",
                cat="fault",
                start=event.at,
                end=event.at,
                track="faults",
                args={
                    "kind": event.kind,
                    "gid": event.gid,
                    "index": event.index,
                    "detail": event.detail,
                },
            )
            for event in self._faults
        ]
        reconfigs = [
            Span(
                span_id=new_id(),
                name=f"reconfig:{event.kind}",
                cat="reconfig",
                start=event.at,
                end=event.at,
                track="reconfig",
                args={
                    "kind": event.kind,
                    "gid": event.gid,
                    "epoch": event.epoch,
                    "index": event.index,
                    "detail": event.detail,
                },
            )
            for event in self._reconfigs
        ]
        controls = [
            Span(
                span_id=new_id(),
                name=f"control:{event.knob}",
                cat="control",
                start=event.at,
                end=event.at,
                track="control",
                args={
                    "gid": event.gid,
                    "knob": event.knob,
                    "old": event.old,
                    "new": event.new,
                    "trigger": event.trigger,
                    "value": event.value,
                    "policy": event.policy,
                    "epoch": event.epoch,
                },
            )
            for event in self._controls
        ]
        meta = {
            "n_groups": self.deployment.n_groups,
            "seed": self.deployment.seed,
            "entries": len(roots),
            "message_spans": len(messages),
            "dropped_message_spans": self.dropped_message_spans,
            "telemetry_samples": self.sampler.samples_taken,
            "gated": {
                f"g{gid}/{reason}": count
                for (gid, reason), count in sorted(self._gated.items())
            },
        }
        if controls:
            meta["control_decisions"] = len(controls)
        return Trace(
            entry_roots=roots,
            message_spans=messages,
            fault_spans=faults,
            telemetry=self.telemetry,
            reconfig_spans=reconfigs,
            control_spans=controls,
            meta=meta,
        )

    def _build_entry(self, entry_id: EntryId, record: _EntryRecord, new_id) -> Span:
        stamps = [record.batched_at]
        for value in (record.local_committed, record.global_committed, record.executed_at):
            if value is not None:
                stamps.append(value)
        stamps.extend(record.available.values())
        start = max(0.0, record.batched_at - record.mean_wait)
        end = record.executed_at if record.executed_at is not None else max(stamps)
        root = Span(
            span_id=new_id(),
            name=f"entry g{entry_id.gid}:{entry_id.seq}",
            cat="entry",
            start=start,
            end=end,
            track=f"g{entry_id.gid}/entries",
            args={
                "gid": entry_id.gid,
                "seq": entry_id.seq,
                "tx_count": record.tx_count,
                "batch_wait": record.mean_wait,
                "committed_tx": record.committed_tx,
                "aborted": record.aborted,
                "complete": record.executed_at is not None,
            },
        )
        root.child(
            new_id(), "batching", "stage", start, record.batched_at,
            tx_count=record.tx_count,
        )
        lc = record.local_committed
        if lc is not None:
            root.child(
                new_id(), "local_consensus", "stage", record.batched_at,
                max(record.batched_at, lc),
            )
        if lc is not None and record.available:
            repl_start = record.repl_started if record.repl_started is not None else lc
            last_arrival = max(record.available.values())
            diss = root.child(
                new_id(), "dissemination", "stage", repl_start,
                max(repl_start, last_arrival),
                bytes_total=record.bytes_total,
            )
            # Slowest receiver first so equal-start children nest by
            # containment in trace viewers; it carries critical=True.
            by_slowest = sorted(
                record.available.items(), key=lambda kv: (-kv[1], kv[0])
            )
            for rank, (gid, at) in enumerate(by_slowest):
                diss.child(
                    new_id(), f"replicate->g{gid}", "stage", repl_start,
                    max(repl_start, at), critical=(rank == 0),
                )
        gc = record.global_committed
        if gc is not None and record.available:
            last_arrival = max(record.available.values())
            cert = root.child(
                new_id(), "global_consensus", "stage", last_arrival,
                max(last_arrival, gc),
            )
            for gid in sorted(record.accept_certs):
                arrival = record.available.get(gid)
                if arrival is None:
                    continue
                cert.child(
                    new_id(), f"certify@g{gid}", "stage", arrival,
                    max(arrival, record.accept_certs[gid]),
                )
        if record.executed_at is not None:
            anchor = gc if gc is not None else lc
            if anchor is not None:
                root.child(
                    new_id(), "ordering_execution", "stage", anchor,
                    max(anchor, record.executed_at),
                )
        return root

    def _build_message(self, row: Tuple, new_id) -> Span:
        (src, dst, kind, size_bytes, lane, sent_at, tx_start, tx_done,
         deliver_at, entry_id) = row
        args: Dict[str, Any] = {
            "src": repr(src),
            "dst": repr(dst),
            "bytes": size_bytes,
            "lane": lane,
            "queued_s": max(0.0, tx_start - sent_at),
            "dropped": deliver_at is None,
        }
        if deliver_at is not None:
            args["deliver_at"] = deliver_at
        if entry_id is not None:
            args["entry"] = f"g{entry_id.gid}:{entry_id.seq}"
        return Span(
            span_id=new_id(),
            name=kind,
            cat="message",
            start=tx_start,
            end=max(tx_start, tx_done),
            track=f"net/{src!r}/{lane}",
            args=args,
        )
