"""Client load stage: open-loop arrivals, batching, and admission control.

One :class:`LoadStage` per group. On each batch timer it decides whether
the group may propose (NIC/CPU backpressure, the global phase's token or
pipeline window, round/epoch windows), generates the batch of arrivals
that accumulated, forms a :class:`LogEntry` around it, and hands it to
the local consensus stage. Gate evaluations publish
:class:`~repro.protocols.runtime.events.QueueDepthsSampled` /
:class:`~repro.protocols.runtime.events.ProposalGated` so saturation
behaviour is observable without instrumenting the stage.

Arrivals come from a :class:`repro.traffic.arrivals.ArrivalProcess`.
The constant-rate process short-circuits through a fast path whose float
arithmetic is identical to the historical metronome, so existing seeded
runs stay byte-identical; richer processes (Poisson, MMPP, flash
crowds) and multi-tenant mixes go through buffered admission queues
with priority-aware shedding. Both paths handle batches, never
transactions: a queue is itself a :class:`TxBatch`, grown, shed and
admitted from through its row operations. The two stay separate because
their RNG contracts differ — the fast path never generates an arrival
that aged out, the buffered path generates every arrival and then sheds
— so neither can stand in for the other byte-identically.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Tuple

from repro.core.entry import LogEntry
from repro.ledger.transactions import TxBatch
from repro.protocols.runtime.events import (
    ClientArrivals,
    EntryBatched,
    ProposalGated,
    QueueDepthsSampled,
)
from repro.traffic.arrivals import ArrivalProcess, ConstantRate
from repro.workloads.base import Workload

#: Seconds between a group's batch timer firings (the paper's 20 ms).
BATCH_TIMEOUT = 0.020
#: Client admission window: arrivals queued longer than this are dropped.
CLIENT_QUEUE_SECONDS = 0.06
#: Async ordering: own entries proposed but not yet globally committed.
PIPELINE_WINDOW = 32
#: Round-based ordering: own entries proposed ahead of local execution.
ROUND_WINDOW = 8
#: Seconds of sender WAN backlog that hold a group's proposals.
WAN_BACKLOG_CAP = 0.12
#: Seconds of representative CPU or LAN backlog that hold proposals.
CPU_BACKLOG_CAP = 0.08


class ClientLoad:
    """Open-loop client arrivals for one group, generated lazily.

    Arrival times come from ``process`` (default: one every ``1/rate``
    seconds) but transactions are only generated when a batch forms —
    one :class:`TxBatch` per call of the workload's batch generator — so
    no per-arrival simulator events exist, and nothing here looks inside
    a batch: arrivals are queued, shed and admitted as rows through the
    batch's own ``extend`` / ``split_front`` / ``gather``, so a columnar
    workload gets from arrival to entry without a ``Transaction``. A
    bounded backlog models client admission: arrivals older than
    ``queue_seconds`` are dropped (clients time out), keeping measured
    latency meaningful at saturation. With a
    :class:`~repro.traffic.tenancy.TenantMix`, every arrival is
    attributed to a tenant (the batch's ``tenants`` column) and shedding
    is priority-aware: when the batch cap binds, high-priority tenants
    are admitted first and low-priority backlog ages out.

    Offered/admitted/dropped counters account for every arrival the
    process produced: ``offered == admitted + dropped + still-queued``.
    """

    def __init__(
        self,
        workload: Workload,
        rate: Optional[float] = None,
        rng=None,
        queue_seconds: float = CLIENT_QUEUE_SECONDS,
        process: Optional[ArrivalProcess] = None,
        tenants=None,
        tenant_rng=None,
    ) -> None:
        if process is None:
            if rate is None:
                raise ValueError("need an offered rate or an arrival process")
            process = ConstantRate(rate)  # validates rate > 0
        self.workload = workload
        self.rate = rate if rate is not None else getattr(process, "rate", None)
        self.rng = rng
        self.queue_seconds = queue_seconds
        self.process = process
        self.tenants = tenants
        self.tenant_rng = tenant_rng
        if tenants is not None and tenant_rng is None:
            raise ValueError("a tenant mix needs its own rng stream")
        self.offered = 0
        self.admitted = 0
        self.dropped = 0
        n_tenants = len(tenants) if tenants is not None else 0
        self.offered_by_tenant = [0] * n_tenants
        self.admitted_by_tenant = [0] * n_tenants
        self.dropped_by_tenant = [0] * n_tenants
        self._gen = None
        # The constant-rate/no-tenant fast path: identical float ops to
        # the pre-traffic-subsystem hot loop, no admission buffer.
        self._simple = isinstance(process, ConstantRate) and tenants is None
        # Buffered path: one FIFO batch per distinct priority, created
        # with the generator (as empty batches of its own type).
        self._queues: Tuple[TxBatch, ...] = ()
        tenant_priorities = tenants.priorities if tenants is not None else ()
        priorities = sorted(set(tenant_priorities)) or [0]
        #: Queue index of each tenant's priority class.
        self._class_of = [priorities.index(p) for p in tenant_priorities]
        #: Queue indices, best priority first (the admission order).
        self._queue_order = tuple(reversed(range(len(priorities))))

    def take(self, now: float, max_n: Optional[int] = None) -> TxBatch:
        """The batch of transactions admitted by ``now``."""
        gen = self._gen
        if gen is None:
            gen = self._gen = self.workload.batch_generator_for(self.rng)
            if not self._simple:
                self._queues = tuple(gen([]) for _ in self._queue_order)
                if self.tenants is not None:
                    for queue in self._queues:
                        queue.tenants = []
        if self._simple:
            return self._take_simple(gen, now, max_n)
        return self._take_buffered(gen, now, max_n)

    # ------------------------------------------------------------------
    # Fast path: constant rate, single tenant class
    # ------------------------------------------------------------------

    def _take_simple(self, gen, now: float, max_n: Optional[int]) -> TxBatch:
        process = self.process
        # Age out arrivals beyond the admission queue (they are never
        # generated, so they consume no workload rng draws).
        missed = process.drop_until(now - self.queue_seconds)
        if missed:
            self.offered += missed
            self.dropped += missed
        batch = gen(process.take_until(now, max_n))
        n = len(batch)
        self.offered += n
        self.admitted += n
        return batch

    # ------------------------------------------------------------------
    # Buffered path: arbitrary processes, tenants, priority shedding
    # ------------------------------------------------------------------

    def _take_buffered(self, gen, now: float, max_n: Optional[int]) -> TxBatch:
        tenants = self.tenants
        queues = self._queues
        # 1. Everything that arrived by now is generated — shed or not,
        #    so the workload stream does not depend on the shedding — and
        #    joins the admission queues (it may wait there across
        #    batches). With tenants, attribution happens at arrival time
        #    (a seeded coin over the rate shares, from its own stream) so
        #    shed decisions and drop counts are tenant-attributable.
        arrived = gen(self.process.take_until(now))
        self.offered += len(arrived)
        if tenants is None:
            queues[0].extend(arrived)
        else:
            pick = tenants.pick
            tenant_rng = self.tenant_rng
            picked = arrived.tenants = [pick(tenant_rng) for _ in arrived.due]
            _count(self.offered_by_tenant, picked)
            class_of = self._class_of
            rows: List[List[int]] = [[] for _ in queues]
            for row, tenant in enumerate(picked):
                rows[class_of[tenant]].append(row)
            for queue, indices in zip(queues, rows):
                queue.extend(arrived.gather(indices))
        # 2. Shed: drop queued arrivals older than the admission window
        #    (clients time out). Due times never decrease along a queue,
        #    so the aged rows are a prefix.
        horizon = now - self.queue_seconds
        for queue in queues:
            aged = bisect_left(queue.due, horizon)
            if aged:
                self.dropped += aged
                shed = queue.split_front(aged)
                if tenants is not None:
                    _count(self.dropped_by_tenant, shed.tenants)
        # 3. Admit up to ``max_n``, highest priority first, FIFO within
        #    a priority class.
        admitted, room = None, max_n
        for index in self._queue_order:
            queue = queues[index]
            part = queue.split_front(len(queue) if room is None else room)
            if room is not None:
                room -= len(part)
            if admitted is None:
                admitted = part
            else:
                admitted.extend(part)
        self.admitted += len(admitted)
        if tenants is not None:
            _count(self.admitted_by_tenant, admitted.tenants)
        return admitted


def _count(counters: List[int], tenants: List[int]) -> None:
    """Add a tenant column's per-tenant row counts to ``counters``."""
    for tenant in range(len(counters)):
        counters[tenant] += tenants.count(tenant)


class LoadStage:
    """Batching plus admission control for one group."""

    def __init__(self, group, load: ClientLoad) -> None:
        self.group = group
        self.deployment = group.deployment
        self.load = load
        # Per-group admission/batching knobs. They start at the module
        # constants (the deployment-derived batch cap for
        # ``max_batch_txns``) and are the actuation points of
        # repro.control: the controller may tune one group's batch cap or
        # window without touching the others, and a test may set them
        # before the run starts.
        self.max_batch_txns = self.deployment.max_batch_txns
        self.pipeline_window = PIPELINE_WINDOW
        self.round_window = ROUND_WINDOW
        self.wan_backlog_cap = WAN_BACKLOG_CAP
        self.cpu_backlog_cap = CPU_BACKLOG_CAP
        # Snapshot of the load counters at the last published
        # ClientArrivals event (offered, admitted, dropped).
        self._published = (0, 0, 0)
        n_tenants = len(load.tenants) if load.tenants is not None else 0
        self._published_tenants = (
            ((0,) * n_tenants, (0,) * n_tenants, (0,) * n_tenants)
            if n_tenants
            else None
        )

    # ------------------------------------------------------------------
    # Timer entry point
    # ------------------------------------------------------------------

    def on_batch_timer(self) -> None:
        if self.group.crashed:
            return
        self.try_propose()

    # ------------------------------------------------------------------
    # Backpressure gates
    # ------------------------------------------------------------------

    def senders_backlogged(self) -> bool:
        """TCP-style backpressure: hold proposals while the sending NICs
        are more than ``wan_backlog_cap`` seconds behind. Without this an
        overloaded run accumulates unbounded egress queues and control
        messages (accepts, commits, timestamps) drown behind bulk chunks.

        Encoded bijective replication only *needs* enough senders for
        ``n_data`` chunks per destination (the parity budget covers the
        rest — Section VI-C's "log replication requires only 3 correct
        nodes out of 7"), so the group paces itself on the k-th *fastest*
        member, not the slowest: a minority of slow nodes does not gate
        proposals (Fig 14's gradual-degradation regime).
        """
        group = self.group
        deployment = self.deployment
        cap = self.wan_backlog_cap
        if group.spec.transport == "leader":
            senders = [group.rep]
        else:
            senders = [n for n in group.members if not n.crashed]
        if not senders:
            return True
        backlogs = sorted(
            deployment.network.wan_backlog(node.addr) for node in senders
        )
        if group.spec.transport == "encoded":
            needed = 1
            for dst in deployment.other_groups(group.gid):
                plan = deployment.transport.plan_for(group.gid, dst)
                needed = max(needed, -(-plan.n_data // plan.nc1))
            index = min(needed, len(backlogs)) - 1
            return backlogs[index] > cap
        return backlogs[-1] > cap

    def cpu_backlogged(self) -> bool:
        """Admission control on compute: hold proposals while the
        representative's CPU queue (signature verification, coding,
        execution) is more than ``cpu_backlog_cap`` seconds behind. This
        is what turns CPU saturation into the Fig 13a *plateau* instead
        of an unbounded processing backlog."""
        group = self.group
        now = group.sim.now
        cap = self.cpu_backlog_cap
        if group.rep.cpu.backlog(now) > cap:
            return True
        # The local PBFT leader broadcasts (n-1) entry copies over its
        # LAN NIC; at large group sizes this is a real bottleneck and
        # needs the same admission control as the WAN and CPU queues.
        lan = self.deployment.network._lan_up[group.rep.addr]
        return lan.backlog(now) > cap

    # ------------------------------------------------------------------
    # Proposal window
    # ------------------------------------------------------------------

    def window_allows(self) -> bool:
        group = self.group
        spec = group.spec
        deployment = self.deployment
        now = group.sim.now
        deployment.bus.publish(
            QueueDepthsSampled(
                gid=group.gid,
                at=now,
                wan_backlog=deployment.network.wan_backlog(group.rep.addr),
                cpu_backlog=group.rep.cpu.backlog(now),
            )
        )
        if self.senders_backlogged():
            deployment.bus.publish(ProposalGated(group.gid, now, "wan"))
            return False
        if self.cpu_backlogged():
            deployment.bus.publish(ProposalGated(group.gid, now, "cpu"))
            return False
        if not group.global_phase.may_propose():
            deployment.bus.publish(ProposalGated(group.gid, now, "phase"))
            return False
        if spec.global_consensus == "serial":
            # The slot token is the only pacing serial protocols have.
            return True
        if spec.ordering == "async":
            outstanding = group.next_seq - group.last_own_committed
            if outstanding >= self.pipeline_window:
                deployment.bus.publish(ProposalGated(group.gid, now, "window"))
                return False
            return True
        # Round-based: don't run ahead of execution by more than the window.
        if group.next_seq - group.last_executed_round >= self.round_window:
            deployment.bus.publish(ProposalGated(group.gid, now, "window"))
            return False
        if spec.epoch_slots:
            # ISS: the first entry of epoch e may only be proposed once
            # every entry of epoch e-1 (all groups) has executed locally —
            # the per-epoch synchronisation that disrupts the pipeline.
            seq = group.next_seq + 1
            epoch = (seq - 1) // spec.epoch_slots
            if epoch > 0 and (seq - 1) % spec.epoch_slots == 0:
                if group.last_executed_round < epoch * spec.epoch_slots:
                    deployment.bus.publish(ProposalGated(group.gid, now, "window"))
                    return False
        return True

    # ------------------------------------------------------------------
    # Proposal
    # ------------------------------------------------------------------

    def _publish_arrivals(self, now: float) -> None:
        """Publish the offered/admitted/dropped deltas since last time."""
        load = self.load
        current = (load.offered, load.admitted, load.dropped)
        if current == self._published:
            return
        offered, admitted, dropped = self._published
        self._published = current
        tenant_deltas = ((), (), ())
        if self._published_tenants is not None:
            prev = self._published_tenants
            cur = (
                tuple(load.offered_by_tenant),
                tuple(load.admitted_by_tenant),
                tuple(load.dropped_by_tenant),
            )
            self._published_tenants = cur
            tenant_deltas = tuple(
                tuple(c - p for c, p in zip(cur[i], prev[i])) for i in range(3)
            )
        self.deployment.bus.publish(
            ClientArrivals(
                gid=self.group.gid,
                at=now,
                offered=load.offered - offered,
                admitted=load.admitted - admitted,
                dropped=load.dropped - dropped,
                offered_by_tenant=tenant_deltas[0],
                admitted_by_tenant=tenant_deltas[1],
                dropped_by_tenant=tenant_deltas[2],
            )
        )

    def try_propose(self) -> Optional[LogEntry]:
        if not self.window_allows():
            return None
        group = self.group
        deployment = self.deployment
        now = group.sim.now
        batch = self.load.take(now, max_n=self.max_batch_txns)
        self._publish_arrivals(now)
        if not batch:
            return None
        group.next_seq += 1
        entry = self._make_entry(group.next_seq, batch, now)
        deployment.entries[entry.entry_id] = entry
        waits = [now - due for due in batch.due]
        deployment.bus.publish(
            EntryBatched(entry.entry_id, now, len(batch), sum(waits) / len(waits))
        )
        group.global_phase.on_entry_batched(entry)
        group.local.propose(entry)
        return entry

    def _make_entry(self, seq: int, batch: TxBatch, now: float) -> LogEntry:
        wire_size = batch.size_bytes + 64
        if self.deployment.materialize_payloads:
            payload = batch.serialize()
        else:
            payload = b""
        return LogEntry(
            gid=self.group.gid,
            seq=seq,
            payload=payload,
            batch=batch,
            created_at=now,
            declared_size=wire_size,
        )
