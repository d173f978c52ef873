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
crowds) and multi-tenant mixes go through a buffered admission queue
with priority-aware shedding.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.core.entry import LogEntry
from repro.ledger.transactions import Transaction, TxBatch
from repro.protocols.runtime.events import (
    ClientArrivals,
    EntryBatched,
    ProposalGated,
    QueueDepthsSampled,
)
from repro.traffic.arrivals import ArrivalProcess, ConstantRate
from repro.workloads.base import Workload


class ClientLoad:
    """Open-loop client arrivals for one group, generated lazily.

    Arrival times come from ``process`` (default: one every ``1/rate``
    seconds) but transactions are only generated when a batch forms —
    one :class:`TxBatch` per call of the workload's batch generator — so
    no per-arrival simulator events exist. A bounded backlog
    models client admission: arrivals older than ``queue_seconds`` are
    dropped (clients time out), keeping measured latency meaningful at
    saturation. With a :class:`~repro.traffic.tenancy.TenantMix`, every
    arrival is attributed to a tenant (stamped on the transaction) and
    shedding is priority-aware: when the batch cap binds, high-priority
    tenants are admitted first and low-priority backlog ages out.

    Offered/admitted/dropped counters account for every arrival the
    process produced: ``offered == admitted + dropped + still-queued``.
    """

    def __init__(
        self,
        workload: Workload,
        rate: Optional[float] = None,
        rng=None,
        queue_seconds: float = 0.06,
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
        if self._simple:
            self._queues: Tuple[Deque[Transaction], ...] = ()
            self._queue_order: Tuple[int, ...] = ()
        else:
            # One FIFO per distinct priority, admitted best-first.
            if tenants is None:
                priorities = (0,)
            else:
                priorities = tuple(sorted(set(tenants.priorities)))
            self._prio_index = {p: i for i, p in enumerate(priorities)}
            self._queues = tuple(deque() for _ in priorities)
            self._queue_order = tuple(
                sorted(range(len(priorities)), key=lambda i: -priorities[i])
            )

    def take(self, now: float, max_n: Optional[int] = None) -> TxBatch:
        """The batch of transactions admitted by ``now``."""
        gen = self._gen
        if gen is None:
            gen = self._gen = self.workload.batch_generator_for(self.rng)
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
        # 1. Everything that arrived by now goes into the admission
        #    queues as transaction objects (they may wait there across
        #    batches). With tenants, attribution happens at arrival time
        #    (a seeded coin over the rate shares, from its own stream) so
        #    shed decisions and drop counts are tenant-attributable.
        arrived = gen(self.process.take_until(now)).transactions
        self.offered += len(arrived)
        if tenants is not None:
            pick = tenants.pick
            tenant_rng = self.tenant_rng
            tenant_priorities = tenants.priorities
            prio_index = self._prio_index
            offered_by_tenant = self.offered_by_tenant
            for tx in arrived:
                tenant = pick(tenant_rng)
                offered_by_tenant[tenant] += 1
                tx.tenant = tenant
                queues[prio_index[tenant_priorities[tenant]]].append(tx)
        else:
            queues[0].extend(arrived)
        # 2. Shed: drop queued arrivals older than the admission window
        #    (clients time out). Queues are FIFO per priority, so aged
        #    entries sit at the head.
        horizon = now - self.queue_seconds
        dropped_by_tenant = self.dropped_by_tenant
        for queue in queues:
            while queue and queue[0].created_at < horizon:
                tx = queue.popleft()
                self.dropped += 1
                if tenants is not None:
                    dropped_by_tenant[tx.tenant] += 1
        # 3. Admit up to ``max_n``, highest priority first, FIFO within
        #    a priority class.
        txns: List[Transaction] = []
        append = txns.append
        budget = max_n if max_n is not None else -1
        admitted_by_tenant = self.admitted_by_tenant
        for index in self._queue_order:
            queue = queues[index]
            while queue:
                if budget == 0:
                    break
                tx = queue.popleft()
                append(tx)
                if tenants is not None:
                    admitted_by_tenant[tx.tenant] += 1
                budget -= 1
        self.admitted += len(txns)
        if tenants is None:
            return TxBatch(txns)
        return TxBatch(txns, [tx.tenant for tx in txns])


class LoadStage:
    """Batching plus admission control for one group."""

    def __init__(self, group, load: Optional[ClientLoad]) -> None:
        self.group = group
        self.deployment = group.deployment
        self.load = load
        # Per-group copies of the deployment's admission/batching knobs.
        # They start at the deployment-wide values (so uncontrolled runs
        # are byte-identical to reading deployment.* directly) and are
        # the actuation points of repro.control: the controller may tune
        # one group's batch cap or backlog thresholds without touching
        # the others.
        deployment = self.deployment
        self.max_batch_txns = deployment.max_batch_txns
        self.pipeline_window = deployment.pipeline_window
        self.round_window = deployment.round_window
        self.wan_backlog_cap = deployment.wan_backlog_cap
        self.cpu_backlog_cap = deployment.cpu_backlog_cap
        # Snapshot of the load counters at the last published
        # ClientArrivals event (offered, admitted, dropped).
        self._published = (0, 0, 0)
        n_tenants = len(load.tenants) if load and load.tenants is not None else 0
        self._published_tenants = (
            ((0,) * n_tenants, (0,) * n_tenants, (0,) * n_tenants)
            if n_tenants
            else None
        )

    # ------------------------------------------------------------------
    # Timer entry point
    # ------------------------------------------------------------------

    def on_batch_timer(self) -> None:
        if self.group.crashed or self.load is None:
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
        offered, admitted, dropped = self._published
        d_offered = load.offered - offered
        d_dropped = load.dropped - dropped
        if not d_offered and not d_dropped:
            return
        self._published = (load.offered, load.admitted, load.dropped)
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
                offered=d_offered,
                admitted=load.admitted - admitted,
                dropped=d_dropped,
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
