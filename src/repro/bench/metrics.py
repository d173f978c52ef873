"""Run-level measurement: throughput, latency, breakdowns, traffic.

One :class:`RunMetrics` instance observes a deployment run. Transactions
are counted once, at the moment the proposing group's observer node
executes them; latency is end-to-end (client submission to execution).
Entry phase stamps feed the Fig 11 latency breakdown; WAN byte counters
feed the Fig 10 traffic comparison.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.core.entry import EntryId
from repro.sim.monitor import Histogram, RowSeries

#: Entry lifecycle phases stamped by the deployment, in order.
ENTRY_PHASES = (
    "batched",          # entry assembled from pending transactions
    "local_committed",  # local PBFT consensus complete at the rep
    "available_remote", # entry rebuilt/received at the last remote rep
    "global_committed", # f_g+1 accepts gathered, commit broadcast
    "executed",         # executed at the origin group's observer
)


class RunMetrics:
    """Collects everything a benchmark reports about one run."""

    def __init__(self, n_groups: int) -> None:
        self.n_groups = n_groups
        self.warmup = 0.0
        self.committed = 0
        self.aborted_attempts = 0
        self.committed_by_group = [0] * n_groups
        # One row per executed entry (post-warmup): its commit instant
        # and the end offset of its transactions' latencies in the flat
        # float64 column. The latency histogram and both timelines are
        # views over these columns.
        self.row_times = array("d")
        self.row_ends = array("q")
        self.latencies = array("d")
        self.latency = Histogram("txn_latency", self.latencies)
        self.throughput_timeline = RowSeries(
            "throughput", self.row_times, self.row_ends
        )
        self.latency_timeline = RowSeries(
            "latency", self.row_times, self.row_ends, self.latencies
        )
        self.entry_stamps: Dict[EntryId, Dict[str, float]] = {}
        self.entry_batch_waits: List[float] = []
        self.batch_sizes = Histogram("batch_size")
        # Offered-vs-admitted-vs-committed accounting, fed from the load
        # stage's ClientArrivals deltas (post-warmup). ``dropped_txns``
        # is the ClientLoad drop counter surfaced here — one ledger, not
        # two: client-timeout aging and priority shedding both land in
        # it.
        self.offered_txns = 0
        self.admitted_txns = 0
        self.dropped_txns = 0
        self.end_time: Optional[float] = None
        # Multi-tenant attribution (set up by configure_tenants).
        self.tenant_names: Optional[List[str]] = None
        self.tenant_priorities: List[int] = []
        self.tenant_slos: List[float] = []
        self.tenant_latency: List[Histogram] = []
        self.tenant_committed: List[int] = []
        self.tenant_offered: List[int] = []
        self.tenant_admitted: List[int] = []
        self.tenant_dropped: List[int] = []
        # Admission-gate telemetry: per-group running aggregates of the
        # QueueDepthsSampled snapshots ([count, wan_sum, wan_max,
        # cpu_sum, cpu_max]) and ProposalGated stall counts by reason.
        self.queue_stats: Dict[int, List[float]] = {}
        self.gated_counts: Dict[int, Dict[str, int]] = {}
        # Adaptive-control decision log: one dict per knob actuation,
        # in publication order (empty without a controller).
        self.control_decisions: List[Dict[str, float]] = []

    # ------------------------------------------------------------------
    # Recording (called by the deployment)
    # ------------------------------------------------------------------

    def record_commits(self, commit_times, now: float, gid: int) -> None:
        """One entry executed at its origin group's observer, at ``now``;
        ``commit_times`` are the ``created_at`` stamps of the
        transactions it committed.

        Stores one row: 8 B per transaction for its latency, plus the
        row's instant and end offset.
        """
        if now < self.warmup or not commit_times:
            return
        n = len(commit_times)
        self.committed += n
        self.committed_by_group[gid] += n
        latencies = self.latencies
        latencies.extend([now - created_at for created_at in commit_times])
        self.row_times.append(now)
        self.row_ends.append(len(latencies))

    def record_aborts(self, count: int, now: float) -> None:
        if now >= self.warmup:
            self.aborted_attempts += count

    def configure_tenants(self, mix) -> None:
        """Enable per-tenant accounting for a
        :class:`repro.traffic.tenancy.TenantMix` (duck-typed: needs
        ``tenants`` with name/priority/slo_p99_s)."""
        tenants = list(mix.tenants)
        self.tenant_names = [t.name for t in tenants]
        self.tenant_priorities = [t.priority for t in tenants]
        self.tenant_slos = [t.slo_p99_s for t in tenants]
        self.tenant_latency = [
            Histogram(f"latency_tenant_{t.name}") for t in tenants
        ]
        n = len(tenants)
        self.tenant_committed = [0] * n
        self.tenant_offered = [0] * n
        self.tenant_admitted = [0] * n
        self.tenant_dropped = [0] * n

    def record_traffic(
        self,
        offered: int,
        admitted: int,
        dropped: int,
        now: float,
        offered_by_tenant=(),
        admitted_by_tenant=(),
        dropped_by_tenant=(),
    ) -> None:
        """One ClientArrivals delta from a group's admission pass."""
        if now < self.warmup:
            return
        self.offered_txns += offered
        self.admitted_txns += admitted
        self.dropped_txns += dropped
        if offered_by_tenant and self.tenant_names is not None:
            for i, count in enumerate(offered_by_tenant):
                self.tenant_offered[i] += count
            for i, count in enumerate(admitted_by_tenant):
                self.tenant_admitted[i] += count
            for i, count in enumerate(dropped_by_tenant):
                self.tenant_dropped[i] += count

    def record_tenant_commits(self, commit_times, tenants, now: float) -> None:
        """Per-tenant latency samples for one executed entry."""
        if now < self.warmup or self.tenant_names is None:
            return
        committed = self.tenant_committed
        hists = self.tenant_latency
        for created_at, tenant in zip(commit_times, tenants):
            committed[tenant] += 1
            hists[tenant].observe(now - created_at)

    def stamp(self, entry_id: EntryId, phase: str, now: float) -> None:
        """Record a lifecycle timestamp for an entry."""
        if phase not in ENTRY_PHASES:
            raise ValueError(f"unknown entry phase {phase!r}")
        stamps = self.entry_stamps.setdefault(entry_id, {})
        # available_remote keeps the LAST remote arrival (slowest group).
        if phase == "available_remote":
            stamps[phase] = max(stamps.get(phase, 0.0), now)
        else:
            stamps.setdefault(phase, now)

    def record_batch(self, size: int, mean_wait: float) -> None:
        self.batch_sizes.observe(size)
        self.entry_batch_waits.append(mean_wait)

    def record_queue_sample(
        self, gid: int, now: float, wan_backlog: float, cpu_backlog: float
    ) -> None:
        """One admission-gate queue-depth snapshot (post-warmup only)."""
        if now < self.warmup:
            return
        stats = self.queue_stats.get(gid)
        if stats is None:
            stats = self.queue_stats[gid] = [0.0, 0.0, 0.0, 0.0, 0.0]
        stats[0] += 1
        stats[1] += wan_backlog
        if wan_backlog > stats[2]:
            stats[2] = wan_backlog
        stats[3] += cpu_backlog
        if cpu_backlog > stats[4]:
            stats[4] = cpu_backlog

    def record_gated(self, gid: int, reason: str, now: float) -> None:
        """One held proposal (post-warmup only)."""
        if now < self.warmup:
            return
        by_reason = self.gated_counts.setdefault(gid, {})
        by_reason[reason] = by_reason.get(reason, 0) + 1

    def record_control_decision(
        self,
        at: float,
        gid: int,
        knob: str,
        old: float,
        new: float,
        trigger: str,
        value: float,
        policy: str,
        epoch: int,
    ) -> None:
        """One adaptive-control knob actuation (all retained, no warmup
        cut: the decision log explains the run, and a warmup-period
        actuation still shapes everything measured after it)."""
        self.control_decisions.append(
            {
                "at": at,
                "gid": gid,
                "knob": knob,
                "old": old,
                "new": new,
                "trigger": trigger,
                "value": value,
                "policy": policy,
                "epoch": epoch,
            }
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def measured_duration(self) -> float:
        if self.end_time is None:
            raise RuntimeError("run not finalized (end_time unset)")
        return max(1e-9, self.end_time - self.warmup)

    @property
    def throughput(self) -> float:
        """Committed transactions per simulated second (after warmup)."""
        return self.committed / self.measured_duration()

    def group_throughput(self, gid: int) -> float:
        return self.committed_by_group[gid] / self.measured_duration()

    @property
    def mean_latency(self) -> float:
        return self.latency.mean

    @property
    def p50_latency(self) -> float:
        return self.latency.p50

    @property
    def p99_latency(self) -> float:
        return self.latency.p99

    @property
    def p999_latency(self) -> float:
        return self.latency.p999

    @property
    def abort_rate(self) -> float:
        attempts = self.committed + self.aborted_attempts
        if not attempts:
            return 0.0
        return self.aborted_attempts / attempts

    @property
    def mean_batch_size(self) -> float:
        return self.batch_sizes.mean

    def phase_durations(self) -> Dict[str, float]:
        """Mean seconds spent between consecutive lifecycle phases.

        Keys: ``batching`` (client wait before the entry formed),
        ``local_consensus``, ``global_replication``, ``global_consensus``,
        ``ordering_execution`` — the Fig 11 breakdown components.
        """
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}

        def add(key: str, value: float) -> None:
            sums[key] = sums.get(key, 0.0) + value
            counts[key] = counts.get(key, 0) + 1

        for stamps in self.entry_stamps.values():
            if "batched" not in stamps:
                continue
            t0 = stamps["batched"]
            if t0 < self.warmup or "executed" not in stamps:
                continue
            if "local_committed" in stamps:
                add("local_consensus", stamps["local_committed"] - t0)
            if "available_remote" in stamps and "local_committed" in stamps:
                add(
                    "global_replication",
                    stamps["available_remote"] - stamps["local_committed"],
                )
            if "global_committed" in stamps and "available_remote" in stamps:
                add(
                    "global_consensus",
                    max(0.0, stamps["global_committed"] - stamps["available_remote"]),
                )
            anchor = stamps.get("global_committed") or stamps.get("local_committed")
            if anchor is not None:
                add("ordering_execution", max(0.0, stamps["executed"] - anchor))
        if self.entry_batch_waits:
            sums["batching"] = sum(self.entry_batch_waits)
            counts["batching"] = len(self.entry_batch_waits)
        return {
            key: sums[key] / counts[key] for key in sums if counts.get(key)
        }

    def queue_summary(self) -> List[Dict[str, float]]:
        """Per-group admission-gate summary rows (post-warmup).

        Each row: group id, snapshot count, mean/max WAN and CPU backlog
        in seconds, total gating stalls, and per-reason stall counts
        (``gated_wan`` etc. — the reasons of
        :class:`~repro.protocols.runtime.events.ProposalGated`).
        """
        rows: List[Dict[str, float]] = []
        for gid in sorted(set(self.queue_stats) | set(self.gated_counts)):
            stats = self.queue_stats.get(gid, [0.0, 0.0, 0.0, 0.0, 0.0])
            count = stats[0]
            by_reason = self.gated_counts.get(gid, {})
            row: Dict[str, float] = {
                "gid": float(gid),
                "samples": count,
                "wan_backlog_mean": stats[1] / count if count else 0.0,
                "wan_backlog_max": stats[2],
                "cpu_backlog_mean": stats[3] / count if count else 0.0,
                "cpu_backlog_max": stats[4],
                "gated_total": float(sum(by_reason.values())),
            }
            for reason, stalls in sorted(by_reason.items()):
                row[f"gated_{reason}"] = float(stalls)
            rows.append(row)
        return rows

    def control_summary(self) -> List[Dict[str, object]]:
        """Controller decision-log rows, one per knob actuation.

        Each row: simulated time, group, knob name, old/new values, the
        trigger signal and its sampled magnitude, the policy that
        decided, and the control epoch after actuation — the per-knob
        "when, trigger, old -> new" table for run summaries. Empty
        without a controller.
        """
        rows: List[Dict[str, object]] = []
        for decision in self.control_decisions:
            rows.append(
                {
                    "at": decision["at"],
                    "gid": decision["gid"],
                    "knob": decision["knob"],
                    "old": decision["old"],
                    "new": decision["new"],
                    "trigger": decision["trigger"],
                    "value": decision["value"],
                    "policy": decision["policy"],
                    "epoch": decision["epoch"],
                }
            )
        return rows

    def traffic_summary(self) -> Dict[str, int]:
        """Offered/admitted/committed/dropped accounting (post-warmup).

        ``offered == admitted + dropped + still-queued-at-end``;
        ``committed <= admitted`` (admitted work can still be in flight
        when the run ends).
        """
        return {
            "offered": self.offered_txns,
            "admitted": self.admitted_txns,
            "committed": self.committed,
            "dropped": self.dropped_txns,
        }

    def tenant_rows(self) -> List[Dict[str, float]]:
        """Per-tenant accounting + latency percentiles + SLO grade.

        Empty unless :meth:`configure_tenants` ran. ``slo_met`` grades
        the measured p99 against the tenant's own target.
        """
        if self.tenant_names is None:
            return []
        rows: List[Dict[str, float]] = []
        for i, name in enumerate(self.tenant_names):
            hist = self.tenant_latency[i]
            p99 = hist.p99
            rows.append(
                {
                    "tenant": name,
                    "priority": self.tenant_priorities[i],
                    "offered": self.tenant_offered[i],
                    "admitted": self.tenant_admitted[i],
                    "committed": self.tenant_committed[i],
                    "dropped": self.tenant_dropped[i],
                    "p50_latency_s": hist.p50,
                    "p99_latency_s": p99,
                    "p999_latency_s": hist.p999,
                    "slo_p99_s": self.tenant_slos[i],
                    "slo_met": bool(hist.count) and p99 <= self.tenant_slos[i],
                }
            )
        return rows

    def summary(self) -> Dict[str, float]:
        return {
            "throughput_tps": self.throughput,
            "mean_latency_s": self.mean_latency,
            "p50_latency_s": self.p50_latency,
            "p99_latency_s": self.p99_latency,
            "p999_latency_s": self.p999_latency,
            "committed": float(self.committed),
            "offered": float(self.offered_txns),
            "admitted": float(self.admitted_txns),
            "dropped": float(self.dropped_txns),
            "abort_rate": self.abort_rate,
            "mean_batch_size": self.mean_batch_size,
        }
