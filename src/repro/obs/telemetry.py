"""Telemetry timelines: named per-node / per-link / per-group TimeSeries.

A :class:`TelemetryRegistry` is a flat, insertion-ordered namespace of
:class:`repro.sim.monitor.TimeSeries`. The :class:`NicSampler` fills it
by periodically reading the simulated NIC queues and PBFT state — it
only *reads*, so attaching it cannot perturb a seeded run — and the
tracer adds event-driven series (queue-depth snapshots, gating stalls)
on top.

Naming convention (slash-separated, stable across runs)::

    node/N0.1/wan_up.backlog_s       seconds of queued egress work
    node/N0.1/wan_up.inflight_bytes  bytes not yet serialized onto the wire
    node/N0.1/wan_up.utilization     busy fraction of the last interval
    group/g0/pbft_view               local PBFT leader index (view stand-in)
    group/g0/epoch                   membership epoch of the group's view
    group/g0/wan_backlog_s           admission-gate snapshot (rep's NIC)
    group/g0/cpu_backlog_s           admission-gate snapshot (rep's CPU)
    group/g0/gated_total             cumulative held proposals
    group/g0/load.offered            cumulative client arrivals offered
    group/g0/load.admitted           cumulative arrivals admitted to batches
    group/g0/load.dropped            cumulative client timeouts / sheds
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.sim.monitor import TimeSeries

#: The NIC lane the sampler reads: WAN bulk egress.
LANE = "wan_up"


class TelemetryRegistry:
    """Insertion-ordered registry of named telemetry time series."""

    def __init__(self) -> None:
        self._series: Dict[str, TimeSeries] = {}

    def series(self, name: str) -> TimeSeries:
        ts = self._series.get(name)
        if ts is None:
            ts = TimeSeries(name)
            self._series[name] = ts
        return ts

    def record(self, name: str, time: float, value: float) -> None:
        self.series(name).record(time, value)

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def items(self) -> List[Tuple[str, TimeSeries]]:
        return list(self._series.items())

    def to_jsonable(self) -> Dict[str, List[Tuple[float, float]]]:
        """``{name: [(t, v), ...]}`` in registration order."""
        return {name: list(ts.points) for name, ts in self._series.items()}


class NicSampler:
    """Periodic reader of NIC queues and group consensus state.

    Installed by the tracer on a repeating simulator timer. Every tick it
    records, for each node's WAN bulk egress lane (``wan_up``, where the
    paper's bandwidth bottleneck lives), the backlog in seconds, the
    in-flight bytes it represents, and the busy fraction of the interval
    just ended; plus each group's current PBFT view (leader index). All
    reads, no writes — simulation behaviour is untouched.
    """

    def __init__(self, deployment, registry: TelemetryRegistry) -> None:
        self.deployment = deployment
        self.registry = registry
        self.interval: float = 0.0  # set by the tracer when it installs us
        self._last_busy: Dict[Any, float] = {}
        self.samples_taken = 0
        #: Sorted node walk with metric names prebuilt, rebuilt only when
        #: membership changes: a per-tick sort + three f-strings per node
        #: is pure allocation churn at a 5 ms sampling interval.
        self._walk_epoch = -1
        self._walk: List[Tuple[Any, str, str, str]] = []

    def _node_walk(self):
        network = self.deployment.network
        if self._walk_epoch != network.membership_epoch:
            self._walk = [
                (
                    addr,
                    f"node/{addr!r}/{LANE}.backlog_s",
                    f"node/{addr!r}/{LANE}.inflight_bytes",
                    f"node/{addr!r}/{LANE}.utilization",
                )
                for addr in sorted(self.deployment.nodes)
            ]
            self._walk_epoch = network.membership_epoch
        return self._walk

    def sample(self) -> None:
        deployment = self.deployment
        now = deployment.sim.now
        registry = self.registry
        network = deployment.network
        for addr, backlog_name, inflight_name, util_name in self._node_walk():
            queue = network.nic_queues(addr)[LANE]
            backlog = queue.backlog(now)
            registry.record(backlog_name, now, backlog)
            registry.record(inflight_name, now, backlog * queue.rate / 8.0)
            last = self._last_busy.get(addr, 0.0)
            self._last_busy[addr] = queue.busy_time
            if self.interval > 0:
                util = min(1.0, (queue.busy_time - last) / self.interval)
                registry.record(util_name, now, util)
        membership = deployment.membership
        for gid in sorted(deployment.groups):
            group = deployment.groups[gid]
            registry.record(
                f"group/g{gid}/pbft_view", now, float(group.pbft.leader_index)
            )
            registry.record(
                f"group/g{gid}/epoch", now, float(membership.view_of(gid).epoch)
            )
            # Offered-traffic counters (reads of the ClientLoad ledger;
            # cumulative, so overload episodes show as slope changes).
            load = group.load_stage.load
            registry.record(f"group/g{gid}/load.offered", now, float(load.offered))
            registry.record(
                f"group/g{gid}/load.admitted", now, float(load.admitted)
            )
            registry.record(f"group/g{gid}/load.dropped", now, float(load.dropped))
        self.samples_taken += 1
