"""Reconfiguration recovery benchmark: dip depth and time-to-recovery.

Measures what a reconfiguration *costs* in delivered goodput. One
deployment runs at moderate load; at ``EVENT_AT`` a churn scenario fires
(a telemetry-driven leader move off a throttled representative, or a
node join with state-transfer catch-up); committed transactions are
binned into fixed-width goodput windows from the ``EntryExecuted`` bus
events. The report is three numbers per scenario:

* **steady** — mean goodput between warmup and the event;
* **dip** — the worst post-event bin, as a fraction of steady (graceful
  degradation means this stays well above zero);
* **recovery** — seconds from the event until a bin first returns to
  ``RECOVERY_FRACTION`` of steady.

Everything is seeded and simulated, so the numbers are bit-reproducible;
``repro bench`` prints them and ``benchmarks/bench_reconfig_recovery.py``
records them into ``benchmarks/results.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.protocols import GeoDeployment, protocol_by_name
from repro.protocols.runtime.events import EntryExecuted, ReconfigApplied
from repro.topology import scaled_cluster
from repro.workloads import make_workload

#: Protocol and cluster every scenario runs on: 3 groups of 5 nodes.
PROTOCOL = "massbft"
N_GROUPS = 3
NODES_PER_GROUP = 5
#: Moderate offered load per group (txns/s), well below saturation.
OFFERED_LOAD = 1500.0
#: Simulated seconds: the whole run, the warmup before the steady window,
#: and the instant the churn scenario fires.
DURATION = 4.0
WARMUP = 0.5
EVENT_AT = 1.5
#: Goodput binning window (simulated seconds).
BIN_WIDTH = 0.05
#: A bin at this fraction of steady goodput counts as recovered.
RECOVERY_FRACTION = 0.9
#: WAN bandwidth the leader-move scenario throttles the leader NIC to.
DEGRADED_BANDWIDTH = 2e6

SCENARIOS = ("leader-move", "node-join")


@dataclass
class RecoveryResult:
    """Goodput timeline summary for one churn scenario."""

    scenario: str
    seed: int
    event_at: float
    steady_tps: float
    dip_tps: float
    dip_ratio: float
    recovery_s: float
    recovered: bool
    #: Smallest post-warmup bin (graceful degradation: must be > 0).
    min_bin_tps: float
    #: (time, kind, epoch) of every reconfiguration event observed.
    events: List[Tuple[float, str, int]] = field(default_factory=list)
    #: Per-bin goodput rates (txns/s), full run.
    bins: List[float] = field(default_factory=list)

    def row(self) -> List[object]:
        return [
            self.scenario,
            round(self.steady_tps, 1),
            round(self.dip_tps, 1),
            round(self.dip_ratio, 3),
            round(self.recovery_s, 3),
            "yes" if self.recovered else "NO",
        ]

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "event_at": self.event_at,
            "steady_tps": round(self.steady_tps, 2),
            "dip_tps": round(self.dip_tps, 2),
            "dip_ratio": round(self.dip_ratio, 4),
            "recovery_s": round(self.recovery_s, 4),
            "recovered": self.recovered,
            "min_bin_tps": round(self.min_bin_tps, 2),
            "events": [
                [round(at, 4), kind, epoch] for at, kind, epoch in self.events
            ],
        }


def run_recovery(scenario: str, seed: int = 2) -> RecoveryResult:
    """Run one recovery scenario and summarise its goodput timeline."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; pick from {SCENARIOS}")
    cluster = scaled_cluster(n_groups=N_GROUPS, nodes_per_group=NODES_PER_GROUP)
    deployment = GeoDeployment(
        cluster,
        protocol_by_name(PROTOCOL),
        make_workload("ycsb-a"),
        offered_load=OFFERED_LOAD,
        seed=seed,
    )
    n_bins = int(round(DURATION / BIN_WIDTH))
    counts = [0] * n_bins
    events: List[Tuple[float, str, int]] = []

    def on_executed(event: EntryExecuted) -> None:
        index = min(n_bins - 1, int(event.at / BIN_WIDTH))
        counts[index] += len(event.commit_times)

    deployment.bus.subscribe(EntryExecuted, on_executed)
    deployment.bus.subscribe(
        ReconfigApplied,
        lambda e: events.append((e.at, e.kind, e.epoch)),
    )

    if scenario == "leader-move":
        # Throttle the current representative's NIC at the event; the
        # telemetry-driven leader watch detects the backlog and moves
        # leadership to the least-loaded live peer.
        group = deployment.groups[0]
        network = deployment.network

        def throttle_leader() -> None:
            network.set_node_bandwidth(
                group.pbft.leader.addr, DEGRADED_BANDWIDTH
            )

        deployment.sim.schedule_at(EVENT_AT, throttle_leader)
        deployment.reconfig.enable_leader_watch()
    else:  # node-join
        deployment.join_node_at(0, EVENT_AT)

    deployment.run(duration=DURATION)

    rates = [c / BIN_WIDTH for c in counts]
    steady_lo = int(WARMUP / BIN_WIDTH)
    steady_hi = int(EVENT_AT / BIN_WIDTH)
    steady_bins = rates[steady_lo:steady_hi]
    steady = sum(steady_bins) / len(steady_bins) if steady_bins else 0.0
    post = rates[steady_hi:]
    dip = min(post) if post else 0.0
    dip_index = post.index(dip) if post else 0
    recovered = False
    recovery_s = DURATION - EVENT_AT
    # Recovery is measured from the *dip* onwards: the first bin at or
    # after the worst one that returns to RECOVERY_FRACTION of steady.
    for i in range(dip_index, len(post)):
        if steady > 0 and post[i] >= RECOVERY_FRACTION * steady:
            recovered = True
            recovery_s = (steady_hi + i + 1) * BIN_WIDTH - EVENT_AT
            break
    return RecoveryResult(
        scenario=scenario,
        seed=seed,
        event_at=EVENT_AT,
        steady_tps=steady,
        dip_tps=dip,
        dip_ratio=(dip / steady) if steady > 0 else 0.0,
        recovery_s=recovery_s,
        recovered=recovered,
        min_bin_tps=min(rates[steady_lo:]) if rates[steady_lo:] else 0.0,
        events=events,
        bins=rates,
    )


def run_all(seed: int = 2) -> List[RecoveryResult]:
    """Both recovery scenarios, in declaration order."""
    return [run_recovery(scenario, seed=seed) for scenario in SCENARIOS]


__all__ = [
    "BIN_WIDTH",
    "DEGRADED_BANDWIDTH",
    "RECOVERY_FRACTION",
    "SCENARIOS",
    "RecoveryResult",
    "run_all",
    "run_recovery",
]
