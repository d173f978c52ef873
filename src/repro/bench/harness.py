"""The experiment runner: one call per figure data point.

Wraps :class:`repro.protocols.GeoDeployment` construction and
execution behind a declarative :class:`RunConfig`, echoing everything a
reader needs to reproduce a row into the :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.bench.metrics import RunMetrics
from repro.topology.cluster import ClusterConfig
from repro.workloads import make_workload
from repro.workloads.base import Workload

#: Calibrated runs offer this share of each group's measured capacity …
LATENCY_FACTOR = 0.9
#: … but never less than this many txns/s per group.
MIN_RATE = 200.0


@dataclass
class RunConfig:
    """One benchmark data point."""

    protocol: str
    cluster: ClusterConfig
    workload: str = "ycsb-a"
    offered_load: float = 30_000.0
    duration: float = 2.0
    warmup: float = 0.5
    seed: int = 0
    #: Hook run after construction, before the simulation starts
    #: (failure injection, bandwidth changes, ...).
    setup: Optional[Callable[[Any], None]] = None
    #: Workload constructor overrides (e.g. n_warehouses).
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class RunResult:
    """Everything measured for one data point."""

    config: RunConfig
    throughput_tps: float
    mean_latency_s: float
    p50_latency_s: float
    p99_latency_s: float
    p999_latency_s: float
    committed: int
    abort_rate: float
    mean_batch_size: float
    wan_bytes_total: int
    phase_durations: Dict[str, float]
    group_throughput: List[float]
    metrics: RunMetrics

    @property
    def throughput_ktps(self) -> float:
        return self.throughput_tps / 1000.0

    @property
    def mean_latency_ms(self) -> float:
        return self.mean_latency_s * 1000.0

    def row(self) -> List[Any]:
        """The standard (protocol, ktps, ms) report row."""
        return [
            self.config.protocol,
            round(self.throughput_ktps, 2),
            round(self.mean_latency_ms, 1),
        ]


class ExperimentRunner:
    """Builds, runs, and summarises deployments for bench files."""

    def __init__(self) -> None:
        self.results: List[RunResult] = []

    def _make_workload(self, config: RunConfig) -> Workload:
        return make_workload(config.workload, **config.workload_kwargs)

    def run(self, config: RunConfig) -> RunResult:
        from repro.protocols import GeoDeployment, protocol_by_name

        spec = protocol_by_name(config.protocol)
        workload = self._make_workload(config)
        deployment = GeoDeployment(
            cluster=config.cluster,
            spec=spec,
            workload=workload,
            offered_load=config.offered_load,
            seed=config.seed,
        )
        if config.setup is not None:
            config.setup(deployment)
        metrics = deployment.run(config.duration, warmup=config.warmup)
        result = RunResult(
            config=config,
            throughput_tps=metrics.throughput,
            mean_latency_s=metrics.mean_latency,
            p50_latency_s=metrics.p50_latency,
            p99_latency_s=metrics.p99_latency,
            p999_latency_s=metrics.p999_latency,
            committed=metrics.committed,
            abort_rate=metrics.abort_rate,
            mean_batch_size=metrics.mean_batch_size,
            wan_bytes_total=deployment.network.wan_bytes_total,
            phase_durations=metrics.phase_durations(),
            group_throughput=[
                metrics.group_throughput(g) for g in range(deployment.n_groups)
            ],
            metrics=metrics,
        )
        self.results.append(result)
        return result

    def run_calibrated(self, config: RunConfig) -> RunResult:
        """Two-phase measurement: saturate for peak throughput, then rerun
        near capacity for representative latency.

        Phase 1 drives the configured (high) offered load and takes the
        measured committed rate as the protocol's capacity. Phase 2 offers
        :data:`LATENCY_FACTOR` of each group's measured capacity (at least
        :data:`MIN_RATE` txns/s), so queues stay short and latency reflects
        the consensus path rather than admission queueing — the standard
        way OLTP evaluations pair a peak-throughput number with a latency
        number.

        The returned result carries phase-1 throughput and phase-2
        latency (phase-2 metrics object is attached as ``metrics``).
        """
        import dataclasses

        probe = self.run(config)
        measured = probe.metrics.measured_duration()
        per_group = {
            g: max(MIN_RATE, probe.metrics.committed_by_group[g] / measured * LATENCY_FACTOR)
            for g in range(len(probe.metrics.committed_by_group))
        }
        relaxed = self.run(dataclasses.replace(config, offered_load=per_group))
        combined = RunResult(
            config=config,
            throughput_tps=probe.throughput_tps,
            mean_latency_s=relaxed.mean_latency_s,
            p50_latency_s=relaxed.p50_latency_s,
            p99_latency_s=relaxed.p99_latency_s,
            p999_latency_s=relaxed.p999_latency_s,
            committed=probe.committed,
            abort_rate=probe.abort_rate,
            mean_batch_size=probe.mean_batch_size,
            wan_bytes_total=probe.wan_bytes_total,
            phase_durations=relaxed.phase_durations,
            group_throughput=probe.group_throughput,
            metrics=relaxed.metrics,
        )
        self.results.append(combined)
        return combined
