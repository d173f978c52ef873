"""Per-entry metrics rows against per-transaction recording.

Each scenario runs once and keeps every event the metrics bridge
consumes. The stream is then replayed into a :class:`RunMetrics` and a
:class:`tests.metrics_reference.ReferenceRunMetrics`, with a percentile
read halfway through, and every report either can give — summary,
tenant rows, windowed timelines, the perfbench commit-gap walk — must
agree to the bit. Both sorts of the latency column (numpy and the
pure-Python fallback) are held to the same reference.
"""

import pytest

from repro.bench.metrics import RunMetrics
from repro.protocols import GeoDeployment, protocol_by_name
from repro.protocols.runtime import events
from repro.sim import monitor
from repro.topology import nationwide_cluster
from repro.traffic import TrafficSpec, gold_silver_bronze
from repro.workloads import make_workload
from tests.metrics_reference import ReferenceRunMetrics

WARMUP, DURATION = 0.25, 1.5

#: Every topic MetricsBridge subscribes to.
TOPICS = (
    events.EntryBatched,
    events.EntryLocallyCommitted,
    events.EntryAvailableRemote,
    events.EntryGloballyCommitted,
    events.EntryExecuted,
    events.ClientArrivals,
    events.QueueDepthsSampled,
    events.ProposalGated,
    events.ControlDecision,
)


def fig08_shaped(**options):
    options.setdefault("offered_load", 8_000.0)
    return GeoDeployment(
        nationwide_cluster(nodes_per_group=4),
        protocol_by_name("massbft"),
        make_workload("ycsb-a"),
        seed=11,
        **options,
    )


def churn_with_crash():
    deployment = fig08_shaped()
    deployment.join_node_at(1, 0.4)
    deployment.leave_node_at(2, 3, 0.6)
    deployment.crash_group_at(0, 0.8)
    return deployment


def tenant_traffic():
    spec = TrafficSpec.flash_crowd(
        base=6_000.0,
        spike=30_000.0,
        start=0.5,
        duration=0.4,
        n_groups=3,
        tenants=gold_silver_bronze(),
    )
    return fig08_shaped(offered_load=spec.offered_load(range(3)), traffic=spec)


SCENARIOS = {
    "fig08": fig08_shaped,
    "churn_crash": churn_with_crash,
    "tenants": tenant_traffic,
    "observers_all": lambda: fig08_shaped(observers="all"),
}


@pytest.fixture(scope="module")
def streams():
    """Per scenario: (group count, tenant mix, events in publish order)."""
    recorded = {}
    for name, build in SCENARIOS.items():
        deployment = build()
        stream = []
        for topic in TOPICS:
            deployment.bus.subscribe(topic, stream.append)
        deployment.run(duration=DURATION, warmup=WARMUP)
        tenants = deployment.traffic.tenants if deployment.traffic else None
        recorded[name] = (deployment.n_groups, tenants, stream)
    return recorded


def replay(metrics_cls, n_groups, tenants, stream):
    """Feed ``stream`` to a fresh ``metrics_cls`` through a bus, as a run
    does; returns it with the reads taken halfway through."""
    metrics = metrics_cls(n_groups)
    if tenants is not None:
        metrics.configure_tenants(tenants)
    metrics.warmup = WARMUP
    bus = events.EventBus()
    events.MetricsBridge(bus, metrics)
    midway = []
    for index, event in enumerate(stream):
        bus.publish(event)
        if index == len(stream) // 2:
            hist = metrics.latency
            midway = [hist.p99, hist.mean, hist.count]
    metrics.end_time = DURATION
    return metrics, midway


def max_commit_gap(metrics):
    """perfbench's walk over the throughput timeline."""
    gap, previous = 0.0, WARMUP
    for at, _count in metrics.throughput_timeline.points:
        if at - previous > gap:
            gap = at - previous
        previous = at
    return max(gap, DURATION - previous)


def report(metrics, midway):
    out = {"midway": midway, "summary": metrics.summary()}
    out["tenants"] = metrics.tenant_rows()
    for window in (0.1, 0.5, 1.0):
        for end in (None, DURATION):
            out[("throughput", window, end)] = (
                metrics.throughput_timeline.window_sums(window, end)
            )
            out[("latency", window, end)] = (
                metrics.latency_timeline.window_means(window, end)
            )
    hist = metrics.latency
    out["latency"] = [hist.p50, hist.mean, hist.count, len(hist)]
    out["gap"] = max_commit_gap(metrics)
    out["timeline_lengths"] = (
        len(metrics.throughput_timeline),
        len(metrics.latency_timeline),
    )
    return out


@pytest.mark.parametrize("sort", ["numpy", "python"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_rows_report_what_per_transaction_recording_did(
    streams, scenario, sort, monkeypatch
):
    if sort == "python":
        monkeypatch.setattr(monitor, "_np", None)
    elif monitor._np is None:
        pytest.skip("numpy unavailable or disabled")
    n_groups, tenants, stream = streams[scenario]
    rows = report(*replay(RunMetrics, n_groups, tenants, stream))
    reference = report(*replay(ReferenceRunMetrics, n_groups, tenants, stream))
    assert rows["summary"]["committed"] > 5_000
    assert bool(rows["tenants"]) == (scenario == "tenants")
    # repr tells -0.0 from 0.0, so equal reprs mean equal bits.
    assert repr(rows) == repr(reference)


def test_points_is_lazy_and_walks_rows_in_commit_order():
    metrics = RunMetrics(2)
    metrics.record_commits((0.5, 0.25), now=1.0, gid=0)
    metrics.record_commits((1.5,), now=2.0, gid=1)
    points = metrics.throughput_timeline.points
    assert iter(points) is points  # a generator, not a list
    assert list(points) == [(1.0, 1.0), (1.0, 1.0), (2.0, 1.0)]
    assert list(metrics.latency_timeline.points) == [
        (1.0, 0.5),
        (1.0, 0.75),
        (2.0, 0.5),
    ]
    assert len(metrics.latency_timeline) == 3
