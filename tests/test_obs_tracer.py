"""Tracer span collection: structure, gating, lanes, caps, telemetry."""

import pytest

from repro.core.entry import EntryId
from repro.obs import STAGE_NAMES, Tracer
from repro.protocols import GeoDeployment, protocol_by_name
from repro.protocols.runtime.events import EntryReplicationStarted
from repro.topology import nationwide_cluster
from repro.workloads import make_workload


def small_deployment(seed: int = 3) -> GeoDeployment:
    return GeoDeployment(
        nationwide_cluster(nodes_per_group=4),
        protocol_by_name("massbft"),
        make_workload("ycsb-a"),
        offered_load=2_000.0,
        seed=seed,
    )


@pytest.fixture(scope="module")
def traced_run():
    deployment = small_deployment()
    tracer = Tracer.attach(deployment, telemetry_interval=0.01)
    metrics = deployment.run(duration=1.0, warmup=0.25)
    return deployment, tracer, tracer.build(), metrics


class TestGating:
    def test_untraced_deployment_has_no_hooks(self):
        deployment = small_deployment()
        assert deployment.network.transmit_hook is None
        # The replication event is only published when a subscriber asks
        # for it — the hot-path zero-allocation gate.
        assert not deployment.bus.wants(EntryReplicationStarted)

    def test_attach_installs_hooks(self):
        deployment = small_deployment()
        Tracer.attach(deployment, telemetry_interval=0.0)
        assert deployment.network.transmit_hook is not None
        assert deployment.bus.wants(EntryReplicationStarted)


class TestSpanForest:
    def test_entry_roots_cover_committed_entries(self, traced_run):
        _, _, trace, metrics = traced_run
        assert metrics.committed > 0
        assert trace.meta["entries"] == len(trace.entry_roots) > 0
        complete = [r for r in trace.entry_roots if r.args["complete"]]
        assert complete, "expected executed entries in a healthy run"

    def test_stage_children_ordered_and_contiguous(self, traced_run):
        _, _, trace, _ = traced_run
        root = next(r for r in trace.entry_roots if r.args["complete"])
        names = [c.name for c in root.children]
        assert names == list(STAGE_NAMES)
        for child in root.children:
            assert root.start <= child.start <= child.end <= root.end
        # Stage boundaries chain: each stage starts where one before ended.
        for prev, cur in zip(root.children, root.children[1:]):
            assert cur.start >= prev.start

    def test_dissemination_has_per_receiver_children(self, traced_run):
        deployment, _, trace, _ = traced_run
        root = next(r for r in trace.entry_roots if r.args["complete"])
        diss = next((s for s in root.walk() if s.name == "dissemination"), None)
        assert diss is not None
        receivers = {c.name for c in diss.children}
        gid = root.args["gid"]
        expected = {
            f"replicate->g{g}"
            for g in range(deployment.n_groups)
            if g != gid
        }
        assert receivers == expected
        critical = [c for c in diss.children if c.args.get("critical")]
        assert len(critical) == 1
        assert critical[0].end == max(c.end for c in diss.children)

    def test_root_for_lookup(self, traced_run):
        _, _, trace, _ = traced_run
        root = trace.entry_roots[0]
        entry_id = EntryId(root.args["gid"], root.args["seq"])
        assert trace.root_for(entry_id) is root
        assert trace.root_for(EntryId(99, 12345)) is None

    def test_span_ids_unique_and_parented(self, traced_run):
        _, _, trace, _ = traced_run
        spans = trace.spans()
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids))
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id


class TestMessageSpans:
    def test_message_spans_filtered_to_wan_lanes(self, traced_run):
        _, _, trace, _ = traced_run
        assert trace.message_spans, "WAN traffic expected"
        assert {s.args["lane"] for s in trace.message_spans} <= {
            "wan_up",
            "wan_ctl",
        }

    def test_lane_filter_option(self):
        deployment = small_deployment()
        tracer = Tracer.attach(
            deployment, telemetry_interval=0.0, message_lanes=("wan_ctl",)
        )
        deployment.run(duration=0.6, warmup=0.1)
        trace = tracer.build()
        assert trace.message_spans
        assert {s.args["lane"] for s in trace.message_spans} == {"wan_ctl"}

    def test_max_message_spans_cap(self):
        deployment = small_deployment()
        tracer = Tracer.attach(
            deployment, telemetry_interval=0.0, max_message_spans=10
        )
        deployment.run(duration=0.6, warmup=0.1)
        trace = tracer.build()
        assert len(trace.message_spans) == 10
        assert tracer.dropped_message_spans > 0
        assert trace.meta["dropped_message_spans"] == tracer.dropped_message_spans


class TestTelemetry:
    def test_sampler_produces_series(self, traced_run):
        _, tracer, trace, _ = traced_run
        assert tracer.sampler.samples_taken > 0
        names = {name for name, _ in trace.telemetry.items()}
        assert any(n.endswith(".utilization") for n in names)
        assert any(n.endswith(".backlog_s") for n in names)
        assert any(n.startswith("group/") and n.endswith("/pbft_view") for n in names)
        for gid in range(3):
            assert f"group/g{gid}/load.offered" in names

    def test_zero_interval_disables_sampler(self):
        deployment = small_deployment()
        tracer = Tracer.attach(deployment, telemetry_interval=0.0)
        deployment.run(duration=0.4, warmup=0.1)
        assert tracer.sampler.samples_taken == 0

    def test_admission_series_recorded(self, traced_run):
        _, _, trace, _ = traced_run
        # Queue-depth samples flow from the protocol's own admission gate.
        assert any(
            n.endswith("/wan_backlog_s") for n, _ in trace.telemetry.items()
        )
