"""Tests for the benchmark harness, metrics, and report formatting."""

import pytest

from repro.bench.harness import ExperimentRunner, RunConfig
from repro.bench.metrics import RunMetrics
from repro.bench.report import format_queue_gating, format_series, format_table
from repro.core.entry import EntryId
from tests.conftest import tiny_cluster


class TestRunMetrics:
    def test_throughput_excludes_warmup(self):
        m = RunMetrics(2)
        m.warmup = 1.0
        m.record_commits((0.4,), now=0.5, gid=0)  # in warmup
        for t in range(10):
            m.record_commits((1.0 + t / 10,), now=1.1 + t / 10, gid=0)
        m.end_time = 2.0
        assert m.committed == 10
        assert m.throughput == pytest.approx(10.0)

    def test_latency_stats(self):
        m = RunMetrics(1)
        m.end_time = 1.0
        m.record_commits([0.5 - lat for lat in (0.1, 0.2, 0.3)], now=0.5, gid=0)
        assert m.mean_latency == pytest.approx(0.2)
        assert m.p50_latency == pytest.approx(0.2)

    def test_group_attribution(self):
        m = RunMetrics(3)
        m.end_time = 1.0
        m.record_commits((0.0,), 0.1, gid=2)
        assert m.committed_by_group == [0, 0, 1]
        assert m.group_throughput(2) == pytest.approx(1.0)

    def test_abort_rate(self):
        m = RunMetrics(1)
        m.end_time = 1.0
        m.record_commits((0.0,), 0.1, gid=0)
        m.record_aborts(3, now=0.1)
        assert m.abort_rate == pytest.approx(0.75)

    def test_phase_durations(self):
        m = RunMetrics(1)
        m.end_time = 1.0
        eid = EntryId(0, 1)
        m.stamp(eid, "batched", 0.10)
        m.stamp(eid, "local_committed", 0.12)
        m.stamp(eid, "available_remote", 0.15)
        m.stamp(eid, "available_remote", 0.14)  # keeps the max
        m.stamp(eid, "global_committed", 0.17)
        m.stamp(eid, "executed", 0.20)
        m.record_batch(10, 0.01)
        phases = m.phase_durations()
        assert phases["local_consensus"] == pytest.approx(0.02)
        assert phases["global_replication"] == pytest.approx(0.03)
        assert phases["global_consensus"] == pytest.approx(0.02)
        assert phases["ordering_execution"] == pytest.approx(0.03)
        assert phases["batching"] == pytest.approx(0.01)

    def test_unknown_phase_rejected(self):
        m = RunMetrics(1)
        with pytest.raises(ValueError):
            m.stamp(EntryId(0, 1), "teleported", 0.1)

    def test_unfinalized_run_raises(self):
        m = RunMetrics(1)
        with pytest.raises(RuntimeError):
            m.measured_duration()

    def test_queue_summary(self):
        m = RunMetrics(2)
        m.warmup = 1.0
        m.record_queue_sample(0, now=0.5, wan_backlog=9.0, cpu_backlog=9.0)
        m.record_queue_sample(0, now=1.5, wan_backlog=0.2, cpu_backlog=0.1)
        m.record_queue_sample(0, now=2.0, wan_backlog=0.4, cpu_backlog=0.3)
        m.record_gated(0, "wan", now=0.5)  # in warmup, dropped
        m.record_gated(0, "wan", now=1.5)
        m.record_gated(0, "cpu", now=1.6)
        rows = m.queue_summary()
        assert len(rows) == 1
        row = rows[0]
        assert row["gid"] == 0
        assert row["samples"] == 2  # warmup sample excluded
        assert row["wan_backlog_mean"] == pytest.approx(0.3)
        assert row["wan_backlog_max"] == pytest.approx(0.4)
        assert row["cpu_backlog_max"] == pytest.approx(0.3)
        assert row["gated_total"] == 2
        assert row["gated_wan"] == 1
        assert row["gated_cpu"] == 1

    def test_queue_summary_empty(self):
        assert RunMetrics(2).queue_summary() == []


class TestHarness:
    def test_run_produces_result(self):
        runner = ExperimentRunner()
        result = runner.run(
            RunConfig(
                protocol="geobft",
                cluster=tiny_cluster((4, 4, 4)),
                offered_load=1500,
                duration=1.0,
                warmup=0.25,
                seed=31,
            )
        )
        assert result.throughput_tps > 0
        assert result.committed > 0
        assert result.config.protocol == "geobft"
        assert len(result.group_throughput) == 3
        assert runner.results == [result]

    def test_row_format(self):
        runner = ExperimentRunner()
        result = runner.run(
            RunConfig(
                protocol="geobft",
                cluster=tiny_cluster((4, 4, 4)),
                offered_load=1000,
                duration=0.8,
                warmup=0.2,
                seed=32,
            )
        )
        row = result.row()
        assert row[0] == "geobft"
        assert row[1] == pytest.approx(result.throughput_ktps, abs=0.01)

    def test_setup_hook_runs(self):
        called = []
        runner = ExperimentRunner()
        runner.run(
            RunConfig(
                protocol="geobft",
                cluster=tiny_cluster((4, 4, 4)),
                offered_load=500,
                duration=0.5,
                warmup=0.1,
                setup=lambda deployment: called.append(deployment.n_groups),
            )
        )
        assert called == [3]

    def test_calibrated_run(self):
        runner = ExperimentRunner()
        result = runner.run_calibrated(
            RunConfig(
                protocol="geobft",
                cluster=tiny_cluster((4, 4, 4)),
                offered_load=4000,
                duration=1.0,
                warmup=0.25,
                seed=33,
            )
        )
        assert result.throughput_tps > 0
        assert result.mean_latency_s > 0

    def test_workload_kwargs(self):
        runner = ExperimentRunner()
        result = runner.run(
            RunConfig(
                protocol="geobft",
                cluster=tiny_cluster((4, 4, 4)),
                workload="tpcc",
                workload_kwargs={"n_warehouses": 4},
                offered_load=1000,
                duration=0.8,
                warmup=0.2,
            )
        )
        assert result.committed > 0


class TestReport:
    def test_table_alignment(self):
        out = format_table(
            ["proto", "ktps"], [["massbft", 45.7], ["baseline", 4.9]], title="Fig 8a"
        )
        lines = out.splitlines()
        assert lines[0] == "Fig 8a"
        assert "proto" in lines[1]
        assert "massbft" in lines[3]

    def test_series(self):
        out = format_series("massbft", [4, 8], [10.0, 20.0], "nodes", "ktps")
        assert "4:10.0" in out
        assert "nodes -> ktps" in out

    def test_number_formatting(self):
        out = format_table(["v"], [[1234567.0], [0.123456], [12.34]])
        assert "1,234,567" in out
        assert "0.123" in out
        assert "12.3" in out

    def test_queue_gating_table(self):
        m = RunMetrics(2)
        m.record_queue_sample(1, now=0.5, wan_backlog=0.25, cpu_backlog=0.0)
        m.record_gated(1, "wan", now=0.5)
        out = format_queue_gating(m)
        assert "admission gate" in out
        assert "g1" in out
        assert "stalls_wan" in out

    def test_queue_gating_table_empty(self):
        assert format_queue_gating(RunMetrics(2)) == ""
