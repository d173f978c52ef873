"""Integration tests: traffic scenarios end to end on deployments.

Covers the acceptance properties of the traffic subsystem: artifact
determinism across repeat runs, offered/admitted/committed
accounting through the metrics pipeline, per-tenant SLO rows, and the
checker's saturation regime.
"""

import json

import pytest

from repro.check.explorer import CheckConfig, run_episode
from repro.check.scenarios import make_traffic
from repro.cli import main
from repro.protocols import GeoDeployment, protocol_by_name
from repro.topology import scaled_cluster
from repro.traffic import TrafficSpec, gold_silver_bronze
from repro.traffic.scenarios import SCENARIOS, ScenarioRun
from repro.traffic.suite import run_one, write_artifact
from repro.workloads import make_workload


def tiny_run(**overrides):
    """A sub-second flash crowd kept small enough for unit-test budgets."""
    defaults = dict(
        label="tiny",
        traffic=TrafficSpec.flash_crowd(
            600.0, 2400.0, start=0.3, duration=0.3, n_groups=3, ramp=0.05
        ),
        provisioned=600.0,
        duration=0.8,
        warmup=0.2,
    )
    defaults.update(overrides)
    return ScenarioRun(**defaults)


class TestSuiteDeterminism:
    def test_repeat_runs_are_identical(self):
        assert run_one(tiny_run(), seed=5) == run_one(tiny_run(), seed=5)

    def test_seed_changes_the_run(self):
        a = run_one(tiny_run(), seed=1)
        b = run_one(tiny_run(), seed=2)
        assert a["accounting"] != b["accounting"] or a["metrics"] != b["metrics"]

    def test_artifact_is_deterministic_json(self, tmp_path):
        record = run_one(tiny_run(), seed=0)
        doc = {"scenario": "tiny-check", "runs": [record]}
        path_a = write_artifact(doc, tmp_path / "a")
        path_b = write_artifact(doc, tmp_path / "b")
        assert path_a.read_bytes() == path_b.read_bytes()
        assert path_a.name == "traffic_tiny_check.json"
        json.loads(path_a.read_text())  # valid JSON


class TestAccounting:
    def test_overload_sheds_and_accounts(self):
        record = run_one(tiny_run(), seed=0)
        acct = record["accounting"]
        assert acct["offered"] > 0
        assert acct["offered"] >= acct["admitted"]
        # The 4x spike over a provisioned base must shed.
        assert acct["dropped"] > 0
        assert record["goodput_tps"] > 0

    def test_constant_traffic_matches_legacy_deployment(self):
        """TrafficSpec.constant must reproduce a traffic-less deployment
        bit-for-bit (same seed, same summary)."""

        def summarize(traffic):
            deployment = GeoDeployment(
                scaled_cluster(n_groups=3, nodes_per_group=4),
                protocol_by_name("massbft"),
                make_workload("ycsb-a"),
                offered_load={g: 900.0 for g in range(3)},
                seed=9,
                traffic=traffic,
            )
            metrics = deployment.run(duration=0.9, warmup=0.2)
            return json.dumps(metrics.summary(), sort_keys=True)

        legacy = summarize(None)
        spelled_out = summarize(TrafficSpec.constant(900.0, n_groups=3))
        assert legacy == spelled_out

    def test_tenant_rows_cover_the_mix(self):
        record = run_one(
            tiny_run(
                traffic=TrafficSpec.mmpp(
                    ((2400.0, 0.15), (400.0, 0.3)),
                    n_groups=3,
                    tenants=gold_silver_bronze(),
                ),
                provisioned=900.0,
            ),
            seed=0,
        )
        rows = record["tenants"]
        assert [r["tenant"] for r in rows] == ["gold", "silver", "bronze"]
        for row in rows:
            assert row["offered"] > 0
            assert {"p50_latency_s", "p99_latency_s", "p999_latency_s"} <= set(row)
            assert row["slo_p99_s"] > 0
        total_offered = sum(r["offered"] for r in rows)
        assert total_offered == record["accounting"]["offered"]

    def test_summary_has_unified_drop_ledger(self):
        record = run_one(tiny_run(), seed=0)
        acct = record["accounting"]
        # offered >= admitted >= nothing negative; dropped is the same
        # ledger RunMetrics.dropped_txns feeds.
        assert acct["admitted"] + acct["dropped"] <= acct["offered"]


class TestScenarioCatalog:
    def test_catalog_names(self):
        assert set(SCENARIOS) == {
            "steady",
            "diurnal",
            "flash-crowd",
            "hotspot-drift",
            "multi-tenant",
            "overload",
        }

    def test_quick_runs_are_shorter(self):
        for scenario in SCENARIOS.values():
            quick = scenario.runs(quick=True)
            full = scenario.runs(quick=False)
            assert quick and full
            assert sum(r.duration for r in quick) <= sum(r.duration for r in full)

    def test_overload_sweep_is_monotone_in_offered_rate(self):
        runs = SCENARIOS["overload"].runs(quick=False)
        peaks = [r.traffic.peak_rate(0) for r in runs]
        assert peaks == sorted(peaks)
        assert len(runs) == 5


class TestCheckerSaturation:
    def test_make_traffic_empty_is_none(self):
        assert make_traffic("", CheckConfig()) is None

    def test_make_traffic_unknown_raises(self):
        with pytest.raises(ValueError):
            make_traffic("tsunami", CheckConfig())

    def test_config_roundtrip_carries_traffic(self):
        config = CheckConfig(duration=2.0, traffic="saturation")
        clone = CheckConfig.from_jsonable(config.to_jsonable())
        assert clone == config
        assert clone.traffic == "saturation"

    def test_saturation_episode_holds_safety_under_shedding(self):
        config = CheckConfig(duration=2.0, traffic="saturation")
        result = run_episode("massbft", seed=0, config=config)
        assert result.ok, [v.invariant for v in result.violations]
        assert result.committed > 0

    def test_saturation_spec_is_an_overload(self):
        config = CheckConfig(duration=3.0, offered_load=1000.0)
        spec = make_traffic("saturation", config)
        assert spec.peak_rate(0) == pytest.approx(6000.0)
        # Quiet groups idle at the provisioned rate.
        assert spec.peak_rate(1) == pytest.approx(1000.0)


class TestTrafficCli:
    def test_list_scenarios(self, capsys):
        assert main(["traffic", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["traffic", "--scenario", "nope"]) == 2

    def test_run_prints_client_accounting(self, capsys):
        code = main(
            [
                "run",
                "--protocol",
                "massbft",
                "--groups",
                "3",
                "--nodes",
                "4",
                "--load",
                "800",
                "--duration",
                "0.6",
                "--warmup",
                "0.15",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "clients" in out
        assert "offered" in out and "admitted" in out
