"""Tests for repro/control: closed-loop adaptive control.

Covers the acceptance properties of the control subsystem: policies are
pure functions of (window sequence, knob views); controller-on runs
repeat exactly; controller-off runs never touch the control package
(zero cost off); decisions land in the metrics decision log and trace
bundles; reconfig joins carry the active control epoch so mid-reconfig
actuations cannot race a membership epoch bump; and the per-group
tenant-asymmetry extension of TrafficSpec stays deterministic.
"""

import subprocess
import sys

import pytest

from repro.bench.report import format_control_decisions
from repro.check.explorer import CheckConfig, run_episode
from repro.check.scenarios import ScenarioConfig
from repro.control.bench import evaluate
from repro.control.policies import (
    AIMDPolicy,
    StaticPolicy,
    TargetPolicy,
    policy_by_name,
    policy_names,
)
from repro.control.signals import ControlWindow, KnobView
from repro.protocols import GeoDeployment, protocol_by_name
from repro.protocols.runtime.events import ReconfigApplied
from repro.sim.core import SimulationBudgetExceeded, Simulator
from repro.topology.presets import (
    hetero_nationwide_cluster,
    nationwide_cluster,
)
from repro.traffic import TrafficSpec, gold_silver_bronze
from repro.traffic.tenancy import Tenant, TenantMix
from repro.workloads import make_workload


def make_window(gid=0, **overrides):
    defaults = dict(
        gid=gid, start=0.0, end=0.25, wan_backlog=0.0, cpu_backlog=0.0,
        backlog_spread=0.0, gated_wan=0, gated_cpu=0, gated_phase=0,
        gated_window=0, offered=0, admitted=0, dropped=0, committed=0,
        batches=0, batched_txns=0,
    )
    defaults.update(overrides)
    return ControlWindow(**defaults)


def make_view(**overrides):
    defaults = dict(
        max_batch_txns=500, batch_timeout=0.025, pipeline_window=8,
        round_window=4, queue_seconds=0.06, stale_send_backlog=0.35,
        wan_backlog_cap=0.12, cpu_backlog_cap=0.12,
        base_max_batch_txns=500, base_batch_timeout=0.025,
        base_pipeline_window=8, base_round_window=4,
        base_queue_seconds=0.06, base_stale_send_backlog=0.35,
    )
    defaults.update(overrides)
    return KnobView(**defaults)


def wan_bound_window(gid=0):
    """A window that trips the AIMD wan-bound rule (full batches)."""
    return make_window(
        gid=gid, gated_wan=6, batches=5, batched_txns=2250,
        offered=1000, admitted=1000,
    )


class TestPolicyPurity:
    def test_same_window_sequence_gives_identical_decisions(self):
        knobs = {0: make_view()}
        sequence = [
            [wan_bound_window()],
            [wan_bound_window()],
            [make_window(backlog_spread=0.2)],
            [make_window(backlog_spread=0.2)],
            [make_window(offered=1000, dropped=400)],
            [make_window(offered=1000, dropped=400)],
            [make_window()],
            [make_window()],
        ]
        a, b = AIMDPolicy(), AIMDPolicy()
        for windows in sequence:
            assert a.decide(windows, knobs) == b.decide(windows, knobs)

    def test_static_never_actuates(self):
        policy = StaticPolicy()
        assert policy.decide([wan_bound_window()], {0: make_view()}) == []

    def test_aimd_waits_for_patience(self):
        policy = AIMDPolicy(patience=2)
        knobs = {0: make_view()}
        assert policy.decide([wan_bound_window()], knobs) == []
        actions = policy.decide([wan_bound_window()], knobs)
        assert [a.knob for a in actions] == ["max_batch_txns"]
        assert actions[0].value == 750.0
        assert actions[0].trigger == "gated_wan"

    def test_aimd_reset_group_clears_streaks(self):
        policy = AIMDPolicy(patience=2)
        knobs = {0: make_view()}
        policy.decide([wan_bound_window()], knobs)
        policy.reset_group(0)
        # The streak restarts: still one tick short after the reset.
        assert policy.decide([wan_bound_window()], knobs) == []

    def test_aimd_stale_floor_protects_operating_backlog(self):
        # Healthy senders hover at the WAN admission cap; the stale-send
        # margin must never shed below twice that operating band.
        policy = AIMDPolicy(patience=1)
        knobs = {0: make_view(wan_backlog_cap=0.12)}
        actions = policy.decide([make_window(backlog_spread=0.3)], knobs)
        stale = [a for a in actions if a.knob == "stale_send_backlog"]
        assert stale and stale[0].value >= 0.24

    def test_aimd_overload_tightens_admission(self):
        policy = AIMDPolicy(patience=1)
        knobs = {0: make_view()}
        actions = policy.decide(
            [make_window(offered=1000, dropped=500)], knobs
        )
        assert [a.knob for a in actions] == ["queue_seconds"]
        assert actions[0].value == pytest.approx(0.045)

    def test_target_deadband_keeps_quiet_at_setpoint(self):
        policy = TargetPolicy(setpoint=0.045)
        window = make_window(
            wan_backlog=0.045, batches=5, batched_txns=2250, gated_wan=3
        )
        assert policy.decide([window], {0: make_view()}) == []

    def test_target_stale_never_sheds_below_live_backlog(self):
        policy = TargetPolicy()
        window = make_window(wan_backlog=0.3, backlog_spread=0.2)
        actions = policy.decide([window], {0: make_view()})
        stale = [a for a in actions if a.knob == "stale_send_backlog"]
        assert stale and stale[0].value >= 0.31

    def test_registry(self):
        assert policy_names() == ["aimd", "static", "target"]
        assert policy_by_name("aimd").name == "aimd"
        with pytest.raises(ValueError):
            policy_by_name("pid")


def controlled_deployment(control="aimd", seed=0, load=25_000.0):
    return GeoDeployment(
        hetero_nationwide_cluster(
            nodes_per_group=4, slow_nodes=1, slow_bandwidth=5e6
        ),
        protocol_by_name("massbft"),
        make_workload("ycsb-a"),
        offered_load=load,
        seed=seed,
        control=control,
    )


class TestControlledDeployment:
    def test_controller_actuates_and_logs(self):
        deployment = controlled_deployment()
        metrics = deployment.run(duration=1.5, warmup=0.25)
        rows = metrics.control_summary()
        assert rows, "saturated hetero run should trigger actuations"
        assert deployment.control_epoch == len(rows)
        assert [r["epoch"] for r in rows] == list(range(1, len(rows) + 1))
        table = format_control_decisions(metrics)
        assert "controller decisions" in table
        assert rows[0]["policy"] == "aimd"

    def test_controlled_runs_repeat_exactly(self):
        runs = []
        for _ in range(2):
            deployment = controlled_deployment()
            metrics = deployment.run(duration=1.5, warmup=0.25)
            runs.append(
                (
                    metrics.committed,
                    metrics.control_summary(),
                    deployment.control_epoch,
                )
            )
        assert runs[0] == runs[1]

    def test_controller_off_leaves_no_footprint(self):
        deployment = GeoDeployment(
            nationwide_cluster(nodes_per_group=4),
            protocol_by_name("massbft"),
            make_workload("ycsb-a"),
            offered_load=2_000.0,
            seed=1,
        )
        metrics = deployment.run(duration=0.5)
        assert deployment.control is None
        assert deployment.control_epoch == 0
        assert metrics.control_summary() == []
        assert format_control_decisions(metrics) == ""

    def test_controller_off_never_imports_control_package(self):
        # Zero-cost-off is structural: building and running an
        # uncontrolled deployment must not pull in repro.control at all.
        code = (
            "import sys\n"
            "from repro.protocols import GeoDeployment, protocol_by_name\n"
            "from repro.topology import nationwide_cluster\n"
            "from repro.workloads import make_workload\n"
            "d = GeoDeployment(nationwide_cluster(nodes_per_group=4),\n"
            "                  protocol_by_name('massbft'),\n"
            "                  make_workload('ycsb-a'),\n"
            "                  offered_load=1000.0, seed=0)\n"
            "d.run(duration=0.3)\n"
            "mods = [m for m in sys.modules if m.startswith('repro.control')]\n"
            "sys.exit(1 if mods else 0)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr


class TestTracerIntegration:
    def test_decisions_become_spans_and_telemetry(self):
        deployment = controlled_deployment()
        tracer = deployment.attach_tracer(telemetry_interval=0.0)
        deployment.run(duration=1.5, warmup=0.25)
        trace = tracer.build()
        assert trace.control_spans
        assert trace.meta["control_decisions"] == len(trace.control_spans)
        span = trace.control_spans[0]
        assert span.cat == "control"
        assert span.start == span.end  # instant marker
        assert {"gid", "knob", "old", "new", "trigger", "epoch"} <= set(
            span.args
        )
        lanes = [n for n, _ in trace.telemetry.items() if n.startswith("control/")]
        assert lanes

    def test_uncontrolled_trace_has_no_control_meta(self):
        deployment = GeoDeployment(
            nationwide_cluster(nodes_per_group=4),
            protocol_by_name("massbft"),
            make_workload("ycsb-a"),
            offered_load=2_000.0,
            seed=1,
        )
        tracer = deployment.attach_tracer(telemetry_interval=0.0)
        deployment.run(duration=0.5)
        trace = tracer.build()
        assert trace.control_spans == []
        assert "control_decisions" not in trace.meta


class TestChurnWithController:
    def test_join_carries_the_active_control_epoch(self):
        deployment = controlled_deployment()
        events = []
        deployment.bus.subscribe(ReconfigApplied, events.append)
        # Join before the first control tick; at 25k offered the
        # controller actuates at ~0.5s, while the snapshot transfer for
        # a saturated group keeps the promotion in flight past it.
        deployment.join_node_at(0, 0.3)
        deployment.run(duration=2.5, warmup=0.25)
        joins = [e for e in events if e.kind == "join"]
        assert joins, "join must complete under the controller"
        assert "ctl_epoch=" in joins[0].detail
        assert deployment.control_epoch > 0
        # An actuation landed mid-join: the carried (stale) epoch is
        # recorded alongside the live one instead of racing it.
        if "->" in joins[0].detail:
            stale = joins[0].detail.split("ctl_epoch=")[1]
            carried, live = stale.split("->")
            assert int(carried) < int(live.split()[0])

    def test_uncontrolled_join_detail_is_unchanged(self):
        deployment = GeoDeployment(
            nationwide_cluster(nodes_per_group=4),
            protocol_by_name("massbft"),
            make_workload("ycsb-a"),
            offered_load=2_000.0,
            seed=1,
        )
        events = []
        deployment.bus.subscribe(ReconfigApplied, events.append)
        deployment.join_node_at(0, 0.3)
        deployment.run(duration=2.0)
        joins = [e for e in events if e.kind == "join"]
        assert joins and "ctl_epoch" not in joins[0].detail

    def test_checker_churn_episode_with_controller(self):
        config = CheckConfig(
            duration=3.0,
            control="aimd",
            scenario=ScenarioConfig(churn=True),
            nodes_per_group=5,
        )
        result = run_episode("massbft", 1, config)
        assert result.ok, [v.invariant for v in result.violations]

    def test_check_config_control_round_trips(self):
        config = CheckConfig(control="target")
        assert CheckConfig.from_jsonable(config.to_jsonable()) == config


class TestBudgetCarriesControlEpoch:
    def test_budget_exceeded_reports_the_active_epoch(self):
        sim = Simulator()
        sim.control_epoch = 7

        def loop():
            sim.schedule(0.001, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationBudgetExceeded) as err:
            sim.run_until_idle(max_events=50)
        assert err.value.control_epoch == 7
        assert "epoch 7" in str(err.value)


def skewed_mix():
    """Same tenant universe as gold_silver_bronze, regional proportions."""
    return TenantMix(
        [
            Tenant("gold", share=0.6, priority=3, slo_p99_s=0.25),
            Tenant("silver", share=0.3, priority=2, slo_p99_s=0.5),
            Tenant("bronze", share=0.1, priority=1, slo_p99_s=1.0),
        ]
    )


class TestTenantAsymmetry:
    def asymmetric_spec(self):
        return TrafficSpec.constant(
            1_500.0,
            n_groups=3,
            tenants=gold_silver_bronze(),
            tenants_by_group={0: skewed_mix()},
        )

    def run_with(self, spec, seed=4):
        deployment = GeoDeployment(
            nationwide_cluster(nodes_per_group=4),
            protocol_by_name("massbft"),
            make_workload("ycsb-a"),
            offered_load=spec.offered_load(range(3)),
            seed=seed,
            traffic=spec,
        )
        metrics = deployment.run(duration=1.0, warmup=0.2)
        return metrics

    def test_tenants_for_resolves_overrides(self):
        spec = self.asymmetric_spec()
        assert spec.tenants_for(0).tenants[0].share == 0.6
        assert spec.tenants_for(1) is spec.tenants
        assert "tenants_by_group" in spec.describe()

    def test_mismatched_names_are_rejected(self):
        bad = TenantMix([Tenant("platinum", share=1.0, priority=1,
                                slo_p99_s=1.0)])
        with pytest.raises(ValueError):
            TrafficSpec.constant(
                1_000.0, n_groups=3, tenants=gold_silver_bronze(),
                tenants_by_group={0: bad},
            )

    def test_override_without_base_mix_is_rejected(self):
        with pytest.raises(ValueError):
            TrafficSpec.constant(
                1_000.0, n_groups=3, tenants_by_group={0: skewed_mix()}
            )

    def test_asymmetric_runs_are_deterministic(self):
        a = self.run_with(self.asymmetric_spec())
        b = self.run_with(self.asymmetric_spec())
        assert a.tenant_rows() == b.tenant_rows()
        assert a.committed == b.committed

    def test_asymmetry_shifts_the_tenant_split(self):
        uniform = TrafficSpec.constant(
            1_500.0, n_groups=3, tenants=gold_silver_bronze()
        )
        shifted = self.run_with(self.asymmetric_spec())
        flat = self.run_with(uniform)
        gold = lambda m: next(  # noqa: E731
            r for r in m.tenant_rows() if r["tenant"] == "gold"
        )
        # Group 0 offers 60% gold instead of 20%: deployment-wide gold
        # volume rises.
        assert gold(shifted)["offered"] > gold(flat)["offered"]


class TestHeteroPreset:
    def test_slow_tail_is_overridden(self):
        cluster = hetero_nationwide_cluster(
            nodes_per_group=5, slow_nodes=2, slow_bandwidth=5e6
        )
        assert cluster.name == "nationwide-hetero"
        for group in cluster.groups:
            assert group.node_bandwidth == {3: 5e6, 4: 5e6}
            assert 0 not in group.node_bandwidth

    def test_needs_one_fast_node(self):
        with pytest.raises(ValueError):
            hetero_nationwide_cluster(nodes_per_group=4, slow_nodes=4)


class TestBenchEvaluate:
    def doc(self, hetero_goodput, hetero_p99, fig08_goodput):
        return {
            "scenarios": [
                {
                    "scenario": "fig14-hetero",
                    "runs": [
                        {"policy": "static", "goodput_tps": 100.0,
                         "p99_latency_s": 0.4},
                        {"policy": "aimd", "goodput_tps": hetero_goodput,
                         "p99_latency_s": hetero_p99},
                    ],
                },
                {
                    "scenario": "fig08",
                    "runs": [
                        {"policy": "static", "goodput_tps": 100.0,
                         "p99_latency_s": 0.4},
                        {"policy": "aimd", "goodput_tps": fig08_goodput,
                         "p99_latency_s": 0.4},
                    ],
                },
            ]
        }

    def test_win_on_goodput_passes(self):
        verdict = evaluate(self.doc(101.0, 0.4, 100.0))
        assert verdict["ok"] and verdict["hetero_adaptive_wins"]["aimd"]

    def test_win_on_p99_passes(self):
        verdict = evaluate(self.doc(100.0, 0.35, 100.0))
        assert verdict["ok"]

    def test_no_win_fails(self):
        verdict = evaluate(self.doc(99.0, 0.45, 100.0))
        assert not verdict["ok"] and not verdict["hetero_ok"]

    def test_fig08_regression_fails(self):
        verdict = evaluate(self.doc(101.0, 0.4, 97.0))
        assert not verdict["ok"]
        assert verdict["fig08_regressions"]["aimd"]
