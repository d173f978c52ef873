"""Tests for the ``repro perf`` regression harness."""

import json

from repro.perf import BenchConfig, compare_to_baseline, run_perf, write_report
from repro.perf.harness import measure_ops_per_sec
from repro.perf.kernels import build_kernels, force_no_numpy

#: Millisecond-scale settings so the suite stays fast.
TINY = BenchConfig(
    kernel_seconds=0.02,
    repeats=1,
    e2e_duration=0.4,
    e2e_warmup=0.1,
    e2e_runs=1,
    e2e_warmup_runs=0,
    quick=True,
)


def test_measure_ops_per_sec_positive():
    rate = measure_ops_per_sec(lambda: sum(range(50)), 0.01, 1)
    assert rate > 0


def test_kernel_registry_names_unique():
    kernels = build_kernels()
    names = [k.name for k in kernels]
    assert len(names) == len(set(names))
    assert "calibration.spin" in names
    assert any(name.startswith("erasure.") for name in names)
    assert any(name.startswith("crypto.") for name in names)
    assert any(name.startswith("sim.") for name in names)
    assert any(name.startswith("workload.") for name in names)


def test_run_perf_kernels_only_without_numpy():
    """The harness must run end to end on a numpy-less install."""
    with force_no_numpy():
        report = run_perf(TINY, end_to_end=False)
    assert report["numpy"] is False
    assert "end_to_end" not in report
    assert all(
        result["ops_per_sec"] > 0 for result in report["kernels"].values()
    )


def test_run_perf_full_report(tmp_path):
    report = run_perf(TINY, end_to_end=True)
    assert report["schema"] == "repro-perf/1"
    e2e = report["end_to_end"]
    assert e2e["sim_seconds_per_wall_second"] > 0
    assert e2e["committed"] > 0
    assert e2e["events"] > 0
    assert e2e["events_per_commit"] == e2e["events"] / e2e["committed"]
    assert report["normalized_end_to_end"] > 0

    out = tmp_path / "BENCH_perf.json"
    write_report(report, out)
    loaded = json.loads(out.read_text())
    assert loaded["kernels"].keys() == report["kernels"].keys()

    # Same run as its own baseline: ratio 1.0, within tolerance.
    verdict = compare_to_baseline(loaded, loaded, tolerance=0.30)
    assert verdict["ok"]
    assert abs(verdict["end_to_end_ratio"] - 1.0) < 1e-9

    # A baseline 2x faster than this run is a regression.
    faster = dict(loaded)
    faster["normalized_end_to_end"] = loaded["normalized_end_to_end"] * 2
    verdict = compare_to_baseline(loaded, faster, tolerance=0.30)
    assert not verdict["ok"]
    assert "regressed" in verdict["reason"]


def test_compare_without_end_to_end_is_ok():
    report = {"kernels": {"a": {"ops_per_sec": 10.0}}}
    baseline = {"kernels": {"a": {"ops_per_sec": 20.0}}}
    verdict = compare_to_baseline(report, baseline)
    assert verdict["ok"]
    assert verdict["end_to_end_ratio"] is None
    assert verdict["kernel_ratios"]["a"] == 0.5


def test_cli_perf_no_end_to_end(tmp_path, capsys):
    from repro.cli import main

    output = tmp_path / "bench.json"
    code = main(
        [
            "perf",
            "--quick",
            "--no-end-to-end",
            "--output",
            str(output),
            "--baseline",
            str(tmp_path / "missing.json"),
        ]
    )
    assert code == 0
    assert json.loads(output.read_text())["quick"] is True
    assert "wrote" in capsys.readouterr().out


def test_sim_section_in_report():
    report = run_perf(TINY, end_to_end=False)
    sim = report["sim"]
    assert sim.keys() == {"groups", "duration", "events", "events_per_sec"}
    assert sim["events"] > 0
    assert sim["events_per_sec"] > 0
    assert report["normalized_sim_events"] > 0


def test_sim_events_rate_regression_fails_gate():
    report = {
        "kernels": {},
        "normalized_sim_events": 1.0,
    }
    baseline = {"kernels": {}, "normalized_sim_events": 2.0}
    verdict = compare_to_baseline(report, baseline, tolerance=0.30)
    assert not verdict["ok"]
    assert "sim events/s regressed" in verdict["reason"]
    assert abs(verdict["sim_events_ratio"] - 0.5) < 1e-9
