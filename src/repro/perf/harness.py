"""Timing harness and report/baseline logic for ``repro perf``.

Report format (``BENCH_perf.json``)::

    {
      "schema": "repro-perf/1",
      "quick": false,
      "numpy": true,
      "kernels": {"erasure.encode": {"ops_per_sec": ..., "unit": "ops",
                                     "units_per_sec": ...}, ...},
      "end_to_end": {"sim_seconds_per_wall_second": ...,
                     "wall_seconds": ..., "sim_seconds": ...,
                     "committed": ..., "throughput_tps": ...,
                     "events": ..., "events_per_commit": ...},
      "normalized_end_to_end": ...
    }

``normalized_end_to_end`` divides the end-to-end rate by the
``calibration.spin`` kernel rate so a baseline recorded on one machine
remains comparable on another: both numerator and denominator scale with
single-core speed. Regression checking compares *normalized* values with
a tolerance band (default 30%, the CI gate).

Timing method: best-of-``repeats`` over batches of ``number`` calls with
the cyclic GC paused — the minimum is the least-noise estimate of the
true cost, and matches how the simulator itself runs (GC paused, see
``GeoDeployment.run``).
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.perf.kernels import build_kernels

SCHEMA = "repro-perf/1"

#: Fail the regression check when the normalized end-to-end rate drops
#: more than this fraction below the baseline (the CI perf-smoke gate).
DEFAULT_TOLERANCE = 0.30

#: Allowed wall-clock slowdown of the fig08 point with a tracer attached
#: (spans + NIC hook + telemetry sampler), measured in the same process
#: against the untraced run — so no machine normalization is needed.
TRACE_OVERHEAD_TOLERANCE = 0.10

#: Allowed wall-clock slowdown of the fig08 point with the adaptive
#: controller attached (telemetry sampling + per-tick policy decisions).
#: Wall-clock only: actuation legitimately changes batching and
#: admission, so committed counts are not required to match.
CONTROL_OVERHEAD_TOLERANCE = 0.05


@dataclass(frozen=True)
class BenchConfig:
    """Knobs for one harness run; ``quick()`` is the CI smoke preset."""

    #: Target seconds of measurement per kernel (split across repeats).
    kernel_seconds: float = 0.4
    repeats: int = 5
    #: Simulated seconds for the end-to-end point (fig08 nationwide).
    e2e_duration: float = 2.0
    e2e_warmup: float = 0.5
    #: Timed end-to-end runs (best-of); one extra untimed warmup run
    #: precedes them unless 0.
    e2e_runs: int = 2
    e2e_warmup_runs: int = 1
    quick: bool = False

    @staticmethod
    def quick_preset() -> "BenchConfig":
        return BenchConfig(
            kernel_seconds=0.1,
            repeats=3,
            e2e_duration=0.8,
            e2e_warmup=0.2,
            e2e_runs=1,
            e2e_warmup_runs=0,
            quick=True,
        )


def measure_ops_per_sec(
    fn: Callable[[], object], target_seconds: float, repeats: int
) -> float:
    """Best-observed calls/second for ``fn``.

    Calibrates a batch size so one batch takes roughly
    ``target_seconds / repeats``, then times ``repeats`` batches and
    keeps the fastest (minimum is the standard low-noise estimator).
    """
    perf_counter = time.perf_counter
    # Calibrate: grow the batch until it is long enough to time reliably.
    number = 1
    while True:
        start = perf_counter()
        for _ in range(number):
            fn()
        elapsed = perf_counter() - start
        if elapsed >= max(1e-3, target_seconds / (repeats * 4)):
            break
        number *= 4
    best = elapsed
    for _ in range(max(0, repeats - 1)):
        start = perf_counter()
        for _ in range(number):
            fn()
        elapsed = perf_counter() - start
        if elapsed < best:
            best = elapsed
    return number / best


def _run_kernels(
    kernels, config: BenchConfig, log: Optional[Callable[[str], None]]
) -> Dict[str, Dict[str, float]]:
    results: Dict[str, Dict[str, float]] = {}
    for kernel in kernels:
        ops = measure_ops_per_sec(
            kernel.fn, config.kernel_seconds, config.repeats
        )
        results[kernel.name] = {
            "ops_per_sec": ops,
            "units_per_sec": ops * kernel.units_per_op,
            "unit": kernel.unit,
        }
        if log:
            log(
                f"  {kernel.name:<28} {ops * kernel.units_per_op:14,.0f} "
                f"{kernel.unit}/s"
            )
    return results


def _run_end_to_end(
    config: BenchConfig,
    log: Optional[Callable[[str], None]],
    traced: bool = False,
    control: Optional[str] = None,
) -> Dict[str, float]:
    """Time the fig08 nationwide MassBFT YCSB-A point, best-of-N.

    With ``traced=True`` a full :class:`repro.obs.Tracer` is attached
    before each run (span collection, NIC transmit hook, telemetry
    sampler) — the timed region covers the run itself; span assembly and
    export are post-processing and not part of the overhead budget.
    With ``control`` set, the closed-loop controller runs with that
    policy (the control-overhead budget point).
    """
    from repro.protocols import GeoDeployment, protocol_by_name
    from repro.topology import nationwide_cluster
    from repro.workloads import make_workload

    def one_run():
        # The harness keeps cyclic GC off for low-noise timing, so each
        # finished deployment (a cyclic object graph) lingers until
        # collected. Collect *before* the timed region: otherwise every
        # run measures the allocator wading through its predecessors'
        # garbage, and later runs (historically the traced ones) absorb
        # a spurious 50-70% "overhead" that is really heap bloat.
        gc.collect()
        deployment = GeoDeployment(
            nationwide_cluster(nodes_per_group=7),
            protocol_by_name("massbft"),
            make_workload("ycsb-a"),
            offered_load=30_000.0,
            seed=0,
            control=control,
        )
        if traced:
            deployment.attach_tracer()
        start = time.perf_counter()
        metrics = deployment.run(
            duration=config.e2e_duration, warmup=config.e2e_warmup
        )
        wall = time.perf_counter() - start
        return wall, metrics, deployment.sim.events_processed

    for _ in range(config.e2e_warmup_runs):
        one_run()
    best_wall = None
    metrics = None
    for _ in range(max(1, config.e2e_runs)):
        wall, metrics, events = one_run()
        if best_wall is None or wall < best_wall:
            best_wall = wall
    result = {
        "sim_seconds_per_wall_second": config.e2e_duration / best_wall,
        "wall_seconds": best_wall,
        "sim_seconds": config.e2e_duration,
        "committed": float(metrics.committed),
        "throughput_tps": metrics.throughput,
        # Deterministic per seed: the part of host cost a design controls.
        "events": events,
        "events_per_commit": events / max(1, metrics.committed),
    }
    if log:
        if traced:
            label = "end_to_end traced"
        elif control:
            label = f"end_to_end control={control}"
        else:
            label = "end_to_end (fig08 point)"
        log(
            f"  {label:<28} {result['sim_seconds_per_wall_second']:8.2f} "
            f"sim-s/wall-s  ({best_wall:.3f}s wall, "
            f"{metrics.committed} committed)"
        )
    return result


def profile_end_to_end(
    config: BenchConfig,
    log: Optional[Callable[[str], None]] = None,
    top: int = 25,
) -> Dict[str, object]:
    """cProfile one fig08 end-to-end run; return the top-N cumulative rows.

    The ``repro perf --profile`` satellite: future perf work starts from
    a measured hot-path table instead of guesses. The profiled run is
    separate from the timed runs (profiling overhead would poison them).
    """
    import cProfile
    import io
    import pstats

    from repro.protocols import GeoDeployment, protocol_by_name
    from repro.topology import nationwide_cluster
    from repro.workloads import make_workload

    gc.collect()
    deployment = GeoDeployment(
        nationwide_cluster(nodes_per_group=7),
        protocol_by_name("massbft"),
        make_workload("ycsb-a"),
        offered_load=30_000.0,
        seed=0,
    )
    profiler = cProfile.Profile()
    profiler.enable()
    deployment.run(duration=config.e2e_duration, warmup=config.e2e_warmup)
    profiler.disable()

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative")
    rows = []
    for func in stats.fcn_list[:top]:  # (file, line, name), already sorted
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, line, name = func
        short = filename.rsplit("/", 1)[-1]
        rows.append(
            {
                "function": f"{short}:{line}({name})",
                "calls": nc,
                "tottime": round(tt, 6),
                "cumtime": round(ct, 6),
            }
        )
    if log:
        log(f"profile (top {len(rows)} by cumulative time):")
        log(f"  {'cumtime':>9} {'tottime':>9} {'calls':>10}  function")
        for row in rows:
            log(
                f"  {row['cumtime']:9.3f} {row['tottime']:9.3f} "
                f"{row['calls']:10d}  {row['function']}"
            )
    return {"sort": "cumulative", "top": rows}


def run_perf(
    config: Optional[BenchConfig] = None,
    log: Optional[Callable[[str], None]] = None,
    end_to_end: bool = True,
    profile: bool = False,
) -> Dict[str, object]:
    """Run the full suite and return the report dict.

    ``profile`` additionally cProfiles one end-to-end run and embeds the
    top cumulative functions in the report under ``"profile"``.
    """
    from repro.erasure import reed_solomon
    from repro.perf.scalebench import run_sim_bench

    config = config or BenchConfig()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if log:
            log("kernels:")
        kernels = _run_kernels(build_kernels(), config, log)
        report: Dict[str, object] = {
            "schema": SCHEMA,
            "quick": config.quick,
            "numpy": reed_solomon._np is not None,
            "kernels": kernels,
        }
        if log:
            log("sim (event core, synthetic scale point):")
        report["sim"] = run_sim_bench(quick=config.quick, log=log)
        report["normalized_sim_events"] = (
            report["sim"]["events_per_sec"]
            / kernels["calibration.spin"]["ops_per_sec"]
        )
        if end_to_end:
            if log:
                log("end-to-end:")
            e2e = _run_end_to_end(config, log)
            report["end_to_end"] = e2e
            report["normalized_end_to_end"] = (
                e2e["sim_seconds_per_wall_second"]
                / kernels["calibration.spin"]["ops_per_sec"]
            )
            traced = _run_end_to_end(config, log, traced=True)
            report["end_to_end_traced"] = traced
            overhead = (
                traced["wall_seconds"] / e2e["wall_seconds"] - 1.0
                if e2e["wall_seconds"] > 0
                else 0.0
            )
            report["trace_overhead"] = {
                "ratio": overhead,
                "tolerance": TRACE_OVERHEAD_TOLERANCE,
                "committed_match": traced["committed"] == e2e["committed"],
                "ok": (
                    overhead <= TRACE_OVERHEAD_TOLERANCE
                    and traced["committed"] == e2e["committed"]
                ),
            }
            if log:
                log(
                    f"  trace overhead               {overhead:+8.1%} "
                    f"(budget +{TRACE_OVERHEAD_TOLERANCE:.0%}, committed "
                    f"{'match' if report['trace_overhead']['committed_match'] else 'MISMATCH'})"
                )
            controlled = _run_end_to_end(config, log, control="aimd")
            control_overhead = (
                controlled["wall_seconds"] / e2e["wall_seconds"] - 1.0
                if e2e["wall_seconds"] > 0
                else 0.0
            )
            report["end_to_end_control"] = controlled
            report["control_overhead"] = {
                "ratio": control_overhead,
                "tolerance": CONTROL_OVERHEAD_TOLERANCE,
                "ok": control_overhead <= CONTROL_OVERHEAD_TOLERANCE,
            }
            if log:
                log(
                    f"  control overhead             {control_overhead:+8.1%} "
                    f"(budget +{CONTROL_OVERHEAD_TOLERANCE:.0%}, "
                    f"wall-clock only — actuation may change committed)"
                )
            if profile:
                report["profile"] = profile_end_to_end(config, log)
        return report
    finally:
        if gc_was_enabled:
            gc.enable()


def write_report(report: Dict[str, object], path: Path) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def compare_to_baseline(
    report: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Dict[str, object]:
    """Regression verdict of ``report`` against ``baseline``.

    Gates:

    * the machine-speed-normalized end-to-end rate against baseline;
    * the normalized simulator event rate (``sim.events_per_sec`` /
      calibration spin) against baseline, same tolerance band.

    Kernel rates are reported as ratios for context but do not fail the
    check — individual microbenchmarks are too noisy across runners to
    gate CI.
    """
    verdict: Dict[str, object] = {"tolerance": tolerance}
    kernel_ratios: Dict[str, float] = {}
    base_kernels = baseline.get("kernels", {})
    for name, result in report.get("kernels", {}).items():
        base = base_kernels.get(name)
        if base and base.get("ops_per_sec"):
            kernel_ratios[name] = result["ops_per_sec"] / base["ops_per_sec"]
    verdict["kernel_ratios"] = kernel_ratios

    failures = []

    current_sim = report.get("normalized_sim_events")
    reference_sim = baseline.get("normalized_sim_events")
    if current_sim is not None and reference_sim:
        ratio = current_sim / reference_sim
        verdict["sim_events_ratio"] = ratio
        if ratio < 1.0 - tolerance:
            failures.append(
                f"sim events/s regressed to {ratio:.2f}x of baseline "
                f"(floor {1.0 - tolerance:.2f}x)"
            )
    else:
        verdict["sim_events_ratio"] = None

    current = report.get("normalized_end_to_end")
    reference = baseline.get("normalized_end_to_end")
    if current is None or not reference:
        verdict["end_to_end_ratio"] = None
        verdict["ok"] = not failures
        verdict["reason"] = (
            "; ".join(failures)
            if failures
            else "no end-to-end comparison available"
        )
        return verdict
    ratio = current / reference
    verdict["end_to_end_ratio"] = ratio
    if ratio < 1.0 - tolerance:
        failures.append(
            f"end-to-end regressed to {ratio:.2f}x of baseline "
            f"(floor {1.0 - tolerance:.2f}x)"
        )
    verdict["ok"] = not failures
    verdict["reason"] = "; ".join(failures) if failures else "within tolerance"
    return verdict
