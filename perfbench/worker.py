"""Run one workload in this process and measure it.

Two clocks, always named. *Host* metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``, ``*.self_s``, micro rates) are what the simulator costs
us and carry sandbox noise. *Simulated* metrics (``sim_*``) and every
count are what the modelled system does; the simulator is deterministic,
so for one seed they repeat exactly, and the harness fails the workload
when they do not.

A pass is one of:

* ``trace=0`` - timed repeats for ``seconds`` host seconds (at least
  :data:`MIN_TIMED`), nothing attached: the end-to-end metrics.
  ``wall_s`` is the *fastest* repeat: the work is deterministic and
  single-threaded, interference from the sandbox's neighbours only ever
  adds time, and it arrives in bursts that outlast several repeats, so
  the minimum is much steadier than the median (which is kept, with the
  maximum and n, in ``stats``). It also makes a warm-up repeat pointless:
  a cold first repeat is merely not the fastest.
* ``trace=1`` - one repeat under cProfile with the invariant suite
  attached (self time per layer), one plain repeat (exact counters),
  then the micro pass: the per-layer metrics.

Every repeat is a fresh ``GeoDeployment`` for the same seed. The harness
records its own spans (``setup -> run -> report``) around the calls into
the program; spans inside the program are a later change.
"""

from __future__ import annotations

import cProfile
import gc
import importlib
import itertools
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import layers, micro
from perfbench.workloads import Workload

#: Fewest timed repeats of a full ``trace=0`` pass.
MIN_TIMED = 3
#: Fresh interpreters started to time the import half of ``setup_s``.
IMPORT_RUNS = 3
#: Correctness limit on every workload: commits never pause for longer
#: than this many simulated seconds (after the crash in
#: ``churn_flash_crash`` service must resume within it).
MAX_COMMIT_GAP_S = 2.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "events_per_commit": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "sim_throughput_tps": "1/s",
    "sim_p50_latency_ms": "ms",
    "sim_p99_latency_ms": "ms",
    "sim_wan_bytes_per_commit": "B",
    "served_share": "share",
}

#: ``transport.monitor_counters`` keys reported as ``core.<key>``.
CORE_COUNTERS = (
    "wan_chunks",
    "chunks_skipped_stale",
    "chunks_skipped_departed",
    "rebuild_failures",
)

PHASES = (
    "batching",
    "local_consensus",
    "global_replication",
    "global_consensus",
    "ordering_execution",
)

COUNTER_UNITS = {
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "sim.wan_bytes": "B",
    "sim.lan_bytes": "B",
    "runtime.offered": "count",
    "runtime.admitted": "count",
    "runtime.dropped": "count",
    "runtime.failed_share": "share",
    "runtime.mean_batch_txns": "count",
    "runtime.gated_stalls": "count",
    "runtime.reconfig_events": "count",
    "runtime.max_commit_gap_s": "s",
    **{"runtime.phase.%s_ms" % phase: "ms" for phase in PHASES},
    "consensus.max_takeover_term": "count",
    **{"core.%s" % key: "count" for key in CORE_COUNTERS},
    "ledger.abort_rate": "share",
    "control.decisions": "count",
    "control.epoch": "count",
}

PER_LAYER_UNITS = {
    **{
        "%s.%s" % (layer, suffix): unit
        for layer in layers.LAYERS
        for suffix, unit in (("self_s", "s"), ("share", "share"), ("calls", "count"))
    },
    "check.self_s": "s",
    "trace_overhead_ratio": "ratio",
    **COUNTER_UNITS,
    **micro.MICRO_UNITS,
}


@dataclass
class Repeat:
    """What one build-run-check cycle left behind (plain data only, so
    the deployment itself is garbage by the time the next one starts)."""

    label: str
    build_s: float
    wall_s: float
    observed: Dict[str, float]
    problems: List[str]
    spans: List[dict]
    profile_stats: Optional[dict] = None


def observe(deployment, metrics, warmup: float, duration: float) -> Dict[str, float]:
    """Every simulated metric and exact counter, read from public state.

    All of it is a pure function of the seed; the whole dictionary is the
    fingerprint repeats are compared by.
    """
    committed = metrics.committed
    traffic = metrics.traffic_summary()
    events = deployment.sim.events_processed
    network = deployment.network
    # Longest stretch of the measured window with no commit, window edges
    # included so that service which never resumes shows as a long gap.
    gap, previous = 0.0, warmup
    for at, _count in metrics.throughput_timeline.points:
        if at - previous > gap:
            gap = at - previous
        previous = at
    gap = max(gap, duration - previous)
    failed_share = traffic["dropped"] / max(1, traffic["offered"])
    phases = metrics.phase_durations()
    counters = deployment.transport.monitor_counters
    takeover_terms = [
        state.takeover_term
        for group in deployment.groups.values()
        if not group.crashed
        for state in group.global_phase.instances.values()
    ]
    observed = {
        "committed": committed,
        "events_per_commit": events / max(1, committed),
        "sim_throughput_tps": metrics.throughput,
        "sim_p50_latency_ms": metrics.p50_latency * 1e3,
        "sim_p99_latency_ms": metrics.p99_latency * 1e3,
        "sim_wan_bytes_per_commit": network.wan_bytes_total / max(1, committed),
        "served_share": 1.0 - failed_share,
        "sim.events": events,
        "sim.wan_bytes": network.wan_bytes_total,
        "sim.lan_bytes": network.lan_bytes_total,
        "runtime.offered": traffic["offered"],
        "runtime.admitted": traffic["admitted"],
        "runtime.dropped": traffic["dropped"],
        "runtime.failed_share": failed_share,
        "runtime.mean_batch_txns": metrics.mean_batch_size,
        "runtime.gated_stalls": sum(
            row["gated_total"] for row in metrics.queue_summary()
        ),
        "runtime.reconfig_events": deployment.membership.epoch,
        "runtime.max_commit_gap_s": gap,
        "consensus.max_takeover_term": max(takeover_terms, default=0),
        "ledger.abort_rate": metrics.abort_rate,
        "control.decisions": len(metrics.control_decisions),
        "control.epoch": deployment.control_epoch,
    }
    for phase in PHASES:
        observed["runtime.phase.%s_ms" % phase] = phases.get(phase, 0.0) * 1e3
    for key in CORE_COUNTERS:
        observed["core.%s" % key] = counters.get(key, 0)
    return observed


def check(deployment, observed, suite, duration: float) -> List[str]:
    """The correctness gate for one repeat; returns what is wrong."""
    problems: List[str] = []
    if observed["committed"] <= 0:
        problems.append("no transaction committed in the measured window")
    if observed["runtime.max_commit_gap_s"] > MAX_COMMIT_GAP_S:
        problems.append(
            "commits paused for %.3f simulated s (limit %.1f s)"
            % (observed["runtime.max_commit_gap_s"], MAX_COMMIT_GAP_S)
        )
    observers = [
        node
        for node in deployment.nodes.values()
        if node.is_observer
        and not node.crashed
        and not node.byzantine
        and node.ledger is not None
    ]
    for a, b in itertools.combinations(observers, 2):
        height = a.ledger.divergence(b.ledger)
        if height is not None:
            problems.append(
                "ledgers of %s and %s diverge at height %d" % (a.addr, b.addr, height)
            )
    if suite is not None:
        for violation in suite.audit(duration):
            problems.append("%s: %s" % (violation.invariant, violation.message))
    return problems


def run_repeat(
    workload: Workload, seed: int, scale: float, label: str, traced: bool = False
) -> Repeat:
    """Build, run and check one fresh deployment."""
    duration, warmup = workload.duration / scale, workload.warmup / scale
    # Collect the previous repeat's deployment (a cyclic graph) before
    # timing anything, as ``repro.perf.harness`` does: otherwise each run
    # pays for its predecessors' garbage.
    gc.collect()
    clock = time.perf_counter
    t_setup = clock()
    deployment = workload.build(seed, scale)
    suite = profile = None
    if traced:
        from repro.check import InvariantSuite

        suite = InvariantSuite.attach(deployment)
        profile = cProfile.Profile()
    t_run = clock()
    if profile is not None:
        profile.enable()
    try:
        metrics = deployment.run(duration=duration, warmup=warmup)
    finally:
        if profile is not None:
            profile.disable()
    t_report = clock()
    observed = observe(deployment, metrics, warmup, duration)
    problems = check(deployment, observed, suite, duration)
    t_end = clock()
    stats = None
    if profile is not None:
        profile.snapshot_stats()
        stats = profile.stats
    spans = [
        {"name": label, "parent": None, "start": t_setup, "end": t_end},
        {"name": "setup", "parent": label, "start": t_setup, "end": t_run},
        {"name": "run", "parent": label, "start": t_run, "end": t_report},
        {"name": "report", "parent": label, "start": t_report, "end": t_end},
    ]
    return Repeat(
        label, t_run - t_setup, t_report - t_run, observed, problems, spans, stats
    )


def time_imports(modules, src: Path, runs: int) -> List[float]:
    """Seconds a fresh interpreter spends importing ``modules``."""
    code = (
        "import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
        "import %s; print(time.perf_counter() - t)" % (str(src), ", ".join(modules))
    )
    seconds = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        seconds.append(float(done.stdout.split()[-1]))
    return seconds


def _end_to_end_pass(workload, seed, seconds, smoke, scale, src: Path):
    """``trace=0``: timed repeats, nothing attached."""
    repeats: List[Repeat] = []
    deadline = time.perf_counter() + (0.0 if smoke else seconds)
    while len(repeats) < (1 if smoke else MIN_TIMED) or time.perf_counter() < deadline:
        repeats.append(run_repeat(workload, seed, scale, "timed[%d]" % len(repeats)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    imports = time_imports(workload.imports, src, 1 if smoke else IMPORT_RUNS)
    walls = [repeat.wall_s for repeat in repeats]
    builds = [repeat.build_s for repeat in repeats]
    values = dict(repeats[0].observed)
    values["wall_s"] = min(walls)
    values["peak_rss_mb"] = peak_rss_mb
    values["setup_s"] = statistics.median(imports) + statistics.median(builds)
    extra = {
        "stats": {
            "wall_s": {
                "min": min(walls),
                "median": statistics.median(walls),
                "max": max(walls),
                "n": len(walls),
            },
            "setup_s": {
                "min": min(imports) + min(builds),
                "max": max(imports) + max(builds),
                "n": len(builds),
            },
        },
        "raw": {"wall_s": walls, "build_s": builds, "import_s": imports},
    }
    return repeats, values, END_TO_END_UNITS, extra


def _per_layer_pass(workload, seed, smoke, scale, src: Path):
    """``trace=1``: profiled repeat, plain repeat, micro pass."""
    # Traced first: it also warms the process up for the plain repeat,
    # whose host time the overhead ratio is taken against.
    traced = run_repeat(workload, seed, scale, "traced", traced=True)
    plain = run_repeat(workload, seed, scale, "plain")
    self_s, calls = layers.fold_profile(
        traced.profile_stats, layers.make_layer_of(src / "repro")
    )
    traced.profile_stats = None
    total = sum(self_s.get(layer, 0.0) for layer in layers.LAYERS)
    values = dict(plain.observed)
    for layer in layers.LAYERS:
        values["%s.self_s" % layer] = self_s.get(layer, 0.0)
        values["%s.share" % layer] = self_s.get(layer, 0.0) / total
        values["%s.calls" % layer] = calls.get(layer, 0)
    values["check.self_s"] = self_s.get(layers.CHECK, 0.0)
    values["trace_overhead_ratio"] = traced.wall_s / plain.wall_s
    values["sim.host_us_per_event"] = plain.wall_s / plain.observed["sim.events"] * 1e6
    values.update(micro.run_micro(quick=smoke))
    extra = {"raw": {"plain_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s}}
    return [traced, plain], values, PER_LAYER_UNITS, extra


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: int, smoke: bool, src: Path
) -> dict:
    """One pass over one workload; returns the result document.

    ``correct`` / ``attempted`` / ``failed`` count the benchmark's own
    operations - repeats built, run and checked. Transactions the
    simulated system refuses under overload lower the ``served_share``
    metric; they are not failures of the benchmark.
    """
    scale = 4.0 if smoke else 1.0
    started = time.perf_counter()
    # Builders import lazily; do it now so the first build is only a build.
    for module in workload.imports:
        importlib.import_module(module)
    if trace == 0:
        repeats, values, units, extra = _end_to_end_pass(
            workload, seed, seconds, smoke, scale, src
        )
    else:
        repeats, values, units, extra = _per_layer_pass(
            workload, seed, smoke, scale, src
        )

    problems = []
    for repeat in repeats:
        differing = sorted(
            key
            for key, value in repeat.observed.items()
            if repeats[0].observed[key] != value
        )
        if differing:
            repeat.problems.append(
                "simulated results differ from the first repeat in "
                + ", ".join(differing)
            )
        problems.extend("%s: %s" % (repeat.label, p) for p in repeat.problems)
    failed = sum(1 for repeat in repeats if repeat.problems)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "correct": failed == 0,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
        **extra,
        "problems": problems,
        "fingerprint": repeats[0].observed,
        "spans": [
            dict(span, start=span["start"] - started, end=span["end"] - started)
            for repeat in repeats
            for span in repeat.spans
        ],
    }
