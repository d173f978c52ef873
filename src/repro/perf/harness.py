"""The two wall-clock budgets only ``repro perf`` measures.

Speed itself — end-to-end wall-clock, per-layer shares, kernel rates —
is ``python3 -m perfbench`` (the declared benchmark) judged by
``perfbench/compare.py``. What that instrument does not gate is what an
*attached* tracer or controller costs, so this module times the fig08
nationwide MassBFT YCSB-A point three ways in one process — plain,
with a full :class:`repro.obs.Tracer` (span collection, NIC transmit
hook, telemetry sampler), and with the ``aimd`` controller — and
judges two overheads:

* **tracer**: the wall seconds it adds per simulated second, against
  the absolute :data:`TRACE_BUDGET_S_PER_SIM_S`. Absolute because the
  tracer's cost is per span, not per unit of untraced host work: a
  relative budget tightened every time the simulator got faster while
  the tracer had not changed. Tracing must also stay passive — the
  traced run commits exactly what the plain run commits.
* **controller**: relative, :data:`CONTROL_OVERHEAD_TOLERANCE`. Wall
  clock only: actuation legitimately changes batching and admission,
  so committed counts are not required to match.

Each wall is the best of :data:`ROUNDS` interleaved runs — the minimum
is the least-noise estimate on a shared box, and interleaving keeps a
noisy minute from landing on one variant only.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, Optional, Tuple

#: Simulated seconds per run (warm-up included) and the warm-up inside.
SIM_SECONDS = 2.0
WARMUP = 0.5
#: Timed runs per variant; the fastest one counts.
ROUNDS = 5

#: Wall seconds the tracer may add per simulated second of the fig08
#: point. Ten consecutive runs on the shared 2-core builder box read
#: +0.007 to +0.030, and ten more in a noisier hour -0.023 to +0.043
#: (EXPERIMENTS.md), so this leaves 2.3x headroom over the worst seen.
TRACE_BUDGET_S_PER_SIM_S = 0.10

#: Allowed relative wall-clock slowdown with the controller attached.
CONTROL_OVERHEAD_TOLERANCE = 0.05


def timed_run(
    traced: bool = False, control: Optional[str] = None
) -> Tuple[float, int]:
    """One run of the fig08 point: (wall seconds, committed txns).

    The timed region is the run itself; span assembly and export are
    post-processing and not part of the tracer's budget.
    """
    from repro.protocols import GeoDeployment, protocol_by_name
    from repro.topology import nationwide_cluster
    from repro.workloads import make_workload

    # A finished deployment is a cyclic object graph and the run pauses
    # the cyclic GC, so collect the predecessor *before* the timed
    # region: otherwise later runs (historically the traced ones) absorb
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
    metrics = deployment.run(duration=SIM_SECONDS, warmup=WARMUP)
    return time.perf_counter() - start, metrics.committed


def overhead_verdict(
    plain_wall: float,
    traced_wall: float,
    controlled_wall: float,
    committed_match: bool,
) -> Dict[str, object]:
    """Judge the measured walls; a pure function, no clock."""
    trace_cost = (traced_wall - plain_wall) / SIM_SECONDS
    control_ratio = controlled_wall / plain_wall - 1.0
    failures = []
    if trace_cost > TRACE_BUDGET_S_PER_SIM_S:
        failures.append(
            f"tracer adds {trace_cost:.3f} wall-s per simulated second "
            f"(budget {TRACE_BUDGET_S_PER_SIM_S:.3f})"
        )
    if not committed_match:
        failures.append("traced run committed a different count than untraced")
    if control_ratio > CONTROL_OVERHEAD_TOLERANCE:
        failures.append(
            f"controller adds {control_ratio:+.1%} wall-clock "
            f"(budget +{CONTROL_OVERHEAD_TOLERANCE:.0%})"
        )
    return {
        "trace_s_per_sim_s": trace_cost,
        "control_overhead": control_ratio,
        "failures": failures,
        "ok": not failures,
    }


def run_perf() -> Dict[str, object]:
    """Time the three variants, print them, return the verdict."""
    variants = {
        "untraced": {},
        "traced": {"traced": True},
        "control=aimd": {"control": "aimd"},
    }
    best: Dict[str, Tuple[float, int]] = {}
    for _ in range(ROUNDS):
        for label, kwargs in variants.items():
            run = timed_run(**kwargs)
            if label not in best or run[0] < best[label][0]:
                best[label] = run
    for label, (wall, committed) in best.items():
        print(f"  {label:<14} {wall:7.3f} s wall  ({committed} committed)")
    verdict = overhead_verdict(
        best["untraced"][0],
        best["traced"][0],
        best["control=aimd"][0],
        committed_match=best["traced"][1] == best["untraced"][1],
    )
    print(
        f"  trace overhead   {verdict['trace_s_per_sim_s']:+.3f} wall-s per "
        f"simulated s (budget {TRACE_BUDGET_S_PER_SIM_S:.3f})"
    )
    print(
        f"  control overhead {verdict['control_overhead']:+.1%} "
        f"(budget +{CONTROL_OVERHEAD_TOLERANCE:.0%})"
    )
    for failure in verdict["failures"]:
        print(f"FAILED: {failure}")
    return verdict
