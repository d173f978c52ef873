"""Shared helpers for the per-figure benchmark files.

Every benchmark runs its experiment once (``benchmark.pedantic`` with a
single round — a simulated deployment is the unit of work, not a
microsecond-scale function) and prints the same rows/series the paper's
figure plots, alongside the paper's reported values where the paper gives
numbers. Absolute throughput is not expected to match the authors' C++
testbed; the *shape* (who wins, by what factor, where crossovers fall) is
the reproduction target — see EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List

from repro.bench.harness import RunConfig
from repro.bench.report import merge_results

#: Simulated seconds per measurement run (keep the full suite tractable).
DURATION = 1.6
WARMUP = 0.4
#: Saturating offered load per group for throughput probes (txns/s).
SATURATE = 30_000.0

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.json")


def run_once(benchmark, fn: Callable[[], Any]) -> Any:
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    box: List[Any] = []

    def wrapper():
        box.append(fn())

    benchmark.pedantic(wrapper, rounds=1, iterations=1)
    return box[0]


def record_results(figure: str, rows: Any) -> None:
    """Persist a figure's measured rows (consumed by EXPERIMENTS.md)."""
    merge_results(RESULTS_PATH, figure, rows)


def saturated_config(protocol: str, cluster, workload: str = "ycsb-a", **kw) -> RunConfig:
    return RunConfig(
        protocol=protocol,
        cluster=cluster,
        workload=workload,
        offered_load=SATURATE,
        duration=DURATION,
        warmup=WARMUP,
        seed=1,
        **kw,
    )
