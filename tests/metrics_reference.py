"""Per-transaction metrics recording: the reference the per-entry rows
are compared against.

:class:`RunMetrics` records one row per executed entry — its commit
instant and its transactions' latencies in a float64 column — and reads
its latency histogram and both timelines as views over those rows.
:class:`ReferenceRunMetrics` records the straightforward way: a Python
float per transaction in a sorted-in-place list histogram (overall and
per group), and a ``(time, value)`` tuple per transaction in each
timeline. Its reporting methods are :class:`RunMetrics`' own, so fed the
same bus events the two must report the same values in the same order.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.bench.metrics import RunMetrics


class Histogram:
    """Raw samples in a list, sorted in place on the first read after an
    append."""

    __slots__ = ("name", "samples", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        samples = self.samples
        if self._sorted and samples and value < samples[-1]:
            self._sorted = False
        samples.append(value)

    def _ensure_sorted(self) -> List[float]:
        if not self._sorted:
            self.samples.sort()
            self._sorted = True
        return self.samples

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def percentile(self, pct: float) -> float:
        if not self.samples:
            return 0.0
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile {pct} outside [0, 100]")
        samples = self._ensure_sorted()
        rank = max(0, math.ceil(pct / 100.0 * len(samples)) - 1)
        return samples[rank]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)


class TimeSeries:
    """A ``(time, value)`` tuple per sample, in a list."""

    __slots__ = ("name", "points")

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def __len__(self) -> int:
        return len(self.points)

    def window_sums(
        self, window: float, end: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        if window <= 0:
            raise ValueError("window must be positive")
        if not self.points and end is None:
            return []
        horizon = end if end is not None else max(t for t, _ in self.points) + window
        n_buckets = int(math.ceil(horizon / window))
        sums = [0.0] * n_buckets
        for t, v in self.points:
            idx = int(t / window)
            if 0 <= idx < n_buckets:
                sums[idx] += v
        return [(i * window, sums[i]) for i in range(n_buckets)]

    def window_means(
        self, window: float, end: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        if window <= 0:
            raise ValueError("window must be positive")
        if not self.points and end is None:
            return []
        horizon = end if end is not None else max(t for t, _ in self.points) + window
        n_buckets = int(math.ceil(horizon / window))
        sums = [0.0] * n_buckets
        counts = [0] * n_buckets
        for t, v in self.points:
            idx = int(t / window)
            if 0 <= idx < n_buckets:
                sums[idx] += v
                counts[idx] += 1
        return [
            (i * window, sums[i] / counts[i] if counts[i] else 0.0)
            for i in range(n_buckets)
        ]


class ReferenceRunMetrics(RunMetrics):
    """:class:`RunMetrics` recording per transaction."""

    def __init__(self, n_groups: int) -> None:
        super().__init__(n_groups)
        self.latency = Histogram("txn_latency")
        self.latency_by_group = [Histogram(f"latency_g{g}") for g in range(n_groups)]
        self.throughput_timeline = TimeSeries("throughput")
        self.latency_timeline = TimeSeries("latency")
        self.batch_sizes = Histogram("batch_size")

    def record_commits(self, commit_times, now: float, gid: int) -> None:
        if now < self.warmup or not commit_times:
            return
        n = len(commit_times)
        self.committed += n
        self.committed_by_group[gid] += n
        hist = self.latency
        group_hist = self.latency_by_group[gid]
        latencies = [now - created_at for created_at in commit_times]
        hist.samples.extend(latencies)
        hist._sorted = False
        group_hist.samples.extend(latencies)
        group_hist._sorted = False
        self.throughput_timeline.points.extend([(now, 1.0)] * n)
        self.latency_timeline.points.extend([(now, lat) for lat in latencies])

    def configure_tenants(self, mix) -> None:
        super().configure_tenants(mix)
        self.tenant_latency = [
            Histogram(f"latency_tenant_{name}") for name in self.tenant_names
        ]

    def record_tenant_commits(self, commit_times, tenants, now: float) -> None:
        if now < self.warmup or self.tenant_names is None:
            return
        committed = self.tenant_committed
        hists = self.tenant_latency
        for created_at, tenant in zip(commit_times, tenants):
            committed[tenant] += 1
            hist = hists[tenant]
            hist.samples.append(now - created_at)
            hist._sorted = False
