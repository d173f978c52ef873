"""Measurement primitives: counters, histograms, and time series.

These are deliberately simulation-agnostic; the benchmark harness
(:mod:`repro.bench.metrics`) composes them into throughput/latency reports.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("Counter.add takes a non-negative amount")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Collects samples and reports mean / percentiles.

    Stores raw samples; experiments in this repository collect at most a few
    hundred thousand latency samples, so exact percentiles are affordable
    and avoid bucketing error.
    """

    __slots__ = ("name", "samples", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        # Appending in non-decreasing order keeps the samples sorted, so
        # interleaved observe/percentile patterns don't re-sort each read.
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

    @property
    def total(self) -> float:
        return sum(self.samples)

    def percentile(self, pct: float) -> float:
        """Exact percentile via nearest-rank on the sorted samples."""
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
        """The 99.9th percentile — the tail SLOs are graded against."""
        return self.percentile(99.9)

    @property
    def max(self) -> float:
        """Largest sample, via the sorted path shared with percentile()."""
        if not self.samples:
            return 0.0
        return self._ensure_sorted()[-1]

    @property
    def min(self) -> float:
        """Smallest sample, via the sorted path shared with percentile()."""
        if not self.samples:
            return 0.0
        return self._ensure_sorted()[0]


class TimeSeries:
    """(time, value) samples, with windowed aggregation for timelines.

    Used by the fault-tolerance experiment (Fig 15) to plot throughput and
    latency per second around injected failures.
    """

    __slots__ = ("name", "points")

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        self.points.append((time, value))

    def __len__(self) -> int:
        return len(self.points)

    def window_sums(self, window: float, end: Optional[float] = None) -> List[Tuple[float, float]]:
        """Sum values into consecutive ``window``-second buckets.

        Returns a list of (bucket_start_time, sum) covering [0, end).
        """
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

    def window_means(self, window: float, end: Optional[float] = None) -> List[Tuple[float, float]]:
        """Mean value per ``window``-second bucket (empty buckets report 0)."""
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


class StatMonitor:
    """A namespaced registry of counters and histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = Counter(name)
            self.counters[name] = counter
        return counter

    def histogram(self, name: str) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = Histogram(name)
            self.histograms[name] = hist
        return hist

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of counter values and histogram means, for reports."""
        out: Dict[str, float] = {}
        for name, counter in self.counters.items():
            out[name] = float(counter.value)
        for name, hist in self.histograms.items():
            out[f"{name}.mean"] = hist.mean
            out[f"{name}.count"] = float(hist.count)
        return out
