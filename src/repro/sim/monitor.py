"""Measurement primitives: counters, histograms, and time series.

These are deliberately simulation-agnostic; the benchmark harness
(:mod:`repro.bench.metrics`) composes them into throughput/latency reports.
"""

from __future__ import annotations

import math
import os
from array import array
from itertools import chain, islice, repeat
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

# Percentile reads sort through numpy when present; REPRO_NO_NUMPY=1
# forces the pure-Python sort (the CI no-numpy leg proves equal bits).
try:
    if os.environ.get("REPRO_NO_NUMPY"):
        _np = None
    else:
        import numpy as _np
except ImportError:  # pragma: no cover - numpy is baked into the image
    _np = None


def sorted_column(samples: array) -> array:
    """A sorted float64 copy of ``samples``. With numpy the copy is
    sorted in place, so no Python float is made per sample. The sort is
    stable either way, so even ``-0.0`` and ``0.0`` keep the relative
    order ``sorted()`` gives them."""
    if _np is None:
        return array("d", sorted(samples))
    ordered = array("d", samples)
    _np.frombuffer(ordered, dtype=_np.float64).sort(kind="stable")
    return ordered


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

    Stores raw samples, so percentiles are exact, in an append-only
    float64 column (8 B a sample). Reads sort a typed copy and keep it
    until the next append; a column filled in non-decreasing order is its
    own sorted copy. A histogram built over an existing column (``samples``
    given) only reads it: the column's owner appends, and may share it
    with other views.
    """

    __slots__ = ("name", "samples", "_sorted")

    def __init__(self, name: str, samples: Optional[array] = None) -> None:
        self.name = name
        if samples is None:
            self.samples = self._sorted = array("d")
        else:
            self.samples = samples
            self._sorted = None

    def observe(self, value: float) -> None:
        # Appending in non-decreasing order keeps the samples sorted, so
        # interleaved observe/percentile patterns don't re-sort each read.
        samples = self.samples
        if self._sorted is samples and samples and value < samples[-1]:
            self._sorted = None
        samples.append(value)

    def _ensure_sorted(self) -> array:
        ordered = self._sorted
        if ordered is None or len(ordered) != len(self.samples):
            ordered = self._sorted = sorted_column(self.samples)
        return ordered

    def _summed(self) -> Iterable[float]:
        """The samples in the order sums add them: sorted as of the last
        percentile read, then those appended since. That is where a
        list sorted in place would hold them, and the committed
        artifacts' means were summed in that order."""
        ordered, samples = self._sorted, self.samples
        if ordered is None or ordered is samples:
            return samples
        return chain(ordered, islice(samples, len(ordered), None))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self._summed()) / len(self.samples)

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


class _Windowed:
    """Windowed aggregation over ``points``, an iterable of (time, value)
    pairs that every read walks afresh; subclasses also define
    ``__len__``."""

    __slots__ = ()

    points: Iterable[Tuple[float, float]]

    def window_sums(self, window: float, end: Optional[float] = None) -> List[Tuple[float, float]]:
        """Sum values into consecutive ``window``-second buckets.

        Returns a list of (bucket_start_time, sum) covering [0, end).
        """
        if window <= 0:
            raise ValueError("window must be positive")
        if not len(self) and end is None:
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
        if not len(self) and end is None:
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


class TimeSeries(_Windowed):
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


class RowSeries(_Windowed):
    """A (time, value) series read from samples recorded in rows, every
    sample of a row at the row's instant.

    Row ``k`` is ``times[k]`` and ``ends[k]``, the end offset of its
    samples; ``values`` holds one float per sample, or is ``None`` when
    each sample counts 1.0. The columns belong to whoever records the
    rows. ``points`` yields the per-sample pairs lazily, in recording
    order, so no read builds a tuple per sample.
    """

    __slots__ = ("name", "times", "ends", "values")

    def __init__(
        self, name: str, times: array, ends: array, values: Optional[array] = None
    ) -> None:
        self.name = name
        self.times = times
        self.ends = ends
        self.values = values

    def __len__(self) -> int:
        return self.ends[-1] if self.ends else 0

    @property
    def points(self) -> Iterator[Tuple[float, float]]:
        values = self.values
        start = 0
        for time, end in zip(self.times, self.ends):
            if values is None:
                yield from repeat((time, 1.0), end - start)
            else:
                yield from zip(repeat(time), values[start:end])
            start = end


class StatMonitor:
    """A namespaced registry of counters."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = Counter(name)
            self.counters[name] = counter
        return counter
