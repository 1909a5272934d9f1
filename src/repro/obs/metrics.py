"""Counters, gauges and histograms for the query pipeline.

The registry is deliberately tiny: a counter is an integer that only
goes up (``btree.page_reads``, ``render.nodes_emitted``), a gauge is a
last-write-wins float (``buffer.hit_ratio``), and a histogram keeps a
streaming summary (count/sum/min/max) *plus* fixed log-spaced buckets
of an observed distribution, so tail quantiles (p50/p95/p99) of
latency-shaped metrics (``serve.request_seconds``,
``plan.compile_seconds``...) can be estimated without retaining samples.
Metric names are dotted strings; the catalogue lives in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import bisect
import threading
from typing import Optional, Sequence

#: Fixed histogram bucket upper bounds: four per decade from 1e-6 to
#: 1e6 (values in seconds span microseconds to ~11 days; counts span
#: 1 to a million).  Fixed-and-global keeps histograms mergeable across
#: threads, processes and serialized traces, and maps directly onto
#: Prometheus ``le`` buckets.
BUCKET_BOUNDS: tuple[float, ...] = tuple(10.0 ** (k / 4) for k in range(-24, 25))


def estimate_quantile(
    counts: Sequence[int],
    q: float,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
    bounds: Sequence[float] = BUCKET_BOUNDS,
) -> Optional[float]:
    """Estimate the ``q``-quantile of bucketed observations.

    ``counts`` has ``len(bounds) + 1`` entries — one per upper bound
    plus the overflow bucket.  The estimate interpolates linearly inside
    the bucket the rank falls into and clamps to the observed
    ``minimum``/``maximum`` when known, so a single observation comes
    back exactly and estimates never leave the observed range.  Returns
    ``None`` when no observations were bucketed.

    Shared by :meth:`Histogram.quantile` and windowed consumers (a
    scraper that diffs cumulative bucket counters between polls gets the
    window's quantiles from the deltas).
    """
    observed = sum(counts)
    if observed == 0:
        return None
    q = min(max(q, 0.0), 1.0)
    rank = q * observed
    cumulative = 0
    value = 0.0
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= rank:
            lower = bounds[index - 1] if index > 0 else 0.0
            if index < len(bounds):
                upper = bounds[index]
            else:  # overflow bucket: cap at the observed maximum
                upper = maximum if maximum is not None else bounds[-1]
                upper = max(upper, lower)
            fraction = (rank - previous) / bucket_count
            value = lower + (upper - lower) * fraction
            break
    if minimum is not None:
        value = max(value, minimum)
    if maximum is not None:
        value = min(value, maximum)
    return value


class Histogram:
    """Streaming summary plus log-spaced buckets of a distribution."""

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    #: Shared bucket upper bounds (the last bucket is the overflow).
    BOUNDS = BUCKET_BOUNDS

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        #: Per-bound observation counts; ``buckets[-1]`` is the
        #: overflow bucket (values above ``BOUNDS[-1]``).
        self.buckets: list[int] = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self.buckets[bisect.bisect_left(BUCKET_BOUNDS, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # -- quantiles ---------------------------------------------------------

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (``None`` for an empty histogram)."""
        return estimate_quantile(self.buckets, q, self.minimum, self.maximum)

    @property
    def p50(self) -> Optional[float]:
        return self.quantile(0.50)

    @property
    def p95(self) -> Optional[float]:
        return self.quantile(0.95)

    @property
    def p99(self) -> Optional[float]:
        return self.quantile(0.99)

    # -- aggregation / serialization ---------------------------------------

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one (buckets add)."""
        self.count += other.count
        self.total += other.total
        for bound in (other.minimum, other.maximum):
            if bound is None:
                continue
            if self.minimum is None or bound < self.minimum:
                self.minimum = bound
            if self.maximum is None or bound > self.maximum:
                self.maximum = bound
        for index, bucket_count in enumerate(other.buckets):
            self.buckets[index] += bucket_count

    def as_dict(self) -> dict:
        summary = {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }
        if any(self.buckets):
            # Sparse form: bucket index -> count (string keys for JSON).
            summary["buckets"] = {
                str(index): bucket_count
                for index, bucket_count in enumerate(self.buckets)
                if bucket_count
            }
        return summary

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        histogram = cls()
        histogram.count = data["count"]
        histogram.total = data["total"]
        histogram.minimum = data["min"]
        histogram.maximum = data["max"]
        for index, bucket_count in data.get("buckets", {}).items():
            histogram.buckets[int(index)] = bucket_count
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, mean={self.mean:.3g})"


class MetricsRegistry:
    """All counters/gauges/histograms of one tracer or one database.

    Updates are atomic: counter increments are read-modify-write, and a
    database's registry (:class:`~repro.storage.stats.SystemStats`)
    receives counts from every worker thread of a
    :class:`~repro.serve.TransformPool` at once.
    """

    __slots__ = ("counters", "gauges", "histograms", "_lock")

    def __init__(self):
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- updates -----------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.observe(value)

    # -- reads -------------------------------------------------------------

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self.histograms.get(name)

    def __bool__(self) -> bool:
        return bool(self.counters or self.gauges or self.histograms)

    # -- aggregation / serialization ---------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (counters add, gauges
        overwrite, histograms combine bucket-by-bucket)."""
        for name, value in list(other.counters.items()):
            self.inc(name, value)
        self.gauges.update(other.gauges)
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.merge(histogram)

    def copy(self) -> "MetricsRegistry":
        """A consistent copy, for exporters reading a live registry."""
        snapshot = MetricsRegistry()
        with self._lock:
            snapshot.counters.update(self.counters)
            snapshot.gauges.update(self.gauges)
            for name, histogram in self.histograms.items():
                snapshot.histograms[name] = Histogram()
                snapshot.histograms[name].merge(histogram)
        return snapshot

    def as_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        registry = cls()
        registry.counters.update(data.get("counters", {}))
        registry.gauges.update(data.get("gauges", {}))
        for name, summary in data.get("histograms", {}).items():
            registry.histograms[name] = Histogram.from_dict(summary)
        return registry

    def clear(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
