"""I/O and event counters of one store (the paper's ``vmstat`` analog).

The paper reads its experiments off the Linux ``vmstat`` tool.  We count
the same block I/O at the layer it arises — the storage engine — and
keep only what is counted or measured:

* every physical block read/written adds one to ``blocks_in`` /
  ``blocks_out`` (Figure 11's cumulative block I/O);
* durability and serving events count per name in ``events``;
* measured wall-clock latencies (page reads, fsyncs, compiles, serve
  requests) land in the lifetime ``timings`` histograms, so the share
  of a run spent reading pages (Figure 12) is a sum over
  ``storage.page_read_seconds``.

When a :class:`~repro.obs.metrics.MetricsRegistry` is attached via
:attr:`SystemStats.metrics`, every count is mirrored into the metric
counters (``storage.blocks_read``, ``storage.blocks_written``, events),
so ``EXPLAIN ANALYZE`` traces and the figures read the same calls.  The
attribute is ``None`` by default: the unobserved hot path pays one
``is None`` test.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs is standalone)
    from repro.obs.metrics import Histogram, MetricsRegistry


@dataclass
class SystemStats:
    """Mutable counters shared by every storage component of one database."""

    blocks_in: int = 0
    blocks_out: int = 0
    #: Durability/recovery event counters (``recovery.*``, ``fsck.*``,
    #: ``pages.checksum_failures`` …): lifetime counts per name, kept
    #: here so events fired before a tracer attaches (e.g. journal
    #: replay at open) still surface in reports.
    events: dict[str, int] = field(default_factory=dict)
    #: Lifetime latency histograms (``plan.compile_seconds``,
    #: ``storage.page_read_seconds``, ``serve.request_seconds`` …):
    #: real wall-clock timings bucketed for tail-quantile estimation,
    #: kept for the process lifetime so the Prometheus endpoint and
    #: ``{"cmd": "metrics"}`` can report p50/p95/p99 of a live server.
    timings: dict[str, "Histogram"] = field(default_factory=dict)
    #: Optional metrics sink; when set, counts also bump trace counters.
    metrics: Optional["MetricsRegistry"] = None
    #: Guards every read-modify-write above.  Counts arrive from all of
    #: a :class:`~repro.serve.TransformPool`'s worker threads at once;
    #: an unguarded ``+=`` is two bytecodes and drops counts under
    #: contention.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # -- counting -----------------------------------------------------------

    def block_read(self, count: int = 1) -> None:
        with self._lock:
            self.blocks_in += count
        if self.metrics is not None:
            self.metrics.inc("storage.blocks_read", count)

    def block_write(self, count: int = 1) -> None:
        with self._lock:
            self.blocks_out += count
        if self.metrics is not None:
            self.metrics.inc("storage.blocks_written", count)

    def event(self, name: str, count: int = 1) -> None:
        """Count a durability/serving event (``recovery.*``, ``serve.*``)."""
        with self._lock:
            self.events[name] = self.events.get(name, 0) + count
        if self.metrics is not None:
            self.metrics.inc(name, count)

    def observe(self, name: str, seconds: float) -> None:
        """Record a wall-clock latency sample into a lifetime histogram.

        These are *measured* durations (plan compiles, page reads,
        fsyncs, serve requests), so tail quantiles reflect the actual
        machine.  Mirrored into any attached metrics registry, like
        :meth:`event`.
        """
        from repro.obs.metrics import Histogram

        with self._lock:
            histogram = self.timings.get(name)
            if histogram is None:
                histogram = self.timings[name] = Histogram()
            histogram.observe(seconds)
        if self.metrics is not None:
            self.metrics.observe(name, seconds)

    def timing_snapshot(self) -> dict[str, "Histogram"]:
        """A consistent copy of the lifetime histograms (for exporters)."""
        from repro.obs.metrics import Histogram

        with self._lock:
            snapshot: dict[str, Histogram] = {}
            for name, histogram in self.timings.items():
                copy = Histogram()
                copy.merge(histogram)
                snapshot[name] = copy
        return snapshot

    @property
    def cumulative_blocks(self) -> int:
        """Total blocks in + out (Figure 11's y-axis)."""
        return self.blocks_in + self.blocks_out

    def reset(self) -> None:
        with self._lock:
            self.blocks_in = 0
            self.blocks_out = 0
