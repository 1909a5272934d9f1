"""The lifetime counters of one store (the paper's ``vmstat`` analog).

The paper reads its experiments off the Linux ``vmstat`` tool.  We count
the same block I/O at the layer it arises — the storage engine — and
keep only what is counted or measured, in one
:class:`~repro.obs.metrics.MetricsRegistry` per database:

* every physical block read/written counts one ``storage.blocks_read``
  / ``storage.blocks_written`` (Figure 11's cumulative block I/O);
* buffer-pool, B+tree and plan-cache accesses count ``buffer.*``,
  ``btree.*`` and ``plan_cache.*``; durability and serving events count
  per name (``recovery.*``, ``update.*``, ``serve.*`` …);
* measured wall-clock latencies (page reads, fsyncs, compiles, serve
  requests) land in lifetime histograms, so the share of a run spent
  reading pages (Figure 12) is a sum over ``storage.page_read_seconds``.

Each count is also reported to the current tracer (:func:`repro.obs.count`
/ :func:`repro.obs.observe`), so an ``EXPLAIN ANALYZE`` trace sees the
same numbers, and only the ones its own context caused.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs import tracer as obs
from repro.obs.metrics import MetricsRegistry

#: The per-access I/O and cache counters.  Every database reports them
#: from its first moment (zero until counted); every other counter is an
#: event, counted by name when it first happens.
ACCESS_COUNTERS = (
    "storage.blocks_read",
    "storage.blocks_written",
    "buffer.hits",
    "buffer.misses",
    "btree.page_reads",
    "btree.splits",
    "plan_cache.hits",
    "plan_cache.misses",
    "plan_cache.evictions",
    "plan_cache.contended",
)


def event_counts(counters: Mapping[str, int]) -> dict[str, int]:
    """The events among ``counters``: all but :data:`ACCESS_COUNTERS`."""
    return {
        name: count for name, count in counters.items() if name not in ACCESS_COUNTERS
    }


class SystemStats(MetricsRegistry):
    """The one metrics registry shared by every component of a database.

    Counts arrive from all of a :class:`~repro.serve.TransformPool`'s
    worker threads at once; the registry's lock keeps every update
    exact.
    """

    __slots__ = ()

    def __init__(self):
        super().__init__()
        self.counters.update(dict.fromkeys(ACCESS_COUNTERS, 0))

    def count(self, name: str, n: int = 1) -> None:
        """Count ``n`` occurrences of ``name``, here and on the current tracer."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n
        obs.count(name, n)

    def observe(self, name: str, seconds: float) -> None:
        """Record a measured latency, here and on the current tracer."""
        super().observe(name, seconds)
        obs.observe(name, seconds)

    @property
    def blocks_in(self) -> int:
        return self.counters.get("storage.blocks_read", 0)

    @property
    def blocks_out(self) -> int:
        return self.counters.get("storage.blocks_written", 0)

    @property
    def cumulative_blocks(self) -> int:
        """Total blocks in + out (Figure 11's y-axis)."""
        return self.blocks_in + self.blocks_out
