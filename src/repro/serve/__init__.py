"""Concurrent query serving over a shared database handle.

The paper's query-guard model makes transforms *read-only* over the
shredded store — exactly the workload that parallelizes once snapshot
reads exist.  This package is the serving layer on top of the
thread-safe storage/cache substrate:

* :class:`TransformPool` — the one request lifecycle (admit, route,
  execute, wait) over a bounded thread pool sharing one handle:
  per-request deadlines (``XM540`` on miss), graceful degradation to
  serial execution on queue exhaustion, ``serve.*`` counters wired into
  :mod:`repro.obs`;
* :func:`serve_loop` / :func:`serve_forever` — a line-oriented JSON
  request loop (stdin/stdout or TCP) behind ``xmorph serve``, with
  request lines bounded by ``MAX_REQUEST_BYTES`` (``XM580`` past it);
* :meth:`Database.transform_many <repro.storage.Database.transform_many>`
  — the batched convenience API.

The concurrency model, the measured thread-vs-process comparison that
left one pool, and pool sizing advice live in ``docs/CONCURRENCY.md``.
Correctness is pinned by the property-based suite in ``tests/serve``:
parallel output is byte-identical to serial.
"""

from repro.serve.pool import TransformPool
from repro.serve.server import (
    MAX_REQUEST_BYTES,
    ServeStats,
    render_database_metrics,
    serve_forever,
    serve_loop,
)
from repro.serve.telemetry import RequestTrace, ServeTelemetry, metrics_snapshot

__all__ = [
    "TransformPool",
    "MAX_REQUEST_BYTES",
    "ServeStats",
    "ServeTelemetry",
    "RequestTrace",
    "serve_forever",
    "serve_loop",
    "metrics_snapshot",
    "render_database_metrics",
]
