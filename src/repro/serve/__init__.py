"""Concurrent query serving over a shared database handle.

The paper's query-guard model makes transforms *read-only* over the
shredded store — exactly the workload that parallelizes once snapshot
reads exist.  This package is the serving layer on top of the
thread-safe storage/cache substrate:

* :class:`TransformPool` — the one request lifecycle (admit, route,
  execute, wait) over a bounded thread pool: per-request deadlines
  (``XM540`` on miss), graceful degradation to serial execution on
  queue exhaustion, ``serve.*`` counters wired into :mod:`repro.obs`;
  the right transport on free-threaded builds;
* :class:`ProcessTransformPool` — the same lifecycle (a subclass) over
  forked shared-reader workers (``Database(mode="r")``, zero-copy
  mmap'd page frames): plan-cost inline routing, worker respawn, plan-
  cache warmup; the transport that beats the GIL for pure-Python renders;
* :func:`serve_loop` / :func:`serve_forever` — a line-oriented JSON
  request loop (stdin/stdout or TCP) behind ``xmorph serve``, taking
  either pool flavor (``--mode thread|process``);
* :meth:`Database.transform_many <repro.storage.Database.transform_many>`
  — the batched convenience API.

Concurrency model, the thread-vs-process decision table and pool sizing
advice live in ``docs/CONCURRENCY.md``.  Correctness is pinned by the
property-based suite in ``tests/serve``: parallel output is
byte-identical to serial, in every mode.
"""

from repro.serve.pool import TransformPool
from repro.serve.procpool import (
    ProcessTransformPool,
    RemoteTransformError,
    RemoteTransformResult,
    plan_cost_estimate,
)
from repro.serve.server import (
    ServeStats,
    make_pool,
    render_database_metrics,
    serve_forever,
    serve_loop,
)
from repro.serve.telemetry import RequestTrace, ServeTelemetry, metrics_snapshot

__all__ = [
    "TransformPool",
    "ProcessTransformPool",
    "RemoteTransformError",
    "RemoteTransformResult",
    "plan_cost_estimate",
    "ServeStats",
    "ServeTelemetry",
    "RequestTrace",
    "make_pool",
    "serve_forever",
    "serve_loop",
    "metrics_snapshot",
    "render_database_metrics",
]
