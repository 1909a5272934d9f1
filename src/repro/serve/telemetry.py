"""Request-scoped serving telemetry.

Every request a :class:`~repro.serve.TransformPool` runs with telemetry
attached gets a :class:`RequestTrace`: the queue-wait /
execute / serialize phase breakdown, its outcome (status + XM code) and,
when it is sampled or slow-logged, a ``trace_id``.
:class:`ServeTelemetry` decides what happens to each finished trace:

* **latency histograms** — every request's phase timings feed the
  database's lifetime :class:`~repro.obs.metrics.Histogram` sinks
  (``serve.request_seconds`` and friends), which the Prometheus
  endpoint, ``{"cmd": "metrics"}`` and ``xmorph metrics`` read;
* **sampled JSONL traces** (``--trace-sample=N``) — one request in N
  runs under its own enabled :class:`~repro.obs.Tracer` (installed on
  the executing thread via the tracer contextvar), so pipeline spans —
  parse, plan cache, closest joins, render, storage — nest under the
  request and every exported record carries the request's ``trace_id``;
* **the slow-query log** (``--slow-ms``) — any request whose end-to-end
  latency crosses the threshold appends a JSON line with the guard
  fingerprint, plan-cache hit/miss, per-phase timings and the XM code
  when it failed.

The default configuration (sample rate 0, no slow log) keeps the hot
path to four ``perf_counter`` calls and a few histogram inserts per
request — no trace id, no tracer, no span retention, no file I/O.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.obs import export as obs_export
from repro.obs import tracer as obs_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.pool import TransformPool
    from repro.storage.database import Database
    from repro.storage.stats import SystemStats


def guard_fingerprint(guard: str) -> str:
    """A short stable id for a guard text (slow-log correlation key)."""
    return hashlib.sha256(guard.encode()).hexdigest()[:16]


@dataclass
class RequestTrace:
    """Phase timings and outcome of one serve request.

    Timestamps are ``perf_counter`` values filled in as the request
    moves through the pool: ``submitted`` at :meth:`TransformPool.submit`,
    ``started``/``executed`` on the executing thread, serialize time by
    whoever writes the response.  A request that never reached a worker
    (future dropped on timeout) reports the phases it measured.
    """

    doc: str
    guard: str
    #: Drawn only for a sampled or slow-logged request, else ``None``.
    trace_id: Optional[str]
    #: Per-request tracer when this request is sampled or slow-logged.
    tracer: Optional[obs_tracer.Tracer] = None
    #: Whether the JSONL trace should be exported on finish.
    sampled: bool = False
    degraded: bool = False
    submitted: float = field(default_factory=time.perf_counter)
    started: Optional[float] = None
    executed: Optional[float] = None
    serialize_seconds: float = 0.0
    status: str = "ok"
    code: Optional[str] = None
    error: Optional[str] = None
    _done: bool = False

    # -- lifecycle (called from the executing thread) -----------------------

    def begin(self) -> None:
        """The worker picked the request up: queue wait ends here."""
        self.started = time.perf_counter()

    def end_execute(self) -> None:
        self.executed = time.perf_counter()

    def fail(self, error: BaseException) -> None:
        self.status = "error"
        self.error = type(error).__name__
        self.code = getattr(error, "code", None)

    # -- derived timings ----------------------------------------------------

    @property
    def queue_seconds(self) -> float:
        if self.started is None:
            return 0.0
        return max(0.0, self.started - self.submitted)

    @property
    def execute_seconds(self) -> float:
        if self.started is None or self.executed is None:
            return 0.0
        return max(0.0, self.executed - self.started)

    @property
    def total_seconds(self) -> float:
        return self.queue_seconds + self.execute_seconds + self.serialize_seconds

    @property
    def plan_cache_hit(self) -> Optional[bool]:
        """Whether this request hit the plan cache (None when unknown)."""
        if self.tracer is None:
            return None
        hits = self.tracer.metrics.counter("plan_cache.hits")
        misses = self.tracer.metrics.counter("plan_cache.misses")
        if hits == misses == 0:
            return None
        return hits > 0

    def timings_ms(self) -> dict:
        return {
            "queue_ms": round(self.queue_seconds * 1e3, 3),
            "execute_ms": round(self.execute_seconds * 1e3, 3),
            "serialize_ms": round(self.serialize_seconds * 1e3, 3),
            "total_ms": round(self.total_seconds * 1e3, 3),
        }


class ServeTelemetry:
    """Sampling, slow-query logging and latency recording for serving.

    ``trace_sample=N`` samples one request in N into a JSONL trace
    (``0`` disables tracing; ``1`` traces everything).  ``slow_ms``
    turns on the slow-query log — and, as a side effect, gives *every*
    request a tracer so the log can say whether the plan cache hit.
    File writes are append-mode and lock-guarded: one telemetry object
    serves every connection thread of a server.
    """

    def __init__(
        self,
        stats: "SystemStats",
        trace_sample: int = 0,
        trace_file: Optional[str] = None,
        slow_ms: Optional[float] = None,
        slow_log: Optional[str] = None,
    ):
        self.stats = stats
        self.trace_sample = max(0, int(trace_sample))
        self.trace_file = trace_file
        self.slow_ms = slow_ms
        self.slow_log = slow_log
        self._lock = threading.Lock()
        self._request_counter = 0
        #: Lifetime counts of what the sinks did.
        self.sampled_traces = 0
        self.slow_queries = 0

    # -- request lifecycle ---------------------------------------------------

    def start(self, doc: str, guard: str) -> RequestTrace:
        """A trace for one request (decides sampling up front)."""
        sampled = False
        if self.trace_sample > 0:
            with self._lock:
                self._request_counter += 1
                sampled = self._request_counter % self.trace_sample == 0
        # Only the tracer and the slow log read the id, and both exist
        # only then: an unsampled request without a slow log draws none.
        trace_id = tracer = None
        if sampled or self.slow_ms is not None:
            trace_id = obs_tracer.new_trace_id()
            tracer = obs_tracer.Tracer(trace_id=trace_id)
        return RequestTrace(
            doc=doc,
            guard=guard,
            trace_id=trace_id,
            tracer=tracer,
            sampled=sampled,
        )

    def finish(self, trace: Optional[RequestTrace]) -> None:
        """Record a completed request exactly once (idempotent)."""
        if trace is None or trace._done:
            return
        trace._done = True
        if trace.executed is None and trace.started is not None:
            trace.end_execute()
        stats = self.stats
        stats.observe("serve.request_seconds", trace.total_seconds)
        stats.observe("serve.queue_seconds", trace.queue_seconds)
        stats.observe("serve.execute_seconds", trace.execute_seconds)
        stats.observe("serve.serialize_seconds", trace.serialize_seconds)
        if trace.sampled and trace.tracer is not None:
            self._export_trace(trace)
        if (
            self.slow_ms is not None
            and trace.total_seconds * 1e3 >= self.slow_ms
        ):
            self._log_slow(trace)

    # -- sinks ---------------------------------------------------------------

    def _export_trace(self, trace: RequestTrace) -> None:
        header = {
            "doc": trace.doc,
            "guard_fingerprint": guard_fingerprint(trace.guard),
            "status": trace.status,
            "timings": trace.timings_ms(),
        }
        if trace.code:
            header["code"] = trace.code
        text = obs_export.to_json_lines(trace.tracer, header=header)
        with self._lock:
            self.sampled_traces += 1
            if self.trace_file:
                with open(self.trace_file, "a", encoding="utf-8") as handle:
                    handle.write(text + "\n")
        self.stats.count("serve.traces_sampled")

    def _log_slow(self, trace: RequestTrace) -> None:
        record = {
            "ts": time.time(),
            "trace_id": trace.trace_id,
            "doc": trace.doc,
            "guard_fingerprint": guard_fingerprint(trace.guard),
            "guard": trace.guard if len(trace.guard) <= 500 else trace.guard[:500],
            "plan_cache": {
                True: "hit",
                False: "miss",
                None: "unknown",
            }[trace.plan_cache_hit],
            "timings": trace.timings_ms(),
            "status": trace.status,
        }
        if trace.degraded:
            record["degraded_serial"] = True
        if trace.status != "ok":
            record["error"] = trace.error
            record["code"] = trace.code
        with self._lock:
            self.slow_queries += 1
            if self.slow_log:
                with open(self.slow_log, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
        self.stats.count("serve.slow_queries")


# -- metrics snapshot (the Prometheus endpoint's data source) ---------------


def metrics_snapshot(
    database: "Database", pool: Optional["TransformPool"] = None
) -> tuple[dict, dict, dict]:
    """``(counters, gauges, histograms)`` of a live database + pool.

    A copy of the database's lifetime registry — every counter and
    latency histogram it ever counted — plus capacity/occupancy gauges.
    Feed straight into :func:`repro.obs.prom.render_prometheus`.
    """
    lifetime = database.stats.copy()
    gauges: dict = {
        "buffer.hit_ratio": database.pool.hit_ratio,
        "buffer.resident_pages": database.pool.resident,
        "plan_cache.entries": len(database.plan_cache),
    }
    if pool is not None:
        gauges["serve.pending"] = float(pool.pending)
        gauges["serve.workers"] = float(pool.workers)
    return lifetime.counters, gauges, lifetime.histograms
