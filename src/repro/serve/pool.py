"""The request lifecycle of serving, over a thread pool.

Every served transform goes through one lifecycle, written once here:

1. **admit** — :meth:`TransformPool.submit` counts the request, resolves
   its deadline and starts its telemetry trace;
2. **route** — a request its submitter waits for at once and that has
   no deadline (``awaited``: the serve loop's) runs inline on the
   submitting thread, where a hand-off would only put that thread to
   sleep until a worker woke it.  So does a request a serial pool
   (``workers=1``) cannot hand off, and one that finds ``max_queue``
   requests already in flight, the latter counted as
   ``serve.degraded_serial``.  Everything else goes to a pool thread:
   a request with a deadline always can, so that its waiter can
   abandon it;
3. **execute** — :func:`execute` is the only call into
   ``Database.transform``, whether it runs on a pool thread or inline;
4. **wait** — :meth:`TransformPool.result` is the only deadline wait;
   a miss raises :class:`~repro.errors.TransformTimeoutError`
   (``XM540``).  Python cannot preempt a running transform: a late
   worker finishes in the background and its result is dropped, and an
   inline transform that overran its budget raises ``XM540`` *instead
   of* returning the late result.

The threads share the one :class:`~repro.storage.Database` handle (one
buffer pool, plan cache and join-memo set for all workers), and results
are byte-identical to serial evaluation (``tests/serve`` pins this).

Every lifecycle edge counts one ``serve.*`` counter with
:meth:`SystemStats.count <repro.storage.stats.SystemStats.count>`: once
in the database's lifetime registry (``{"cmd": "stats"}``, ``EXPLAIN
ANALYZE``'s serving line) and once on the active tracer.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import TransformTimeoutError
from repro.obs import tracer as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.interpreter import TransformResult
    from repro.serve.telemetry import RequestTrace, ServeTelemetry
    from repro.storage.database import Database


def execute(database: "Database", name: str, guard: str, stream: bool, tracer=None):
    """Run one transform on ``database``.

    A stream request returns the compact XML as the body of a JSON
    string (``TransformResult.xml_json``: ``json.dumps(xml)[1:-1]``),
    which the serve loop frames into its response line as is; any other
    returns the result with its tree built.

    With ``tracer`` (a sampled or slow-logged request) the transform runs
    under it, inside a ``serve.request`` span, and the previous tracer is
    restored afterwards.  ``Database.transform`` renders on first read,
    and that read is made here, on the executing worker, so the deadline
    and the parallelism cover the render and the caller gets a finished
    result.
    """
    if tracer is not None:
        previous = obs.set_tracer(tracer)
        try:
            with tracer.span("serve.request", doc=name, stream=stream):
                return execute(database, name, guard, stream)
        finally:
            obs.set_tracer(previous)
    result = database.transform(name, guard)
    if stream:
        return result.xml_json()
    result.rendered  # noqa: B018 - forces the render on this worker
    return result


class TransformPool:
    """A thread pool evaluating guard transforms over one database.

    ``workers <= 1`` short-circuits to inline serial execution (no
    threads are created), so callers can scale down without branching.
    A pool is a context manager; exiting shuts the threads down after
    draining in-flight work.
    """

    def __init__(
        self,
        database: "Database",
        workers: int = 8,
        deadline: Optional[float] = None,
        max_queue: Optional[int] = None,
        telemetry: Optional["ServeTelemetry"] = None,
    ):
        self.database = database
        self.workers = max(1, int(workers))
        #: Default per-request deadline in seconds (None = unbounded).
        self.deadline = deadline
        #: Optional request-scoped telemetry (sampled traces, slow-query
        #: log, latency histograms).  ``None`` keeps submission at its
        #: bare-counter cost.
        self.telemetry = telemetry
        #: Requests allowed in flight before submission degrades to
        #: inline serial execution.  Default: 4 deep per worker.
        self.max_queue = max_queue if max_queue is not None else self.workers * 4
        self._pending = 0
        self._pending_lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        if self.workers > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="xmorph-serve"
            )

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "TransformPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None

    # -- admission -----------------------------------------------------------

    def submit(
        self,
        name: str,
        guard: str,
        stream: bool = False,
        deadline: Optional[float] = None,
        awaited: bool = False,
    ) -> "concurrent.futures.Future":
        """Admit one transform; returns its future.

        A request that is not dispatched runs inline on the calling
        thread and comes back as an already-completed future — bounded
        memory, no rejection.  The inline path still honors ``deadline``
        (defaulting to the pool's) after the fact, and its phase timings
        land in the same ``serve.*`` histograms, so degraded requests
        never silently vanish from the p95s.  A ``workers=1`` pool is
        serial by construction, not degradation, so it counts nothing;
        nor does an ``awaited`` request (its submitter waits for the
        future at once) without a deadline, which never needs a worker.
        The waiter finishes an ``awaited`` request's trace, serialize
        phase included; any other inline request's is finished here.

        With telemetry attached, the future carries its
        :class:`~repro.serve.telemetry.RequestTrace` as
        ``future.xmorph_trace`` (``None`` otherwise) so the response
        writer can time the serialize phase and finish the trace.
        """
        self.database.stats.count("serve.requests")
        deadline = deadline if deadline is not None else self.deadline
        trace = (
            self.telemetry.start(name, guard) if self.telemetry is not None else None
        )
        executor = self._executor
        if executor is not None and not (awaited and deadline is None):
            with self._pending_lock:
                saturated = self._pending >= self.max_queue
                if not saturated:
                    self._pending += 1
            if not saturated:
                # Run the worker in a copy of the submitter's context so an
                # outer tracer (EXPLAIN ANALYZE over transform_many, a test's
                # obs.tracing block) still sees worker spans, and a
                # per-request tracer installed by the worker never leaks
                # outside its task.
                context = contextvars.copy_context()
                future = executor.submit(
                    context.run, self._execute, name, guard, stream, trace, True
                )
                future.xmorph_trace = trace
                return future
            self.database.stats.count("serve.degraded_serial")
            if trace is not None:
                trace.degraded = True
        future = concurrent.futures.Future()
        future.xmorph_trace = trace
        self._run_inline(future, name, guard, stream, deadline, trace)
        if not awaited:
            self._finish(trace)
        return future

    # -- execution -----------------------------------------------------------

    def _execute(self, name, guard, stream, trace, queued=False):
        """Run one transform on this handle: timed, counted, re-raising.

        ``queued`` marks a dispatched request, whose in-flight slot is
        given back here.
        """
        tracer = None
        if trace is not None:
            trace.begin()
            tracer = trace.tracer
        try:
            result = execute(self.database, name, guard, stream, tracer)
        except BaseException as error:  # noqa: B036 - counted, then re-raised
            self._record_error(error, trace)
            raise
        else:
            self.database.stats.count("serve.completed")
            return result
        finally:
            if trace is not None:
                trace.end_execute()
            if queued:
                with self._pending_lock:
                    self._pending -= 1

    def _run_inline(self, future, name, guard, stream, deadline, trace) -> None:
        """Resolve ``future`` on the calling thread."""
        started = time.perf_counter()
        try:
            result = self._execute(name, guard, stream, trace)
        except BaseException as error:  # noqa: B036 - the future carries it,
            # matching ThreadPoolExecutor's own capture semantics.
            future.set_exception(error)
        else:
            if deadline is not None and time.perf_counter() - started > deadline:
                # The budget was blown while we were un-preemptable: the
                # result is as late (and as dropped) as a timed-out
                # worker's would be.
                future.set_exception(self._timed_out(name, guard, deadline, trace))
            else:
                future.set_result(result)

    # -- waiting -------------------------------------------------------------

    def result(self, future, name: str, guard: str, deadline: Optional[float] = None):
        """The outcome of a submitted request, waited for at most ``deadline``.

        ``deadline`` defaults to the pool's.  On a miss the request is
        abandoned — cancelled if still queued, which gives its in-flight
        slot back (``_execute`` never runs for it); a running worker
        cannot be interrupted and its late result is dropped with the
        future.
        """
        deadline = deadline if deadline is not None else self.deadline
        try:
            return future.result(timeout=deadline)
        except concurrent.futures.TimeoutError:
            if future.cancel():
                with self._pending_lock:
                    self._pending -= 1
            raise self._timed_out(name, guard, deadline, future.xmorph_trace) from None

    def transform_many(
        self,
        requests: Sequence[tuple[str, str]],
        deadline: Optional[float] = None,
    ) -> list["TransformResult"]:
        """Evaluate ``(document, guard)`` requests; results in order."""
        futures = [
            (name, guard, self.submit(name, guard, deadline=deadline))
            for name, guard in requests
        ]
        results = []
        for name, guard, future in futures:
            try:
                results.append(self.result(future, name, guard, deadline))
            finally:
                self._finish(future.xmorph_trace)
        return results

    # -- accounting ----------------------------------------------------------

    def _record_error(self, error: BaseException, trace) -> None:
        self.database.stats.count("serve.errors")
        code = getattr(error, "code", None)
        # Per-code breakdown: {"cmd": "stats"} distinguishes timeouts
        # (XM540) from lock conflicts (XM520) from uncoded failures.
        self.database.stats.count(f"serve.errors.{code}" if code else "serve.errors.uncoded")
        if trace is not None:
            trace.fail(error)

    def _timed_out(self, name, guard, deadline, trace) -> TransformTimeoutError:
        """Count one deadline miss and build its error.

        Every miss — a waiter giving up or an inline overrun — goes
        through here, so ``serve.timeouts == serve.errors.XM540`` on
        every path.
        """
        self.database.stats.count("serve.timeouts")
        error = TransformTimeoutError(name, guard, deadline)
        self._record_error(error, trace)
        return error

    def _finish(self, trace: Optional["RequestTrace"]) -> None:
        if trace is not None:  # traces only exist with telemetry attached
            self.telemetry.finish(trace)

    # -- introspection -------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests currently queued for or running on a pool thread."""
        with self._pending_lock:
            return self._pending

    def stats(self) -> dict:
        """The pool's lifetime ``serve.*`` counters (from the database)."""
        counters = self.database.stats.copy().counters
        return {
            name.removeprefix("serve."): count
            for name, count in sorted(counters.items())
            if name.startswith("serve.")
        }
