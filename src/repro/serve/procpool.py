"""The process-based transform executor: rendering that scales with cores.

The paper's transform pipeline is pure-Python CPU work, which the GIL
serializes onto one core for the thread pool in :mod:`repro.serve.pool`.
This module is the way around it:
:class:`ProcessTransformPool` forks N worker processes that each open
the database in **shared-reader mode** (``Database(mode="r")``, the
``LOCK_SH`` + sealed-journal overlay machinery guaranteeing every
worker the same frozen snapshot) and evaluate transforms with a whole
interpreter each.  Because read-only page frames are served from a
file-backed ``mmap`` (:class:`~repro.storage.pages.PagedFile`), the
workers share hot pages through the OS page cache — zero-copy — instead
of re-reading them per process.

The request lifecycle (admission, inline execution, the deadline wait,
error and timeout accounting) is :class:`~repro.serve.pool.TransformPool`'s,
inherited unchanged; this module supplies the routing test and the
transport under it:

* **one pipe per worker, one dispatcher thread per pipe** — the parent
  threads spend their lives blocked in ``recv`` (no GIL contention; the
  CPU work happens in the children), pulling tasks from one shared
  queue so a slow request never convoys the others;
* **cost-routed inlining** — each request gets a cheap plan-cost
  estimate (:func:`plan_cost_estimate`, adorned-shape counts only, no
  compile); a transform too small to amortize IPC runs inline on the
  submitting thread (``serve.inline_small``) instead of paying a
  round-trip;
* **deadlines** — the per-request budget crosses the process boundary:
  a request that expires in the queue is never sent, and a worker that
  receives an already-expired request refuses it without rendering
  (both ``XM540``, like a waiter's miss);
* **worker death** — a killed or crashed worker is respawned
  (``serve.worker_restarts``), its in-flight request re-executed on the
  replacement, so no response is ever lost or duplicated; a worker that
  cannot be respawned degrades its requests to inline serial execution
  (``serve.degraded_serial``);
* **warm starts** — fresh and respawned workers receive the pool's
  warmup list (recent ``(doc, guard)`` pairs) and pre-compile them into
  their private plan caches before taking traffic;
* **telemetry** — workers report execute time, plan-cache outcome and
  (for sampled requests) a fully rendered JSONL trace, which the parent
  merges into the same ``serve.*`` histograms, slow-query log and trace
  file the thread pool feeds.

Results cross the pipe as rendered XML text wrapped in
:class:`RemoteTransformResult` — byte-identical to serial evaluation
(``tests/serve`` pins this), and exactly what a serving loop needs.
The thread pool remains the right executor on free-threaded builds;
``docs/CONCURRENCY.md`` has the decision table.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import multiprocessing
import queue
import re
import threading
import time
from typing import TYPE_CHECKING, Optional

from repro.errors import StorageError, TransformTimeoutError, XMorphError
from repro.obs import tracer as obs
from repro.serve.pool import TransformPool, execute

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.telemetry import ServeTelemetry
    from repro.storage.database import Database

#: Estimated touched-node count below which a request skips IPC and
#: runs inline on the submitting thread.  At ~1 ms of IPC+unpickle
#: round-trip and ~10 µs/node render cost, a few dozen nodes is the
#: break-even neighborhood.
INLINE_THRESHOLD = 32

#: Respawn attempts per request before degrading it to inline serial.
MAX_RESPAWNS_PER_REQUEST = 2

#: Recent (doc, guard) pairs replayed into a respawned worker's plan cache.
WARM_HISTORY = 16

_LABEL = re.compile(r"[A-Za-z_][\w.-]*")

#: Guard keywords that are never labels (skipped by the cost estimate).
_GUARD_KEYWORDS = {
    "MORPH",
    "CAST",
    "TYPE-FILL",
    "RESTRICT",
    "DROP",
    "GROUP",
    "BY",
    "AS",
    "TYPE",
    "FILL",
}


def plan_cost_estimate(database: "Database", name: str, guard: str) -> float:
    """A cheap touched-node estimate for routing (never compiles).

    Sums the stored per-type node counts of every guard token that
    matches a type label in the document's adorned shape — the counts
    are already in memory (the shape is tiny and loads eagerly), so the
    estimate costs a regex scan and a few dict lookups.  Unknown
    documents estimate 0: the lookup error is cheapest to produce
    inline, without waking a worker.
    """
    try:
        index = database.index(name)
    except Exception:
        return 0.0
    total = 0
    for token in set(_LABEL.findall(guard)):
        if token.upper() in _GUARD_KEYWORDS:
            continue
        for data_type in index.type_table.match_label(token):
            total += index.count_of(data_type)
    return float(total)


class RemoteTransformResult:
    """A transform result rendered in a worker process.

    The XML text crossed the pipe already serialized (the worker owns
    the forest; shipping the object graph would cost more than the
    render).  ``xml()`` matches :class:`~repro.engine.interpreter.
    TransformResult` for every serving consumer.
    """

    __slots__ = ("doc", "guard", "_xml")

    def __init__(self, doc: str, guard: str, xml: str):
        self.doc = doc
        self.guard = guard
        self._xml = xml

    def xml(self, indent: Optional[int] = None) -> str:
        if indent is not None:
            raise ValueError(
                "a RemoteTransformResult is pre-serialized; re-indenting "
                "needs the forest (run the transform locally instead)"
            )
        return self._xml

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteTransformResult({self.doc!r}, {len(self._xml)} bytes)"


class RemoteTransformError(XMorphError):
    """A transform failure rehydrated from a worker process.

    The original exception type stays behind the pipe (many carry
    unpicklable state); what serving needs — the message and the stable
    XM code — crosses intact.
    """

    def __init__(self, kind: str, message: str, code: Optional[str] = None):
        super().__init__(message)
        self.kind = kind
        self.code = code


# -- the worker process ------------------------------------------------------


def _worker_main(path: str, conn, cache_pages: int, durable: bool) -> None:
    """One worker: open a shared-reader snapshot, serve the pipe until EOF.

    Messages in: ``("req", req_id, doc, guard, budget, trace_id,
    sampled)``, ``("warm", pairs)``, ``("stats",)``, ``("quit",)``.
    Messages out: ``("ok", req_id, xml, meta)``, ``("err", req_id,
    kind, message, code, meta)``, ``("warmed", n)``, ``("stats", dict)``.
    """
    from repro.obs import export as obs_export
    from repro.storage.database import Database

    # The open options mirror the parent handle: each worker compiles
    # (and ``warm``s) plans in its own process, so the render code is
    # generated post-fork against the worker's own snapshot — nothing
    # compiled crosses the pipe.
    database = Database(path, mode="r", cache_pages=cache_pages, durable=durable)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "quit":
                break
            if kind == "warm":
                warmed = 0
                for doc, guard in message[1]:
                    try:
                        database.compile(doc, guard)
                        warmed += 1
                    except Exception:
                        continue  # a bad guard warms nothing; requests will report it
                conn.send(("warmed", warmed))
                continue
            if kind == "stats":
                conn.send(
                    (
                        "stats",
                        {
                            "plan_cache": database.plan_cache.stats(),
                            "events": dict(database.stats.events),
                        },
                    )
                )
                continue
            # ("req", req_id, doc, guard, budget, trace_id, sampled)
            _, req_id, doc, guard, budget, trace_id, sampled = message
            started = time.perf_counter()
            hits_before = database.plan_cache.stats()["hits"]
            tracer = obs.Tracer(trace_id=trace_id) if sampled else None
            try:
                if budget is not None and budget <= 0:
                    # Expired on the way here: refuse it without rendering.
                    raise TransformTimeoutError(doc, guard, 0.0)
                # Text crosses the pipe either way: always the text sink.
                xml = execute(database, doc, guard, True, tracer)
            except Exception as error:  # a response, never a worker crash
                meta = {"execute_seconds": time.perf_counter() - started}
                conn.send(
                    (
                        "err",
                        req_id,
                        type(error).__name__,
                        str(error),
                        getattr(error, "code", None),
                        meta,
                    )
                )
                continue
            meta = {
                "execute_seconds": time.perf_counter() - started,
                "plan_cache_hit": database.plan_cache.stats()["hits"] > hits_before,
                "trace": None,
            }
            if tracer is not None:
                meta["trace"] = obs_export.to_json_lines(
                    tracer, header={"doc": doc, "worker": True}
                )
            conn.send(("ok", req_id, xml, meta))
    finally:
        try:
            database.close()
        finally:
            conn.close()


# -- the parent-side pool ----------------------------------------------------


class _Task:
    __slots__ = ("req_id", "doc", "guard", "stream", "deadline", "future",
                 "trace", "attempts", "submitted")

    def __init__(self, req_id, doc, guard, stream, deadline, future, trace):
        self.req_id = req_id
        self.doc = doc
        self.guard = guard
        self.stream = stream
        self.deadline = deadline
        self.future = future
        self.trace = trace
        self.attempts = 0
        self.submitted = time.perf_counter()


class _WorkerHandle:
    """One worker process + the parent end of its pipe.

    The handle object is stable across respawns (the dispatcher thread
    keeps its reference); :meth:`adopt` swaps the process and pipe in
    place.  ``io_lock`` serializes the request/response exchange with
    out-of-band probes (:meth:`ProcessTransformPool.worker_stats`).
    """

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.io_lock = threading.Lock()

    def adopt(self, other: "_WorkerHandle") -> None:
        self.process = other.process
        self.conn = other.conn

    def stop(self, join_timeout: float = 5.0) -> None:
        try:
            self.conn.send(("quit",))
        except (OSError, BrokenPipeError, ValueError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=join_timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=join_timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=join_timeout)


class ProcessTransformPool(TransformPool):
    """The request lifecycle of :class:`TransformPool` over forked workers.

    The database handle must be a shared reader (``mode="r"``): the
    parent's handle serves cost estimates and the inline path, and each
    worker opens its *own* ``mode="r"`` handle on the same path — the
    shared ``flock`` admits any number of readers, and a writer is
    excluded for the pool's whole life, so every process sees one
    frozen snapshot.

    Only routing (:meth:`_admit`) and the transport (:meth:`_start`,
    :meth:`_dispatch`, :meth:`shutdown`) differ from the thread pool.
    Pooled results are :class:`RemoteTransformResult`; inline-routed
    results are ordinary :class:`~repro.engine.interpreter.
    TransformResult`s — both answer ``.xml()`` with byte-identical text.
    """

    mode = "process"

    def __init__(
        self,
        database: "Database",
        workers: int = 4,
        deadline: Optional[float] = None,
        max_queue: Optional[int] = None,
        telemetry: Optional["ServeTelemetry"] = None,
        inline_threshold: float = INLINE_THRESHOLD,
    ):
        if database.mode != "r":
            raise StorageError(
                "ProcessTransformPool needs a shared-reader handle: open the "
                'database with mode="r" (workers take LOCK_SH on the same '
                "path, which a writer's exclusive lock would refuse)"
            )
        self.inline_threshold = inline_threshold
        self._warm_pairs: "list[tuple[str, str]]" = []
        self._warm_lock = threading.Lock()
        super().__init__(database, workers, deadline, max_queue, telemetry)

    # -- lifecycle -----------------------------------------------------------

    def _start(self) -> None:
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platform
            self._mp = multiprocessing.get_context("spawn")
        self._tasks: "queue.Queue[Optional[_Task]]" = queue.Queue()
        self._req_ids = itertools.count(1)
        self._closed = False
        self._threads: list[threading.Thread] = []
        self._handles: list[_WorkerHandle] = []
        try:
            for _ in range(self.workers):
                self._handles.append(self._spawn())
        except BaseException:
            self.shutdown(wait=False)
            raise
        for handle in self._handles:
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(handle,),
                name=f"xmorph-procpool-{handle.process.pid}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def shutdown(self, wait: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._tasks.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout=30)
        for handle in self._handles:
            handle.stop()
        self._threads = []
        self._handles = []

    def _spawn(self) -> "_WorkerHandle":
        parent_conn, child_conn = self._mp.Pipe()
        database = self.database
        process = self._mp.Process(
            target=_worker_main,
            args=(database._file.path, child_conn, database.pool.capacity,
                  database.durable),
            name="xmorph-serve-worker",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(process, parent_conn)
        with self._warm_lock:
            pairs = list(self._warm_pairs)
        if pairs:
            try:
                parent_conn.send(("warm", pairs))
                reply = parent_conn.recv()
                if reply[0] != "warmed":  # pragma: no cover - protocol guard
                    raise OSError(f"unexpected warmup reply {reply[0]!r}")
            except (EOFError, OSError, BrokenPipeError):
                handle.stop()
                raise StorageError(
                    "serve worker died during plan-cache warmup"
                ) from None
        return handle

    # -- routing and dispatch ------------------------------------------------

    def _admit(self, name: str, guard: str, trace) -> bool:
        """Keep tiny transforms (and everything, without workers) off the pipe.

        A plan-cost estimate at or under ``inline_threshold`` cannot
        amortize the IPC round-trip (``serve.inline_small``).
        """
        with self._warm_lock:
            pair = (name, guard)
            if pair in self._warm_pairs:
                self._warm_pairs.remove(pair)
            self._warm_pairs.append(pair)
            del self._warm_pairs[:-WARM_HISTORY]
        if self.inline_threshold is not None and (
            plan_cost_estimate(self.database, name, guard) <= self.inline_threshold
        ):
            self._event("serve.inline_small")
            return False
        if not self._handles:
            self._degrade(trace)
            return False
        return True

    def _dispatch(self, name, guard, stream, deadline, trace):
        future: "concurrent.futures.Future" = concurrent.futures.Future()
        self._tasks.put(
            _Task(next(self._req_ids), name, guard, stream, deadline, future, trace)
        )
        return future

    # -- the dispatcher (one thread per worker pipe) -------------------------

    def _dispatch_loop(self, handle: "_WorkerHandle") -> None:
        while True:
            task = self._tasks.get()
            if task is None:
                return
            try:
                self._execute_on(handle, task)
            finally:
                with self._pending_lock:
                    self._pending -= 1

    def _execute_on(self, handle: "_WorkerHandle", task: _Task) -> None:
        # Once running, a future cannot be cancelled: from here on this
        # dispatcher is the only one to resolve it, exactly once.
        if not task.future.set_running_or_notify_cancel():
            return  # cancelled before dispatch
        trace = task.trace
        while True:
            budget = None
            if task.deadline is not None:
                budget = task.deadline - (time.perf_counter() - task.submitted)
                if budget <= 0:
                    error = self._timed_out(task.doc, task.guard, task.deadline, trace)
                    self._finish(trace)
                    task.future.set_exception(error)
                    return
            if trace is not None:
                trace.begin()
            try:
                with handle.io_lock:
                    handle.conn.send(
                        (
                            "req",
                            task.req_id,
                            task.doc,
                            task.guard,
                            budget,
                            trace.trace_id if trace is not None else None,
                            bool(trace is not None and trace.sampled),
                        )
                    )
                    reply = handle.conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                # The worker died under this request (crash, SIGKILL,
                # OOM).  Respawn it and re-execute: the dead worker
                # never answered, so the retry cannot duplicate a
                # response.
                self._event("serve.worker_restarts")
                task.attempts += 1
                if not self._respawn(handle) or task.attempts > MAX_RESPAWNS_PER_REQUEST:
                    self._degrade(trace)
                    self._run_inline(
                        task.future, task.doc, task.guard, task.stream,
                        task.deadline, trace,
                    )
                    return
                continue
            self._deliver(task, reply)
            return

    def _respawn(self, handle: "_WorkerHandle") -> bool:
        handle.stop()
        if self._closed:
            return False
        try:
            replacement = self._spawn()
        except Exception:
            return False
        handle.adopt(replacement)
        return True

    def _deliver(self, task: _Task, reply) -> None:
        """Resolve a task from a worker's ``ok`` or ``err`` reply."""
        trace = task.trace
        status, _req_id, *body, meta = reply
        if trace is not None:
            if trace.started is not None:
                trace.executed = trace.started + meta.get("execute_seconds", 0.0)
            if meta.get("plan_cache_hit") is not None:
                trace.remote_plan_cache = meta["plan_cache_hit"]
            if meta.get("trace"):
                self.telemetry.write_remote_trace(trace, meta["trace"])
        if status == "ok":
            (xml,) = body
            self._event("serve.completed")
            self._finish(trace)
            # Stream requests resolve to the rendered text (matching the
            # thread pool); batch requests to a result object.
            task.future.set_result(
                xml if task.stream else RemoteTransformResult(task.doc, task.guard, xml)
            )
            return
        kind, message, code = body
        if code == TransformTimeoutError.code:
            # The worker refused an expired budget: a deadline miss like
            # any other, raised as the real error type.
            error = self._timed_out(task.doc, task.guard, task.deadline, trace)
        else:
            # Other exception types stay behind the pipe.
            error = RemoteTransformError(kind, message, code)
            self._record_error(error, trace)
        self._finish(trace)
        task.future.set_exception(error)

    # -- introspection -------------------------------------------------------

    def worker_stats(self) -> list[dict]:
        """Each live worker's plan-cache and event counters.

        Each probe takes the worker's ``io_lock``, so it serializes
        with (and may wait behind) an in-flight request on that pipe.
        """
        snapshots: list[dict] = []
        for handle in self._handles:
            if not handle.process.is_alive():
                continue
            try:
                with handle.io_lock:
                    handle.conn.send(("stats",))
                    reply = handle.conn.recv()
                snapshots.append(reply[1])
            except (EOFError, OSError, BrokenPipeError):
                continue
        return snapshots
