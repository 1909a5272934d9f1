"""One request lifecycle: the contract the pool keeps on every path.

Whatever path a request takes — dispatched to a pool thread, run on its
connection's thread, run on a serial pool, turned away by a full queue,
failing, abandoned by its waiter, or overrunning its budget inline —
the pool accounts for it by one table: the ``serve.*`` counter deltas,
the exception type and XM code, one sample in each of the four
``serve.*_seconds`` histograms, and the outcome on
``future.xmorph_trace``.

Public API only: pools are driven through ``submit`` / ``result``, and
stalls are induced from outside (a gated ``Database.transform``).
"""

import contextlib
import io
import itertools
import json
import socket
import threading
import time

import pytest

from repro.errors import TransformTimeoutError
from repro.serve import ServeTelemetry, TransformPool, serve_forever, serve_loop
from repro.storage import Database

from tests.conftest import FIG1A

GUARD = "MORPH author [ name ]"
BAD_GUARD = "MORPH nosuchlabel [ x ]"

BULK = "<data>" + "".join(
    f"<book><title>T{i}</title><author><name>A{i % 7}</name></author></book>"
    for i in range(40)
) + "</data>"

HISTOGRAMS = (
    "serve.request_seconds",
    "serve.queue_seconds",
    "serve.execute_seconds",
    "serve.serialize_seconds",
)

TIMEOUT = {"timeouts": 1, "errors": 1, "errors.XM540": 1}

#: path -> (pool options, document, guard, counter deltas, error type name,
#: XM code, trace.degraded).  ``serial`` is a one-worker pool, which
#: never dispatches; ``connection`` is a request submitted ``awaited``,
#: as ``serve_loop`` submits, which runs on the submitting thread.
PATHS = {
    "dispatched": ({}, "doc", GUARD, {"completed": 1}, None, None, False),
    "connection": ({}, "doc", GUARD, {"completed": 1}, None, None, False),
    "serial": ({"serial": True}, "tiny", GUARD, {"completed": 1}, None, None, False),
    "saturated": (
        {"max_queue": 0}, "doc", GUARD,
        {"completed": 1, "degraded_serial": 1}, None, None, True,
    ),
    "failing-guard": (
        {}, "doc", BAD_GUARD,
        {"errors": 1, "errors.uncoded": 1}, "LabelMismatchError", None, False,
    ),
    "waiter-timeout": (
        {}, "doc", GUARD,
        {"completed": 1, **TIMEOUT}, "TransformTimeoutError", "XM540", False,
    ),
    "inline-overrun": (
        {"serial": True}, "tiny", GUARD,
        {"completed": 1, **TIMEOUT}, "TransformTimeoutError", "XM540", False,
    ),
}


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("lifecycle") / "l.db")
    with Database(path, durable=False) as db:
        db.store_document("doc", BULK)
        db.store_document("tiny", FIG1A)
    return path


@pytest.fixture
def db(store):
    with Database(store, mode="r", durable=False) as reader:
        yield reader


def make_pool(pool_class, db, telemetry, serial=False, **options):
    return pool_class(db, workers=1 if serial else 2, telemetry=telemetry, **options)


@contextlib.contextmanager
def stalled_transport(db, stalls=None):
    """Hold the first ``stalls`` transforms (all by default) until the block exits."""
    gate = threading.Event()
    calls = itertools.count()

    def gated(real):
        def entry(*args):
            if stalls is None or next(calls) < stalls:
                gate.wait(timeout=30)
            return real(*args)

        return entry

    # Both sinks: transform_many renders trees, serve_loop text, and
    # both plan through Database.transform.
    db.transform = gated(db.transform)
    try:
        yield
    finally:
        gate.set()
        del db.transform


def drain(pool):
    """An abandoned transform still runs to completion; let it."""
    deadline = time.monotonic() + 30
    while pool.pending and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pool.pending == 0


def histogram_counts(db):
    snapshot = db.stats.copy().histograms
    return {name: snapshot[name].count if name in snapshot else 0 for name in HISTOGRAMS}


#: The transports the contract holds for, by test id.
TRANSPORTS = pytest.mark.parametrize("pool_class", [TransformPool], ids=["thread"])


@pytest.mark.parametrize("path", PATHS)
@TRANSPORTS
def test_every_path_is_accounted_for_identically(pool_class, path, db):
    options, doc, guard, expected, error_name, code, degraded = PATHS[path]
    telemetry = ServeTelemetry(stats=db.stats)
    stall = contextlib.nullcontext()
    deadline = wait = None
    if path == "waiter-timeout":
        wait = 0.2
    elif path == "inline-overrun":
        deadline = 0.001
        real = db.transform

        def slow(name, guard):
            time.sleep(0.05)
            return real(name, guard)

        db.transform = slow  # the inline path runs on this very handle

    # ``db`` is a fresh handle, so its lifetime counters are this request's.
    with make_pool(pool_class, db, telemetry, **options) as pool:
        if path == "waiter-timeout":
            stall = stalled_transport(db)
        error = None
        with stall:
            future = pool.submit(
                doc, guard, deadline=deadline, awaited=path == "connection"
            )
            try:
                result = pool.result(future, doc, guard, deadline=wait)
            except Exception as caught:  # noqa: BLE001 - compared below
                error = caught
            finally:
                telemetry.finish(future.xmorph_trace)  # as the response writer does
        drain(pool)

    delta = pool.stats()
    assert delta == {"requests": 1, **expected}

    # serve.errors is the sum of its per-code breakdown, on every path.
    breakdown = sum(n for name, n in delta.items() if name.startswith("errors."))
    assert delta.get("errors", 0) == breakdown
    assert delta.get("timeouts", 0) == delta.get("errors.XM540", 0)

    if error_name is None:
        assert error is None
        assert (result if isinstance(result, str) else result.xml()).startswith("<")
    else:
        assert type(error).__name__ == error_name
        assert getattr(error, "code", None) == code
        if code == "XM540":
            assert isinstance(error, TransformTimeoutError)

    assert histogram_counts(db) == {name: 1 for name in HISTOGRAMS}

    trace = future.xmorph_trace
    assert (trace.degraded, trace.status, trace.code) == (
        degraded,
        "ok" if error_name is None else "error",
        code,
    )


@TRANSPORTS
def test_a_served_timeout_is_a_coded_response(pool_class, db):
    """``serve_loop`` waits for a deadline request through the same ``result``."""
    request = json.dumps({"id": 7, "doc": "doc", "guard": GUARD}) + "\n"
    out = io.StringIO()
    telemetry = ServeTelemetry(stats=db.stats)
    with make_pool(pool_class, db, telemetry, deadline=0.2) as pool:
        with stalled_transport(db):
            stats = serve_loop(db, io.StringIO(request), out, pool=pool)
        drain(pool)
    response = json.loads(out.getvalue())
    assert (response["id"], response["ok"], response["code"]) == (7, False, "XM540")
    assert (stats.requests, stats.ok, stats.errors) == (1, 0, 1)
    assert pool.stats() == {"requests": 1, "completed": 1, **TIMEOUT}
    assert histogram_counts(db) == {name: 1 for name in HISTOGRAMS}


@TRANSPORTS
def test_a_pipelined_client_gets_its_timeout_then_the_answers_in_order(pool_class, db):
    """A deadline request runs on a worker, so the loop can give up on a
    stalled one and answer the requests queued behind it on the socket."""
    expected = db.transform("doc", GUARD).xml()
    lines = [
        json.dumps({"id": i, "doc": "doc", "guard": GUARD}) + "\n" for i in (1, 2, 3)
    ]
    server = serve_forever(db, port=0, workers=2, deadline=0.2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with stalled_transport(db, stalls=1):
            with socket.create_connection(server.server_address, timeout=10) as conn:
                conn.sendall("".join(lines).encode())
                with conn.makefile("rb") as reader:
                    responses = [json.loads(reader.readline()) for _ in lines]
    finally:
        server.shutdown()
        server.server_close()  # waits for the stalled worker, now released
        thread.join(timeout=10)
    assert [(r["id"], r["ok"], r.get("code")) for r in responses] == [
        (1, False, "XM540"),
        (2, True, None),
        (3, True, None),
    ]
    assert [r["xml"] for r in responses[1:]] == [expected, expected]
