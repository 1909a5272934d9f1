"""Line-oriented request serving: ``xmorph serve``.

The protocol is one JSON object per line, chosen so a shell, a test, or
a load generator can drive it with nothing but pipes::

    {"id": 1, "doc": "dblp", "guard": "MORPH author [ name ]"}
    {"cmd": "stats"}
    {"cmd": "metrics"}
    {"cmd": "quit"}

Responses mirror the ids, in request order::

    {"id": 1, "ok": true, "xml": "<author>...</author>"}
    {"id": 2, "ok": false, "error": "...", "code": "XM540"}

(``code`` is the stable XM-code when the failure has one — lock
conflicts are ``XM520``, timeouts ``XM540``, read-only violations
``XM550`` — and ``null`` for uncoded type/parse errors.)  A request
line is at most :data:`MAX_REQUEST_BYTES` long: a longer one is
answered with ``XM580`` and ends the session, since the loop cannot
find the next request inside a line it did not read.  An answer's
``xml`` is written by the plan's text sink already escaped as a JSON
string body (``TransformResult.xml_json``), so the response line is
framed by concatenation, byte for byte the line ``json.dumps`` of the
whole object writes, and 100 KB of XML is not scanned a second time.

``{"cmd": "metrics"}`` answers with the database's Prometheus text
exposition in a JSON envelope, and a raw ``GET /metrics HTTP/1.x``
request line on the same port gets a one-shot HTTP response — the TCP
server doubles as a scrape endpoint (``curl http://host:port/metrics``,
``xmorph metrics --port``); see ``docs/OBSERVABILITY.md``.

The loop answers one request at a time, in order, on the thread that
read it: it reads a request, runs it and writes its response before it
reads the next.  A request without a deadline never leaves that thread;
one with a deadline runs on a pool worker so that the wait can abandon
it (``XM540``).  The thread hand-offs this saves were most of a small
request's cost; a pipelining client gets its answers one at a time,
which measured faster for small answers and no slower, within the
spread, for 100 KB ones (``docs/PERFORMANCE.md``).
Per-request failures are *responses*, never loop crashes, and a client
that hangs up ends its session quietly at the first read or write that
fails: nothing more is read and ``serve.disconnects`` counts one.
``serve_forever`` wraps the same loop in a threading TCP server, one
connection per thread, all sharing the one database handle — which is
exactly what the thread-safe substrate (buffer pool, plan cache, join
memos) exists for — and one pool.  Admission, routing, execution and
the deadline wait are the pool's (:mod:`repro.serve.pool`); this module
decodes requests and encodes responses.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from typing import IO, Optional

from repro.errors import RequestTooLargeError, XMorphError
from repro.serve.pool import TransformPool
from repro.serve.telemetry import ServeTelemetry, metrics_snapshot

#: The longest request line the loop reads, newline not counted.  The
#: reader never holds more of one line than this (plus one byte).
MAX_REQUEST_BYTES = 1 << 20


def render_database_metrics(database, pool=None) -> str:
    """The live Prometheus exposition text of one database (+ pool)."""
    from repro.obs.prom import render_prometheus

    counters, gauges, histograms = metrics_snapshot(database, pool)
    return render_prometheus(counters, gauges=gauges, histograms=histograms)


def _http_response(status: str, body: str, content_type: str) -> str:
    payload = body.encode("utf-8")
    return (
        f"HTTP/1.0 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n" + body
    )


def _handle_http(database, pool, line: str) -> str:
    """A one-shot HTTP response for a ``GET <path>`` request line.

    The line protocol doubles as a minimal scrape endpoint: a client
    (curl, a Prometheus scraper) that opens the TCP port and sends
    ``GET /metrics HTTP/1.1`` gets a well-formed HTTP response and the
    connection closes.  Only ``/metrics`` exists.
    """
    parts = line.split()
    path = parts[1] if len(parts) > 1 else "/"
    if path.split("?")[0] == "/metrics":
        return _http_response(
            "200 OK",
            render_database_metrics(database, pool),
            "text/plain; version=0.0.4; charset=utf-8",
        )
    return _http_response("404 Not Found", "only /metrics is served\n", "text/plain")


@dataclass
class ServeStats:
    """What one :func:`serve_loop` session did."""

    requests: int = 0
    ok: int = 0
    errors: int = 0
    #: Lifetime ``serve.*`` database counters at loop exit.
    counters: dict = field(default_factory=dict)


def serve_loop(
    database,
    reader: IO,
    writer: IO[str],
    workers: int = 4,
    deadline: Optional[float] = None,
    telemetry: Optional[ServeTelemetry] = None,
    pool: Optional[TransformPool] = None,
) -> ServeStats:
    """Serve newline-delimited JSON requests until EOF or ``quit``.

    ``reader`` yields text or UTF-8 bytes; with bytes (a socket, binary
    stdin) :data:`MAX_REQUEST_BYTES` counts bytes, with text characters.
    ``pool`` lends an already-running pool (``serve_forever`` shares
    one across every connection) and leaves its shutdown to the owner;
    ``workers``, ``deadline`` and ``telemetry`` then do not apply.
    Otherwise a pool is built from them and torn down at EOF.
    """
    stats = ServeStats()
    if pool is not None:
        pool_context = contextlib.nullcontext(pool)
    else:
        if telemetry is None:
            # Even an unconfigured loop (no sampling, no slow log) records
            # request latency histograms, so /metrics always has quantiles.
            telemetry = ServeTelemetry(stats=database.stats)
        pool_context = TransformPool(
            database, workers=workers, deadline=deadline, telemetry=telemetry
        )
    with pool_context as pool:
        try:
            while True:
                try:
                    raw = reader.readline(MAX_REQUEST_BYTES + 1)
                except OSError as error:  # reset by the client
                    raise _HungUp from error
                line = raw.decode("utf-8", errors="replace") if isinstance(raw, bytes) else raw
                if not line:
                    break
                if len(raw) > MAX_REQUEST_BYTES and not line.endswith("\n"):
                    # The rest of the line is still unread: refuse, end.
                    error = RequestTooLargeError(MAX_REQUEST_BYTES)
                    refusal = {"id": None, "ok": False, "error": str(error), "code": error.code}
                    _refuse(writer, stats, refusal)
                    break
                line = line.strip()
                if not line:
                    continue
                if line.startswith(("GET ", "HEAD ")):
                    # An HTTP client (curl, a Prometheus scraper) hit
                    # the line-protocol port: answer and close.
                    _write(writer, _handle_http(database, pool, line))
                    break
                try:
                    request = json.loads(line)
                except (ValueError, RecursionError):  # nested past the decoder's depth
                    _refuse(writer, stats, {"id": None, "ok": False, "error": "bad JSON line"})
                    continue
                command = request.get("cmd") if isinstance(request, dict) else None
                if command == "quit":
                    break
                if command == "stats":
                    # Every earlier request has been answered, so the
                    # counters reflect all of them.
                    _write(writer, _line({"ok": True, "stats": pool.stats()}))
                elif command == "metrics":
                    prometheus = render_database_metrics(database, pool)
                    _write(writer, _line({"ok": True, "prometheus": prometheus}))
                elif not (
                    isinstance(request, dict)
                    and isinstance(request.get("doc"), str)
                    and isinstance(request.get("guard"), str)
                ):
                    _refuse(
                        writer,
                        stats,
                        {
                            "id": request.get("id") if isinstance(request, dict) else None,
                            "ok": False,
                            "error": "request needs string 'doc' and 'guard' fields",
                        },
                    )
                else:
                    stats.requests += 1
                    _respond(writer, stats, pool, request)
        except _HungUp:
            database.stats.count("serve.disconnects")
    stats.counters = {
        name: count
        for name, count in sorted(database.stats.copy().counters.items())
        if name.startswith("serve.")
    }
    return stats


def _refuse(writer, stats: ServeStats, response: dict) -> None:
    """Answer a request the pool never sees (a protocol error)."""
    stats.requests += 1
    stats.errors += 1
    _write(writer, _line(response))


def _respond(writer, stats: ServeStats, pool, request: dict) -> None:
    """Run one request, write its response line, finish its trace.

    The request is ``awaited``: without a deadline it runs right here,
    on the connection's thread (:mod:`repro.serve.pool`'s route step).
    Every answer is the plan's text sink, written as the body of the
    response's JSON string (``stream=True``): no output tree is built
    for it.  (A request's ``"stream"`` field, from older clients,
    selects nothing.)
    """
    doc, guard = request["doc"], request["guard"]
    future = pool.submit(doc, guard, stream=True, awaited=True)
    trace = future.xmorph_trace
    try:
        result = pool.result(future, doc, guard)
    except Exception as error:  # noqa: BLE001 - a response, never a crash
        stats.errors += 1
        response = {"id": request.get("id"), "ok": False, "error": str(error)}
        if isinstance(error, XMorphError):
            response["code"] = getattr(error, "code", None)
        _write(writer, _line(response))
    else:
        stats.ok += 1
        started = time.perf_counter()
        # ``result`` is already a JSON string body (``xml_json``).
        identity = json.dumps(request.get("id"))
        _write(writer, f'{{"id": {identity}, "ok": true, "xml": "{result}"}}\n')
        if trace is not None:
            trace.serialize_seconds = time.perf_counter() - started
    finally:
        if trace is not None:
            pool.telemetry.finish(trace)


class _HungUp(Exception):
    """A response could not be written: the client has gone."""


def _line(payload: dict) -> str:
    return json.dumps(payload) + "\n"


def _write(writer, line: str) -> None:
    """Write one response and flush it; an ``OSError`` means the client left."""
    try:
        writer.write(line)
        writer.flush()
    except OSError as error:
        raise _HungUp from error


def serve_forever(
    database,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 4,
    deadline: Optional[float] = None,
    telemetry: Optional[ServeTelemetry] = None,
):
    """A threading TCP server running :func:`serve_loop` per connection.

    Returns the listening ``socketserver.ThreadingTCPServer`` (so the
    caller can read ``server_address`` and drive ``serve_forever()`` /
    ``shutdown()`` itself).  Every connection shares the one database
    handle and one pool, built here and torn down in ``server_close``,
    so ``max_queue`` bounds the deadline requests in flight across the
    whole server (the others run on their connection's thread).
    """
    import socketserver

    if telemetry is None:
        telemetry = ServeTelemetry(stats=database.stats)
    pool = TransformPool(
        database, workers=workers, deadline=deadline, telemetry=telemetry
    )

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:  # pragma: no cover - exercised via TCP tests
            serve_loop(database, self.rfile, _EncodedWriter(self.wfile), pool=pool)

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

        def server_close(self) -> None:
            pool.shutdown()
            super().server_close()

    try:
        return Server((host, port), Handler)
    except BaseException:  # the bind failed: no server_close will ever run
        pool.shutdown()
        raise


class _EncodedWriter:
    """A text-writer facade over a binary socket file."""

    def __init__(self, binary_writer):
        self._writer = binary_writer

    def write(self, text: str) -> None:
        self._writer.write(text.encode("utf-8"))

    def flush(self) -> None:
        self._writer.flush()
