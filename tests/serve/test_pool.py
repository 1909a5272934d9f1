"""TransformPool lifecycle: deadlines, degradation, and the serve loop."""

import gc
import io
import json
import socket
import struct
import threading
import time

import pytest

from repro.errors import TransformTimeoutError
from repro.serve import MAX_REQUEST_BYTES, ServeStats, TransformPool, serve_forever, serve_loop
from repro.storage import Database
from repro.xmltree.node import XmlNode

from tests.conftest import FIG1A

GUARD = "MORPH author [ name ]"


@pytest.fixture
def db(tmp_path):
    database = Database(str(tmp_path / "pool.db"), durable=False)
    database.store_document("doc", FIG1A)
    yield database
    database.close()


def _slow_transform(db, gate: threading.Event, slow_guard: str):
    """Patch ``db.transform`` so one sentinel guard blocks on ``gate``."""
    real = db.transform

    def patched(name, guard):
        if guard == slow_guard:
            gate.wait(timeout=30)
        return real(name, GUARD)

    db.transform = patched
    return real


class TestDeadlines:
    def test_timeout_raises_coded_error(self, db):
        gate = threading.Event()
        _slow_transform(db, gate, slow_guard="SLOW")
        try:
            with TransformPool(db, workers=2) as pool:
                with pytest.raises(TransformTimeoutError) as excinfo:
                    pool.transform_many([("doc", "SLOW")], deadline=0.05)
                assert excinfo.value.code == "XM540"
                assert "SLOW" in str(excinfo.value)
                assert db.stats.counters.get("serve.timeouts") == 1
                # A waiter-side miss is an error like any other miss.
                assert db.stats.counters.get("serve.errors") == 1
                gate.set()  # let the stuck worker finish before shutdown
        finally:
            gate.set()

    def test_pool_default_deadline(self, db):
        gate = threading.Event()
        _slow_transform(db, gate, slow_guard="SLOW")
        try:
            with TransformPool(db, workers=2, deadline=0.05) as pool:
                with pytest.raises(TransformTimeoutError):
                    pool.transform_many([("doc", "SLOW")])
                gate.set()
        finally:
            gate.set()

    def test_deadline_covers_the_render(self, db):
        """``Database.transform`` renders on first read; the pool reads
        in the worker, so a render that outlives the budget is a worker's
        miss — not a result handed back in time for the caller to pay."""
        k = 300  # every author closest to every title: k * k copies
        authors = "".join(f"<author><name>A{i}</name></author>" for i in range(k))
        titles = "".join(f"<title>T{i}</title>" for i in range(k))
        db.store_document("worst", f"<data><book>{authors}{titles}</book></data>")
        guard = "CAST-WIDENING MORPH author [ name title ]"
        db.transform("worst", guard)  # planning is not what the budget is for
        with pytest.raises(TransformTimeoutError) as excinfo:
            db.transform_many([("worst", guard)], workers=2, deadline=0.03)
        assert excinfo.value.code == "XM540"
        assert db.stats.counters.get("serve.timeouts") == 1

    def test_an_abandoned_queued_request_gives_its_slot_back(self, db):
        """A queued request cancelled by its waiter never runs, so the
        wait itself gives its in-flight slot back: misses do not shrink
        ``max_queue`` until every submission degrades."""
        gate = threading.Event()
        _slow_transform(db, gate, slow_guard="SLOW")
        try:
            with TransformPool(db, workers=2, max_queue=4) as pool:
                stuck = [("SLOW", pool.submit("doc", "SLOW")) for _ in range(2)]
                queued = [(GUARD, pool.submit("doc", GUARD)) for _ in range(2)]
                for guard, future in stuck + queued:
                    with pytest.raises(TransformTimeoutError):
                        pool.result(future, "doc", guard, deadline=0.05)
                assert all(future.cancelled() for _, future in queued)
                gate.set()
                deadline = time.monotonic() + 30
                while pool.pending and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert pool.pending == 0
                pool.submit("doc", GUARD).result(timeout=30)
            assert "serve.degraded_serial" not in db.stats.counters
        finally:
            gate.set()

    def test_no_deadline_waits(self, db):
        with TransformPool(db, workers=2) as pool:
            results = pool.transform_many([("doc", GUARD)] * 4)
        serial = db.transform("doc", GUARD).xml()
        assert [r.xml() for r in results] == [serial] * 4


class TestDegradation:
    def test_saturated_queue_runs_inline(self, db):
        gate = threading.Event()
        _slow_transform(db, gate, slow_guard="SLOW")
        try:
            with TransformPool(db, workers=2, max_queue=2) as pool:
                stuck = [pool.submit("doc", "SLOW") for _ in range(2)]
                while pool.pending < 2:  # both workers parked on the gate
                    time.sleep(0.01)
                # The queue is full: this submission must complete
                # inline on the calling thread, not wait for a worker.
                fast = pool.submit("doc", GUARD)
                assert fast.done()
                assert db.stats.counters.get("serve.degraded_serial") == 1
                gate.set()
                for future in stuck:
                    future.result(timeout=30)
        finally:
            gate.set()

    def test_an_awaited_request_stays_on_its_thread_unless_it_has_a_deadline(self, db):
        threads = []
        real = db.transform

        def recorded(name, guard):
            threads.append(threading.get_ident())
            return real(name, guard)

        db.transform = recorded
        with TransformPool(db, workers=2) as pool:
            assert pool.submit("doc", GUARD, awaited=True).done()
            future = pool.submit("doc", GUARD, deadline=30, awaited=True)
            pool.result(future, "doc", GUARD)
            assert pool.pending == 0
        assert threads[0] == threading.get_ident() != threads[1]
        assert "serve.degraded_serial" not in db.stats.counters

    def test_serial_pool_is_not_degradation(self, db):
        with TransformPool(db, workers=1) as pool:
            future = pool.submit("doc", GUARD)
            assert future.done()  # workers=1 runs inline by construction
        assert "serve.degraded_serial" not in db.stats.counters

    def test_workers_clamped_to_one(self, db):
        with TransformPool(db, workers=0) as pool:
            assert pool.workers == 1
            assert pool.submit("doc", GUARD).done()

    def test_error_counted_and_raised(self, db):
        with TransformPool(db, workers=2) as pool:
            future = pool.submit("doc", "MORPH nosuchlabel [ x ]")
            with pytest.raises(Exception):
                future.result(timeout=30)
        assert db.stats.counters.get("serve.errors") == 1

    def test_stats_strips_prefix(self, db):
        with TransformPool(db, workers=2) as pool:
            pool.transform_many([("doc", GUARD)] * 3)
            stats = pool.stats()
        assert stats["requests"] == 3
        assert stats["completed"] == 3


class TestServeLoop:
    def _run(self, db, lines, **kwargs):
        out = io.StringIO()
        stats = serve_loop(db, io.StringIO("\n".join(lines) + "\n"), out, **kwargs)
        return stats, [json.loads(line) for line in out.getvalue().splitlines()]

    def test_request_response_in_order(self, db):
        lines = [
            json.dumps({"id": i, "doc": "doc", "guard": GUARD}) for i in range(10)
        ]
        stats, responses = self._run(db, lines, workers=4)
        assert [r["id"] for r in responses] == list(range(10))
        assert all(r["ok"] for r in responses)
        serial = db.transform("doc", GUARD).xml()
        assert all(r["xml"] == serial for r in responses)
        assert stats.requests == 10 and stats.ok == 10 and stats.errors == 0

    def test_answered_trees_are_freed_without_the_collector(self, db):
        """Answered requests leave nothing for the cycle collector: a
        response is written by the text sink, which builds no output
        tree (a tree is cyclic through ``parent``)."""
        lines = [json.dumps({"id": i, "doc": "doc", "guard": GUARD}) for i in range(5)]

        def live_nodes():
            return sum(1 for o in gc.get_objects() if type(o) is XmlNode)

        self._run(db, lines[:1], workers=1)  # compile, load the index
        gc.collect()
        gc.disable()
        try:
            before = live_nodes()
            _, responses = self._run(db, lines, workers=1)
            assert all(r["ok"] and "<" in r["xml"] for r in responses)
            assert live_nodes() == before
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_stream_request(self, db):
        lines = [json.dumps({"id": 1, "doc": "doc", "guard": GUARD, "stream": True})]
        _, responses = self._run(db, lines, workers=2)
        sink = io.StringIO()
        db.stream_transform("doc", GUARD, sink)
        assert responses[0]["xml"] == sink.getvalue()

    def test_bad_json_is_a_response_not_a_crash(self, db):
        lines = [
            "this is not json",
            json.dumps({"id": 2, "doc": "doc", "guard": GUARD}),
        ]
        stats, responses = self._run(db, lines, workers=2)
        assert responses[0] == {"id": None, "ok": False, "error": "bad JSON line"}
        assert responses[1]["ok"]
        assert stats.errors == 1 and stats.ok == 1

    def test_malformed_request_reports_missing_fields(self, db):
        lines = [json.dumps({"id": 7, "doc": "doc"})]
        _, responses = self._run(db, lines, workers=2)
        assert responses[0]["id"] == 7
        assert not responses[0]["ok"]
        assert "guard" in responses[0]["error"]

    def test_transform_error_carries_message(self, db):
        lines = [json.dumps({"id": 1, "doc": "doc", "guard": "MORPH zzz [ q ]"})]
        stats, responses = self._run(db, lines, workers=2)
        assert not responses[0]["ok"]
        assert "zzz" in responses[0]["error"]
        assert stats.errors == 1

    def test_stats_command_drains_first(self, db):
        lines = [
            json.dumps({"id": 1, "doc": "doc", "guard": GUARD}),
            json.dumps({"cmd": "stats"}),
        ]
        _, responses = self._run(db, lines, workers=2)
        assert responses[0]["id"] == 1  # the pending response came first
        assert responses[1]["ok"] and responses[1]["stats"]["completed"] >= 1

    def test_quit_stops_reading(self, db):
        lines = [
            json.dumps({"cmd": "quit"}),
            json.dumps({"id": 9, "doc": "doc", "guard": GUARD}),
        ]
        stats, responses = self._run(db, lines, workers=2)
        assert responses == []
        assert stats.requests == 0
        assert isinstance(stats, ServeStats)


class TestServeForever:
    def test_tcp_round_trip(self, db):
        server = serve_forever(db, port=0, workers=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            with socket.create_connection((host, port), timeout=10) as conn:
                conn.sendall(
                    (json.dumps({"id": 1, "doc": "doc", "guard": GUARD}) + "\n").encode()
                )
                with conn.makefile("r", encoding="utf-8") as reader:
                    response = json.loads(reader.readline())
                conn.sendall((json.dumps({"cmd": "quit"}) + "\n").encode())
            assert response["id"] == 1 and response["ok"]
            assert response["xml"] == db.transform("doc", GUARD).xml()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class TestHangUp:
    """A client that hangs up ends its session quietly: no traceback, the
    reader stops submitting, one ``serve.disconnects`` per session."""

    LINE = json.dumps({"id": 1, "doc": "doc", "guard": GUARD}) + "\n"

    def test_a_reset_connection_ends_its_session_quietly(self, db, capfd):
        server = serve_forever(db, port=0, workers=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            conn = socket.create_connection(server.server_address, timeout=10)
            # SO_LINGER 0: close() resets the connection instead of
            # ending it, with 20 requests queued and no answer read.
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.sendall(self.LINE.encode() * 20)
            conn.close()
            deadline = time.monotonic() + 10
            while db.stats.counter("serve.disconnects") < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            with socket.create_connection(server.server_address, timeout=10) as again:
                again.sendall(self.LINE.encode())
                with again.makefile("rb") as reader:
                    response = json.loads(reader.readline())
            assert response["ok"] and response["xml"] == db.transform("doc", GUARD).xml()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert db.stats.counter("serve.disconnects") == 1
        assert capfd.readouterr().err == ""

    def test_a_failed_write_stops_the_reader(self, db):
        class Gone(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        sent = 200
        stats = serve_loop(db, io.StringIO(self.LINE * sent), Gone(), workers=2)
        # A request is answered before the next is read.
        assert stats.requests == 1
        assert stats.counters["serve.disconnects"] == 1
        assert db.stats.counter("serve.requests") == stats.requests

    def test_a_hang_up_finishes_every_answered_trace(self, db):
        """Every request that ran records its latency samples, the one
        whose response could not be written included."""

        class GoneAfterOne(io.StringIO):
            def write(self, text):
                if self.getvalue():
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        stats = serve_loop(db, io.StringIO(self.LINE * 10), GoneAfterOne(), workers=2)
        assert stats.counters["serve.disconnects"] == 1
        samples = db.stats.copy().histograms["serve.request_seconds"].count
        # The first answer was written, the second's write failed.
        assert samples == db.stats.counter("serve.completed") == 2


def padded_request(length: int) -> str:
    """A valid request line of exactly ``length`` characters, newline excluded."""
    head = {"id": 1, "doc": "doc", "guard": GUARD, "pad": ""}
    pad = length - len(json.dumps(head))
    assert pad >= 0
    return json.dumps({**head, "pad": "x" * pad})


def tcp_session(db, payload: bytes, close_after_send: bool = True) -> list[dict]:
    """Send ``payload`` to a fresh ``serve_forever`` and read every response
    line until the server ends the session."""
    server = serve_forever(db, port=0, workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(server.server_address, timeout=10) as conn:
            conn.sendall(payload)
            if close_after_send:
                conn.shutdown(socket.SHUT_WR)
            lines = []
            with conn.makefile("rb") as reader:
                try:
                    while line := reader.readline():
                        lines.append(json.loads(line))
                except ConnectionResetError:
                    pass  # the server closed with part of the line unread
        return lines
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestRequestBounds:
    """A request line is at most ``MAX_REQUEST_BYTES`` long; a longer one
    gets one coded refusal and ends the session."""

    REFUSAL = {"id": None, "ok": False, "code": "XM580"}

    def refused(self, response: dict) -> bool:
        return {key: response.get(key) for key in self.REFUSAL} == self.REFUSAL

    def test_a_line_of_exactly_the_limit_is_served(self, db):
        line = padded_request(MAX_REQUEST_BYTES)
        out = io.StringIO()
        stats = serve_loop(db, io.StringIO(line + "\n" + line + "\n"), out, workers=2)
        responses = [json.loads(text) for text in out.getvalue().splitlines()]
        assert [(r["id"], r["ok"]) for r in responses] == [(1, True), (1, True)]
        assert stats.requests == 2 and stats.errors == 0

    def test_a_line_past_the_limit_ends_a_text_session(self, db):
        lines = [
            padded_request(MAX_REQUEST_BYTES + 1),
            json.dumps({"id": 2, "doc": "doc", "guard": GUARD}),
        ]
        out = io.StringIO()
        stats = serve_loop(db, io.StringIO("\n".join(lines) + "\n"), out, workers=2)
        responses = [json.loads(text) for text in out.getvalue().splitlines()]
        assert len(responses) == 1 and self.refused(responses[0])
        assert str(MAX_REQUEST_BYTES) in responses[0]["error"]
        assert (stats.requests, stats.ok, stats.errors) == (1, 0, 1)
        assert "serve.requests" not in stats.counters  # the pool never saw it

    def test_a_line_of_exactly_the_limit_is_served_over_tcp(self, db):
        line = padded_request(MAX_REQUEST_BYTES).encode()
        responses = tcp_session(db, line + b"\n" + b'{"cmd": "quit"}\n')
        assert [(r["id"], r["ok"]) for r in responses] == [(1, True)]

    def test_a_line_past_the_limit_ends_a_tcp_session(self, db):
        line = padded_request(MAX_REQUEST_BYTES + 1).encode()
        follow = json.dumps({"id": 2, "doc": "doc", "guard": GUARD}).encode()
        responses = tcp_session(db, line + b"\n" + follow + b"\n")
        assert len(responses) == 1 and self.refused(responses[0])

    def test_the_limit_counts_bytes_on_a_socket(self, db):
        # 2-byte characters: within the limit in characters, past it in bytes.
        line = padded_request(MAX_REQUEST_BYTES // 2 + 64).replace("x", "é").encode()
        assert len(line) > MAX_REQUEST_BYTES
        responses = tcp_session(db, line + b"\n")
        assert len(responses) == 1 and self.refused(responses[0])

    def test_an_endless_line_is_refused_while_the_client_keeps_its_side_open(self, db):
        responses = tcp_session(db, b"x" * (MAX_REQUEST_BYTES + 1), close_after_send=False)
        assert len(responses) == 1 and self.refused(responses[0])

    @pytest.mark.parametrize("value", [5, None, ["x"]], ids=["int", "null", "list"])
    @pytest.mark.parametrize("field", ["doc", "guard"])
    def test_a_non_string_field_is_a_protocol_refusal(self, db, field, value):
        request = {"id": 4, "doc": "doc", "guard": GUARD, field: value}
        out = io.StringIO()
        stats = serve_loop(db, io.StringIO(json.dumps(request) + "\n"), out, workers=2)
        assert json.loads(out.getvalue()) == {
            "id": 4,
            "ok": False,
            "error": "request needs string 'doc' and 'guard' fields",
        }
        assert (stats.requests, stats.errors) == (1, 1)
        assert stats.counters.get("serve.errors.uncoded", 0) == 0
        assert "serve.requests" not in stats.counters  # refused before submit


class TestDegradedInlineDeadlines:
    """The inline (degraded-serial / workers=1) path keeps the pool's
    deadline contract and histogram coverage — degraded requests never
    silently vanish from the p95s or outlive their budget."""

    def test_inline_overrun_raises_xm540(self, db):
        real = db.transform

        def slow(name, guard):
            time.sleep(0.05)
            return real(name, GUARD)

        db.transform = slow
        with TransformPool(db, workers=1) as pool:
            future = pool.submit("doc", GUARD, deadline=0.001)
            with pytest.raises(TransformTimeoutError) as excinfo:
                future.result()
            assert excinfo.value.code == "XM540"
        assert db.stats.counters.get("serve.timeouts") == 1
        assert db.stats.counters.get("serve.errors.XM540") == 1
        assert db.stats.counters.get("serve.errors") == 1

    def test_inline_under_deadline_returns_result(self, db):
        with TransformPool(db, workers=1, deadline=30) as pool:
            assert pool.submit("doc", GUARD).result().xml()
        assert "serve.timeouts" not in db.stats.counters

    def test_saturated_inline_records_histograms(self, db):
        from repro.serve import ServeTelemetry

        telemetry = ServeTelemetry(stats=db.stats)
        gate = threading.Event()
        _slow_transform(db, gate, slow_guard="SLOW")
        try:
            with TransformPool(
                db, workers=2, max_queue=2, telemetry=telemetry
            ) as pool:
                stuck = [pool.submit("doc", "SLOW") for _ in range(2)]
                while pool.pending < 2:
                    time.sleep(0.01)
                snapshot = db.stats.copy().histograms
                before = (
                    snapshot["serve.request_seconds"].count
                    if "serve.request_seconds" in snapshot
                    else 0
                )
                fast = pool.submit("doc", GUARD)
                assert fast.done()
                assert fast.xmorph_trace.degraded
                after = db.stats.copy().histograms
                # The degraded request's phases landed in the same
                # histograms the threaded path feeds, immediately.
                assert after["serve.request_seconds"].count == before + 1
                assert after["serve.execute_seconds"].count >= before + 1
                gate.set()
                for future in stuck:
                    future.result(timeout=30)
        finally:
            gate.set()
