"""Request-scoped serving telemetry: traces, sampling, slow log, metrics."""

import io
import json

import pytest

from repro.serve import (
    RequestTrace,
    ServeTelemetry,
    TransformPool,
    serve_loop,
)
from repro.serve.telemetry import guard_fingerprint
from repro.storage import Database

from tests.conftest import FIG1A

GUARD = "MORPH author [ name ]"


@pytest.fixture
def db(tmp_path):
    database = Database(str(tmp_path / "telemetry.db"), durable=False)
    database.store_document("doc", FIG1A)
    yield database
    database.close()


class TestRequestTrace:
    def test_phase_timings_accumulate(self):
        trace = RequestTrace(doc="doc", guard=GUARD, trace_id="abc")
        trace.begin()
        trace.end_execute()
        trace.serialize_seconds = 0.25
        assert trace.queue_seconds >= 0.0
        assert trace.execute_seconds >= 0.0
        assert trace.total_seconds >= 0.25
        timings = trace.timings_ms()
        assert timings["serialize_ms"] == 250.0
        assert timings["total_ms"] >= timings["serialize_ms"]

    def test_fail_records_status_and_code(self):
        from repro.errors import TransformTimeoutError

        trace = RequestTrace(doc="doc", guard=GUARD, trace_id="abc")
        trace.fail(TransformTimeoutError("doc", GUARD, 0.1))
        assert trace.status == "error"
        assert trace.code == "XM540"
        assert trace.error == "TransformTimeoutError"

    def test_never_started_reports_zero_phases(self):
        trace = RequestTrace(doc="doc", guard=GUARD, trace_id="abc")
        assert trace.queue_seconds == 0.0
        assert trace.execute_seconds == 0.0


class TestSampling:
    def test_sample_every_other_request(self, db):
        telemetry = ServeTelemetry(stats=db.stats, trace_sample=2)
        sampled = [telemetry.start("doc", GUARD).sampled for _ in range(6)]
        assert sampled == [False, True, False, True, False, True]

    def test_sample_rate_zero_creates_no_tracer(self, db):
        telemetry = ServeTelemetry(stats=db.stats)
        trace = telemetry.start("doc", GUARD)
        assert trace.tracer is None
        assert not trace.sampled

    def test_only_a_traced_request_draws_a_trace_id(self, db, monkeypatch):
        from repro.obs import tracer as obs_tracer

        drawn = []
        draw = obs_tracer.new_trace_id
        monkeypatch.setattr(obs_tracer, "new_trace_id", lambda: drawn.append(1) or draw())
        unsampled = ServeTelemetry(stats=db.stats).start("doc", GUARD)
        assert drawn == [] and unsampled.trace_id is None
        telemetry = ServeTelemetry(stats=db.stats, trace_sample=2)
        traces = [telemetry.start("doc", GUARD) for _ in range(4)]
        assert [trace.trace_id is None for trace in traces] == [True, False, True, False]
        assert len(drawn) == 2
        assert ServeTelemetry(stats=db.stats, slow_ms=100.0).start("doc", GUARD).trace_id
        assert len(drawn) == 3

    def test_slow_ms_gives_every_request_a_tracer(self, db):
        telemetry = ServeTelemetry(stats=db.stats, slow_ms=100.0)
        trace = telemetry.start("doc", GUARD)
        assert trace.tracer is not None
        assert not trace.sampled  # a tracer for plan-cache hit detection only

    def test_finish_is_idempotent(self, db):
        telemetry = ServeTelemetry(stats=db.stats)
        trace = telemetry.start("doc", GUARD)
        telemetry.finish(trace)
        telemetry.finish(trace)
        snapshot = db.stats.copy().histograms
        assert snapshot["serve.request_seconds"].count == 1


class TestSampledTraceExport:
    def test_jsonl_spans_share_the_request_trace_id(self, db, tmp_path):
        trace_file = tmp_path / "traces.jsonl"
        telemetry = ServeTelemetry(
            stats=db.stats, trace_sample=1, trace_file=str(trace_file)
        )
        with TransformPool(db, workers=2, telemetry=telemetry) as pool:
            pool.transform_many([("doc", GUARD)])
        records = [
            json.loads(line) for line in trace_file.read_text().splitlines()
        ]
        header = records[0]
        assert header["type"] == "trace"
        assert header["version"] == 2
        assert header["doc"] == "doc"
        assert header["guard_fingerprint"] == guard_fingerprint(GUARD)
        assert header["status"] == "ok"
        assert set(header["timings"]) == {
            "queue_ms", "execute_ms", "serialize_ms", "total_ms",
        }
        spans = [record for record in records if record["type"] == "span"]
        assert spans, "the sampled request must export its span tree"
        assert {record["trace_id"] for record in records} == {header["trace_id"]}
        # Pipeline spans nest under the request root.
        names = [span["name"] for span in spans]
        assert names[0] == "serve.request"
        root_id = spans[0]["id"]
        assert any(span["parent"] == root_id for span in spans[1:])
        assert "pipeline.render" in names

    def test_text_sink_request_keeps_its_render_span(self, db, tmp_path):
        """What ``serve`` submits (``stream=True``) renders under the same
        ``pipeline.render`` span, joins included, as a tree request."""
        trace_file = tmp_path / "traces.jsonl"
        telemetry = ServeTelemetry(
            stats=db.stats, trace_sample=1, trace_file=str(trace_file)
        )
        with TransformPool(db, workers=2, telemetry=telemetry) as pool:
            future = pool.submit("doc", GUARD, stream=True)
            pool.result(future, "doc", GUARD)
            telemetry.finish(future.xmorph_trace)
        records = [json.loads(line) for line in trace_file.read_text().splitlines()]
        names = [record["name"] for record in records if record["type"] == "span"]
        assert names[0] == "serve.request"
        assert "pipeline.render" in names and "render.join" in names

    def test_per_request_tracer_does_not_leak(self, db):
        from repro import obs

        telemetry = ServeTelemetry(stats=db.stats, trace_sample=1)
        outer = obs.Tracer()
        with obs.tracing(outer):
            with TransformPool(db, workers=2, telemetry=telemetry) as pool:
                pool.transform_many([("doc", GUARD)])
            # The worker installed the per-request tracer inside a copied
            # context; the submitting thread still sees the outer tracer.
            assert obs.get_tracer() is outer


class TestSlowQueryLog:
    def test_slow_request_logged_with_plan_cache_and_fingerprint(self, db, tmp_path):
        slow_log = tmp_path / "slow.jsonl"
        telemetry = ServeTelemetry(
            stats=db.stats, slow_ms=0.0, slow_log=str(slow_log)
        )
        # Serial pool so the first request deterministically compiles
        # (miss) and the second hits the plan cache.
        with TransformPool(db, workers=1, telemetry=telemetry) as pool:
            pool.transform_many([("doc", GUARD), ("doc", GUARD)])
        records = [json.loads(line) for line in slow_log.read_text().splitlines()]
        assert len(records) == 2
        first, second = records
        assert first["guard_fingerprint"] == guard_fingerprint(GUARD)
        assert first["status"] == "ok"
        assert first["plan_cache"] == "miss"
        assert second["plan_cache"] == "hit"
        assert first["timings"]["total_ms"] >= 0.0
        assert first["trace_id"] != second["trace_id"]
        assert db.stats.counters["serve.slow_queries"] == 2

    def test_failed_request_carries_error_and_code(self, db, tmp_path):
        slow_log = tmp_path / "slow.jsonl"
        telemetry = ServeTelemetry(
            stats=db.stats, slow_ms=0.0, slow_log=str(slow_log)
        )
        with TransformPool(db, workers=1, telemetry=telemetry) as pool:
            with pytest.raises(Exception):
                pool.transform_many([("doc", "MORPH [[[")])
        records = [json.loads(line) for line in slow_log.read_text().splitlines()]
        assert records[0]["status"] == "error"
        assert "error" in records[0]

    def test_fast_threshold_skips_fast_requests(self, db, tmp_path):
        slow_log = tmp_path / "slow.jsonl"
        telemetry = ServeTelemetry(
            stats=db.stats, slow_ms=60_000.0, slow_log=str(slow_log)
        )
        with TransformPool(db, workers=2, telemetry=telemetry) as pool:
            pool.transform_many([("doc", GUARD)])
        assert not slow_log.exists()


class TestErrorCounters:
    def test_uncoded_error_counter(self, db):
        with TransformPool(db, workers=1) as pool:
            with pytest.raises(Exception):
                pool.transform_many([("doc", "MORPH [[[")])
        assert db.stats.counters["serve.errors"] == 1
        assert db.stats.counters["serve.errors.uncoded"] == 1

    def test_timeout_counts_xm540(self, db):
        import threading

        gate = threading.Event()
        real = db.transform

        def patched(name, guard):
            if guard == "SLOW":
                gate.wait(timeout=30)
            return real(name, GUARD)

        db.transform = patched
        try:
            with TransformPool(db, workers=2) as pool:
                try:
                    with pytest.raises(Exception):
                        pool.transform_many([("doc", "SLOW")], deadline=0.05)
                finally:
                    gate.set()  # the pool's exit joins the parked worker
        finally:
            db.transform = real
        assert db.stats.counters["serve.timeouts"] == 1
        assert db.stats.counters["serve.errors.XM540"] == 1
        assert db.stats.counters["serve.errors"] == 1


class TestEventsCountedOncePerRegistry:
    """``SystemStats.count`` updates the database's registry and the
    current tracer's (``engine.profile.profile`` reads the latter), and
    each ``serve.*`` edge must land in each of them once."""

    @pytest.mark.parametrize(
        "pool_kwargs",
        [
            pytest.param({"workers": 1}, id="inline"),
            pytest.param({"workers": 4}, id="thread"),
            pytest.param({"workers": 2, "max_queue": 0}, id="degraded"),
        ],
    )
    def test_tracer_registry_agrees_with_lifetime_events(self, db, pool_kwargs):
        from repro import obs

        tracer = obs.Tracer()
        with obs.tracing(tracer):
            with TransformPool(db, **pool_kwargs) as pool:
                pool.transform_many([("doc", GUARD)] * 3)
                with pytest.raises(Exception):
                    pool.transform_many([("doc", "MORPH [[[")])
        serve_events = {
            name: count
            for name, count in db.stats.counters.items()
            if name.startswith("serve.")
        }
        assert serve_events["serve.requests"] == 4
        assert serve_events["serve.completed"] == 3
        assert serve_events["serve.errors"] == 1
        if "max_queue" in pool_kwargs:
            assert serve_events["serve.degraded_serial"] == 4
        for name, count in serve_events.items():
            assert tracer.metrics.counter(name) == count, name

    def test_unobserved_tracer_still_counts(self, db):
        from repro import obs

        with obs.tracing() as tracer:
            db.transform_many([("doc", GUARD)] * 3, workers=1)
        assert tracer.metrics.counter("serve.requests") == 3
        assert tracer.metrics.counter("serve.completed") == 3

    def test_cold_transform_counts_io_once_in_each(self, db):
        from repro import obs

        names = ("storage.blocks_read", "buffer.misses", "btree.page_reads")
        db.drop_cache()
        before = {name: db.stats.counter(name) for name in names}
        with obs.tracing() as tracer:
            db.transform("doc", GUARD).xml()
        for name in names:
            delta = db.stats.counter(name) - before[name]
            assert delta > 0, name
            assert tracer.metrics.counter(name) == delta, name


class TestMetricsEndpoint:
    def test_metrics_cmd_returns_prometheus_text(self, db):
        requests = "\n".join(
            [
                json.dumps({"id": 1, "doc": "doc", "guard": GUARD}),
                json.dumps({"cmd": "metrics"}),
                json.dumps({"cmd": "quit"}),
            ]
        )
        out = io.StringIO()
        serve_loop(db, io.StringIO(requests + "\n"), out, workers=2)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert responses[0]["ok"] is True
        prometheus = responses[1]["prometheus"]
        assert "xmorph_serve_requests_total 1" in prometheus
        assert "xmorph_serve_request_seconds_bucket" in prometheus
        assert 'le="+Inf"' in prometheus

    def test_http_get_metrics_on_the_line_protocol(self, db):
        requests = "GET /metrics HTTP/1.1\n"
        out = io.StringIO()
        serve_loop(db, io.StringIO(requests), out, workers=2)
        response = out.getvalue()
        assert response.startswith("HTTP/1.0 200 OK\r\n")
        assert "Content-Type: text/plain; version=0.0.4" in response
        body = response.split("\r\n\r\n", 1)[1]
        assert "xmorph_storage_blocks_read_total" in body

    def test_http_unknown_path_is_404(self, db):
        out = io.StringIO()
        serve_loop(db, io.StringIO("GET /nope HTTP/1.1\n"), out, workers=2)
        assert out.getvalue().startswith("HTTP/1.0 404 Not Found\r\n")

    def test_default_loop_records_latency_histograms(self, db):
        requests = "\n".join(
            [
                json.dumps({"id": 1, "doc": "doc", "guard": GUARD}),
                json.dumps({"cmd": "quit"}),
            ]
        )
        serve_loop(db, io.StringIO(requests + "\n"), io.StringIO(), workers=2)
        snapshot = db.stats.copy().histograms
        for name in (
            "serve.request_seconds",
            "serve.queue_seconds",
            "serve.execute_seconds",
            "serve.serialize_seconds",
        ):
            assert snapshot[name].count == 1, name
        histogram = snapshot["serve.request_seconds"]
        assert histogram.p50 <= histogram.p95 <= (histogram.maximum or 0.0)
