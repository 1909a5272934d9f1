"""ProcessTransformPool: parity, routing, crash recovery, deadlines.

The process pool's contract mirrors the thread pool's — byte-identical
output, XM540 deadlines, graceful degradation — plus the properties
only a multi-process executor has: forked workers over shared-reader
snapshots, cost-routed inlining, and respawn-on-death with no lost or
duplicated responses.  SIGKILL (uncatchable) stands in for every way a
worker can die.
"""

import os
import signal
import time

import pytest

from repro.errors import StorageError, TransformTimeoutError, XMorphError
from repro.serve import (
    ProcessTransformPool,
    RemoteTransformError,
    RemoteTransformResult,
    ServeTelemetry,
    TransformPool,
    make_pool,
    plan_cost_estimate,
)
from repro.storage import Database

from tests.conftest import FIG1A

GUARD = "MORPH author [ name ]"
GUARDS = [
    GUARD,
    "CAST MORPH book [ title ]",
    "MORPH publisher [ name ]",
]

#: Enough records that every GUARD's cost estimate clears the default
#: inline threshold — pooled submissions genuinely cross the pipe.
BULK = "<data>" + "".join(
    f"<book><title>T{i}</title><author><name>A{i % 7}</name></author>"
    f"<publisher><name>P{i % 3}</name></publisher></book>"
    for i in range(40)
) + "</data>"


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """One store, written once; tests open their own reader handles."""
    path = str(tmp_path_factory.mktemp("procpool") / "p.db")
    with Database(path, durable=False) as db:
        db.store_document("doc", BULK)
        db.store_document("tiny", FIG1A)
        serial = {g: db.transform("doc", g).xml() for g in GUARDS}
    return path, serial


@pytest.fixture
def reader(stored):
    path, _ = stored
    db = Database(path, mode="r", durable=False)
    yield db
    db.close()


class TestParity:
    def test_process_output_byte_identical_to_serial(self, stored, reader):
        _, serial = stored
        requests = [("doc", g) for g in GUARDS for _ in range(3)]
        with ProcessTransformPool(
            reader, workers=2, inline_threshold=None, max_queue=len(requests)
        ) as pool:
            results = pool.transform_many(requests)
        assert len(results) == len(requests)
        for (_, guard), result in zip(requests, results):
            assert isinstance(result, RemoteTransformResult)
            assert result.xml() == serial[guard]

    def test_stream_parity(self, stored, reader):
        _, serial = stored
        with ProcessTransformPool(reader, workers=2, inline_threshold=None) as pool:
            texts = pool.stream_many([("doc", GUARD)] * 4)
        assert all(isinstance(t, str) for t in texts)
        # Streamed text renders the same elements; pin against the
        # thread pool's streaming output instead of the batch xml().
        with TransformPool(reader, workers=1) as pool:
            expected = pool.stream_many([("doc", GUARD)])[0]
        assert texts == [expected] * 4

    def test_thread_and_process_agree(self, reader):
        requests = [("doc", g) for g in GUARDS]
        with TransformPool(reader, workers=4) as pool:
            threaded = [r.xml() for r in pool.transform_many(requests)]
        with ProcessTransformPool(reader, workers=2, inline_threshold=None) as pool:
            forked = [r.xml() for r in pool.transform_many(requests)]
        assert threaded == forked


class TestRouting:
    def test_needs_shared_reader_handle(self, tmp_path):
        with Database(str(tmp_path / "w.db"), durable=False) as db:
            db.store_document("doc", FIG1A)
            with pytest.raises(StorageError, match='mode="r"'):
                ProcessTransformPool(db)

    def test_tiny_transform_runs_inline(self, reader):
        assert plan_cost_estimate(reader, "tiny", GUARD) <= 32
        with ProcessTransformPool(reader, workers=2) as pool:
            result = pool.transform_many([("tiny", GUARD)])[0]
        # Inline results are real TransformResults (forest attached),
        # not pipe-serialized remotes.
        assert not isinstance(result, RemoteTransformResult)
        assert reader.stats.events.get("serve.inline_small", 0) >= 1

    def test_large_transform_crosses_the_pipe(self, reader):
        assert plan_cost_estimate(reader, "doc", GUARD) > 32
        with ProcessTransformPool(reader, workers=2) as pool:
            result = pool.transform_many([("doc", GUARD)])[0]
        assert isinstance(result, RemoteTransformResult)

    def test_unknown_document_fails_inline(self, reader):
        # Estimate 0 for unknown docs: the error is produced on the
        # submitting thread without waking a worker.
        assert plan_cost_estimate(reader, "nope", GUARD) == 0.0
        with ProcessTransformPool(reader, workers=2) as pool:
            with pytest.raises(XMorphError):
                pool.transform_many([("nope", GUARD)])

    def test_worker_error_rehydrates_with_code(self, reader):
        with ProcessTransformPool(reader, workers=2, inline_threshold=None) as pool:
            with pytest.raises(XMorphError) as excinfo:
                pool.transform_many([("nope", GUARD)])
        assert isinstance(excinfo.value, RemoteTransformError)
        assert "nope" in str(excinfo.value)

    def test_no_workers_degrades_serial(self, stored, reader):
        _, serial = stored
        with ProcessTransformPool(reader, workers=2, inline_threshold=None) as pool:
            # Simulate a fleet that could never be (re)spawned.
            handles, pool._handles = pool._handles, []
            try:
                result = pool.transform_many([("doc", GUARD)])[0]
            finally:
                pool._handles = handles
        assert result.xml() == serial[GUARD]
        assert reader.stats.events.get("serve.degraded_serial", 0) >= 1

    def test_make_pool_dispatch(self, reader):
        with make_pool(reader, workers=2, mode="process") as pool:
            assert isinstance(pool, ProcessTransformPool)
            assert pool.mode == "process"
        with make_pool(reader, workers=2, mode="thread") as pool:
            assert isinstance(pool, TransformPool)
        with pytest.raises(ValueError, match="unknown pool mode"):
            make_pool(reader, mode="greenlet")


class TestCrashRecovery:
    def test_sigkill_mid_service_respawns_and_loses_nothing(self, stored, reader):
        _, serial = stored
        requests = [("doc", GUARD)] * 8
        with ProcessTransformPool(reader, workers=2, inline_threshold=None) as pool:
            pool.transform_many([("doc", GUARD)])  # all pipes proven live
            futures = [pool.submit("doc", GUARD) for _ in range(len(requests))]
            # SIGKILL is uncatchable: whatever each worker was doing
            # dies with it, in-flight request included.
            for handle in pool._handles:
                os.kill(handle.process.pid, signal.SIGKILL)
            results = [f.result(timeout=60) for f in futures]
            assert len(results) == len(requests)  # none lost, none duplicated
            assert all(r.xml() == serial[GUARD] for r in results)
            assert reader.stats.events.get("serve.worker_restarts", 0) >= 1
            # The replacement fleet keeps serving.
            again = pool.transform_many([("doc", GUARD)])
            assert again[0].xml() == serial[GUARD]

    def test_respawned_worker_is_rewarmed(self, reader):
        with ProcessTransformPool(reader, workers=1, inline_threshold=None) as pool:
            pool.transform_many([("doc", GUARD)])  # enters the warm history
            stats = pool.worker_stats()
            assert stats and stats[0]["plan_cache"]["entries"] >= 1
            os.kill(pool._handles[0].process.pid, signal.SIGKILL)
            pool.transform_many([("doc", GUARD)])  # triggers respawn
            stats = pool.worker_stats()
            # The replacement pre-compiled the warm list before traffic.
            assert stats and stats[0]["plan_cache"]["entries"] >= 1


class TestDeadlines:
    def test_expired_budget_raises_xm540(self, reader):
        with ProcessTransformPool(reader, workers=1, inline_threshold=None) as pool:
            future = pool.submit("doc", GUARD, deadline=1e-9)
            with pytest.raises(TransformTimeoutError) as excinfo:
                future.result(timeout=30)
            assert excinfo.value.code == "XM540"
        assert reader.stats.events.get("serve.timeouts", 0) >= 1
        assert reader.stats.events["serve.errors"] == 1
        assert reader.stats.events["serve.errors.XM540"] == 1

    def test_stalled_worker_times_out_collector(self, stored, reader):
        _, serial = stored
        with ProcessTransformPool(reader, workers=1, inline_threshold=None) as pool:
            pool.transform_many([("doc", GUARD)])  # pipe proven live
            pid = pool._handles[0].process.pid
            os.kill(pid, signal.SIGSTOP)
            try:
                with pytest.raises(TransformTimeoutError) as excinfo:
                    pool.transform_many([("doc", GUARD)], deadline=0.3)
                assert excinfo.value.code == "XM540"
            finally:
                os.kill(pid, signal.SIGCONT)
            # The worker was only stopped, not killed: once resumed it
            # answers the stale request, the pool discards it (the
            # future was abandoned), and fresh requests still work.
            result = pool.transform_many([("doc", GUARD)], deadline=30)
            assert result[0].xml() == serial[GUARD]


class TestTelemetry:
    def test_worker_traces_merge_into_parent_sinks(self, stored, tmp_path):
        path, _ = stored
        db = Database(path, mode="r", durable=False)
        trace_file = str(tmp_path / "traces.jsonl")
        telemetry = ServeTelemetry(
            stats=db.stats, trace_sample=1, trace_file=trace_file
        )
        try:
            with ProcessTransformPool(
                db, workers=1, inline_threshold=None, telemetry=telemetry
            ) as pool:
                pool.transform_many([("doc", GUARD)] * 2)
            assert telemetry.sampled_traces >= 2
            with open(trace_file, encoding="utf-8") as handle:
                text = handle.read()
            assert '"worker": true' in text
            # Latency histograms got the workers' samples.
            snapshot = db.stats.timing_snapshot()
            assert snapshot["serve.request_seconds"].count >= 2
            assert snapshot["serve.execute_seconds"].count >= 2
        finally:
            db.close()

    def test_remote_plan_cache_outcome_reported(self, stored):
        path, _ = stored
        db = Database(path, mode="r", durable=False)
        telemetry = ServeTelemetry(stats=db.stats, slow_ms=0.0)
        try:
            with ProcessTransformPool(
                db, workers=1, inline_threshold=None, telemetry=telemetry
            ) as pool:
                first = pool.submit("doc", GUARD)
                first.result(timeout=30)
                second = pool.submit("doc", GUARD)
                second.result(timeout=30)
            # Same worker, same guard: the second request hit the
            # worker's private plan cache, and said so over the pipe.
            assert second.xmorph_trace.plan_cache_hit is True
        finally:
            db.close()


class TestResultSurface:
    def test_remote_result_refuses_reindent(self):
        result = RemoteTransformResult("doc", GUARD, "<a/>")
        assert result.xml() == "<a/>"
        with pytest.raises(ValueError, match="pre-serialized"):
            result.xml(indent=2)

    def test_pool_stats_surface(self, reader):
        with ProcessTransformPool(reader, workers=2, inline_threshold=None) as pool:
            pool.transform_many([("doc", GUARD)])
            stats = pool.stats()
            assert stats["requests"] >= 1
            assert stats["completed"] >= 1
            assert pool.pending == 0
