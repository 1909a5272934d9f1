"""Tests for pipeline tracing and EXPLAIN ANALYZE (repro.engine.profile)."""

import json
import re

import pytest

import repro
from repro import obs
from repro.engine.profile import profile
from repro.storage import Database

from tests.conftest import FIG1A
from tests.obs.trace_reader import from_json_lines

GUARD = "MORPH author [ name book [ title ] ]"


@pytest.fixture
def forest():
    return repro.parse_forest(FIG1A)


class TestPipelineSpans:
    """A transform plans; reading the result renders, inside whatever
    tracer is current then."""

    def test_transform_emits_stage_spans(self, forest):
        with obs.tracing() as tracer:
            repro.transform(forest, GUARD).xml()
        names = tracer.span_names()
        for expected in (
            "pipeline.compile",
            "lang.parse",
            "typing.type-analysis",
            "typing.loss",
            "typing.enforce",
            "pipeline.render",
        ):
            assert expected in names
        assert any(name.startswith("algebra.") for name in names)

    def test_result_seconds_match_spans(self, forest):
        with obs.tracing() as tracer:
            result = repro.transform(forest, GUARD)
            result.rendered  # noqa: B018 - render inside the tracer
        assert result.compile_seconds == tracer.find("pipeline.compile").duration
        assert result.render_seconds == tracer.find("pipeline.render").duration

    def test_seconds_populated_when_disabled(self, forest):
        """Backward compatibility: timings survive without a tracer."""
        result = repro.transform(forest, GUARD)
        assert result.compile_seconds > 0.0
        assert result.render_seconds == 0.0  # not read yet
        result.xml()
        assert result.render_seconds > 0.0

    def test_render_counters(self, forest):
        with obs.tracing() as tracer:
            result = repro.transform(forest, GUARD)
            result.rendered  # noqa: B018 - render inside the tracer
        counters = tracer.metrics.counters
        assert counters["render.nodes_emitted"] == result.rendered.nodes_written
        assert counters["render.joins"] == result.rendered.joins
        assert counters["join.comparisons"] > 0
        assert tracer.metrics.histogram("join.pairs").count == result.rendered.joins

    def test_rows_by_type_tallies_every_output_node(self, forest):
        result = repro.transform(forest, GUARD)
        assert sum(result.rendered.rows_by_type.values()) == result.rendered.nodes_written
        for root in result.target_shape.roots():
            assert result.rendered.rows_for(root) == 2  # two authors


class TestProfileTransform:
    def test_plan_rows_annotated(self, forest):
        report = profile(lambda: repro.transform(forest, GUARD))
        rows = report.plan_rows()
        assert [(depth, name, actual) for depth, name, actual, _ in rows] == [
            (0, "author", 2),
            (1, "name", 2),
            (1, "book", 2),
            (2, "title", 2),
        ]

    def test_pretty_contains_plan_and_timings(self, forest):
        text = profile(lambda: repro.transform(forest, GUARD)).pretty()
        assert "EXPLAIN ANALYZE" in text
        assert "rows=2" in text
        assert "lang.parse" in text
        assert "typing.type-analysis" in text
        assert "pipeline.render" in text
        assert "stage 0: MorphOp" in text
        assert "nodes_emitted=" in text

    def test_pretty_shows_the_emitters_plan(self, forest):
        """An in-memory render runs the plan's emitter, so its EXPLAIN
        ANALYZE prints the emitter's edges, as a stored one does."""
        text = profile(lambda: repro.transform(forest, GUARD)).pretty()
        assert re.search(r"render\.compiled: \d+ edges specialized", text), text
        assert re.search(r"^  name  \[join\]  anchors=\d+ candidates=\d+", text, re.M), text

    def test_trace_json_is_valid(self, forest):
        for line in profile(lambda: repro.transform(forest, GUARD)).trace_json().splitlines():
            json.loads(line)


class TestProfileDatabase:
    def test_db_profile_has_storage_actuals(self, tmp_path):
        with Database(str(tmp_path / "p.db")) as db:
            db.store_document("books", FIG1A)
            db.drop_cache()
            report = profile(lambda: db.transform("books", GUARD), db)
        assert report.storage is not None
        assert 0.0 <= report.storage["buffer_hit_ratio"] <= 1.0
        counters = report.tracer.metrics.counters
        assert counters["btree.page_reads"] > 0
        # A cold run reads blocks, each one counted and timed.
        assert counters["storage.blocks_read"] == report.storage["blocks_read"] > 0
        reads = report.tracer.metrics.histograms["storage.page_read_seconds"]
        assert reads.count == report.storage["blocks_read"]
        assert report.storage["page_read_seconds"] == pytest.approx(reads.total)
        assert "buffer.hit_ratio" in report.tracer.metrics.gauges

    def test_db_profile_leaves_metrics_detached(self, tmp_path):
        with Database(str(tmp_path / "q.db")) as db:
            db.store_document("books", FIG1A)
            report = profile(lambda: db.transform("books", GUARD), db)
            counted = dict(report.tracer.metrics.counters)
            db.drop_cache()
            db.transform("books", GUARD).xml()
            # Counts after the profile reach the registry, not its tracer.
            assert db.stats.counter("plan_cache.misses") == 2
            assert report.tracer.metrics.counters == counted

    def test_another_threads_reads_stay_out_of_the_profile(self, tmp_path):
        """A thread reading another document on the same handle, inside
        the profiled region, changes none of the profile's I/O counts."""
        import threading

        from repro.workloads import generate_dblp

        path = str(tmp_path / "shared.db")
        with Database(path) as db:
            db.store_document("books", FIG1A)
            db.store_document("other", generate_dblp(20))

        def profiled(with_reader: bool):
            with Database(path) as db:
                if with_reader:
                    real = db.transform

                    def transform(name, guard):
                        result = real(name, guard)
                        result.rendered  # noqa: B018 - the profile's own reads first
                        reader = threading.Thread(
                            target=lambda: real("other", "MORPH title").xml()
                        )
                        reader.start()
                        reader.join(timeout=60)
                        assert not reader.is_alive()
                        return result

                    db.transform = transform
                report = profile(lambda: db.transform("books", GUARD), db)
                lifetime = db.stats.blocks_in
            tracer = report.tracer.metrics
            return lifetime, (
                report.storage["blocks_read"],
                tracer.counter("storage.blocks_read"),
                tracer.histogram("storage.page_read_seconds").count,
            )

        alone_lifetime, alone = profiled(with_reader=False)
        shared_lifetime, shared = profiled(with_reader=True)
        assert shared_lifetime > alone_lifetime  # the reader did read pages
        assert alone[0] > 0
        assert shared == alone

    def test_profile_document_covers_whole_pipeline(self, tmp_path):
        with Database(str(tmp_path / "w.db")) as db:
            db.store_document("books", FIG1A)
            report = profile(lambda: db.transform("books", GUARD), db)
        names = report.tracer.span_names()
        for expected in (
            "lang.parse",
            "typing.type-analysis",
            "pipeline.render",
        ):
            assert expected in names
        assert "storage: blocks_read=" in report.pretty()
        # Same output as the plain in-memory transform.
        direct = repro.transform(repro.parse_forest(FIG1A), GUARD)
        assert report.result.xml() == direct.xml()

    def test_trace_round_trips_with_storage_counters(self, tmp_path):
        with Database(str(tmp_path / "r.db")) as db:
            db.store_document("books", FIG1A)
            db.drop_cache()
            report = profile(lambda: db.transform("books", GUARD), db)
        trace = from_json_lines(report.trace_json())
        assert trace.find("pipeline.render") is not None
        blocks = trace.metrics.counter("storage.blocks_read")
        assert blocks == report.storage["blocks_read"] > 0
