"""Tests for the measured-operation harness."""

import pytest

from repro.storage import Database

from benchmarks.existdb import ExistStore
from benchmarks.harness import (
    Measurement,
    measured_compile,
    measured_dump,
    measured_query,
    measured_transform,
)
from tests.conftest import FIG1A


@pytest.fixture
def db(tmp_path):
    database = Database(str(tmp_path / "h.db"))
    database.store_document("a", FIG1A)
    yield database
    database.close()


@pytest.fixture
def exist(tmp_path):
    store = ExistStore(str(tmp_path / "e.db"))
    store.store_document("a", FIG1A)
    yield store
    store.close()


class TestMeasurement:
    def test_throughput(self):
        m = Measurement(wall_seconds=0.5, blocks=10)
        assert m.throughput(100) == 200.0

    def test_zero_wall_time(self):
        m = Measurement(wall_seconds=0.0, blocks=0)
        assert m.throughput(5) == float("inf")


class TestMeasuredOperations:
    def test_transform_captures_deltas(self, db):
        m = measured_transform(db, "a", "MORPH author [ name ]")
        assert m.wall_seconds > 0
        assert m.blocks > 0  # cold: the sequences come from disk
        assert m.result.forest.node_count() == 4

    def test_cold_resets_cache(self, db):
        first = measured_transform(db, "a", "MORPH author [ name ]", cold=True)
        warm = measured_transform(db, "a", "MORPH author [ name ]", cold=False)
        assert warm.blocks <= first.blocks

    def test_compile_measures_no_sequence_io(self, db):
        db.drop_cache()
        m = measured_compile(db, "a", "MORPH author [ name ]")
        transform = measured_transform(db, "a", "MORPH author [ name ]")
        assert m.blocks == 0 < transform.blocks

    def test_dump(self, exist):
        m = measured_dump(exist, "a")
        assert "<data>" in m.result
        assert m.blocks >= 1

    def test_query(self, exist):
        m = measured_query(exist, "a", "count(//book)")
        assert m.result == [2.0]
        assert m.blocks == 0 and m.wall_seconds > 0


class TestSessionTrace:
    def test_measurements_recorded_as_phases(self, db):
        from repro.obs import to_json_lines

        from benchmarks.harness import session_tracer
        from tests.obs.trace_reader import from_json_lines

        before = len(session_tracer().roots)
        measurement = measured_transform(db, "a", "MORPH author [ name ]")
        phases = session_tracer().roots[before:]
        assert [span.name for span in phases] == ["transform:a"]
        phase = phases[0]
        assert phase.attrs["guard"] == "MORPH author [ name ]"
        assert phase.attrs["blocks"] == measurement.blocks
        assert phase.duration >= 0.0
        # The session trace serializes to the JSONL the benchmarks persist.
        trace = from_json_lines(to_json_lines(session_tracer()))
        assert "transform:a" in trace.span_names()

    def test_measured_code_runs_with_tracing_disabled(self, db):
        """The session tracer records phases without becoming current —
        production code under measurement stays untraced."""
        from repro import obs

        measured_transform(db, "a", "MORPH author [ name ]")
        assert obs.get_tracer().enabled is False
