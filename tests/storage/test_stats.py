"""Tests for the vmstat-analog counters (the Figures 11–12 substrate)."""

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.storage.stats import ACCESS_COUNTERS, SystemStats, event_counts


@pytest.fixture
def stats():
    return SystemStats()


class TestCharging:
    def test_block_io(self, stats):
        stats.count("storage.blocks_read", 3)
        stats.count("storage.blocks_written", 2)
        assert stats.blocks_in == 3
        assert stats.blocks_out == 2
        assert stats.cumulative_blocks == 5

    def test_reset_clears_counters(self, stats):
        stats.count("storage.blocks_read")
        stats.count("storage.blocks_written")
        stats.clear()
        assert stats.cumulative_blocks == 0

    def test_only_counted_and_measured_fields(self):
        assert isinstance(SystemStats(), MetricsRegistry)
        names = {name for name in vars(SystemStats) if not name.startswith("_")}
        assert names == {"count", "observe", "blocks_in", "blocks_out", "cumulative_blocks"}

    def test_access_counters_start_at_zero(self, stats):
        assert {name: stats.counter(name) for name in ACCESS_COUNTERS} == dict.fromkeys(
            ACCESS_COUNTERS, 0
        )
        assert event_counts(stats.counters) == {}
        stats.count("recovery.replays", 2)
        assert event_counts(stats.counters) == {"recovery.replays": 2}


class TestMetricsFeed:
    """Every count lands in the registry and on the current tracer."""

    def test_block_io_feeds_counters(self, stats):
        with obs.tracing() as tracer:
            stats.count("storage.blocks_read", 3)
            stats.count("storage.blocks_written", 2)
        assert tracer.metrics.counter("storage.blocks_read") == 3
        assert tracer.metrics.counter("storage.blocks_written") == 2

    def test_events_and_timings_feed_the_registry(self, stats):
        with obs.tracing() as tracer:
            stats.count("recovery.replays", 2)
            stats.observe("storage.page_read_seconds", 0.5)
        assert event_counts(stats.counters) == {"recovery.replays": 2}
        assert tracer.metrics.counter("recovery.replays") == 2
        assert stats.histograms["storage.page_read_seconds"].count == 1
        assert tracer.metrics.histograms["storage.page_read_seconds"].total == 0.5

    def test_detached_by_default(self, stats):
        stats.count("storage.blocks_read")  # no tracer installed: must not raise
        assert stats.blocks_in == 1
        assert not obs.get_tracer().metrics

    def test_mirroring_leaves_counts_unchanged(self, stats):
        """Counting under a tracer must not perturb the counters themselves."""
        traced = SystemStats()
        with obs.tracing():
            traced.count("storage.blocks_read", 4)
            traced.count("storage.blocks_written")
            traced.count("serve.requests")
        stats.count("storage.blocks_read", 4)
        stats.count("storage.blocks_written")
        stats.count("serve.requests")
        assert traced.counters == stats.counters

    def test_reset_keeps_registry_attached(self, stats):
        stats.count("storage.blocks_read")
        stats.clear()
        with obs.tracing() as tracer:
            stats.count("storage.blocks_written")
        assert tracer.metrics.counter("storage.blocks_written") == 1
        assert stats.blocks_out == 1

    def test_each_context_sees_only_its_own_counts(self, stats):
        import threading

        def other_thread():
            stats.count("storage.blocks_read", 5)

        with obs.tracing() as tracer:
            stats.count("storage.blocks_read")
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
        assert stats.blocks_in == 6
        assert tracer.metrics.counter("storage.blocks_read") == 1

    def test_copy_is_independent(self, stats):
        stats.count("serve.requests")
        stats.observe("serve.request_seconds", 0.25)
        snapshot = stats.copy()
        stats.count("serve.requests")
        stats.observe("serve.request_seconds", 0.25)
        assert snapshot.counter("serve.requests") == 1
        assert snapshot.histogram("serve.request_seconds").count == 1
        assert stats.histogram("serve.request_seconds").count == 2
