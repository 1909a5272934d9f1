"""Tests for the vmstat-analog counters (the Figures 11–12 substrate)."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.storage.stats import SystemStats


@pytest.fixture
def stats():
    return SystemStats()


class TestCharging:
    def test_block_io(self, stats):
        stats.block_read(3)
        stats.block_write(2)
        assert stats.blocks_in == 3
        assert stats.blocks_out == 2
        assert stats.cumulative_blocks == 5

    def test_reset_clears_counters(self, stats):
        stats.block_read(1)
        stats.block_write(1)
        stats.reset()
        assert stats.cumulative_blocks == 0

    def test_only_counted_and_measured_fields(self):
        names = {name for name in vars(SystemStats()) if not name.startswith("_")}
        assert names == {"blocks_in", "blocks_out", "events", "timings", "metrics"}


class TestMetricsFeed:
    """With a registry attached, counts mirror into trace counters."""

    def test_block_io_feeds_counters(self, stats):
        stats.metrics = MetricsRegistry()
        stats.block_read(3)
        stats.block_write(2)
        assert stats.metrics.counter("storage.blocks_read") == 3
        assert stats.metrics.counter("storage.blocks_written") == 2

    def test_events_and_timings_feed_the_registry(self, stats):
        stats.metrics = MetricsRegistry()
        stats.event("recovery.replays", 2)
        stats.observe("storage.page_read_seconds", 0.5)
        assert stats.events == {"recovery.replays": 2}
        assert stats.metrics.counter("recovery.replays") == 2
        assert stats.timings["storage.page_read_seconds"].count == 1
        assert stats.metrics.histograms["storage.page_read_seconds"].total == 0.5

    def test_detached_by_default(self, stats):
        assert stats.metrics is None
        stats.block_read()  # must not raise

    def test_mirroring_leaves_counts_unchanged(self, stats):
        """Attaching metrics must not perturb the counters themselves."""
        mirrored = SystemStats(metrics=MetricsRegistry())
        for target in (stats, mirrored):
            target.block_read(4)
            target.block_write(1)
            target.event("serve.requests")
        assert (mirrored.blocks_in, mirrored.blocks_out, mirrored.events) == (
            stats.blocks_in,
            stats.blocks_out,
            stats.events,
        )

    def test_reset_keeps_registry_attached(self, stats):
        stats.metrics = MetricsRegistry()
        stats.block_read()
        stats.reset()
        assert stats.metrics is not None
        stats.block_write()
        assert stats.metrics.counter("storage.blocks_written") == 1
