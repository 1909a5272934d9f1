"""Figure 12: the share of the Figure 10 transformation spent on I/O.

The paper reads vmstat's CPU wait percentage: "roughly 40% of the CPU
time is spent waiting, i.e., the block I/O drives the cost of a
transformation".  We measure the same quantity directly: every physical
page read is timed into the ``storage.page_read_seconds`` histogram, so
the I/O share of a run is the histogram's sum over the run divided by
its wall time.  The pages come from the OS page cache here, so the share
is far below the paper's (EXPERIMENTS.md records it as a finding).
"""

import pytest

from benchmarks.conftest import XMARK_FACTORS, register_table
from benchmarks.harness import measured_transform
from benchmarks.reporting import SeriesTable

GUARD = "MUTATE site"


def _page_reads(db) -> tuple[int, float]:
    """(reads timed, seconds spent reading) over the handle's lifetime."""
    histogram = db.stats.histogram("storage.page_read_seconds")
    return (histogram.count, histogram.total) if histogram is not None else (0, 0.0)


@pytest.mark.parametrize("factor", [XMARK_FACTORS[0], XMARK_FACTORS[2], XMARK_FACTORS[-1]])
def test_fig12_page_read_share(benchmark, factor, xmark_dbs):
    db = xmark_dbs[factor]
    blocks_before = db.stats.blocks_in
    reads_before, seconds_before = _page_reads(db)
    measurement = benchmark.pedantic(
        lambda: measured_transform(db, "xmark", GUARD), rounds=1, iterations=1
    )
    reads_after, seconds_after = _page_reads(db)
    blocks_read = db.stats.blocks_in - blocks_before
    read_seconds = seconds_after - seconds_before
    share = read_seconds / measurement.wall_seconds

    table = register_table(
        "fig12_wait",
        SeriesTable(
            "Figure 12: measured page-read share of MUTATE site",
            "factor",
            ["blocks read", "page-read ms", "wall ms", "page-read %"],
        ),
    )
    table.add_row(
        factor,
        blocks_read,
        round(1e3 * read_seconds, 3),
        round(1e3 * measurement.wall_seconds, 1),
        f"{100 * share:.2f}%",
    )
    if not table.notes:
        table.note("paper: wait near 40%; here reads come from the OS page cache")

    # Every counted read was timed, and a cold run does read pages.
    assert reads_after - reads_before == blocks_read > 0
    assert 0.0 < share < 1.0
