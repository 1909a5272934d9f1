"""Figure 13: memory taken by the Figure 10 transformation.

The paper observes the JVM grabbing all available memory "within the
first 30% of an experiment".  We measure the memory a cold ``MUTATE
site`` actually allocates, as the ``tracemalloc`` peak over the run, on
the two smallest factors (tracing every allocation slows the run about
twentyfold), and assert that it grows with the document.
"""

import tracemalloc

import pytest

from benchmarks.conftest import XMARK_FACTORS, register_table
from benchmarks.harness import measured_transform
from benchmarks.reporting import SeriesTable

GUARD = "MUTATE site"
FACTORS = XMARK_FACTORS[:2]

_peaks: dict[float, int] = {}


def _traced_peak(db) -> int:
    """Peak bytes allocated by one cold transformation."""
    tracemalloc.start()
    try:
        measured_transform(db, "xmark", GUARD)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("factor", FACTORS)
def test_fig13_peak_memory(benchmark, factor, xmark_dbs):
    db = xmark_dbs[factor]
    peak = benchmark.pedantic(lambda: _traced_peak(db), rounds=1, iterations=1)
    _peaks[factor] = peak

    table = register_table(
        "fig13_memory",
        SeriesTable(
            "Figure 13: tracemalloc peak during MUTATE site",
            "factor",
            ["nodes", "peak MB"],
        ),
    )
    table.add_row(factor, db.describe("xmark")["nodes"], round(peak / 1e6, 2))
    if not table.notes:
        table.note("peak of Python allocations over one cold run (tracemalloc)")

    assert peak > 0
    if len(_peaks) == len(FACTORS):
        peaks = [_peaks[f] for f in FACTORS]
        assert peaks == sorted(peaks) and peaks[0] < peaks[-1]
