"""Figure 11: cumulative block I/O during the Figure 10 transformation.

The paper plots vmstat's cumulative block I/O over each run and reads
off two facts: the I/O grows steadily (XMorph streams the tables, no
spikes), and the total is proportional to the document factor.  We
sample the storage engine's block counters after every type-sequence
load during ``MUTATE site`` and report the same series.
"""

import pytest

from benchmarks.conftest import XMARK_FACTORS, register_table, sampling_loads
from benchmarks.harness import measured_transform
from benchmarks.reporting import SeriesTable

GUARD = "MUTATE site"


@pytest.mark.parametrize("factor", [XMARK_FACTORS[0], XMARK_FACTORS[2], XMARK_FACTORS[-1]])
def test_fig11_cumulative_io(benchmark, factor, xmark_dbs):
    db = xmark_dbs[factor]
    baseline = db.stats.cumulative_blocks
    with sampling_loads(db) as samples:
        measurement = benchmark.pedantic(
            lambda: measured_transform(db, "xmark", GUARD), rounds=1, iterations=1
        )
    assert samples, "sequence loads must produce samples"

    table = register_table(
        "fig11_blockio",
        SeriesTable(
            "Figure 11: cumulative block I/O during MUTATE site",
            "progress",
            ["factor", "cumulative blocks"],
        ),
    )
    # Report ~8 evenly spaced progress points per factor.
    step = max(1, len(samples) // 8)
    for position in range(0, len(samples), step):
        table.add_row(
            f"{100 * (position + 1) // len(samples)}%",
            factor,
            samples[position][1] - baseline,
        )

    # Steady growth: cumulative I/O never decreases and no single step
    # dominates the whole run (no bulk spike).
    series = [blocks for _label, blocks in samples]
    assert all(b >= a for a, b in zip(series, series[1:]))
    total = series[-1] - series[0]
    if total > 0 and len(series) > 4:
        biggest_step = max(b - a for a, b in zip(series, series[1:]))
        assert biggest_step <= 0.7 * (total + 1)
    assert measurement.blocks >= series[-1] - baseline
