"""Harness, tables and plots for ``benchmarks/``, which regenerates the
paper's Section IX figures: the shapes asserted on deterministic counts
(blocks, nodes, pairs evaluated), measured wall time reported beside
them.  :mod:`repro.bench.reporting` writes the series tables
under ``bench_results/`` so EXPERIMENTS.md can quote them.

The system's own serve, read, ingest and update paths are measured by
``python3 -m perfbench`` (``BENCHMARK.json``), not by this package.
"""

from repro.bench.reporting import SeriesTable, format_seconds, write_report
from repro.bench.harness import (
    measured_transform,
    measured_compile,
    measured_dump,
    measured_query,
    Measurement,
)

__all__ = [
    "SeriesTable",
    "format_seconds",
    "write_report",
    "measured_transform",
    "measured_compile",
    "measured_dump",
    "measured_query",
    "Measurement",
]
