"""The paper's Section IX figures, regenerated: the shapes asserted on
deterministic counts (blocks, nodes, pairs evaluated), measured wall
time reported beside them.

Beside the ``bench_*.py`` modules live what only they use:
:mod:`benchmarks.harness` (measured operations),
:mod:`benchmarks.reporting` (the series tables written under
``bench_results/`` so EXPERIMENTS.md can quote them),
:mod:`benchmarks.plots` (ASCII charts), :mod:`benchmarks.existdb`
(Fig. 14's eXist comparator) and :mod:`benchmarks.xquery_view`
(Sec. VIII's losing architecture, timed by ``bench_architectures.py``).

The system's own serve, read, ingest and update paths are measured by
``python3 -m perfbench`` (``BENCHMARK.json``), not by this package.
"""
