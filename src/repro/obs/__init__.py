"""``repro.obs`` — unified observability for the query pipeline.

Three pieces, one import:

* **spans** (:mod:`repro.obs.tracer`): nested timed regions covering
  every pipeline stage — parse, per-operator type analysis, loss check,
  render, shred — reported to a context-local current tracer (so each
  serve request can own one) that is a near-zero-cost no-op by default;
* **metrics** (:mod:`repro.obs.metrics`): counters, gauges and
  histograms (``btree.page_reads``, ``join.comparisons``,
  ``buffer.hit_ratio``, ``render.nodes_emitted``...), fed both by call
  sites and by every count of a database's
  :class:`~repro.storage.stats.SystemStats` registry, so the paper's
  figures and real traces share one source of truth;
* **exporters** (:mod:`repro.obs.export`, :mod:`repro.obs.prom`): a
  human-readable tree, a lossless JSON-lines format, and Prometheus
  text exposition for live serve processes.

Typical use::

    from repro import obs

    with obs.tracing() as tracer:
        repro.transform(forest, "MORPH author [ name ]").xml()
    print(obs.render_tree(tracer))

See ``docs/OBSERVABILITY.md`` for the span and metric catalogues.
"""

from repro.obs.export import (
    format_duration,
    render_metrics,
    render_tree,
    to_json_lines,
    write_json_lines,
)
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    estimate_quantile,
)
from repro.obs.prom import render_prometheus
from repro.obs.tracer import (
    DISABLED,
    Span,
    Tracer,
    count,
    enabled,
    get_tracer,
    new_trace_id,
    observe,
    set_tracer,
    span,
    tracing,
)

__all__ = [
    "Span",
    "Tracer",
    "DISABLED",
    "span",
    "count",
    "observe",
    "enabled",
    "get_tracer",
    "set_tracer",
    "tracing",
    "new_trace_id",
    "Histogram",
    "MetricsRegistry",
    "BUCKET_BOUNDS",
    "estimate_quantile",
    "render_prometheus",
    "render_tree",
    "render_metrics",
    "format_duration",
    "to_json_lines",
    "write_json_lines",
]
