"""Prometheus text exposition (format 0.0.4) for xmorph metrics.

:func:`render_prometheus` turns the dotted-name counters/gauges and
bucketed :class:`~repro.obs.metrics.Histogram` objects the rest of
``repro.obs`` produces into the text format every Prometheus-compatible
scraper understands::

    # HELP xmorph_serve_requests_total transform requests submitted
    # TYPE xmorph_serve_requests_total counter
    xmorph_serve_requests_total{database="bib.db"} 104
    # TYPE xmorph_serve_request_seconds histogram
    xmorph_serve_request_seconds_bucket{database="bib.db",le="0.01"} 97
    ...
    xmorph_serve_request_seconds_bucket{database="bib.db",le="+Inf"} 104
    xmorph_serve_request_seconds_sum{database="bib.db"} 0.8123
    xmorph_serve_request_seconds_count{database="bib.db"} 104

Dotted metric names map to ``xmorph_<name with _>``; counters gain the
conventional ``_total`` suffix; histogram buckets are cumulative over
the shared log-spaced bounds (``le`` labels).  ``tests/obs/prom_reader.py``
reads the same format back, so the round trip is covered in-repo.

Serving processes expose this via ``GET /metrics`` on the TCP server,
``{"cmd": "metrics"}`` on the line protocol, and ``xmorph metrics``;
see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import re
from typing import Mapping, Optional

from repro.obs.metrics import BUCKET_BOUNDS, Histogram

#: Default metric namespace prefix.
PREFIX = "xmorph"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

#: Help texts for the catalogued metrics (see docs/OBSERVABILITY.md);
#: anything absent gets a generic line.
HELP_TEXTS = {
    "serve.requests": "transform requests submitted to the pool",
    "serve.completed": "transform requests completed successfully",
    "serve.errors": "transform requests that raised",
    "serve.timeouts": "requests that missed their deadline (XM540)",
    "serve.degraded_serial": "submissions run inline because the queue was saturated",
    "serve.disconnects": "serve sessions ended by a client hanging up",
    "serve.request_seconds": "end-to-end request latency (queue + execute + serialize)",
    "serve.queue_seconds": "time from submit to a worker picking the request up",
    "serve.execute_seconds": "transform execution time on the worker",
    "serve.serialize_seconds": "response serialization time",
    "plan.compile_seconds": "guard compile time (lexer through algebra) per plan-cache miss",
    "join.build_seconds": "closest-pair join map build time per memo miss",
    "storage.page_read_seconds": "physical page read latency",
    "journal.fsync_seconds": "write-ahead journal fsync latency",
    "plan_cache.hits": "compiled-plan cache hits",
    "plan_cache.misses": "compiled-plan cache misses",
    "plan_cache.evictions": "compiled plans evicted by the LRU",
    "plan_cache.contended": "threads that waited on an in-flight compile",
    "buffer.hits": "buffer-pool page hits",
    "buffer.misses": "buffer-pool page misses",
    "buffer.hit_ratio": "fraction of page requests served from the buffer pool",
    "btree.page_reads": "B+tree pages visited by descents (cached or not)",
    "btree.splits": "B+tree page splits",
    "storage.blocks_read": "physical blocks read",
    "storage.blocks_written": "physical blocks written",
    "serve.pending": "requests queued or running on the pool",
    "serve.workers": "transform pool worker threads",
    "plan_cache.entries": "compiled plans currently cached",
}


def metric_name(dotted: str, prefix: str = PREFIX) -> str:
    """``serve.errors.XM540`` → ``xmorph_serve_errors_XM540``."""
    cleaned = _NAME_OK.sub("_", dotted.replace(".", "_"))
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"{prefix}_{cleaned}" if prefix else cleaned


def escape_help(text: str) -> str:
    """Escape a HELP line: backslash and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(value: str) -> str:
    """Escape a label value: backslash, double-quote and newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def format_value(value: float) -> str:
    """A float in the shortest exact-enough form Prometheus accepts."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_block(labels: Optional[Mapping[str, str]], extra: str = "") -> str:
    parts = [
        f'{name}="{escape_label_value(str(value))}"'
        for name, value in (labels or {}).items()
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(
    counters: Mapping[str, int],
    gauges: Optional[Mapping[str, float]] = None,
    histograms: Optional[Mapping[str, Histogram]] = None,
    labels: Optional[Mapping[str, str]] = None,
    prefix: str = PREFIX,
) -> str:
    """The metrics as Prometheus text exposition format 0.0.4.

    ``labels`` (e.g. ``{"database": path}``) are attached to every
    sample.  Families are emitted in sorted dotted-name order with HELP
    and TYPE comments; histogram buckets are cumulative and end with the
    mandatory ``le="+Inf"`` bucket equal to ``_count``.
    """
    lines: list[str] = []
    plain = _label_block(labels)

    def head(dotted: str, name: str, kind: str) -> None:
        help_text = HELP_TEXTS.get(dotted, f"xmorph metric {dotted}")
        lines.append(f"# HELP {name} {escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")

    for dotted in sorted(counters or {}):
        name = metric_name(dotted, prefix)
        if not name.endswith("_total"):
            name += "_total"
        head(dotted, name, "counter")
        lines.append(f"{name}{plain} {format_value(counters[dotted])}")

    for dotted in sorted(gauges or {}):
        name = metric_name(dotted, prefix)
        head(dotted, name, "gauge")
        lines.append(f"{name}{plain} {format_value(gauges[dotted])}")

    for dotted in sorted(histograms or {}):
        histogram = histograms[dotted]
        name = metric_name(dotted, prefix)
        head(dotted, name, "histogram")
        cumulative = 0
        for index, bound in enumerate(BUCKET_BOUNDS):
            cumulative += histogram.buckets[index]
            if histogram.buckets[index] or _bucket_worth_emitting(histogram, index):
                le = _label_block(labels, f'le="{format_value(bound)}"')
                lines.append(f"{name}_bucket{le} {cumulative}")
        le = _label_block(labels, 'le="+Inf"')
        lines.append(f"{name}_bucket{le} {histogram.count}")
        lines.append(f"{name}_sum{plain} {format_value(histogram.total)}")
        lines.append(f"{name}_count{plain} {histogram.count}")

    return "\n".join(lines) + "\n"


def _bucket_worth_emitting(histogram: Histogram, index: int) -> bool:
    """Skip long runs of empty leading/trailing buckets but keep the
    empty buckets *inside* the observed range (quantile math over a
    scrape needs the zeros between populated buckets)."""
    populated = [i for i, n in enumerate(histogram.buckets) if n]
    if not populated:
        return False
    return populated[0] <= index <= populated[-1]
