"""Trace exporters: human-readable span tree and JSON lines.

Two views of the same tracer:

* :func:`render_tree` — an indented tree with durations and attributes,
  followed by the metric catalogue, for terminals (``xmorph transform
  --trace``).
* :func:`to_json_lines` — one JSON object per line (a header, every
  span depth-first, then the metrics), the machine-readable form the
  benchmarks persist and ``xmorph transform --trace=json`` emits.
  ``tests/obs/trace_reader.py`` reads it back, and the round trip is
  lossless for names, timings, attributes and metrics.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer

#: v2 adds span ``status`` (error spans), histogram buckets inside the
#: metrics record, and optional ``trace_id`` stamps on every record.
FORMAT_VERSION = 2


def format_duration(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


# -- human-readable tree ---------------------------------------------------


def render_tree(tracer: Tracer) -> str:
    """The span tree plus metrics as indented text."""
    lines: list[str] = []
    for root in tracer.roots:
        for span, depth in root.walk():
            attrs = " ".join(f"{key}={value}" for key, value in span.attrs.items())
            line = f"{'  ' * depth}{span.name}  {format_duration(span.duration)}"
            if span.status != "ok":
                line += f"  status={span.status}"
            if attrs:
                line += f"  [{attrs}]"
            lines.append(line)
    lines.extend(render_metrics(tracer.metrics))
    return "\n".join(lines)


def render_metrics(metrics: MetricsRegistry) -> list[str]:
    lines: list[str] = []
    if metrics.counters:
        lines.append("counters:")
        for name in sorted(metrics.counters):
            lines.append(f"  {name} = {metrics.counters[name]}")
    if metrics.gauges:
        lines.append("gauges:")
        for name in sorted(metrics.gauges):
            lines.append(f"  {name} = {metrics.gauges[name]:.4g}")
    if metrics.histograms:
        lines.append("histograms:")
        for name in sorted(metrics.histograms):
            histogram = metrics.histograms[name]
            line = (
                f"  {name}: count={histogram.count} mean={histogram.mean:.4g}"
                f" min={histogram.minimum:.4g} max={histogram.maximum:.4g}"
            )
            if histogram.count:
                line += (
                    f" p50={histogram.p50:.4g} p95={histogram.p95:.4g}"
                    f" p99={histogram.p99:.4g}"
                )
            lines.append(line)
    return lines


# -- JSON lines ------------------------------------------------------------


def to_json_lines(tracer: Tracer, header: Optional[dict] = None) -> str:
    """Serialize a tracer: header line, span lines (depth-first), metrics.

    ``header`` fields are merged into the leading ``{"type": "trace"}``
    record (request-scoped traces carry doc/guard/phase breakdowns
    there).  A tracer with a ``trace_id`` stamps it on *every* record,
    so one request's lines can be filtered out of a shared trace file.
    """
    epoch = min((root.started for root in tracer.roots), default=0.0)
    stamp: dict = {"trace_id": tracer.trace_id} if tracer.trace_id else {}
    head: dict = {"type": "trace", "version": FORMAT_VERSION, **stamp}
    if header:
        head.update(header)
    records: list[dict] = [head]
    next_id = 1

    def emit(span: Span, parent_id: Optional[int]) -> None:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        record = {
            "type": "span",
            **stamp,
            "id": span_id,
            "parent": parent_id,
            "name": span.name,
            "start": span.started - epoch,
            "duration": span.duration,
            "attrs": span.attrs,
        }
        if span.status != "ok":
            record["status"] = span.status
        records.append(record)
        for child in span.children:
            emit(child, span_id)

    for root in tracer.roots:
        emit(root, None)
    records.append({"type": "metrics", **stamp, **tracer.metrics.as_dict()})
    return "\n".join(json.dumps(record, default=str) for record in records)


def write_json_lines(tracer: Tracer, path: str) -> str:
    """Persist a tracer's JSONL trace to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_json_lines(tracer) + "\n")
    return path
