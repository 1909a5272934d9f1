"""``EXPLAIN ANALYZE`` for XMorph: the plan, annotated with actuals.

A profile runs a guard under an enabled tracer and combines three views
of the same evaluation:

* the **target-shape plan** — the shape the algebra produced, one line
  per type, annotated with the *actual* number of instances the render
  algorithm emitted for it (``rows=``) and its source type;
* the **span tree** — wall-clock timings for every pipeline stage
  (parse, per-operator type analysis, loss check, render);
* the **storage actuals** — blocks read and written, the measured
  page-read time, buffer hit ratio and B+tree page reads: the counts
  the database's :class:`~repro.storage.stats.SystemStats` registry
  (which drives the paper's Figures 11–12) reported to the profile's
  tracer, so they are this evaluation's and no other thread's.

Entry point: :func:`profile`, over an in-memory forest or index or
over a stored document (then with storage actuals), as
``xmorph transform --profile`` and ``--trace`` surface it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro import obs
from repro.engine.interpreter import TransformResult
from repro.shape.types import ShapeType

#: Span names whose durations headline the timing summary, in pipeline order.
_PIPELINE_SPANS = (
    "pipeline.compile",
    "lang.parse",
    "typing.type-analysis",
    "typing.loss",
    "typing.enforce",
    "pipeline.render",
)


@dataclass
class ProfileReport:
    """Everything one profiled guard evaluation produced."""

    guard: str
    result: TransformResult
    tracer: obs.Tracer
    #: Storage actuals (None for pure in-memory runs).
    storage: Optional[dict] = None

    # -- structured accessors ----------------------------------------------

    def span_duration(self, name: str) -> Optional[float]:
        span = self.tracer.find(name)
        return span.duration if span is not None else None

    def plan_rows(self) -> list[tuple[int, str, int, str]]:
        """(depth, output name, actual rows, source label) per plan line."""
        rendered = self.result.rendered
        rows: list[tuple[int, str, int, str]] = []

        def visit(vertex: ShapeType, depth: int) -> None:
            actual = rendered.rows_for(vertex)
            rows.append((depth, vertex.out_name, actual, _source_label(vertex)))
            for child in self.result.target_shape.children(vertex):
                visit(child, depth + 1)

        for root in self.result.target_shape.roots():
            visit(root, 0)
        return rows

    def trace_json(self) -> str:
        """The run as a JSON-lines trace (spans + metrics)."""
        return obs.to_json_lines(self.tracer)

    # -- rendering ----------------------------------------------------------

    def pretty(self) -> str:
        lines = ["EXPLAIN ANALYZE", f"guard: {self.guard}", ""]
        lines.append("plan (target shape; rows = instances actually rendered):")
        for depth, name, actual, source in self.plan_rows():
            lines.append(f"{'  ' * (depth + 1)}{name}  rows={actual}  {source}")

        lines.append("")
        lines.append("timings:")
        for name in _PIPELINE_SPANS:
            duration = self.span_duration(name)
            if duration is not None:
                lines.append(f"  {name}  {obs.format_duration(duration)}")
        for span in self.tracer.iter_spans():
            if span.name.startswith("algebra."):
                stage = span.attrs.get("stage", "?")
                lines.append(
                    f"    stage {stage}: {span.name.removeprefix('algebra.')}"
                    f"  {obs.format_duration(span.duration)}"
                    f"  types={span.attrs.get('types', '?')}"
                )

        rendered = self.result.rendered
        lines.append("")
        lines.append(
            "render: "
            f"nodes_emitted={rendered.nodes_written} "
            f"nodes_read={rendered.nodes_read} "
            f"joins={rendered.joins}"
        )
        compiled = self.result.compiled_render
        lines.append(f"render.compiled: {compiled.describe()}")
        for edge in compiled.edge_plans:
            level = edge["lca_level"]
            detail = f" lca_level={level}" if level is not None else ""
            lines.append(
                f"  {edge['child']}  [{edge['kind']}]"
                f"  anchors={edge['anchor_rows']}"
                f" candidates={edge['child_rows']}{detail}"
            )
        metric_lines = obs.render_metrics(self.tracer.metrics)
        if metric_lines:
            lines.append("")
            lines.extend(metric_lines)
        if self.storage is not None:
            lines.append("")
            lines.append(
                "storage: "
                f"blocks_read={self.storage['blocks_read']} "
                f"blocks_written={self.storage['blocks_written']} "
                f"page_reads={obs.format_duration(self.storage['page_read_seconds'])} "
                f"buffer_hit_ratio={self.storage['buffer_hit_ratio']:.2f}"
            )
            plan_cache = self.storage.get("plan_cache")
            if plan_cache is not None:
                lines.append(
                    "plan cache: "
                    f"entries={plan_cache['entries']} "
                    f"hits={plan_cache['hits']} "
                    f"misses={plan_cache['misses']} "
                    f"evictions={plan_cache['evictions']} "
                    f"contended={plan_cache.get('contended', 0)}"
                )
            events = self.storage.get("events")
            serving = {
                name: count for name, count in (events or {}).items()
                if name.startswith("serve.")
            }
            if serving:
                # Lifetime serving counters (requests, timeouts, serial
                # degradations) for this database handle.
                lines.append(
                    "serving: "
                    + " ".join(f"{name}={count}" for name, count in sorted(serving.items()))
                )
            if events:
                durability = {
                    name: count for name, count in events.items()
                    if not name.startswith("serve.")
                }
                # recovery.* / fsck.* / faults.* durability counters —
                # lifetime totals for this database handle, so journal
                # replays at open show up even though they predate the
                # trace.
                if durability:
                    lines.append(
                        "durability: "
                        + " ".join(
                            f"{name}={count}"
                            for name, count in sorted(durability.items())
                        )
                    )
            timings = self.storage.get("timings") or {}
            if any(histogram.count for histogram in timings.values()):
                # Lifetime latency percentiles for this database handle.
                lines.append("latency percentiles (lifetime):")
                for name in sorted(timings):
                    histogram = timings[name]
                    if not histogram.count:
                        continue
                    lines.append(
                        f"  {name}: count={histogram.count}"
                        f" p50={obs.format_duration(histogram.p50)}"
                        f" p95={obs.format_duration(histogram.p95)}"
                        f" p99={obs.format_duration(histogram.p99)}"
                        f" max={obs.format_duration(histogram.maximum or 0.0)}"
                    )
        return "\n".join(lines)

    def span_tree(self) -> str:
        return obs.render_tree(self.tracer)


def _source_label(vertex: ShapeType) -> str:
    if vertex.source is not None:
        return f"(from {vertex.source.dotted})"
    if vertex.synthesized:
        return "(synthesized)"
    return "(new element)"


# -- entry points ----------------------------------------------------------


def profile(plan: Callable[[], TransformResult], database=None) -> ProfileReport:
    """Profile one guard evaluation: ``plan()`` returns the unread result
    (``Interpreter(source).transform(guard)`` or, with storage actuals
    from ``database``, ``database.transform(name, guard)``) and the
    tracer sees it planned and rendered."""
    tracer = obs.Tracer()
    with obs.tracing(tracer):
        result = plan()
        result.rendered  # noqa: B018 - render inside the profiled region
        result.loss  # noqa: B018 - a CAST guard's report is built on first read
    storage = _storage(database, tracer) if database is not None else None
    return ProfileReport(guard=result.guard, result=result, tracer=tracer, storage=storage)


def _storage(database, tracer: obs.Tracer) -> dict:
    """The storage actuals of a profiled run — the I/O its tracer saw —
    plus the handle's caches, lifetime events (with global failpoint
    fires) and lifetime histograms."""
    from repro.faults import FAULTS
    from repro.storage.stats import event_counts

    tracer.gauge("buffer.hit_ratio", database.pool.hit_ratio)
    metrics = tracer.metrics
    reads = metrics.histogram("storage.page_read_seconds")
    lifetime = database.stats.copy()
    events = event_counts(lifetime.counters)
    events.update(FAULTS.counters())
    return {
        "blocks_read": metrics.counter("storage.blocks_read"),
        "blocks_written": metrics.counter("storage.blocks_written"),
        "page_read_seconds": reads.total if reads is not None else 0.0,
        "buffer_hit_ratio": database.pool.hit_ratio,
        "plan_cache": database.plan_cache.stats(),
        "events": events,
        "timings": lifetime.histograms,
    }
