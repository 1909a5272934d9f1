"""The full transformation report.

The paper's interpreter emits two reports (label-to-type and
information loss); tooling wants them together with the shapes, the
output schema and the run statistics.  ``full_report`` renders all of
it as one readable document — what ``xmorph transform --reports``
prints and what a guard author reads when deciding whether to trust a
transformation.
"""

from __future__ import annotations

from repro.closeness.index import BaseIndex
from repro.engine.interpreter import TransformResult
from repro.shape.dtdgen import shape_to_dtd


def full_report(result: TransformResult, index: BaseIndex | None = None) -> str:
    """Render everything known about one guard evaluation.

    Nothing is rendered here: the statistics are the result's first
    render's (``render_counts``), or "not rendered" while it is unread.
    """
    sections: list[str] = []

    sections.append(_section("guard", result.guard.strip()))

    if index is not None:
        sections.append(_section("source shape", index.shape.pretty()))

    sections.append(_section("target shape", result.target_shape.pretty()))
    sections.append(_section("output schema (DTD)", shape_to_dtd(result.target_shape)))
    sections.append(_section("information loss", result.loss.pretty()))

    label_report = result.label_report()
    if label_report:
        sections.append(_section("label resolution", label_report))

    stats_lines = [f"compile: {result.compile_seconds * 1000:.1f} ms"]
    if result.render_counts is not None:
        written, read, joins = result.render_counts
        stats_lines += [
            f"render:  {result.render_seconds * 1000:.1f} ms",
            f"nodes read {read}, written {written}, closest joins {joins}",
        ]
    else:
        stats_lines.append("render:  (not rendered — compile only)")
    sections.append(_section("statistics", "\n".join(stats_lines)))

    return "\n\n".join(sections)


def _section(title: str, body: str) -> str:
    bar = "-" * len(title)
    return f"{title}\n{bar}\n{body}"
