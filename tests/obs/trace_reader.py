"""A reader of ``repro.obs.export.to_json_lines`` traces: the round-trip check.

``to_json_lines`` writes the format; the tests read it back with
:func:`from_json_lines` into a span forest plus metrics and compare
against the live tracer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.metrics import MetricsRegistry


@dataclass
class SpanRecord:
    """A deserialized span (tree-shaped, like the live :class:`Span`)."""

    name: str
    start: float
    duration: float
    attrs: dict
    status: str = "ok"
    children: list["SpanRecord"] = field(default_factory=list)


@dataclass
class TraceRecord:
    """A deserialized trace: span forest plus metrics."""

    roots: list[SpanRecord]
    metrics: MetricsRegistry
    #: Request trace id when the trace was request-scoped (else None).
    trace_id: Optional[str] = None
    #: Extra fields of the header record (doc, guard, timings...).
    header: dict = field(default_factory=dict)

    def find(self, name: str) -> Optional[SpanRecord]:
        stack = list(reversed(self.roots))
        while stack:
            record = stack.pop()
            if record.name == name:
                return record
            stack.extend(reversed(record.children))
        return None

    def span_names(self) -> list[str]:
        names: list[str] = []
        stack = list(reversed(self.roots))
        while stack:
            record = stack.pop()
            names.append(record.name)
            stack.extend(reversed(record.children))
        return names


def from_json_lines(text: str) -> TraceRecord:
    """Parse :func:`to_json_lines` output back into a span forest."""
    roots: list[SpanRecord] = []
    by_id: dict[int, SpanRecord] = {}
    metrics = MetricsRegistry()
    trace_id: Optional[str] = None
    header: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        kind = data.get("type")
        if kind == "trace":
            trace_id = data.get("trace_id")
            header = {
                key: value
                for key, value in data.items()
                if key not in ("type", "version", "trace_id")
            }
        elif kind == "span":
            record = SpanRecord(
                name=data["name"],
                start=data["start"],
                duration=data["duration"],
                attrs=data.get("attrs", {}),
                status=data.get("status", "ok"),
            )
            by_id[data["id"]] = record
            parent = data.get("parent")
            if parent is None:
                roots.append(record)
            else:
                by_id[parent].children.append(record)
        elif kind == "metrics":
            metrics = MetricsRegistry.from_dict(data)
    return TraceRecord(roots=roots, metrics=metrics, trace_id=trace_id, header=header)
