"""Shape and collection statistics.

A DataGuide is also the natural place to summarize a collection: how
many types, how deep, how bushy, how text-heavy.  These are the numbers
a guard author looks at before writing a transformation (and the ones
Figure 15's analysis turns on — text density drives throughput).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.closeness.index import DocumentIndex
from repro.shape.shape import Shape
from repro.xmltree.node import XmlForest


@dataclass(frozen=True, slots=True)
class ShapeStatistics:
    """Summary of one collection's shape and content."""

    type_count: int
    node_count: int
    max_depth: int
    average_depth: float
    max_fanout: int  # most child types under one type
    leaf_types: int
    attribute_types: int
    text_bytes: int
    text_density: float  # text bytes per node

    def pretty(self) -> str:
        return "\n".join(
            [
                f"types:           {self.type_count}",
                f"nodes:           {self.node_count}",
                f"depth:           max {self.max_depth}, avg {self.average_depth:.1f}",
                f"max type fanout: {self.max_fanout}",
                f"leaf types:      {self.leaf_types}",
                f"attribute types: {self.attribute_types}",
                f"text:            {self.text_bytes} bytes "
                f"({self.text_density:.1f} per node)",
            ]
        )


def collection_statistics(source: XmlForest | DocumentIndex) -> ShapeStatistics:
    """Compute statistics for a forest (or a prebuilt index)."""
    index = source if isinstance(source, DocumentIndex) else DocumentIndex(source)
    shape = index.shape

    depths = [t.source.level for t in shape.types()]
    fanouts = [len(shape.children(t)) for t in shape.types()]
    node_count = 0
    text_bytes = 0
    depth_total = 0
    for data_type in index.types():
        sequence = index.nodes_of(data_type)
        node_count += len(sequence)
        depth_total += data_type.level * len(sequence)
        text_bytes += sum(map(len, sequence.values))

    return ShapeStatistics(
        type_count=len(shape.types()),
        node_count=node_count,
        max_depth=max(depths) if depths else 0,
        average_depth=depth_total / node_count if node_count else 0.0,
        max_fanout=max(fanouts) if fanouts else 0,
        leaf_types=sum(1 for fanout in fanouts if fanout == 0),
        attribute_types=sum(
            1 for t in shape.types() if index.is_attribute.get(t.source, False)
        ),
        text_bytes=text_bytes,
        text_density=text_bytes / node_count if node_count else 0.0,
    )


def shape_depth_histogram(shape: Shape) -> dict[int, int]:
    """types per depth level (the skinny-vs-bushy fingerprint)."""
    histogram: dict[int, int] = {}
    for vertex, depth in shape.walk():
        histogram[depth] = histogram.get(depth, 0) + 1
    return histogram
