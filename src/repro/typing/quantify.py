"""Quantified information loss (the paper's Section X refinement).

The type system gives four *coarse* verdicts; the paper suggests
refining them to quantities ("the transformation manufactures 30% new
information").  This module measures the actual quantities by
materializing the closest graphs of the source and of the rendered
output (output vertices mapped back to their source vertices through
render provenance) and comparing edge sets.

Both graphs come from the closest join, so the cost is the index builds
plus the edges: the source side joins only the types the guard keeps.
The report is still a *diagnostic* run after rendering — exactly the
role the paper assigns it; the cardinality-based analysis remains the
gate a guard passes before it renders.  A guard that keeps every type
of a wide document is bounded by its output: every pair of fields that
meet at the root is an edge.

Semantics note: the measurement is *strict* — the output's closest
graph is recomputed from the output document's own structure.  Under
this reading edge sets can drift in both directions even for guards the
analysis certifies, because rearrangement changes type distances
between types the guard never relates (the theorems' proofs assume
closest edges are carried over; vertex preservation is what they
actually establish, and fuzzing confirms vertex soundness holds —
see tests/integration/test_theorems.py).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.closeness import DocumentIndex
from repro.closeness.graph import closest_edges, closest_graph
from repro.engine.interpreter import TransformResult
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XmlForest


@dataclass(frozen=True, slots=True)
class LossQuantification:
    """Measured (not predicted) loss/addition of one transformation."""

    source_vertices: int
    source_edges: int
    preserved_edges: int
    lost_edges: int
    added_edges: int
    lost_vertices: int
    manufactured_vertices: int  # NEW/synthesized output nodes

    @property
    def percent_lost(self) -> float:
        """Share of the source's closest edges that did not survive."""
        if self.source_edges == 0:
            return 0.0
        return 100.0 * self.lost_edges / self.source_edges

    @property
    def percent_added(self) -> float:
        """Manufactured closest edges relative to the source's."""
        if self.source_edges == 0:
            return 0.0 if self.added_edges == 0 else 100.0
        return 100.0 * self.added_edges / self.source_edges

    @property
    def reversible(self) -> bool:
        return self.lost_edges == 0 and self.added_edges == 0 and self.lost_vertices == 0

    def summary(self) -> str:
        return (
            f"loses {self.percent_lost:.1f}% and manufactures "
            f"{self.percent_added:.1f}% of closest relationships "
            f"({self.lost_vertices} vertices dropped, "
            f"{self.manufactured_vertices} new vertices)"
        )


def quantify_loss(source: XmlForest, result: TransformResult) -> LossQuantification:
    """Measure exactly how much a rendered transformation lost/added.

    Only the types present in the output participate (a ``MORPH``
    legitimately selects a subset; omitted types are not counted as
    losses, mirroring Definition 8's type-completeness scoping).
    """
    if result.rendered is None:
        raise ValueError("transformation was not rendered")

    rendered = result.rendered
    used_paths = {
        t.source.path for t in result.target_shape.types() if t.source is not None
    }

    # The source's closest edges among the participating types: a pair's
    # closeness depends on its two types alone, so joining only these
    # types is the full graph restricted to them.
    index = DocumentIndex(source)
    types = [t for t in index.types() if t.path in used_paths]
    participating = {node.dewey for t in types for node in index.nodes_of(t)}
    source_edges = closest_edges(index, types, lambda node: node.dewey)

    def key(node):
        origin = rendered.source_of(node)
        return ("new", id(node)) if origin is None else origin.dewey

    result_graph = closest_graph(result.forest, key=key)
    surviving = {v for v in result_graph.vertices if isinstance(v, Dewey)}
    result_edges = {edge for edge in result_graph.edges if edge <= surviving}

    preserved = source_edges & result_edges
    return LossQuantification(
        source_vertices=len(participating),
        source_edges=len(source_edges),
        preserved_edges=len(preserved),
        lost_edges=len(source_edges - result_edges),
        added_edges=len(result_edges - source_edges),
        lost_vertices=len(participating - surviving),
        manufactured_vertices=len(result_graph.vertices) - len(surviving),
    )
