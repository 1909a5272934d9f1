"""Closest graphs (Definitions 1, 2 and 5), built by the closest join.

The closest graph of a collection has an (undirected) edge for every
pair of vertices whose distance equals the type distance of their types.
Every node of a type sits at the type's depth, so a pair's closeness
depends on its two types alone: the edges between types ``t`` and ``s``
are exactly the index's closest pairs of ``t`` and ``s`` (Section VII's
prefix join), and the graph is their union over the type pairs.  Each
pair costs one pass over its two type sequences plus its edges.

Information loss reads the graph (Section V-A): a transformation is
*inclusive* iff the source graph is a subset of the result's graph,
*non-additive* iff the converse, *reversible* iff both.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from repro.closeness.index import DocumentIndex
from repro.shape.types import DataType
from repro.xmltree.node import XmlForest, XmlNode

NodeKey = Hashable


class ClosestGraph:
    """An explicit closest graph over hashable vertex keys."""

    def __init__(self, vertices: set[NodeKey], edges: set[frozenset]):
        self.vertices = vertices
        self.edges = edges

    def is_subset_of(self, other: "ClosestGraph") -> bool:
        """Definition 5: ``H subseteq G`` iff vertices and edges are subsets."""
        return self.vertices <= other.vertices and self.edges <= other.edges

    def __le__(self, other: "ClosestGraph") -> bool:
        return self.is_subset_of(other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ClosestGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):  # pragma: no cover - graphs are not dict keys
        return NotImplemented

    # -- diagnostics -------------------------------------------------------

    def lost_vertices(self, result: "ClosestGraph") -> set[NodeKey]:
        """Vertices of self that are absent from ``result``."""
        return self.vertices - result.vertices

    def lost_edges(self, result: "ClosestGraph") -> set[frozenset]:
        """Closest edges of self that ``result`` does not preserve."""
        return self.edges - result.edges

    def added_edges(self, result: "ClosestGraph") -> set[frozenset]:
        """Closest edges of ``result`` that self never had."""
        return result.edges - self.edges

    def edge_count(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"<ClosestGraph |V|={len(self.vertices)} |E|={len(self.edges)}>"


def closest_graph(
    forest: XmlForest,
    key: Optional[Callable[[XmlNode], NodeKey]] = None,
) -> ClosestGraph:
    """Materialize the closest graph of a forest.

    ``key`` maps each vertex to the identity used in the graph; by
    default the vertex's Dewey id.  Passing a provenance key (output
    vertex -> source vertex) lets callers compare the closest graph of a
    transformation's output against the source's graph, as Section V-A
    prescribes.  When several output vertices map to one key (duplicated
    data) their edges are merged.
    """
    if key is None:
        key = lambda node: node.dewey  # noqa: E731 - tiny local default
    index = DocumentIndex(forest)
    return ClosestGraph(
        {key(node) for node in forest.iter_nodes()},
        closest_edges(index, index.types(), key),
    )


def closest_edges(
    index: DocumentIndex,
    types: list[DataType],
    key: Callable[[XmlNode], NodeKey],
) -> set[frozenset]:
    """The closest edges between nodes of ``types``, as ``key`` pairs.

    Same-type pairs are never joined: ``typeDistance(t, t) = 0`` is
    attained only by ``v = w``.
    """
    edges: set[frozenset] = set()
    for i, first in enumerate(types):
        for second in types[i + 1 :]:
            for v, w in index.closest_pairs(first, second):
                v_key, w_key = key(v), key(w)
                if v_key != w_key:
                    edges.add(frozenset((v_key, w_key)))
    return edges
