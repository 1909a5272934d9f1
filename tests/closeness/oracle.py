"""The brute-force closest graph: the oracle for the closest join.

Definitions 1, 2 and 5 read literally: two passes over every pair of
vertices, each pair a ``Dewey.distance``.  Pass 1 finds each type
pair's minimum distance, pass 2 keeps the pairs at exactly that
distance.  It is O(n²) and shares no code with
:mod:`repro.closeness.index`, which is why the tests hold the index,
:func:`repro.closeness.closest_graph` and
:func:`repro.typing.quantify.quantify_loss` to it
(:func:`brute_force_loss` is the last one's arithmetic on oracle graphs).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.closeness import ClosestGraph
from repro.closeness.graph import NodeKey
from repro.engine.interpreter import TransformResult
from repro.typing.quantify import LossQuantification
from repro.xmltree.node import XmlForest, XmlNode


def brute_force_closest_graph(
    forest: XmlForest,
    key: Optional[Callable[[XmlNode], NodeKey]] = None,
) -> ClosestGraph:
    """Materialize the closest graph of a forest, brute force.

    ``key`` maps each vertex to the identity used in the graph; by
    default the vertex's Dewey id.  When several vertices map to one key
    their edges are merged.
    """
    if key is None:
        key = lambda node: node.dewey  # noqa: E731 - tiny local default

    nodes = list(forest.iter_nodes())
    type_of = {id(node): node.type_path() for node in nodes}

    # Pass 1: exact type distances (minimum pairwise distance per type pair).
    type_distance: dict[frozenset, int] = {}
    for i, first in enumerate(nodes):
        first_type = type_of[id(first)]
        for second in nodes[i + 1 :]:
            distance = first.dewey.distance(second.dewey)
            if distance is None:
                continue
            pair = frozenset((first_type, type_of[id(second)]))
            if len(pair) == 1:
                # Same-type pairs: typeDistance(t, t) = 0 (attained by
                # v = w), so distinct same-type vertices are never closest.
                continue
            best = type_distance.get(pair)
            if best is None or distance < best:
                type_distance[pair] = distance

    # Pass 2: closest edges = pairs at exactly the type distance.
    edges: set[frozenset] = set()
    for i, first in enumerate(nodes):
        first_type = type_of[id(first)]
        for second in nodes[i + 1 :]:
            second_type = type_of[id(second)]
            if first_type == second_type:
                continue
            distance = first.dewey.distance(second.dewey)
            if distance is None:
                continue
            if distance == type_distance[frozenset((first_type, second_type))]:
                first_key, second_key = key(first), key(second)
                if first_key != second_key:
                    edges.add(frozenset((first_key, second_key)))

    return ClosestGraph({key(node) for node in nodes}, edges)


def brute_force_loss(source: XmlForest, result: TransformResult) -> LossQuantification:
    """:func:`repro.typing.quantify.quantify_loss`'s arithmetic over two
    oracle graphs: the whole source graph, restricted to the types the
    output keeps afterwards, against the output's graph under the
    provenance key (a vertex no source node backs is ``("new", id)``)."""
    rendered = result.rendered
    used_paths = {
        t.source.path for t in result.target_shape.types() if t.source is not None
    }
    participating = {
        node.dewey for node in source.iter_nodes() if node.type_path() in used_paths
    }
    source_edges = {
        edge
        for edge in brute_force_closest_graph(source).edges
        if edge <= participating
    }

    def key(node):
        origin = rendered.source_of(node)
        return ("new", id(node)) if origin is None else origin.dewey

    result_graph = brute_force_closest_graph(result.forest, key=key)
    new = {v for v in result_graph.vertices if isinstance(v, tuple) and v[0] == "new"}
    result_edges = {edge for edge in result_graph.edges if not edge & new}
    return LossQuantification(
        source_vertices=len(participating),
        source_edges=len(source_edges),
        preserved_edges=len(source_edges & result_edges),
        lost_edges=len(source_edges - result_edges),
        added_edges=len(result_edges - source_edges),
        lost_vertices=len(participating - (result_graph.vertices - new)),
        manufactured_vertices=len(new),
    )
