"""Path cardinality (Definition 6) and the predicted adorned shape (Definition 7).

``pathCard(S, t, s)`` is the cardinality of the relationship *from* a
node of type ``t`` *to* the nodes of type ``s``: walk up from ``t`` to
the least common ancestor (always ``1..1`` upward) and multiply the edge
cardinalities down from the LCA to ``s``.  Table I of the paper is the
matrix of these values for the bibliography shape (the tests tabulate
it; nothing here enumerates type pairs); the information-loss theorems
compare source path cardinalities against the *predicted* cardinalities
of the target shape.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.shape.cardinality import Card
from repro.shape.shape import Shape
from repro.shape.types import DataType, ShapeType


def path_cardinality(shape: Shape, source: ShapeType, target: ShapeType) -> Optional[Card]:
    """``pathCard(S, source, target)``, or ``None`` across forest trees.

    ``pathCard(S, t, t)`` is ``1..1`` (the empty downward path).
    """
    above = {source, *shape.ancestors(source)}
    card = Card.exactly_one()
    node = target
    while node not in above:  # climb from the target to the LCA
        up = shape.parent(node)
        if up is None:
            return None
        card = shape.card(up, node) * card
        node = up
    return card


def predicted_shape(
    source_shape: Shape,
    target_shape: Shape,
    source_vertex: Callable[[DataType], Optional[ShapeType]],
) -> Shape:
    """Annotate ``target_shape`` with predicted cardinalities (Definition 7).

    Every edge ``(t, u)`` of the target gets the cardinality
    ``pathCard(S, src(t), src(u))`` computed on the *source* shape, where
    ``src`` resolves a target type's backing data type to its vertex in
    the source shape via ``source_vertex``.  Edges whose parent or child
    is a ``NEW`` type (no source backing) keep ``1..1``: a new element
    wraps each instance of its leading child, a one-to-one relationship,
    so it is cardinality-transparent for paths that pass through it.

    The annotation is in place; the target shape is returned.
    """
    for edge in list(target_shape.edges()):
        parent_source = edge.parent.source
        child_source = edge.child.source
        if parent_source is None or child_source is None:
            target_shape.set_card(edge.parent, edge.child, Card.exactly_one())
            continue
        upper = source_vertex(parent_source)
        lower = source_vertex(child_source)
        if upper is None or lower is None:
            # A TYPE-FILLed type that does not exist in the source.
            target_shape.set_card(edge.parent, edge.child, Card.exactly_one())
            continue
        card = path_cardinality(source_shape, upper, lower)
        if card is None:
            # No relationship in the source: predicted minimum is zero
            # (nothing guarantees a closest partner) and the maximum is
            # unbounded (the closest join may fan out arbitrarily).
            card = Card.any_number()
        target_shape.set_card(edge.parent, edge.child, card)
    return target_shape
