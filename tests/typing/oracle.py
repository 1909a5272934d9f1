"""The all-pairs loss analysis and Table I: the oracles of Section V.

``pairwise_loss`` is the loss analysis as it was before it learned to
skip pairs: Definition 6 evaluated on the source and on the predicted
shape for *every* ordered pair of the target's source-backed types,
then deduplicated.  ``repro.typing.loss.analyze_loss`` compares only
the pairs a guard can have changed; the tests hold the two to equal
reports.  ``path_cardinality_table`` is the paper's Table I, every
ordered pair of one shape's types.  Both are quadratic in the type
count by construction, which is why neither lives in ``src/``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.shape.cardinality import Card
from repro.shape.pathcard import path_cardinality, predicted_shape
from repro.shape.shape import Shape
from repro.shape.types import DataType, ShapeType
from repro.typing.loss import LossFinding, LossKind, LossReport, _dedupe

#: Path cardinality of a pair in different trees of a shape forest.
_UNRELATED = Card(0, 0)


def path_cardinality_table(shape: Shape) -> dict[tuple[ShapeType, ShapeType], Card]:
    """All ordered pairs ``(t, s) -> pathCard(S, t, s)`` (Table I).

    Pairs in different trees of the forest are omitted.
    """
    types = shape.types()
    return {
        (source, target): card
        for source in types
        for target in types
        if (card := path_cardinality(shape, source, target)) is not None
    }


def pairwise_loss(
    source_shape: Shape,
    target_shape: Shape,
    source_vertex: Callable[[DataType], Optional[ShapeType]],
) -> LossReport:
    """``analyze_loss`` by evaluating every ordered pair of backed types."""
    predicted = predicted_shape(source_shape, target_shape, source_vertex)
    report = LossReport()

    backed = [t for t in predicted.types() if t.source is not None]
    report.synthesized_types = [
        t.out_name for t in predicted.types() if t.source is None
    ]
    used_sources = {t.source for t in backed}
    report.omitted_types = sorted(
        vertex.source.dotted
        for vertex in source_shape.types()
        if vertex.source is not None and vertex.source not in used_sources
    )

    resolved = {
        t: source_vertex(t.source) for t in backed
    }

    pairs = 0
    for first in backed:
        source_first = resolved[first]
        if source_first is None:
            continue  # TYPE-FILLed types have no source relationships
        for second in backed:
            if first is second:
                continue
            source_second = resolved[second]
            if source_second is None:
                continue
            pairs += 1
            source_card = (
                path_cardinality(source_shape, source_first, source_second)
                or _UNRELATED
            )
            predicted_card = path_cardinality(predicted, first, second) or _UNRELATED
            accepted = first.accept_loss or second.accept_loss
            for kind, violated in (
                (LossKind.LOST, source_card.min_becomes_nonzero(predicted_card)),
                (LossKind.ADDED, source_card.max_increases(predicted_card)),
            ):
                if violated:
                    report.findings.append(
                        LossFinding(
                            kind,
                            source_first.source.dotted,
                            source_second.source.dotted,
                            source_card,
                            predicted_card,
                            accepted,
                        )
                    )
    _dedupe(report)
    return report
