"""Information-loss analysis (Section V-B, Theorems 1 and 2).

``analyze_loss`` compares, for every ordered pair of source-backed
types in the target shape, the source path cardinality against the
predicted target path cardinality, and produces a :class:`LossReport`
that names precisely which pair of a guard is lossy — the paper's
"XMorph identifies and reports precisely which part of a guard is
lossy".

Type-completeness (Definition 8): the theorems reason about
transformations of *all* the types; a guard that selects a subset (a
typical ``MORPH``) trivially discards the unselected types, so those are
reported informationally as ``omitted_types`` and excluded from the
pairwise analysis, matching the paper's "it is trivial to choose any
subset of a closest graph as the source".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs import tracer as obs
from repro.shape.cardinality import Card
from repro.shape.pathcard import path_cardinality, predicted_shape
from repro.shape.shape import Shape
from repro.shape.types import DataType, ShapeType


class GuardType(enum.Enum):
    """The paper's guard typings (Section I)."""

    STRONGLY_TYPED = "strongly-typed"
    NARROWING = "narrowing"
    WIDENING = "widening"
    WEAKLY_TYPED = "weakly-typed"

    def __str__(self) -> str:
        return self.value


class LossKind(enum.Enum):
    """What a finding says about the transformation."""

    #: Minimum path cardinality rises 0 -> non-zero: instances without a
    #: required closest partner are discarded (violates Theorem 1's
    #: condition; the transformation is potentially non-inclusive).
    LOST = "lost"
    #: Maximum path cardinality increases: closest relationships not in
    #: the source are manufactured (violates Theorem 2's condition; the
    #: transformation is potentially additive).
    ADDED = "added"


@dataclass(frozen=True, slots=True)
class LossFinding:
    """One lossy pair of types, with the cardinalities that prove it."""

    kind: LossKind
    source_type: str  # dotted path of the pair's first type
    target_type: str  # dotted path of the pair's second type
    source_card: Card
    predicted_card: Card
    accepted: bool = False  # the guard marked the spot with `!`

    def __str__(self) -> str:
        verb = "loses" if self.kind is LossKind.LOST else "adds"
        mark = " (accepted by !)" if self.accepted else ""
        return (
            f"{verb} data between {self.source_type} and {self.target_type}: "
            f"cardinality {self.source_card} in the source becomes "
            f"{self.predicted_card} in the target{mark}"
        )


@dataclass
class LossReport:
    """The information-loss report of one guard evaluation."""

    findings: list[LossFinding] = field(default_factory=list)
    omitted_types: list[str] = field(default_factory=list)
    synthesized_types: list[str] = field(default_factory=list)

    @property
    def inclusive(self) -> bool:
        """No data can be lost (Theorem 1's condition holds)."""
        return not any(f.kind is LossKind.LOST for f in self.findings)

    @property
    def non_additive(self) -> bool:
        """No data can be manufactured (Theorem 2's condition holds)."""
        return not any(f.kind is LossKind.ADDED for f in self.findings)

    @property
    def reversible(self) -> bool:
        return self.inclusive and self.non_additive

    @property
    def guard_type(self) -> GuardType:
        if self.reversible:
            return GuardType.STRONGLY_TYPED
        if self.non_additive:
            return GuardType.NARROWING
        if self.inclusive:
            return GuardType.WIDENING
        return GuardType.WEAKLY_TYPED

    def unaccepted(self) -> list[LossFinding]:
        return [f for f in self.findings if not f.accepted]

    def pretty(self) -> str:
        lines = [f"guard type: {self.guard_type}"]
        lines.extend(f"  - {finding}" for finding in self.findings)
        if self.omitted_types:
            lines.append(f"  omitted source types: {', '.join(self.omitted_types)}")
        if self.synthesized_types:
            lines.append(f"  synthesized types: {', '.join(self.synthesized_types)}")
        return "\n".join(lines)


#: Path cardinality of a pair in different trees of a shape forest.
_UNRELATED = Card(0, 0)


def analyze_loss(
    source_shape: Shape,
    target_shape: Shape,
    source_vertex: Callable[[DataType], Optional[ShapeType]],
) -> LossReport:
    """Predict the loss properties of rendering ``target_shape``.

    ``source_vertex`` resolves a data type to its vertex in the source
    shape.  The target shape's edge cardinalities are (re)computed as
    the predicted adorned shape (Definition 7) as a side effect.
    """
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

    # Definition 6 is evaluated for exactly the ordered pairs the guard
    # names, never tabulated over the whole source shape.
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
    obs.count("typing.loss.pairs", pairs)
    _dedupe(report)
    return report


def _dedupe(report: LossReport) -> None:
    """Collapse symmetric duplicates: keep one finding per unordered pair."""
    seen: set[tuple[LossKind, frozenset]] = set()
    unique: list[LossFinding] = []
    for finding in report.findings:
        key = (finding.kind, frozenset((finding.source_type, finding.target_type)))
        if key in seen:
            continue
        seen.add(key)
        unique.append(finding)
    report.findings = unique
