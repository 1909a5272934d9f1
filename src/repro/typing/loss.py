"""Information-loss analysis (Section V-B, Theorems 1 and 2).

``analyze_loss`` compares, for ordered pairs of source-backed types in
the target shape, the source path cardinality against the predicted
target path cardinality, and produces a :class:`LossReport` that names
precisely which pair of a guard is lossy — the paper's "XMorph
identifies and reports precisely which part of a guard is lossy".  Only
pairs involving a type the guard moved can differ, so only those are
compared; the report is the one comparing every pair would give (the
tests keep that all-pairs loop as their oracle).

Type-completeness (Definition 8): the theorems reason about
transformations of *all* the types; a guard that selects a subset (a
typical ``MORPH``) trivially discards the unselected types, so those are
reported informationally as ``omitted_types`` and excluded from the
pairwise analysis, matching the paper's "it is trivial to choose any
subset of a closest graph as the source".
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional, Union

from repro.obs import tracer as obs
from repro.shape.cardinality import Card
from repro.shape.pathcard import predicted_shape
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


@dataclass(eq=False)
class LossReport:
    """The information-loss report of one guard evaluation."""

    findings: list[LossFinding] = field(default_factory=list)
    synthesized_types: list[str] = field(default_factory=list)
    #: :attr:`omitted_types`, or the call that computes it on first read.
    _omitted: Union[list[str], Callable[[], list[str]]] = field(
        default_factory=list, init=False, repr=False
    )

    @property
    def omitted_types(self) -> list[str]:
        """The dotted paths of the source types no target type uses, sorted.

        Only reports and diagnostics read them, so :func:`analyze_loss`
        leaves the call that joins them here and a compile pays nothing.
        """
        if callable(self._omitted):
            self._omitted = self._omitted()
        return self._omitted

    @omitted_types.setter
    def omitted_types(self, names: list[str]) -> None:
        self._omitted = names

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LossReport):
            return NotImplemented
        return (self.findings, self.omitted_types, self.synthesized_types) == (
            other.findings,
            other.omitted_types,
            other.synthesized_types,
        )

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


def _omitted_paths(source_shape: Shape, used: set[int]) -> list[str]:
    """The sorted dotted paths of the source types whose ids are not in
    ``used`` — read from the type paths, so a stored shape makes no
    vertex for them."""
    return sorted(
        [
            ".".join(path)  # DataType.dotted, inlined: every source type pays it
            for type_id, path in source_shape.source_paths()
            if type_id not in used
        ]
    )


#: Path cardinality of a pair in different trees of a shape forest.
_UNRELATED = Card(0, 0)
_ONE = Card.exactly_one()


def analyze_loss(
    source_shape: Shape,
    target_shape: Shape,
    source_vertex: Callable[[DataType], Optional[ShapeType]],
) -> LossReport:
    """Predict the loss properties of rendering ``target_shape``.

    ``source_vertex`` resolves a data type to its vertex in the source
    shape.  The target shape's edge cardinalities are (re)computed as
    the predicted adorned shape (Definition 7) as a side effect.

    The report is the one comparing every ordered pair of backed types
    would give, but only the pairs :func:`_rows_to_compare` keeps are
    compared, so the cost follows the types the guard moves rather than
    the shape's type count.
    """
    predicted = predicted_shape(source_shape, target_shape, source_vertex)
    return compare_pairs(source_shape, predicted, source_vertex)


def compare_pairs(
    source_shape: Shape,
    predicted: Shape,
    source_vertex: Callable[[DataType], Optional[ShapeType]],
) -> LossReport:
    """:func:`analyze_loss`'s report of a target shape that
    :func:`~repro.shape.pathcard.predicted_shape` has already annotated.

    A compile that need not enforce the report annotates the shape at
    once (Definition 7's cards are read by DTD generation, evolution
    and shape printing) and leaves this call for the report's first
    reader.
    """
    report = LossReport()

    types = predicted.types()
    backed = [t for t in types if t.source is not None]
    report.synthesized_types = [t.out_name for t in types if t.source is None]
    used = {t.source.type_id for t in backed}
    report._omitted = partial(_omitted_paths, source_shape, used)

    # TYPE-FILLed types have no source vertex, and so no relationships.
    resolved = {
        t: vertex for t in backed if (vertex := source_vertex(t.source)) is not None
    }
    source_chains, predicted_chains = _Chains(source_shape), _Chains(predicted)
    # Both entries of each second type, looked up once per type, not per pair.
    ends: dict[ShapeType, tuple[_Entry, _Entry]] = {}
    pairs = 0
    for first, seconds in _rows_to_compare(source_shape, predicted, backed, resolved):
        source_first = resolved[first]
        source_above = source_chains.entry(source_first)[0]
        above = predicted_chains.entry(first)[0]
        pairs += len(seconds)
        for second in seconds:
            end = ends.get(second)
            if end is None:
                end = ends[second] = (
                    source_chains.entry(resolved[second]),
                    predicted_chains.entry(second),
                )
            source_card = _path_card(source_above, end[0]) or _UNRELATED
            predicted_card = _path_card(above, end[1]) or _UNRELATED
            if source_card == predicted_card:
                continue  # neither theorem can fire
            for kind, violated in (
                (LossKind.LOST, source_card.min_becomes_nonzero(predicted_card)),
                (LossKind.ADDED, source_card.max_increases(predicted_card)),
            ):
                if violated:
                    report.findings.append(
                        LossFinding(
                            kind,
                            source_first.source.dotted,
                            resolved[second].source.dotted,
                            source_card,
                            predicted_card,
                            first.accept_loss or second.accept_loss,
                        )
                    )
    obs.count("typing.loss.pairs", pairs)
    _dedupe(report)
    return report


def _rows_to_compare(
    source_shape: Shape,
    predicted: Shape,
    backed: list[ShapeType],
    resolved: dict[ShapeType, ShapeType],
) -> Iterator[tuple[ShapeType, list[ShapeType]]]:
    """The ordered pairs of backed types whose comparison can change the
    report, in the order of the loop over ``backed × backed``: each first
    type with the second types it is compared against.

    A pair is skipped when it can add no finding that :func:`_dedupe`
    keeps:

    * Its types lie in different predicted trees.  The predicted
      cardinality is then ``0..0``, which fires neither theorem.
    * Both its types are *unchanged*.  A type is unchanged when each
      type on its predicted chain, from itself up to its root, is backed
      by a source vertex that backs no other target type, and each
      predicted parent on the chain by the source parent of the vertex
      below it (so the predicted edge cards are the source's).  Two
      unchanged types of one tree then meet at the same LCA in both
      shapes, with the same edge cards below it, so the two path
      cardinalities are equal.
    * It holds a *twin* other than the first two of its group.  Twins
      are leaves with one source vertex and one predicted parent (so one
      predicted edge card).  A pair holding a later twin compares the same
      cardinalities under the same names as the pair holding the first
      twin instead (between twins: as the first two), which comes
      earlier in the loop, so :func:`_dedupe` drops its findings, ``!``
      marks and all.  n copies of one label therefore cost a constant
      number of pairs, not n².  Twins must be leaves: a type below one
      copy pairs with that copy differently than with the others.

    Types missing from ``resolved`` take part in no pair.
    """
    shared = Counter(resolved.values())
    root: dict[ShapeType, ShapeType] = {}
    unchanged: dict[ShapeType, bool] = {}
    inner: set[ShapeType] = set()  # types with a predicted child
    for node, _depth in predicted.walk():  # parents before children
        parent = predicted.parent(node)
        vertex = resolved.get(node)
        kept = vertex is not None and shared[vertex] == 1
        if parent is None:
            root[node], unchanged[node] = node, kept
        else:
            inner.add(parent)
            root[node] = root[parent]
            unchanged[node] = (
                kept
                and unchanged[parent]
                and vertex is not None
                and resolved.get(parent) is source_shape.parent(vertex)
            )

    twins: dict[tuple[ShapeType, ShapeType], list[ShapeType]] = {}
    for node in backed:
        vertex, parent = resolved.get(node), predicted.parent(node)
        if vertex is not None and parent is not None and shared[vertex] > 1 and node not in inner:
            twins.setdefault((vertex, parent), []).append(node)
    partner_of: dict[ShapeType, ShapeType] = {}  # second twin -> first twin
    hidden: set[ShapeType] = set()  # third and later twins
    for group in twins.values():
        if len(group) > 1:
            partner_of[group[1]] = group[0]
            hidden.update(group[2:])

    members: dict[ShapeType, list[ShapeType]] = {}
    changed: dict[ShapeType, list[ShapeType]] = {}
    for node in backed:
        if node in resolved and node not in hidden:
            members.setdefault(root[node], []).append(node)
            if not unchanged[node]:
                changed.setdefault(root[node], []).append(node)
    for first in backed:
        if first not in resolved or first in hidden or first in partner_of:
            continue
        tree = root[first]
        seconds = [
            second
            for second in (changed.get(tree, ()) if unchanged[first] else members[tree])
            # A second twin pairs with the first twin only.
            if second is not first and partner_of.get(second, first) is first
        ]
        if seconds:
            yield first, seconds


#: A vertex's root path and its down-cardinalities (see :class:`_Chains`).
_Entry = tuple[tuple[ShapeType, ...], tuple[Card, ...]]


def _path_card(above: tuple[ShapeType, ...], entry: _Entry) -> Optional[Card]:
    """``pathCard(S, t, s)`` from ``t``'s root path and ``s``'s entry, or
    ``None`` across forest trees."""
    path, down = entry
    depth = min(len(above), len(path))
    while depth and above[depth - 1] is not path[depth - 1]:
        depth -= 1
    return down[depth - 1] if depth else None


class _Chains:
    """Root paths and down-cardinalities of one shape's vertices.

    A vertex's ``path`` runs from its root down to it, and ``down[i]``
    is the product of the edge cardinalities from ``path[i]`` down to
    the vertex.  ``pathCard(t, s)`` (Definition 6) is then ``down`` of
    ``s`` at the deepest index where the paths of ``t`` and ``s`` agree,
    their LCA.  A vertex's entry is built once, from its parent's, and
    only for vertices a compared pair reaches.
    """

    def __init__(self, shape: Shape) -> None:
        self._shape = shape
        self._entries: dict[ShapeType, _Entry] = {}

    def entry(self, vertex: ShapeType) -> _Entry:
        entries = self._entries
        entry = entries.get(vertex)
        if entry is not None:
            return entry
        pending = [vertex]
        parent = self._shape.parent(vertex)
        while parent is not None and parent not in entries:
            pending.append(parent)
            parent = self._shape.parent(parent)
        path, down = entries[parent] if parent is not None else ((), ())
        for node in reversed(pending):
            if path:
                edge = self._shape.card(path[-1], node)
                down = tuple([card * edge for card in down])
            path, down = (*path, node), (*down, _ONE)
            entries[node] = (path, down)
        return entries[vertex]


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
