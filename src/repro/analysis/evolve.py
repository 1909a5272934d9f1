"""Schema-evolution compatibility analysis (the ``xmorph evolve`` engine).

The paper's central scenario is a DBA revising the document arrangement
while the underlying types survive.  This module decides *statically*
which guards keep working across such a revision, instead of letting
serving traffic discover the breakage at run time: given an old shape,
a new shape, and a corpus of guards (with optional companion queries),
every guard is classified as

* **compatible** — same output shape, same predicted cardinalities,
  loss-free status preserved; running the guard against documents
  shredded under either shape produces identical results (the
  preservation property the tree-transducer literature proves decidable
  for this transformation class);
* **degraded** — the guard still evaluates, but its output shape,
  predicted cardinalities, or information-loss status change (e.g. a
  previously loss-free guard now narrows and the interpreter would
  demand a ``CAST``);
* **broken** — the guard (or its companion query) references types or
  paths the evolved shape cannot produce.

Each finding is a source-spanned ``XM6xx`` diagnostic pointing at the
offending guard clause, with a ``related`` note pointing at the line of
the rendered shape diff (the ``<evolution>`` source) that caused it.

The analysis composes existing machinery rather than re-deriving it:
:func:`repro.shape.diff.diff_shapes` supplies the type-level change
classification, :func:`repro.analysis.checker.analyze_index` re-runs
the guard symbolically (type analysis + loss prediction, no rendering)
against both shapes, and the path-producibility check of
:mod:`repro.analysis.compat` is what grades the companion queries.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from repro.analysis.checker import (
    EXIT_CLEAN,
    EXIT_ERRORS,
    EXIT_WARNINGS_STRICT,
    AnalysisResult,
    analyze_index,
)
from repro.analysis.diagnostics import Diagnostic, Severity, sort_key
from repro.analysis.render import render_github, render_text
from repro.lang.span import Span
from repro.shape.diff import ShapeDiff, TypeChange, diff_shapes
from repro.shape.shape import Shape
from repro.shape.types import ShapeType

#: The three verdicts, in decreasing order of health.
VERDICT_COMPATIBLE = "compatible"
VERDICT_DEGRADED = "degraded"
VERDICT_BROKEN = "broken"
VERDICTS = (VERDICT_COMPATIBLE, VERDICT_DEGRADED, VERDICT_BROKEN)

#: Error codes that mean "the guard would be *rejected*, not mis-run":
#: a new unpermitted loss is a degradation (add a CAST and it runs),
#: anything else on the new side breaks the guard outright.
_LOSS_CODES = ("XM301", "XM302")


@dataclass(frozen=True, slots=True)
class GuardSpec:
    """One guard of an evolution corpus."""

    name: str
    guard: str
    query: Optional[str] = None
    #: Originating file, when loaded from a directory (drives the
    #: ``--format=github`` ``file=`` annotation property).
    path: Optional[str] = None


@dataclass
class GuardVerdict:
    """The evolution analysis of one guard."""

    name: str
    guard: str
    query: Optional[str]
    verdict: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    old: Optional[AnalysisResult] = None
    new: Optional[AnalysisResult] = None
    evolution_text: str = ""
    path: Optional[str] = None

    @property
    def sources(self) -> dict[str, str]:
        sources = {"<guard>": self.guard, "<evolution>": self.evolution_text}
        if self.query is not None:
            sources["<query>"] = self.query
        return sources

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def render_text(self) -> str:
        return render_text(self.diagnostics, self.sources)

    def summary(self) -> str:
        counts = {
            "error": len(self.errors),
            "warning": len(self.warnings),
            "note": len(self.diagnostics) - len(self.errors) - len(self.warnings),
        }
        shown = ", ".join(f"{n} {label}(s)" for label, n in counts.items() if n)
        return f"{self.name}: {self.verdict}" + (f" ({shown})" if shown else "")

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "verdict": self.verdict,
            "guard": self.guard,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
        if self.query is not None:
            payload["query"] = self.query
        if self.path is not None:
            payload["path"] = self.path
        return payload


@dataclass
class EvolutionReport:
    """Everything one evolution analysis produced."""

    diff: ShapeDiff
    evolution_text: str
    verdicts: list[GuardVerdict] = field(default_factory=list)
    #: Report-level notes (XM607 ambiguous-pairing findings).
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        counts = {verdict: 0 for verdict in VERDICTS}
        for verdict in self.verdicts:
            counts[verdict.verdict] += 1
        return counts

    @property
    def compatible(self) -> list[GuardVerdict]:
        return [v for v in self.verdicts if v.verdict == VERDICT_COMPATIBLE]

    @property
    def degraded(self) -> list[GuardVerdict]:
        return [v for v in self.verdicts if v.verdict == VERDICT_DEGRADED]

    @property
    def broken(self) -> list[GuardVerdict]:
        return [v for v in self.verdicts if v.verdict == VERDICT_BROKEN]

    def verdict_of(self, name: str) -> Optional[str]:
        for verdict in self.verdicts:
            if verdict.name == name:
                return verdict.verdict
        return None

    def exit_code(self, strict: bool = False) -> int:
        """Lint-style: 0 all compatible, 1 any broken, 2 degraded+strict."""
        if self.broken:
            return EXIT_ERRORS
        if strict and self.degraded:
            return EXIT_WARNINGS_STRICT
        return EXIT_CLEAN

    def summary(self) -> str:
        counts = self.counts
        shown = ", ".join(f"{counts[v]} {v}" for v in VERDICTS)
        return f"{len(self.verdicts)} guard(s): {shown}"

    def render_text(self) -> str:
        lines = ["== shape evolution =="]
        lines.append(self.evolution_text)
        if self.diagnostics:
            lines.append(
                render_text(self.diagnostics, {"<evolution>": self.evolution_text})
            )
        for verdict in self.verdicts:
            lines.append("")
            lines.append(f"== {verdict.name}: {verdict.verdict} ==")
            body = verdict.render_text()
            if body:
                lines.append(body)
        lines.append("")
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": "xmorph-evolve/v1",
            "diff": {
                "changes": [
                    {"kind": c.kind, "name": c.name, "detail": c.detail}
                    for c in self.diff.changes
                ],
                "notes": list(self.diff.notes),
                "unchanged": len(self.diff.unchanged),
            },
            "guards": [verdict.to_dict() for verdict in self.verdicts],
            "counts": self.counts,
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render_github(self) -> str:
        lines = []
        for verdict in self.verdicts:
            rendered = render_github(verdict.diagnostics, file=verdict.path)
            if rendered:
                lines.append(rendered)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


GuardsInput = Union[
    str, GuardSpec, Mapping[str, str], Iterable[Union[GuardSpec, tuple, str]]
]


def analyze_evolution(old_source, new_source, guards: GuardsInput) -> EvolutionReport:
    """Classify every guard's compatibility across a shape evolution.

    ``old_source`` / ``new_source`` may be raw XML text, a parsed
    :class:`~repro.xmltree.XmlForest`, or a prebuilt
    :class:`~repro.closeness.index.BaseIndex` (in-memory or stored).
    ``guards`` may be one guard string, a ``{name: guard}`` mapping, or
    an iterable of :class:`GuardSpec` / ``(name, guard[, query])``.
    """
    old_index = as_index(old_source)
    new_index = as_index(new_source)
    diff = diff_shapes(old_index.shape, new_index.shape)
    evolution_text = diff.pretty()
    report = EvolutionReport(diff=diff, evolution_text=evolution_text)
    for position, note in enumerate(diff.notes):
        report.diagnostics.append(
            Diagnostic(
                "XM607",
                Severity.INFO,
                note,
                span=_evolution_span(evolution_text, len(diff.changes) + position),
                source_name="<evolution>",
            )
        )
    for spec in _as_specs(guards):
        report.verdicts.append(
            check_guard_evolution(
                old_index,
                new_index,
                spec.guard,
                spec.query,
                diff=diff,
                evolution_text=evolution_text,
                name=spec.name,
                path=spec.path,
            )
        )
    return report


def check_guard_evolution(
    old_index,
    new_index,
    guard: str,
    query: Optional[str] = None,
    *,
    diff: Optional[ShapeDiff] = None,
    evolution_text: Optional[str] = None,
    name: str = "guard",
    path: Optional[str] = None,
) -> GuardVerdict:
    """Classify one guard's compatibility across a shape evolution."""
    if diff is None:
        diff = diff_shapes(old_index.shape, new_index.shape)
    if evolution_text is None:
        evolution_text = diff.pretty()
    old_result = analyze_index(old_index, guard, query)
    new_result = analyze_index(new_index, guard, query)
    verdict = GuardVerdict(
        name=name,
        guard=guard,
        query=query,
        verdict=VERDICT_COMPATIBLE,
        old=old_result,
        new=new_result,
        evolution_text=evolution_text,
        path=path,
    )
    _classify(verdict, diff, evolution_text, old_index, new_index)
    verdict.diagnostics.sort(key=sort_key)
    return verdict


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _classify(
    verdict: GuardVerdict,
    diff: ShapeDiff,
    evolution_text: str,
    old_index,
    new_index,
) -> None:
    old, new = verdict.old, verdict.new
    assert old is not None and new is not None
    broken = False
    degraded = False

    # -- 1. label producibility: XM601 -----------------------------------
    for old_site, new_site in zip(old.sites, new.sites):
        if not new_site.checked or new_site.matched or new_site.span is None:
            continue
        clause = (
            f"the {new_site.dead_head} clause label"
            if new_site.dead_head
            else "label"
        )
        if old_site.matched:
            before = ", ".join(old_site.resolved) or f"{old_site.matched} type(s)"
            message = (
                f"{clause} {new_site.label!r} matched {before} in the old "
                "shape but matches nothing in the evolved shape"
            )
        else:
            message = (
                f"{clause} {new_site.label!r} matches nothing in either shape "
                "(the guard was broken before the evolution too)"
            )
        broken = True
        verdict.diagnostics.append(
            Diagnostic(
                "XM601",
                Severity.ERROR,
                message,
                span=new_site.span,
                hint="revise the guard for the new arrangement, or wrap it "
                "in TYPE-FILL to synthesize the missing type",
                related=_change_note(
                    "XM601", new_site.label, diff, evolution_text
                ),
            )
        )

    # -- 2. query producibility: XM602 ------------------------------------
    old_query_paths = _unproducible_query_paths(old)
    for diagnostic in new.diagnostics:
        if diagnostic.code != "XM404":
            continue
        if diagnostic.message in old_query_paths:
            continue  # was already unproducible before the evolution
        broken = True
        verdict.diagnostics.append(
            Diagnostic(
                "XM602",
                Severity.ERROR,
                diagnostic.message
                + " — this path was producible before the evolution",
                span=diagnostic.span,
                hint=diagnostic.hint,
                source_name="<query>",
                related=_evolution_note("XM602", diff, evolution_text),
            )
        )

    # -- 3. other hard errors on the evolved side carry over ---------------
    for diagnostic in new.errors:
        if diagnostic.code in _LOSS_CODES or diagnostic.code in ("XM201", "XM403"):
            continue  # XM201/XM403 became XM601; loss errors become XM604
        broken = True
        verdict.diagnostics.append(diagnostic)

    if broken:
        verdict.verdict = VERDICT_BROKEN
        return

    # -- 4. output shape and loss comparison -------------------------------
    old_shape, new_shape = old.target_shape, new.target_shape
    if old_shape is None or new_shape is None:
        # The old side never evaluated but the new side did (or vice
        # versa without errors) — treat as a degradation we cannot
        # compare further.
        verdict.verdict = VERDICT_DEGRADED
        return

    if _output_tree(old_shape) != _output_tree(new_shape):
        degraded = True
        verdict.diagnostics.append(
            Diagnostic(
                "XM603",
                Severity.WARNING,
                "the guard's output shape changes across the evolution: was "
                f"'{_shape_sketch(old_shape)}', becomes "
                f"'{_shape_sketch(new_shape)}'",
                span=_anchor_span(new, _tree_difference(old_shape, new_shape)),
                related=_evolution_note("XM603", diff, evolution_text),
            )
        )
    else:
        for path_text, child_name, old_card, new_card in _card_changes(
            old_shape, new_shape
        ):
            degraded = True
            verdict.diagnostics.append(
                Diagnostic(
                    "XM605",
                    Severity.WARNING,
                    f"predicted cardinality of '{path_text}' changes "
                    f"{old_card} -> {new_card} across the evolution "
                    "(the guard's grouping will differ)",
                    span=_anchor_span(new, child_name),
                    related=_change_note(
                        "XM605", child_name, diff, evolution_text
                    ),
                )
            )
        for root, source_path, old_count, new_count in _root_count_changes(
            old_shape, new_shape, old_index, new_index
        ):
            degraded = True
            verdict.diagnostics.append(
                Diagnostic(
                    "XM605",
                    Severity.WARNING,
                    f"predicted number of {root.out_name!r} output roots "
                    f"changes {old_count} -> {new_count} across the "
                    f"evolution (the anchor {source_path} gained or lost "
                    "instances)",
                    span=_anchor_span(new, root.out_name),
                    related=_change_note(
                        "XM605", source_path, diff, evolution_text
                    ),
                )
            )

    if _loss_signature(old.loss) != _loss_signature(new.loss):
        degraded = True
        old_type = old.loss.guard_type if old.loss is not None else "?"
        new_type = new.loss.guard_type if new.loss is not None else "?"
        detail = _loss_transition_detail(old, new)
        verdict.diagnostics.append(
            Diagnostic(
                "XM604",
                Severity.WARNING,
                f"information-loss status changes across the evolution: "
                f"{old_type} -> {new_type}{detail}",
                span=_loss_anchor(new),
                hint=(
                    "the interpreter will reject the guard without a CAST "
                    "under the new shape"
                    if any(d.code in _LOSS_CODES for d in new.errors)
                    else None
                ),
                related=_evolution_note("XM604", diff, evolution_text),
            )
        )

    # -- 5. resolution drift: XM606 ----------------------------------------
    # Informational while every label still lands on the type the
    # evolution carried its old type to.  A label that settles on a
    # *different* type (an ambiguous label whose other candidate became
    # the closest) reads other data into an equally-shaped output.
    pairing = _type_pairing(old_index.shape, new_index.shape, diff)
    carried = {pairing.get(path) for path in _backing_paths(old_shape)}
    for path in sorted(_backing_paths(new_shape) - carried):
        degraded = True
        verdict.diagnostics.append(
            Diagnostic(
                "XM606",
                Severity.WARNING,
                f"the guard's output reads {path} after the evolution, which "
                "is not a type it read before (the label resolves to a "
                "different one of its candidate types)",
                span=_anchor_span(new, _tail(path)),
                related=_change_note("XM606", path, diff, evolution_text),
            )
        )
    for old_site, new_site in zip(old.sites, new.sites):
        if not old_site.resolved or not new_site.resolved:
            continue
        if set(old_site.resolved) == set(new_site.resolved):
            continue
        verdict.diagnostics.append(
            Diagnostic(
                "XM606",
                Severity.INFO,
                f"label {new_site.label!r} resolved to "
                f"{', '.join(sorted(old_site.resolved))} before the evolution; "
                f"it now resolves to {', '.join(sorted(new_site.resolved))}",
                span=new_site.span,
                related=_change_note(
                    "XM606", new_site.label, diff, evolution_text
                ),
            )
        )

    verdict.verdict = VERDICT_DEGRADED if degraded else VERDICT_COMPATIBLE


def _unproducible_query_paths(result: AnalysisResult) -> set[str]:
    return {d.message for d in result.diagnostics if d.code == "XM404"}


# ---------------------------------------------------------------------------
# Output-shape comparison
# ---------------------------------------------------------------------------


def _output_tree(shape: Shape, with_cards: bool = False) -> tuple:
    """Order-insensitive output structure, ignoring backing source paths.

    Source root paths are exactly what an evolution rewrites, so two
    equivalent outputs compare equal only when sources are excluded —
    unlike :meth:`Shape.fingerprint`, which keys on them.
    """

    def describe(vertex) -> tuple:
        children = tuple(
            sorted(
                (
                    str(shape.card(vertex, child)) if with_cards else "",
                    describe(child),
                )
                for child in shape.children(vertex)
            )
        )
        return (vertex.out_name.lower(), children)

    return tuple(sorted(describe(root) for root in shape.roots()))


def _backing_paths(shape: Shape) -> set[str]:
    """Dotted root paths of the source types behind a target shape."""
    return {
        vertex.source.dotted for vertex in shape.types() if vertex.source is not None
    }


def _type_pairing(old_source: Shape, new_source: Shape, diff: ShapeDiff) -> dict[str, str]:
    """The diff's old -> new pairing of source types, by dotted root path.

    ``diff_shapes`` records only the pairs it classified as moved; types
    that keep their (element name, parent name) it pairs in root-path
    order without a record, so that half is redone here.
    """

    def placements(shape: Shape) -> dict[tuple, list[str]]:
        placed: dict[tuple, list[str]] = {}
        for path in sorted(_backing_paths(shape)):
            placed.setdefault(tuple(path.split(".")[-2:]), []).append(path)
        return placed

    new_placements = placements(new_source)
    pairing: dict[str, str] = {}
    for key, old_paths in placements(old_source).items():
        pairing.update(zip(old_paths, new_placements.get(key, ())))
    for change in diff.moved:
        pairing.update(zip(change.before_paths, change.after_paths))
    return pairing


def _shape_sketch(shape: Shape) -> str:
    """A guard-syntax one-liner of a shape's output structure."""

    def render(vertex) -> str:
        children = shape.children(vertex)
        if not children:
            return vertex.out_name
        return (
            f"{vertex.out_name} [ "
            + " ".join(render(child) for child in children)
            + " ]"
        )

    return " | ".join(render(root) for root in shape.roots()) or "(empty)"


def _tree_names(shape: Shape) -> set[str]:
    return {vertex.out_name.lower() for vertex in shape.types()}


def _tree_difference(old_shape: Shape, new_shape: Shape) -> Optional[str]:
    """An element name on one side of a structural difference, if any."""
    delta = _tree_names(old_shape) ^ _tree_names(new_shape)
    return sorted(delta)[0] if delta else None


def _root_count_changes(
    old_shape: Shape, new_shape: Shape, old_index, new_index
) -> list[tuple[ShapeType, str, int, int]]:
    """Paired output roots whose predicted instance count differs.

    The target shape carries no cardinality for its roots — the guard
    renders one output root per instance of the anchor's source type —
    so :func:`_card_changes` (matched *edges*) cannot see this.  The
    prediction uses ``count_of`` (the ``pathcard`` statistic), the same
    substrate the adornments come from: resolution drift or a
    source-side cardinality change that leaves the count intact stays
    compatible, while a merge or split of same-named types that alters
    it degrades.  ``count_of`` rather than ``len(nodes_of(...))``
    matters for the incremental-update path: a stored index's counts
    load eagerly with its shape, so grading against a *pre-update*
    index never lazily reads type sequences from the already-patched
    store under stale type ids.
    """

    def key(shape: Shape, vertex: ShapeType) -> tuple:
        return (
            vertex.out_name.lower(),
            tuple(sorted(key(shape, child) for child in shape.children(vertex))),
        )

    old_roots = sorted(old_shape.roots(), key=lambda v: key(old_shape, v))
    new_roots = sorted(new_shape.roots(), key=lambda v: key(new_shape, v))
    changed: list[tuple[ShapeType, str, int, int]] = []
    for old_root, new_root in zip(old_roots, new_roots):
        if old_root.source is None or new_root.source is None:
            continue
        old_count = old_index.count_of(old_root.source)
        new_count = new_index.count_of(new_root.source)
        if old_count != new_count:
            changed.append(
                (new_root, new_root.source.dotted, old_count, new_count)
            )
    return changed


def _card_changes(
    old_shape: Shape, new_shape: Shape
) -> list[tuple[str, str, str, str]]:
    """Matched-edge cardinality differences of two structurally equal shapes."""
    changes: list[tuple[str, str, str, str]] = []

    def descend(old_vertices, new_vertices, prefix: tuple[str, ...]) -> None:
        old_sorted = sorted(old_vertices, key=lambda v: _subtree_key(old_shape, v))
        new_sorted = sorted(new_vertices, key=lambda v: _subtree_key(new_shape, v))
        for old_vertex, new_vertex in zip(old_sorted, new_sorted):
            path = prefix + (old_vertex.out_name,)
            old_parent = old_shape.parent(old_vertex)
            new_parent = new_shape.parent(new_vertex)
            if old_parent is not None and new_parent is not None:
                old_card = str(old_shape.card(old_parent, old_vertex))
                new_card = str(new_shape.card(new_parent, new_vertex))
                if old_card != new_card:
                    changes.append(
                        ("/".join(path), old_vertex.out_name, old_card, new_card)
                    )
            descend(
                old_shape.children(old_vertex),
                new_shape.children(new_vertex),
                path,
            )

    def _subtree_key(shape, vertex):
        return (
            vertex.out_name.lower(),
            tuple(
                sorted(_subtree_key(shape, child) for child in shape.children(vertex))
            ),
        )

    descend(old_shape.roots(), new_shape.roots(), ())
    return changes


# ---------------------------------------------------------------------------
# Loss comparison
# ---------------------------------------------------------------------------


def _tail(dotted: str) -> str:
    return dotted.rsplit(".", 1)[-1].lower()


def _loss_signature(loss) -> Optional[tuple]:
    """A shape-arrangement-insensitive digest of a loss report.

    Findings name types by full root path, which an evolution rewrites;
    comparing by trailing element name keeps equivalent findings equal
    across arrangements while still catching new or vanished loss.
    """
    if loss is None:
        return None
    return (
        loss.guard_type.value,
        tuple(
            sorted(
                (
                    finding.kind.value,
                    frozenset((_tail(finding.source_type), _tail(finding.target_type))),
                    finding.accepted,
                )
                for finding in loss.findings
            )
        ),
    )


def _loss_transition_detail(old: AnalysisResult, new: AnalysisResult) -> str:
    if new.loss is None:
        return ""
    old_keys = set()
    if old.loss is not None:
        old_keys = {
            (f.kind.value, frozenset((_tail(f.source_type), _tail(f.target_type))))
            for f in old.loss.findings
        }
    for finding in new.loss.findings:
        key = (
            finding.kind.value,
            frozenset((_tail(finding.source_type), _tail(finding.target_type))),
        )
        if key not in old_keys:
            return f" (now {finding})"
    return ""


def _loss_anchor(new: AnalysisResult) -> Optional[Span]:
    if new.loss is not None:
        for finding in new.loss.findings:
            span = new.label_spans.get(finding.target_type) or new.label_spans.get(
                finding.source_type
            )
            if span is not None:
                return span
    return _guard_anchor(new)


# ---------------------------------------------------------------------------
# Span helpers
# ---------------------------------------------------------------------------


def _guard_anchor(result: AnalysisResult) -> Optional[Span]:
    return Span.at(result.guard, 0, len(result.guard)) if result.guard else None


def _anchor_span(result: AnalysisResult, element_name: Optional[str]) -> Optional[Span]:
    """The span of the guard clause naming ``element_name``, if any."""
    if element_name is not None:
        lowered = element_name.lower()
        for site in result.sites:
            if site.span is None:
                continue
            if site.label.split(".")[-1].lower() == lowered:
                return site.span
    return _guard_anchor(result)


def _evolution_span(evolution_text: str, line_index: int) -> Span:
    lines = evolution_text.split("\n")
    line_index = max(0, min(line_index, len(lines) - 1))
    start = sum(len(line) + 1 for line in lines[:line_index])
    return Span.at(evolution_text, start, start + len(lines[line_index]))


def _note_for_change(
    code: str, change: TypeChange, diff: ShapeDiff, evolution_text: str
) -> Diagnostic:
    return Diagnostic(
        code,
        Severity.INFO,
        str(change),
        span=_evolution_span(evolution_text, diff.changes.index(change)),
        source_name="<evolution>",
    )


def _change_note(
    code: str, label: str, diff: ShapeDiff, evolution_text: str
) -> Optional[Diagnostic]:
    """The shape change responsible for a finding at ``label``, as a note."""
    for part in reversed(label.split(".")):
        changes = diff.changes_for(part)
        if changes:
            return _note_for_change(code, changes[0], diff, evolution_text)
    return _evolution_note(code, diff, evolution_text)


def _evolution_note(
    code: str, diff: ShapeDiff, evolution_text: str
) -> Optional[Diagnostic]:
    """Fallback note: the first shape change, or nothing when identical."""
    if not diff.changes:
        return None
    return _note_for_change(code, diff.changes[0], diff, evolution_text)


# ---------------------------------------------------------------------------
# Corpus loading
# ---------------------------------------------------------------------------


def as_index(source):
    from repro.closeness.index import BaseIndex, DocumentIndex
    from repro.xmltree.parser import parse_forest

    if isinstance(source, str):
        source = parse_forest(source)
    return source if isinstance(source, BaseIndex) else DocumentIndex(source)


def _as_specs(guards: GuardsInput) -> list[GuardSpec]:
    if isinstance(guards, str):
        return [GuardSpec("guard", guards)]
    if isinstance(guards, GuardSpec):
        return [guards]
    if isinstance(guards, Mapping):
        return [GuardSpec(name, text) for name, text in sorted(guards.items())]
    specs: list[GuardSpec] = []
    for position, item in enumerate(guards):
        if isinstance(item, GuardSpec):
            specs.append(item)
        elif isinstance(item, tuple):
            specs.append(GuardSpec(*item))
        else:
            specs.append(GuardSpec(f"guard{position}", item))
    return specs


def load_guards(directory: str) -> list[GuardSpec]:
    """Load every ``*.guard`` file of a directory as a :class:`GuardSpec`.

    A ``NAME.query`` sidecar (when present) becomes the guard's
    companion query.  Specs come back sorted by name.
    """
    specs: list[GuardSpec] = []
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".guard"):
            continue
        stem = entry[: -len(".guard")]
        guard_path = os.path.join(directory, entry)
        with open(guard_path, encoding="utf-8") as handle:
            guard_text = handle.read().strip()
        query = None
        query_path = os.path.join(directory, stem + ".query")
        if os.path.exists(query_path):
            with open(query_path, encoding="utf-8") as handle:
                query = handle.read().strip()
        specs.append(GuardSpec(stem, guard_text, query, path=guard_path))
    return specs


def load_expectations(path: str) -> dict[str, str]:
    """Load an ``expected.json`` verdict map, validating the verdicts."""
    with open(path, encoding="utf-8") as handle:
        expectations = json.load(handle)
    for name, verdict in expectations.items():
        if verdict not in VERDICTS:
            raise ValueError(
                f"expected.json: {name!r} maps to unknown verdict {verdict!r}"
            )
    return expectations
