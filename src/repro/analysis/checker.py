"""The static analysis driver: guard text in, diagnostics out.

:func:`analyze` runs the full front half of the pipeline — parse, type
analysis, information-loss prediction — *without rendering*, and
re-expresses every outcome (exceptions included) as source-spanned,
coded :class:`~repro.analysis.diagnostics.Diagnostic` objects.  This is
what ``xmorph check`` prints and what ``xmorph transform`` consults
when a file's pipeline fails — it touches no data: the paper's promise
that guards are statically checkable, packaged as a linter.

The analysis is *total*: where the interpreter stops at the first
``LabelMismatchError``, the analyzer evaluates with ``TYPE-FILL``
semantics so it can keep going and report every unknown label, every
lossy pair, and every lint in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis import rules
from repro.analysis.compat import check_query_compat
from repro.analysis.diagnostics import Diagnostic, Severity, sort_key
from repro.analysis.render import render_json, render_text
from repro.errors import GuardSyntaxError, TypeAnalysisError
from repro.lang.parser import parse_guard
from repro.lang.span import Span
from repro.shape.shape import Shape
from repro.typing.loss import GuardType, LossKind, LossReport, analyze_loss


#: Exit codes of ``xmorph check`` (lint-style).
EXIT_CLEAN = 0
EXIT_ERRORS = 1
EXIT_WARNINGS_STRICT = 2


@dataclass
class AnalysisResult:
    """Everything one static analysis of a guard produced."""

    guard: str
    query: Optional[str] = None
    diagnostics: list[Diagnostic] = field(default_factory=list)
    loss: Optional[LossReport] = None
    target_shape: Optional[Shape] = None
    #: Label sites (with per-stage resolutions) and the source-path →
    #: span map; the evolution analyzer compares these across shapes.
    sites: list = field(default_factory=list)
    label_spans: dict = field(default_factory=dict)

    @property
    def guard_type(self) -> Optional[GuardType]:
        return self.loss.guard_type if self.loss is not None else None

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def exit_code(self, strict: bool = False) -> int:
        """Lint-style exit code: 0 clean, 1 errors, 2 warnings if strict."""
        if self.errors:
            return EXIT_ERRORS
        if strict and self.warnings:
            return EXIT_WARNINGS_STRICT
        return EXIT_CLEAN

    @property
    def sources(self) -> dict[str, str]:
        sources = {"<guard>": self.guard}
        if self.query is not None:
            sources["<query>"] = self.query
        return sources

    def render_text(self) -> str:
        return render_text(self.diagnostics, self.sources)

    def render_json(self) -> str:
        return render_json(self.diagnostics)

    def summary(self) -> str:
        parts = []
        if self.guard_type is not None:
            parts.append(f"guard type: {self.guard_type}")
        counts = {
            "error": len(self.errors),
            "warning": len(self.warnings),
            "info": len(self.diagnostics) - len(self.errors) - len(self.warnings),
        }
        shown = ", ".join(f"{n} {name}(s)" for name, n in counts.items() if n)
        parts.append(shown or "no findings")
        return "; ".join(parts)

    def _add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def _finish(self) -> "AnalysisResult":
        self.diagnostics.sort(key=sort_key)
        return self


def _guard_span(guard_text: str) -> Span:
    return Span.at(guard_text, 0, len(guard_text))


def analyze(source, guard: str, query: Optional[str] = None) -> AnalysisResult:
    """Statically analyze ``guard`` (and optionally its companion query).

    ``source`` may be raw XML text, a parsed
    :class:`~repro.xmltree.XmlForest`, or a prebuilt
    :class:`~repro.closeness.index.BaseIndex`.  Never raises for guard
    or query problems — those come back as diagnostics; only a broken
    *document* still raises (:class:`~repro.errors.XmlParseError`).
    """
    from repro.closeness.index import BaseIndex, DocumentIndex
    from repro.xmltree.parser import parse_forest

    if isinstance(source, str):
        source = parse_forest(source)
    index = source if isinstance(source, BaseIndex) else DocumentIndex(source)
    return analyze_index(index, guard, query)


def analyze_index(index, guard: str, query: Optional[str] = None) -> AnalysisResult:
    """:func:`analyze` against a prebuilt closeness index."""
    from repro.algebra.build import build_operator
    from repro.algebra.context import DerivedShapeContext, DocumentShapeContext
    from repro.algebra.semantics import Evaluator

    result = AnalysisResult(guard=guard, query=query)

    # -- 1. syntax ---------------------------------------------------------
    try:
        tree = parse_guard(guard)
    except GuardSyntaxError as error:
        code = "XM101" if "unexpected character" in error.raw_message else "XM102"
        result._add(
            Diagnostic(
                code,
                Severity.ERROR,
                error.raw_message,
                span=error.span,
                hint="see docs/LANGUAGE.md for the guard grammar",
            )
        )
        return result._finish()

    operator, enforcement = build_operator(tree)
    collection = rules.collect_sites(tree)
    result.diagnostics.extend(collection.diagnostics)

    # -- 2. type analysis (total: TYPE-FILL semantics, never aborts) -------
    document_context = DocumentShapeContext(index)
    stage_shapes: list[Shape] = []
    evaluation = None
    try:
        evaluation = Evaluator(type_fill=True).run(operator, document_context)
        stage_shapes = evaluation.stage_shapes
    except TypeAnalysisError as error:
        result._add(
            Diagnostic(
                "XM203",
                Severity.ERROR,
                str(error),
                span=tree.span or _guard_span(guard),
            )
        )

    contexts: list = [document_context]
    for shape in stage_shapes[:-1]:
        contexts.append(DerivedShapeContext(shape))
    if evaluation is None:
        contexts = contexts[:1]  # only stage 0 is trustworthy

    label_diags, label_spans = rules.check_labels(
        collection.sites, contexts, enforcement.type_fill
    )
    result.diagnostics.extend(label_diags)
    result.sites = collection.sites
    result.label_spans = label_spans

    if evaluation is None:
        return result._finish()
    result.target_shape = evaluation.shape

    # -- 3. information loss (Section V) -----------------------------------
    report = analyze_loss(index.shape, evaluation.shape, index.shape_vertex)
    result.loss = report
    fallback = tree.span or _guard_span(guard)
    for finding in report.findings:
        span = (
            label_spans.get(finding.target_type)
            or label_spans.get(finding.source_type)
            or fallback
        )
        if finding.accepted:
            result._add(
                Diagnostic("XM304", Severity.INFO, str(finding), span=span)
            )
            continue
        if finding.kind is LossKind.LOST:
            code, allowed, cast = "XM301", enforcement.allow_narrowing, "CAST-NARROWING"
        else:
            code, allowed, cast = "XM302", enforcement.allow_widening, "CAST-WIDENING"
        result._add(
            Diagnostic(
                code,
                Severity.INFO if allowed else Severity.ERROR,
                str(finding),
                span=span,
                hint=None
                if allowed
                else f"wrap the guard in {cast}, or mark the lossy label with !",
            )
        )
    if report.omitted_types:
        result._add(
            Diagnostic(
                "XM303",
                Severity.INFO,
                "source types omitted by the guard (trivially discarded): "
                + ", ".join(report.omitted_types),
            )
        )
    if report.synthesized_types and enforcement.type_fill:
        result._add(
            Diagnostic(
                "XM305",
                Severity.INFO,
                "types synthesized by TYPE-FILL: "
                + ", ".join(report.synthesized_types),
            )
        )

    # -- 4. lints ----------------------------------------------------------
    result.diagnostics.extend(rules.redundant_bangs(collection.sites, report.findings))
    result.diagnostics.extend(rules.redundant_wrappers(collection.wrappers, report))

    # -- 5. guard ↔ query compatibility ------------------------------------
    if query is not None:
        result.diagnostics.extend(check_query_compat(query, evaluation.shape))

    return result._finish()
