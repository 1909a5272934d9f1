"""The XMorph interpreter: the full pipeline of Figure 8.

``parse → algebra → type analysis → information-loss check → shape
generation → render``.  Everything before rendering is "compilation" —
the paper measures it separately (Figure 10's compile series) and finds
it a vanishing fraction of the total cost, because it only touches the
adorned shape, never the data.  Its last step plans the render: the one
:class:`~repro.engine.compile.CompiledRender` of the guard, which every
render of the result runs, in memory or from a store.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, TextIO

from repro.obs import tracer as obs

from repro.algebra.build import Enforcement, build_operator
from repro.algebra.context import DocumentShapeContext
from repro.algebra.operators import Operator
from repro.algebra.semantics import EvaluationResult, Evaluator
from repro.closeness.index import BaseIndex, DocumentIndex
from repro.engine.compile import CompiledRender, RenderResult, StreamStats
from repro.lang.parser import parse_guard
from repro.shape.pathcard import predicted_shape
from repro.shape.shape import Shape
from repro.typing.enforce import enforce
from repro.typing.loss import LossReport, compare_pairs
from repro.xmltree.node import XmlForest
from repro.xmltree.serializer import serialize


@dataclass
class TransformResult:
    """Everything produced by one guard evaluation.

    A result is *checked* (``Interpreter.compile``: ``rendered`` is
    ``None``) or *planned* (``Interpreter.transform``,
    ``Database.transform``): it carries the index to render from
    (``source``) and renders when first read.  ``xml()`` writes the
    plan's text sink and builds no output tree, nor does its JSON-escaped
    twin ``xml_json()``; ``forest`` / ``rendered`` / ``xml(indent=n)``
    build the tree through the tree sink, once.  Whichever sink runs
    first fixes ``render_counts`` and ``render_seconds``.

    :attr:`loss` is the guard's loss report.  A guard whose
    enforcement can fail had it built by the compile; a guard that
    permits both narrowing and widening (``CAST``) has it built when
    it is first read, once for the plan and every planned copy.
    """

    guard: str
    target_shape: Shape
    #: Builds the loss report on first call (:class:`_PendingLoss`),
    #: shared by every planned copy.
    _loss: Callable[[], LossReport]
    evaluation: EvaluationResult
    #: The plan's emitter (:mod:`repro.engine.compile`), built by
    #: ``Interpreter.compile``; a ``Database`` caches it with the plan.
    compiled_render: CompiledRender
    compile_seconds: float = 0.0
    #: The index a planned result renders from when first read.
    source: Optional[BaseIndex] = None
    render_seconds: float = field(default=0.0, init=False)
    #: ``(nodes_written, nodes_read, joins)`` of the first render.
    render_counts: Optional[tuple[int, int, int]] = field(default=None, init=False)
    _rendered: Optional[RenderResult] = field(default=None, init=False, repr=False)
    _text: Optional[str] = field(default=None, init=False, repr=False)

    def planned(self, source: BaseIndex) -> "TransformResult":
        """An unread copy of these compile artifacts that renders from ``source``."""
        return replace(self, source=source)

    @property
    def loss(self) -> LossReport:
        """The guard's information-loss report (built now, if unread)."""
        return self._loss()

    @property
    def rendered(self) -> Optional[RenderResult]:
        """The output tree with its bookkeeping (built now, if unread)."""
        if self._rendered is None and self.source is not None:
            with obs.span("pipeline.render") as render_span:
                self._rendered = self.compiled_render.run(self.source)
            self._account(self._rendered, render_span.duration)
        return self._rendered

    @property
    def forest(self) -> XmlForest:
        rendered = self.rendered
        if rendered is None:
            raise ValueError("guard was checked, not rendered")
        return rendered.forest

    def xml(self, indent: int | None = None) -> str:
        if indent is None and self._rendered is None and self.source is not None:
            if self._text is None:
                with obs.span("pipeline.render") as render_span:
                    self._text, stats = self.compiled_render.text(self.source)
                self._account(stats, render_span.duration)
            return self._text
        return serialize(self.forest, indent=indent)

    def xml_json(self) -> str:
        """``xml()`` as the body of a JSON string, ``json.dumps(xml())[1:-1]``.

        Written by the text sink from JSON-escaped constants and columns
        (:meth:`CompiledRender.json`), so the text is never scanned
        again; a served answer frames it by concatenation.
        """
        if self.source is None:
            raise ValueError("guard was checked, not rendered")
        with obs.span("pipeline.render") as render_span:
            body, stats = self.compiled_render.json(self.source)
        self._account(stats, render_span.duration)
        return body

    def write(self, out: TextIO) -> StreamStats:
        """Write the compact XML into ``out`` through the text sink."""
        if self.source is None:
            raise ValueError("guard was checked, not rendered")
        with obs.span("pipeline.render") as render_span:
            stats = self.compiled_render.write(self.source, out)
        self._account(stats, render_span.duration)
        return stats

    def _account(self, counted, seconds: float) -> None:
        """Record the first render's counters."""
        if self.render_counts is None:
            self.render_counts = (counted.nodes_written, counted.nodes_read, counted.joins)
            self.render_seconds = seconds

    def label_report(self) -> str:
        """The paper's label-to-type report."""
        return self.evaluation.label_report()

    def loss_report(self) -> str:
        """The paper's information-loss report."""
        return self.loss.pretty()


class Interpreter:
    """Evaluates XMorph guards against one XML document/forest.

    Parameters
    ----------
    source:
        A parsed :class:`~repro.xmltree.XmlForest` or a prebuilt
        :class:`~repro.closeness.DocumentIndex`.

    :meth:`compile` builds the plan's :class:`CompiledRender`, the one
    renderer: :meth:`transform` here and every render of a plan a
    ``Database`` caches run it.
    """

    def __init__(self, source: XmlForest | BaseIndex):
        self.index = source if isinstance(source, BaseIndex) else DocumentIndex(source)

    # -- the pipeline ------------------------------------------------------

    def compile(self, guard: str) -> TransformResult:
        """Run every stage *except* rendering (the paper's 'compile').

        The loss report is built here only when enforcing it can fail:
        a guard that permits both narrowing and widening (plain
        ``CAST``) gets it on the result's first read of ``loss``.  The
        target shape's predicted cards (Definition 7) are set either way.
        """
        with obs.span("pipeline.compile") as compile_span:
            operator, enforcement = self._parse(guard)
            evaluation, loss = self._analyze(operator, enforcement)
            if not enforcement.allow_weak:
                report = loss()
                with obs.span("typing.enforce"):
                    enforce(report, enforcement)
            # Each sink's code is generated by the first render that asks for it.
            emitter = CompiledRender(evaluation.shape, self.index)
        return TransformResult(
            guard=guard,
            target_shape=evaluation.shape,
            _loss=loss,
            evaluation=evaluation,
            compile_seconds=compile_span.duration,
            compiled_render=emitter,
        )

    def check(self, guard: str) -> LossReport:
        """Type-check a guard: loss report only, no enforcement, no render."""
        operator, enforcement = self._parse(guard)
        _evaluation, loss = self._analyze(operator, enforcement)
        return loss()

    def diagnose(self, guard: str, query: str | None = None):
        """Statically analyze a guard: spanned, coded diagnostics.

        Returns a :class:`repro.analysis.AnalysisResult`.  Unlike
        :meth:`check`, this never raises for guard problems — syntax,
        type, and loss findings all come back as diagnostics with
        source spans, and an optional companion query is checked for
        compatibility with the guard's target shape.
        """
        from repro.analysis import analyze_index

        with obs.span("analysis.diagnose"):
            return analyze_index(self.index, guard, query)

    def check_evolution(self, new_source, guard: str, query: str | None = None):
        """Will ``guard`` survive evolving this document to ``new_source``?

        ``new_source`` is the evolved arrangement (XML text, forest, or
        index).  Returns a :class:`repro.analysis.GuardVerdict` whose
        ``verdict`` is ``"compatible"``, ``"degraded"`` or ``"broken"``,
        with XM6xx diagnostics spanning both the guard clause and the
        shape change responsible.  Never raises for guard problems.
        """
        from repro.analysis.evolve import as_index, check_guard_evolution

        with obs.span("analysis.evolve"):
            return check_guard_evolution(
                self.index, as_index(new_source), guard, query
            )

    def transform(self, guard: str) -> TransformResult:
        """Compile and enforce a guard; the result renders from this
        index when first read (Ψ⟦P⟧ = render(G, ξ⟦P⟧(S)))."""
        return self.compile(guard).planned(self.index)

    def render_compiled(self, compiled: TransformResult) -> TransformResult:
        """A planned copy of ``compiled`` over this index, rendered now.

        Nothing in ``repro`` calls it: ``perfbench`` wraps it by name for
        its ``engine.render_ms`` layer.
        """
        result = compiled.planned(self.index)
        result.rendered  # noqa: B018 - render before returning
        return result

    # -- stages ---------------------------------------------------------------

    def _parse(self, guard: str) -> tuple[Operator, Enforcement]:
        with obs.span("lang.parse"):
            return build_operator(parse_guard(guard))

    def _analyze(
        self, operator: Operator, enforcement: Enforcement
    ) -> tuple[EvaluationResult, "_PendingLoss"]:
        """The evaluated target shape, annotated with its predicted cards,
        and its loss report, still to be built."""
        context = DocumentShapeContext(self.index)
        with obs.span("typing.type-analysis"):
            evaluation = Evaluator(type_fill=enforcement.type_fill).run(operator, context)
        # The source shape, not the index: a cached plan must not keep a
        # retired index alive until its report is read.
        source = self.index.shape
        predicted = predicted_shape(source, evaluation.shape, source.vertex)
        return evaluation, _PendingLoss(partial(compare_pairs, source, predicted, source.vertex))


class _PendingLoss:
    """A loss report built on its first read (the ``typing.loss`` span),
    once, whichever thread or planned copy reads it first."""

    __slots__ = ("_build", "_report", "_lock")

    def __init__(self, build: Callable[[], LossReport]):
        self._build = build
        self._report: Optional[LossReport] = None
        self._lock = threading.Lock()

    def __call__(self) -> LossReport:
        report = self._report
        if report is None:
            with self._lock:
                report = self._report
                if report is None:
                    with obs.span("typing.loss"):
                        report = self._report = self._build()
        return report
