"""Span-based tracing for the query pipeline.

A :class:`Span` is one timed region of the pipeline (``lang.parse``,
``pipeline.render``, one algebra stage, one closest join...).  Spans
nest: entering a span while another is open makes it a child, so a full
transformation produces a tree mirroring Figure 8's pipeline.  Times
come from :func:`time.perf_counter` (monotonic), so durations are safe
against wall-clock adjustments.

A context-local *current tracer* keeps the instrumentation call sites
declarative — ``with obs.span("pipeline.render"): ...`` — without
threading a tracer object through every layer.  The tracer lives in a
:class:`contextvars.ContextVar`, so a serving process can give every
request its own tracer (with its own ``trace_id``) on a worker thread
without requests trampling each other; :class:`~repro.serve.TransformPool`
captures the submitter's context so a tracer installed around a batch
still sees its workers.  The default tracer is **disabled**: its spans
still measure their own duration (two ``perf_counter`` calls, so coarse
call sites can keep populating result fields such as
``render_seconds``), but nothing is recorded, no tree is retained and
every counter/histogram update is a no-op.  Hot paths (per-block,
per-node) must use counters, never per-item spans, so the disabled cost
stays near zero.

A span that exits via an exception carries ``status="error"`` plus the
exception type (and its stable ``XMnnn`` code when it has one) in its
attrs, so a failed request's trace is distinguishable from a success.
"""

from __future__ import annotations

import contextvars
import time
import uuid
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import MetricsRegistry


def new_trace_id() -> str:
    """A fresh 16-hex-digit request trace id."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed, attributed region; a context manager."""

    __slots__ = ("name", "attrs", "started", "ended", "children", "status", "_tracer")

    def __init__(self, name: str, tracer: "Tracer", attrs: Optional[dict] = None):
        self.name = name
        self.attrs: dict = attrs or {}
        self.started: float = 0.0
        self.ended: Optional[float] = None
        self.children: list[Span] = []
        #: ``"ok"``, or ``"error"`` when the span exited via an exception.
        self.status: str = "ok"
        self._tracer = tracer

    def __enter__(self) -> "Span":
        if self._tracer.enabled:
            self._tracer._open(self)
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, _traceback) -> None:
        self.ended = time.perf_counter()
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
            code = getattr(exc_value, "code", None)
            if code:
                self.attrs.setdefault("code", code)
        if self._tracer.enabled:
            self._tracer._close(self)

    @property
    def duration(self) -> float:
        """Seconds from enter to exit (0.0 while still open)."""
        if self.ended is None:
            return 0.0
        return self.ended - self.started

    def annotate(self, **attrs) -> "Span":
        """Attach key/value attributes (row counts, labels, costs)."""
        self.attrs.update(attrs)
        return self

    def walk(self) -> Iterator[tuple["Span", int]]:
        """Depth-first (span, depth) over this span and its subtree."""
        stack: list[tuple[Span, int]] = [(self, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            for child in reversed(span.children):
                stack.append((child, depth + 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, {self.attrs})"


class Tracer:
    """Collects a span tree plus a metrics registry for one run.

    ``Tracer()`` is enabled; ``Tracer(enabled=False)`` is the shared
    no-op default — its spans are timed but never retained, and its
    counters are dropped.  ``trace_id`` tags a request-scoped tracer:
    every record the exporter emits for it carries the id, so spans of
    one serve request can be grepped out of a shared JSONL trace file.
    """

    def __init__(self, enabled: bool = True, trace_id: Optional[str] = None):
        self.enabled = enabled
        self.trace_id = trace_id
        self.metrics = MetricsRegistry()
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        return Span(name, self, attrs or None)

    def _open(self, span: Span) -> None:
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        # Tolerate out-of-order exits (generator spans, exceptions).
        if span in self._stack:
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
            self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)

    # -- metrics -----------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        if self.enabled:
            self.metrics.inc(name, value)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.observe(name, value)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge(name, value)

    # -- inspection --------------------------------------------------------

    def iter_spans(self) -> Iterator[Span]:
        for root in self.roots:
            for span, _depth in root.walk():
                yield span

    def find(self, name: str) -> Optional[Span]:
        """The first recorded span with ``name`` (depth-first)."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def span_names(self) -> list[str]:
        return [span.name for span in self.iter_spans()]

    def reset(self) -> None:
        self.roots.clear()
        self._stack.clear()
        self.metrics.clear()


#: The shared disabled tracer: timed-but-unrecorded spans, no-op metrics.
DISABLED = Tracer(enabled=False)

#: The context-local current tracer.  Context-local (not plain global)
#: so concurrent serve requests on pool threads each report to their own
#: request tracer; a thread that never installed one sees DISABLED.
_current: contextvars.ContextVar[Tracer] = contextvars.ContextVar(
    "xmorph-tracer", default=DISABLED
)


def get_tracer() -> Tracer:
    """The tracer instrumentation call sites currently report to."""
    return _current.get()


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as current; returns the previous one."""
    previous = _current.get()
    _current.set(tracer)
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Activate a tracer (a fresh enabled one by default) for a block."""
    active = tracer if tracer is not None else Tracer()
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)


# -- module-level conveniences (the instrumentation API) -------------------


def span(name: str, **attrs) -> Span:
    """A span on the current tracer: ``with obs.span("lang.parse"): ...``."""
    return _current.get().span(name, **attrs)


def count(name: str, value: int = 1) -> None:
    tracer = _current.get()
    if tracer.enabled:
        tracer.metrics.inc(name, value)


def observe(name: str, value: float) -> None:
    tracer = _current.get()
    if tracer.enabled:
        tracer.metrics.observe(name, value)


def enabled() -> bool:
    return _current.get().enabled
