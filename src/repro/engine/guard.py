"""Query guards: the paper's core proposal (Section I).

"Each query has two components: 1) a query guard, which is a
lightweight, reusable specification of the shape needed by the query,
and 2) an XQuery query."  The guard is evaluated first: it checks
whether the data can be transformed to the needed shape without
(unaccepted) information loss, transforms it, and only then is the
query evaluated — against the transformed values, which is what the
``return`` clauses and ``distinct-values`` should see.  There is one
answer: the query always runs over the rendered forest (Section VIII's
physical architecture), never over a lazily transformed view.

The same :class:`GuardedQuery` can be applied to any number of
differently-shaped collections — that is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.closeness.index import BaseIndex
from repro.engine.interpreter import Interpreter, TransformResult
from repro.xmltree.node import XmlForest, XmlNode
from repro.xmltree.serializer import serialize
from repro.xquery.evaluator import QueryContext, Sequence, evaluate, string_value


@dataclass
class GuardOutcome:
    """The result of running a guarded query on one collection."""

    transform: TransformResult
    items: Sequence

    def xml(self, indent: int | None = None) -> str:
        """Serialize the query result items (nodes as XML, atoms as text)."""
        pieces: list[str] = []
        for item in self.items:
            if isinstance(item, XmlNode):
                pieces.append(serialize(item, indent=indent))
            else:
                pieces.append(string_value(item))
        return "\n".join(pieces)

    @property
    def guard_type(self):
        return self.transform.loss.guard_type


class GuardedQuery:
    """An XQuery-lite query protected by an XMorph guard."""

    def __init__(self, guard: str, query: str):
        self.guard = guard
        self.query = query

    def run(
        self,
        source: XmlForest | BaseIndex,
        document_name: str = "input",
    ) -> GuardOutcome:
        """Guard-transform ``source``, then evaluate the query on the result.

        ``source`` is a parsed forest or any index over one document —
        an in-memory :class:`~repro.closeness.index.DocumentIndex` or a
        stored document's ``db.index(name)``; the query sees the rendered
        forest either way, as ``doc(document_name)`` and as the context.

        Raises :class:`~repro.errors.GuardTypeError` when the guard's
        transformation would lose or manufacture data and the guard does
        not permit it — the query never runs on an untrustworthy shape.
        """
        transform = Interpreter(source).transform(self.guard)
        context = QueryContext.for_forest(transform.forest, document_name)
        items = evaluate(self.query, context)
        return GuardOutcome(transform, items)
