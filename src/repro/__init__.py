"""XMorph 2.0 — a shape-polymorphic data transformation language for XML.

Reproduction of C. Dyreson & S. S. Bhowmick, "Querying XML Data: As You
Shape It", ICDE 2012.  A guard declares the shape a query needs; XMorph
transforms the data to that shape and determines — before touching the
data — whether the transformation potentially loses information.

Quickstart::

    import repro

    forest = repro.parse_document(open("books.xml").read())
    result = repro.transform(forest, "MORPH author [ name book [ title ] ]")
    print(result.xml(indent=2))
    print(result.loss_report())

    guarded = repro.GuardedQuery(
        "MORPH author [ name book [ title ] ]",
        "for $a in doc('input')/author return <r>{$a/name, $a/book/title}</r>",
    )
    print(guarded.run(forest).xml())
"""

from repro.errors import (
    DocumentNotFoundError,
    GuardSyntaxError,
    GuardTypeError,
    LabelMismatchError,
    QueryError,
    StorageError,
    TypeAnalysisError,
    XmlParseError,
    XMorphError,
)
from repro.xmltree import (
    Dewey,
    XmlForest,
    XmlNode,
    parse_document,
    parse_forest,
    serialize,
)
from repro.shape import Card, Shape, extract_shape, path_cardinality
from repro.closeness import ClosestGraph, DocumentIndex, closest_graph
from repro.lang import parse_guard
from repro.typing import GuardType, LossReport, analyze_loss
from repro.engine import GuardedQuery, GuardOutcome, Interpreter, TransformResult
from repro.xquery import QueryContext, evaluate, parse_query
from repro.analysis import AnalysisResult, Diagnostic, Severity, analyze

__version__ = "2.0.0"

__all__ = [
    # errors
    "XMorphError",
    "XmlParseError",
    "GuardSyntaxError",
    "GuardTypeError",
    "LabelMismatchError",
    "TypeAnalysisError",
    "QueryError",
    "StorageError",
    "DocumentNotFoundError",
    # xml substrate
    "Dewey",
    "XmlNode",
    "XmlForest",
    "parse_document",
    "parse_forest",
    "serialize",
    # shapes & closeness
    "Card",
    "Shape",
    "extract_shape",
    "path_cardinality",
    "DocumentIndex",
    "ClosestGraph",
    "closest_graph",
    # language & typing
    "parse_guard",
    "GuardType",
    "LossReport",
    "analyze_loss",
    # engine
    "Interpreter",
    "TransformResult",
    "GuardedQuery",
    "GuardOutcome",
    "transform",
    "check",
    # queries
    "parse_query",
    "evaluate",
    "QueryContext",
    # static analysis
    "analyze",
    "AnalysisResult",
    "Diagnostic",
    "Severity",
]


def transform(source, guard: str) -> TransformResult:
    """One-shot convenience: transform ``source`` with a guard.

    ``source`` may be an :class:`XmlForest`, a :class:`DocumentIndex`,
    or raw XML text.  The result renders when first read: ``xml()``
    through the text sink, ``forest`` through the tree sink.
    """
    if isinstance(source, str):
        source = parse_document(source)
    return Interpreter(source).transform(guard)


def check(source, guard: str) -> LossReport:
    """One-shot convenience: type-check a guard against ``source``."""
    if isinstance(source, str):
        source = parse_document(source)
    return Interpreter(source).check(guard)
