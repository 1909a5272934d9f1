"""Shapes: adorned DataGuides and the cardinality machinery.

A *shape* (Definition 3) is a forest of type edges adorned with
cardinality ranges ``n..m``.  Shapes describe the parent/child structure
of the *types* in a data collection; they are extracted from documents
(:mod:`repro.shape.dataguide`), rearranged by guard semantics
(:mod:`repro.algebra.semantics`) and analysed for potential information
loss via path cardinalities (:mod:`repro.shape.pathcard`).
"""

from repro.shape.cardinality import Card, UNBOUNDED
from repro.shape.types import DataType, ShapeType, TypeTable
from repro.shape.shape import Shape, ShapeEdge
from repro.shape.dataguide import extract_shape, DataGuideBuilder
from repro.shape.pathcard import path_cardinality, predicted_shape

__all__ = [
    "Card",
    "UNBOUNDED",
    "DataType",
    "ShapeType",
    "TypeTable",
    "Shape",
    "ShapeEdge",
    "extract_shape",
    "DataGuideBuilder",
    "path_cardinality",
    "predicted_shape",
]
