"""Export an adorned shape as a DTD.

A shape *is* a schema — a DataGuide with cardinalities — so it prints
naturally as a DTD: child cardinalities become the occurrence
indicators (``child``, ``child?``, ``child+``, ``child*``), attribute
types become ``ATTLIST`` declarations, text-bearing leaves become
``(#PCDATA)``.  Useful both for documenting a source collection and,
after ``predicted_shape``, for documenting exactly what a guard's
transformation will produce.

The mapping loses precision in one place (DTDs cannot bound maxima
above one, so ``2..2`` prints as ``+``) and the generator says so in a
trailing comment when it happens.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.shape.cardinality import Card
from repro.shape.dataguide import DataGuideBuilder, walk
from repro.shape.shape import Shape
from repro.shape.types import DataType, ShapeType
from repro.xmltree.node import XmlForest


def occurrence(card: Card) -> str:
    """The DTD occurrence indicator for a cardinality range."""
    if card.lo == 0:
        return "?" if card.hi == 1 else "*"
    if card.hi == 1:
        return ""
    return "+"


def shape_to_dtd(
    shape: Shape,
    is_attribute: Optional[Callable[[DataType], bool]] = None,
    has_text: Optional[Callable[[DataType], bool]] = None,
) -> str:
    """Render a shape as DTD declarations.

    ``is_attribute`` / ``has_text`` classify a type's instances; the
    convenient way to obtain them is :func:`forest_to_dtd`, which builds
    them from the data.  Without them every type is an element and
    leaves allow text.
    """
    attribute_test = _wrap(is_attribute, default=False)
    text_test = _wrap(has_text, default=True)

    # One DTD declaration per output name; merge content models when
    # several shape types share a name.
    element_children: dict[str, dict[str, Card]] = {}
    attribute_children: dict[str, dict[str, Card]] = {}
    leaf_text: dict[str, bool] = {}
    order: list[str] = []
    imprecise = False

    for vertex, _depth in shape.walk():
        if attribute_test(vertex.source):
            continue  # attributes are declared in their owner's ATTLIST
        name = vertex.out_name
        if name not in element_children:
            element_children[name] = {}
            attribute_children[name] = {}
            leaf_text[name] = False
            order.append(name)
        if text_test(vertex.source) and not shape.children(vertex):
            leaf_text[name] = True
        for child in shape.children(vertex):
            card = shape.card(vertex, child)
            if card.hi is not None and card.hi > 1:
                imprecise = True
            bucket = (
                attribute_children[name]
                if attribute_test(child.source)
                else element_children[name]
            )
            child_name = child.out_name
            if child_name in bucket:
                bucket[child_name] = bucket[child_name].union(card)
            else:
                bucket[child_name] = card

    lines: list[str] = []
    for name in order:
        children = element_children[name]
        if children:
            model = ", ".join(
                f"{child}{occurrence(card)}" for child, card in children.items()
            )
            lines.append(f"<!ELEMENT {name} ({model})>")
        elif leaf_text[name]:
            lines.append(f"<!ELEMENT {name} (#PCDATA)>")
        else:
            lines.append(f"<!ELEMENT {name} EMPTY>")
        for attr_name, card in attribute_children[name].items():
            required = "#REQUIRED" if card.lo >= 1 else "#IMPLIED"
            lines.append(f"<!ATTLIST {name} {attr_name} CDATA {required}>")
    if imprecise:
        lines.append("<!-- note: maxima above 1 are widened to '+' (DTD limits) -->")
    return "\n".join(lines)


def forest_to_dtd(forest: XmlForest) -> str:
    """One-shot: extract a forest's shape and print its DTD."""
    builder = DataGuideBuilder()
    walk(forest, builder)
    return shape_to_dtd(
        builder.shape,
        is_attribute=lambda t: builder.is_attribute.get(t, False),
        has_text=lambda t: t.type_id in builder.has_text,
    )


def _wrap(test: Optional[Callable[[DataType], bool]], default: bool):
    def wrapped(data_type: Optional[DataType]) -> bool:
        if data_type is None or test is None:
            return default
        return test(data_type)

    return wrapped
