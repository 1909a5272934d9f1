"""Serialize the node model back to XML text.

Attribute vertices are rendered into start tags; an element's ``text``
(its value) is emitted before its element children, matching how the
parser collects directly contained character data.

JSON string escaping lives here too: a served answer is the compact XML
as the body of a JSON string, and the text sink writes that body from
columns escaped once per load (:func:`json_texts`) instead of running
``json.dumps`` over the finished answer.
"""

from __future__ import annotations

from io import StringIO
from json.encoder import encode_basestring_ascii
from typing import TextIO

from repro.xmltree.node import XmlForest, XmlNode


def serialize(forest: XmlForest | XmlNode, indent: int | None = None) -> str:
    """Serialize a forest (or single node) to a string.

    ``indent``: number of spaces per nesting level, or ``None`` for
    compact single-line output.
    """
    out = StringIO()
    write(forest, out, indent=indent)
    return out.getvalue()


def serialize_node(node: XmlNode, indent: int | None = None) -> str:
    return serialize(node, indent=indent)


def write(forest: XmlForest | XmlNode, out: TextIO, indent: int | None = None) -> int:
    """Stream-serialize into ``out``; returns the number of characters written.

    This is the hot path of the eXist-style "dump the document" baseline,
    so it avoids building intermediate strings per subtree.
    """
    roots = forest.roots if isinstance(forest, XmlForest) else [forest]
    written = 0
    for position, root in enumerate(roots):
        if position and indent is None:
            out.write("\n")
            written += 1
        written += _write_node(root, out, indent, 0)
        if indent is not None:
            out.write("\n")
            written += 1
    return written


def escape_text(value: str) -> str:
    """Escape character data."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_texts(values: list[str]) -> list[str]:
    """:func:`escape_text` of every value, in order.

    Most columns hold no markup at all; for one of those the answer is
    ``values`` itself, found by one scan of the joined text instead of
    a call per value.  Callers must treat both lists as immutable.
    """
    joined = "".join(values)
    if "&" in joined or "<" in joined or ">" in joined:
        return list(map(escape_text, values))
    return values


def escape_quotes(escaped: str) -> str:
    """Make :func:`escape_text` output safe inside a double-quoted attribute."""
    return escaped.replace('"', "&quot;")


def escape_attr(value: str) -> str:
    """Escape an attribute value (double-quoted)."""
    return escape_quotes(escape_text(value))


def json_text(value: str) -> str:
    """``value`` as the body of a JSON string: ``json.dumps(value)[1:-1]``."""
    return encode_basestring_ascii(value)[1:-1]


def json_texts(values: list[str]) -> list[str]:
    """:func:`json_text` of every value, in order.

    Like :func:`escape_texts`: one scan of the joined text, and
    ``values`` itself when no value holds a character JSON escapes
    (``"``, ``\\``, a control or a non-ASCII character).  Callers must
    treat both lists as immutable.
    """
    joined = "".join(values)
    if len(encode_basestring_ascii(joined)) == len(joined) + 2:
        return values
    return list(map(json_text, values))


def json_quotes(body: str) -> str:
    """:func:`escape_quotes` for a JSON string body.

    ``json_text(escape_text(v))`` becomes ``json_text(escape_attr(v))``:
    every ``"`` of the value is the escape ``\\"`` in the body.
    """
    return body.replace('\\"', "&quot;")


def _write_node(node: XmlNode, out: TextIO, indent: int | None, depth: int) -> int:
    written = 0
    pad = "" if indent is None else " " * (indent * depth)
    if pad:
        out.write(pad)
        written += len(pad)

    out.write(f"<{node.name}")
    written += len(node.name) + 1
    for attr in node.attributes():
        chunk = f' {attr.name}="{escape_attr(attr.text)}"'
        out.write(chunk)
        written += len(chunk)

    text = node.text.strip() if indent is not None else node.text
    elements = node.element_children()
    if not text and not elements:
        out.write("/>")
        return written + 2

    out.write(">")
    written += 1
    if text:
        escaped = escape_text(text)
        out.write(escaped)
        written += len(escaped)
    if elements:
        for child in elements:
            if indent is not None:
                out.write("\n")
                written += 1
            written += _write_node(child, out, indent, depth + 1)
        if indent is not None:
            out.write("\n" + pad)
            written += 1 + len(pad)
    closing = f"</{node.name}>"
    out.write(closing)
    return written + len(closing)
