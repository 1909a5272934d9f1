"""A small, dependency-free XML parser.

The paper's implementation shreds documents with a SAX parser (Xerces);
we implement our own non-validating one so the whole stack is
self-contained, and give it the same shape: :func:`tokenize` makes one
pass over the text and reports ``start(name)`` / ``attribute(name,
value)`` / ``end(text)`` to a handler.  It is iterative — the open
elements are an explicit stack, so nesting costs no Python frames — and
it moves through the text with ``str.find`` and compiled patterns, not a
Python-level step per character.  :func:`parse_forest` is the handler
that builds :class:`XmlNode` s and numbers them as they arrive; the
shredder is another, and builds none.

Supported: elements, attributes, character data, CDATA sections,
comments, processing instructions (skipped), the five predefined
entities and numeric character references.  Not supported (not needed
for the paper's workloads): DTDs with custom entities,
namespaces-as-semantics (prefixes are kept verbatim in names).

Text handling follows the data model: the *value* of an element is its
directly contained character data (concatenated); text is not a vertex.
Whitespace-only content (indentation between child elements) is not a
value: every handler sees it as ``""``.
"""

from __future__ import annotations

import re
from typing import Protocol

from repro.errors import XmlParseError
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import NodeKind, XmlForest, XmlNode

#: Deepest element the tokenizer opens.  Its own stack is explicit, but
#: the library's recursive walkers over a parsed tree (``serialize``,
#: ``copy_subtree``, ``canonical``, ``renumber``, an in-memory
#: transform) spend Python frames per level; at this depth they still
#: finish under the default recursion limit.
MAX_NESTING = 200

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

# ``\w`` is ``str.isalnum()`` or "_": a name is a letter, "_" or ":"
# followed by those, digits and ".-·".  The pattern cannot say "letter"
# (``[^\W\d]`` lets other numerics through), so a name's first character
# is checked once, when the name is first seen.
_NAME = re.compile(r"[\w:][\w:.\-·]*")
_SPACE = re.compile(r"[ \t\r\n]*")
#: ``name = quote`` after optional white space, which leaves the cursor
#: on the value's first character.
_ATTRIBUTE = re.compile(r"[ \t\r\n]*([\w:][\w:.\-·]*)[ \t\r\n]*=[ \t\r\n]*([\"'])")
_DOCTYPE_MARK = re.compile(r"[\[\]>]")
#: A character XML 1.0's ``Char`` production leaves out: a control but
#: tab, newline and carriage return, a surrogate, U+FFFE or U+FFFF.
_NOT_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class Handler(Protocol):
    """What :func:`tokenize` reports to, in document order."""

    def start(self, name: str) -> None:
        """An element opens."""

    def attribute(self, name: str, value: str) -> None:
        """An attribute of the element opened last, references resolved."""

    def end(self, text: str) -> None:
        """The innermost open element closes; ``text`` is its value."""


def parse_document(text: str) -> XmlForest:
    """Parse a document with a single root element; Dewey ids assigned."""
    forest = parse_forest(text)
    if len(forest.roots) != 1:
        raise XmlParseError(
            f"expected a single document root, found {len(forest.roots)} roots"
        )
    return forest


def parse_forest(text: str) -> XmlForest:
    """Parse zero or more sibling root elements; Dewey ids assigned."""
    builder = _ForestBuilder()
    tokenize(text, builder)
    return XmlForest(builder.roots)


class _ForestBuilder:
    """The handler behind :func:`parse_forest`: one numbered node per event."""

    def __init__(self) -> None:
        self.roots: list[XmlNode] = []
        self._open: list[XmlNode] = []

    def start(self, name: str) -> None:
        self._open.append(self._attach(XmlNode(name)))

    def attribute(self, name: str, value: str) -> None:
        self._attach(XmlNode(name, NodeKind.ATTRIBUTE, value))

    def end(self, text: str) -> None:
        self._open.pop().text = text

    def _attach(self, node: XmlNode) -> XmlNode:
        """Append under the innermost open element, numbered by position
        (what :meth:`XmlForest.renumber` assigns)."""
        if self._open:
            parent = self._open[-1]
            node.parent = parent
            parent.children.append(node)
            node.dewey = parent.dewey.child(len(parent.children))
        else:
            self.roots.append(node)
            node.dewey = Dewey.root(len(self.roots))
        return node


def tokenize(text: str, handler: Handler) -> None:
    """Report the elements of zero or more sibling documents to ``handler``.

    Raises :class:`XmlParseError` with the line and column of the first
    thing wrong; the handler has then seen every event before it.  A
    character that is not an XML ``Char`` is wrong wherever it stands
    (text, a value, a name, a comment): one search finds the first, and
    it is reported unless the markup goes wrong before it.
    """
    found = _NOT_CHAR.search(text)
    if found is None:
        _tokenize(text, handler)
        return
    refusal = _error(text, f"invalid character U+{ord(found.group()):04X}", found.start())
    try:
        _tokenize(text, handler)
    except XmlParseError as error:
        if (error.line, error.column) < (refusal.line, refusal.column):
            raise
    raise refusal


def _tokenize(text: str, handler: Handler) -> None:
    start, attribute, end_element = handler.start, handler.attribute, handler.end
    find = text.find
    startswith = text.startswith
    length = len(text)
    names: set[str] = set()  # validated once each
    open_names: list[str] = []
    open_pieces: list[list[str]] = []
    pieces: list[str] = []  # character data of the innermost open element
    pos = 0
    while True:
        if open_names:
            lt = find("<", pos)
            stop = lt if lt != -1 else length
            if stop > pos:
                run = text[pos:stop]
                pieces.append(_resolve(text, pos, stop) if "&" in run else run)
            if lt == -1:
                raise _error(
                    text, f"unexpected end of input inside <{open_names[-1]}>", length
                )
        else:
            lt = _SPACE.match(text, pos).end()
            if lt == length:
                return
            if text[lt] != "<":
                raise _error(
                    text, "unexpected character data outside any element", lt
                )

        following = text[lt + 1 : lt + 2]
        if following == "/" and open_names:
            name = open_names.pop()
            pos = lt + 2 + len(name)
            if startswith(name, lt + 2) and startswith(">", pos):
                pos += 1
            else:
                pos = _end_tag(text, lt + 2, name)
            content = pieces[0] if len(pieces) == 1 else "".join(pieces)
            end_element("" if content.isspace() else content)
            pieces = open_pieces.pop()
            continue
        if following == "?":
            end = find("?>", lt + 2)
            if end == -1:
                raise _error(text, "unterminated processing instruction", lt)
            pos = end + 2
            continue
        if following == "!":
            if startswith("<!--", lt):
                end = find("-->", lt + 4)
                if end == -1:
                    raise _error(text, "unterminated comment", lt)
                pos = end + 3
                continue
            if open_names:
                if startswith("<![CDATA[", lt):
                    end = find("]]>", lt + 9)
                    if end == -1:
                        raise _error(text, "unterminated CDATA section", lt + 9)
                    pieces.append(text[lt + 9 : end])
                    pos = end + 3
                    continue
            elif startswith("<!DOCTYPE", lt):
                pos = _skip_doctype(text, lt)
                continue

        # A start tag.
        match = _NAME.match(text, lt + 1)
        if match is None or match.group() not in names:
            match = _name(text, lt + 1)
            names.add(match.group())
        name = match.group()
        if len(open_names) >= MAX_NESTING:
            raise _error(
                text,
                f"element <{name}> is nested {len(open_names) + 1} levels deep; "
                f"the parser opens at most {MAX_NESTING}",
                lt,
            )
        start(name)
        pos = match.end()
        while True:
            if startswith(">", pos):
                open_names.append(name)
                open_pieces.append(pieces)
                pieces = []
                pos += 1
                break
            if startswith("/>", pos):
                end_element("")
                pos += 2
                break
            match = _ATTRIBUTE.match(text, pos)
            if match is None:
                after = _SPACE.match(text, pos).end()
                if after == pos:
                    raise _attribute_error(text, pos)
                pos = after  # white space before the tag's end
                continue
            attribute_name, quote = match.groups()
            if attribute_name not in names:
                names.add(_name(text, match.start(1)).group())
            pos = match.end()
            end = find(quote, pos)
            if end == -1:
                _resolve(text, pos, length)  # a bad reference comes first
                raise _error(text, "unterminated attribute value", length)
            value = text[pos:end]
            attribute(
                attribute_name, _resolve(text, pos, end) if "&" in value else value
            )
            pos = end + 1


def _end_tag(text: str, pos: int, name: str) -> int:
    """The offset after ``name``'s end tag, whose name starts at ``pos``."""
    match = _name(text, pos)
    pos = match.end()
    if match.group() != name:
        raise _error(text, f"mismatched end tag </{match.group()}> for <{name}>", pos)
    pos = _SPACE.match(text, pos).end()
    if not text.startswith(">", pos):
        raise _expected(text, ">", pos)
    return pos + 1


def _skip_doctype(text: str, pos: int) -> int:
    """The offset after the DOCTYPE's closing ``>``, allowing one level of
    ``[...]`` internal subset."""
    depth = 0
    for mark in _DOCTYPE_MARK.finditer(text, pos):
        char = mark.group()
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        elif depth <= 0:
            return mark.end()
    raise _error(text, "unterminated DOCTYPE declaration", len(text))


def _resolve(text: str, start: int, stop: int) -> str:
    """``text[start:stop]`` with its entity and character references
    replaced.  A reference is read to the next ``;`` wherever that is,
    so a malformed one is reported before anything after it."""
    find = text.find
    pieces: list[str] = []
    ampersand = find("&", start, stop)
    while ampersand != -1:
        pieces.append(text[start:ampersand])
        end = find(";", ampersand)
        if end == -1 or end - ampersand > 12:
            raise _error(text, "malformed entity reference", ampersand)
        body = text[ampersand + 1 : end]
        if body.startswith("#"):
            pieces.append(_character(text, ampersand, body))
        elif body in _PREDEFINED_ENTITIES:
            pieces.append(_PREDEFINED_ENTITIES[body])
        else:
            raise _error(text, f"unknown entity &{body};", end + 1)
        start = end + 1
        ampersand = find("&", start, stop)
    pieces.append(text[start:stop])
    return "".join(pieces)


def _character(text: str, pos: int, body: str) -> str:
    """The character a numeric reference ``&{body};`` at ``pos`` names:
    its digits must parse and the code point be an XML ``Char``."""
    try:
        code = int(body[2:], 16) if body[1:2] in ("x", "X") else int(body[1:])
    except ValueError:
        code = -1
    if not (
        0x20 <= code <= 0xD7FF
        or code in (0x9, 0xA, 0xD)
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    ):
        raise _error(text, f"invalid character reference &{body};", pos)
    return chr(code)


# -- diagnostics -----------------------------------------------------------


def _name(text: str, pos: int) -> re.Match:
    """The name at ``pos``: what :data:`_NAME` matches there, if it
    starts with a letter, ``_`` or ``:``."""
    match = _NAME.match(text, pos)
    if match is not None and (text[pos].isalpha() or text[pos] in "_:"):
        return match
    if pos >= len(text):
        raise _error(text, "expected a name, found end of input", pos)
    raise _error(text, f"invalid name start character {text[pos]!r}", pos)


def _attribute_error(text: str, pos: int) -> XmlParseError:
    """Why :data:`_ATTRIBUTE` does not match at ``pos``: the first of a
    bad name, a missing ``=`` and an unquoted value."""
    pos = _SPACE.match(text, _name(text, pos).end()).end()
    if not text.startswith("=", pos):
        return _expected(text, "=", pos)
    pos = _SPACE.match(text, pos + 1).end()
    return _error(text, "attribute value must be quoted", pos)


def _expected(text: str, token: str, pos: int) -> XmlParseError:
    found = text[pos : pos + 10] or "<end of input>"
    return _error(text, f"expected {token!r}, found {found!r}", pos)


def _error(text: str, message: str, pos: int) -> XmlParseError:
    line = text.count("\n", 0, pos) + 1
    column = pos - text.rfind("\n", 0, pos)
    return XmlParseError(message, line=line, column=column)
