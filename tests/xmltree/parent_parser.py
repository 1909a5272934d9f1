"""The parser as it was before the tokenizer: the differential oracle.

``_Parser`` is the recursive-descent, character-at-a-time parser of
commit 634eb68, copied verbatim (with the ``parse_forest`` that drove
it).  ``test_parser_differential.py`` holds the tokenizer in
``repro.xmltree.parser`` to it: same tree, or same message, line and
column.  Not a test module itself.
"""

from __future__ import annotations

from repro.errors import XmlParseError
from repro.xmltree.node import NodeKind, XmlForest, XmlNode

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:.-·")


def parse_forest(text: str) -> XmlForest:
    """Parse zero or more sibling root elements; Dewey ids assigned."""
    parser = _Parser(text)
    forest = parser.parse()
    return forest.renumber()


class _Parser:
    """Recursive-descent parser over the raw document text."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.length = len(text)

    # -- public ----------------------------------------------------------

    def parse(self) -> XmlForest:
        roots: list[XmlNode] = []
        self._skip_misc()
        while self.pos < self.length:
            if not self._at("<"):
                raise self._error("unexpected character data outside any element")
            roots.append(self._parse_element())
            self._skip_misc()
        return XmlForest(roots)

    # -- grammar ---------------------------------------------------------

    def _parse_element(self) -> XmlNode:
        self._expect("<")
        name = self._parse_name()
        node = XmlNode(name, NodeKind.ELEMENT)
        self._skip_ws()
        while not self._at(">") and not self._at("/>"):
            attr_name = self._parse_name()
            self._skip_ws()
            self._expect("=")
            self._skip_ws()
            value = self._parse_attr_value()
            node.append(XmlNode(attr_name, NodeKind.ATTRIBUTE, value))
            self._skip_ws()
        if self._consume("/>"):
            return node
        self._expect(">")
        self._parse_content(node)
        return node

    def _parse_content(self, node: XmlNode) -> None:
        pieces: list[str] = []
        while True:
            if self.pos >= self.length:
                raise self._error(f"unexpected end of input inside <{node.name}>")
            if self._at("</"):
                self.pos += 2
                closing = self._parse_name()
                if closing != node.name:
                    raise self._error(
                        f"mismatched end tag </{closing}> for <{node.name}>"
                    )
                self._skip_ws()
                self._expect(">")
                text = "".join(pieces)
                # Data-centric normalization: whitespace-only content
                # (indentation between child elements) is not a value.
                node.text = text if text.strip() else ""
                return
            if self._at("<!--"):
                self._skip_comment()
            elif self._at("<![CDATA["):
                pieces.append(self._parse_cdata())
            elif self._at("<?"):
                self._skip_pi()
            elif self._at("<"):
                node.append(self._parse_element())
            else:
                pieces.append(self._parse_text())

    def _parse_text(self) -> str:
        start = self.pos
        pieces: list[str] = []
        while self.pos < self.length and self.text[self.pos] != "<":
            char = self.text[self.pos]
            if char == "&":
                pieces.append(self.text[start : self.pos])
                pieces.append(self._parse_entity())
                start = self.pos
            else:
                self.pos += 1
        pieces.append(self.text[start : self.pos])
        return "".join(pieces)

    def _parse_entity(self) -> str:
        end = self.text.find(";", self.pos)
        if end == -1 or end - self.pos > 12:
            raise self._error("malformed entity reference")
        body = self.text[self.pos + 1 : end]
        self.pos = end + 1
        if body.startswith("#x") or body.startswith("#X"):
            return chr(int(body[2:], 16))
        if body.startswith("#"):
            return chr(int(body[1:]))
        try:
            return _PREDEFINED_ENTITIES[body]
        except KeyError:
            raise self._error(f"unknown entity &{body};") from None

    def _parse_attr_value(self) -> str:
        quote = self.text[self.pos : self.pos + 1]
        if quote not in ("'", '"'):
            raise self._error("attribute value must be quoted")
        self.pos += 1
        start = self.pos
        pieces: list[str] = []
        while self.pos < self.length and self.text[self.pos] != quote:
            if self.text[self.pos] == "&":
                pieces.append(self.text[start : self.pos])
                pieces.append(self._parse_entity())
                start = self.pos
            else:
                self.pos += 1
        if self.pos >= self.length:
            raise self._error("unterminated attribute value")
        pieces.append(self.text[start : self.pos])
        self.pos += 1
        return "".join(pieces)

    def _parse_cdata(self) -> str:
        self.pos += len("<![CDATA[")
        end = self.text.find("]]>", self.pos)
        if end == -1:
            raise self._error("unterminated CDATA section")
        body = self.text[self.pos : end]
        self.pos = end + 3
        return body

    def _parse_name(self) -> str:
        start = self.pos
        if self.pos >= self.length:
            raise self._error("expected a name, found end of input")
        char = self.text[self.pos]
        if not (char.isalpha() or char in _NAME_START_EXTRA):
            raise self._error(f"invalid name start character {char!r}")
        self.pos += 1
        while self.pos < self.length:
            char = self.text[self.pos]
            if char.isalnum() or char in _NAME_EXTRA:
                self.pos += 1
            else:
                break
        return self.text[start : self.pos]

    # -- trivia ------------------------------------------------------------

    def _skip_misc(self) -> None:
        """Skip whitespace, comments, PIs and the XML declaration."""
        while True:
            self._skip_ws()
            if self._at("<!--"):
                self._skip_comment()
            elif self._at("<?"):
                self._skip_pi()
            elif self._at("<!DOCTYPE"):
                self._skip_doctype()
            else:
                return

    def _skip_comment(self) -> None:
        end = self.text.find("-->", self.pos + 4)
        if end == -1:
            raise self._error("unterminated comment")
        self.pos = end + 3

    def _skip_pi(self) -> None:
        end = self.text.find("?>", self.pos + 2)
        if end == -1:
            raise self._error("unterminated processing instruction")
        self.pos = end + 2

    def _skip_doctype(self) -> None:
        # Skip to the matching '>' allowing one level of [...] internal subset.
        depth = 0
        while self.pos < self.length:
            char = self.text[self.pos]
            self.pos += 1
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            elif char == ">" and depth <= 0:
                return
        raise self._error("unterminated DOCTYPE declaration")

    def _skip_ws(self) -> None:
        while self.pos < self.length and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    # -- low-level ----------------------------------------------------------

    def _at(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def _consume(self, token: str) -> bool:
        if self._at(token):
            self.pos += len(token)
            return True
        return False

    def _expect(self, token: str) -> None:
        if not self._consume(token):
            found = self.text[self.pos : self.pos + 10] or "<end of input>"
            raise self._error(f"expected {token!r}, found {found!r}")

    def _error(self, message: str) -> XmlParseError:
        line = self.text.count("\n", 0, self.pos) + 1
        last_newline = self.text.rfind("\n", 0, self.pos)
        column = self.pos - last_newline
        return XmlParseError(message, line=line, column=column)
