"""Tests for XML serialization."""

from io import StringIO

from repro.xmltree import element, attribute, serialize, parse_document
from repro.xmltree.node import XmlForest
from repro.xmltree.serializer import escape_attr, escape_text, escape_texts, write


class TestEscaping:
    def test_text_escapes(self):
        assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"

    def test_attr_escapes_quotes(self):
        assert escape_attr('say "hi" & <bye>') == "say &quot;hi&quot; &amp; &lt;bye&gt;"

    def test_column_escapes_every_value(self):
        values = ["", "plain", 'a<b & "c"', "x>y"]
        assert escape_texts(values) == [escape_text(value) for value in values]

    def test_column_without_markup_is_the_values(self):
        values = ["", "plain", '"quoted"', "it's"]
        assert escape_texts(values) is values


class TestShapes:
    def test_self_closing_empty(self):
        assert serialize(element("a")) == "<a/>"

    def test_text_only(self):
        assert serialize(element("a", text="hi")) == "<a>hi</a>"

    def test_attributes_in_start_tag(self):
        node = element("a", attribute("x", "1"), attribute("y", "2"))
        assert serialize(node) == '<a x="1" y="2"/>'

    def test_attributes_with_children(self):
        node = element("a", attribute("x", "1"), element("b"))
        assert serialize(node) == '<a x="1"><b/></a>'

    def test_text_before_children(self):
        node = element("a", element("b"), text="hi")
        assert serialize(node) == "<a>hi<b/></a>"

    def test_forest_roots_separated(self):
        forest = XmlForest([element("a"), element("b")])
        assert serialize(forest) == "<a/>\n<b/>"


class TestIndent:
    def test_indented_output(self):
        node = element("a", element("b", element("c")))
        expected = "<a>\n  <b>\n    <c/>\n  </b>\n</a>\n"
        assert serialize(node, indent=2) == expected

    def test_indent_strips_text_padding(self):
        text = "<a>\n  <b>hello</b>\n</a>"
        forest = parse_document(text)
        assert "hello" in serialize(forest, indent=2)


class TestWriteReturnsLength:
    def test_written_count_matches(self):
        node = element("a", attribute("x", "1"), element("b", text="hi"))
        out = StringIO()
        count = write(node, out)
        assert count == len(out.getvalue())

    def test_written_count_matches_indented(self):
        node = element("a", element("b", element("c", text="deep")))
        out = StringIO()
        count = write(node, out, indent=2)
        assert count == len(out.getvalue())
