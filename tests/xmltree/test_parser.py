"""Tests for the XML parser."""

import pytest
from hypothesis import given

from repro.errors import XmlParseError
from repro.xmltree import parse_document, parse_forest, serialize

from tests.strategies import xml_forests


class TestBasics:
    def test_single_element(self):
        forest = parse_document("<a/>")
        assert forest.roots[0].name == "a"
        assert forest.roots[0].children == []

    def test_nested_elements(self, fig1a):
        book = fig1a.roots[0].children[0]
        assert book.name == "book"
        assert [child.name for child in book.children] == ["title", "author", "publisher"]

    def test_text_content(self):
        forest = parse_document("<a>hello</a>")
        assert forest.roots[0].text == "hello"

    def test_mixed_text_is_concatenated(self):
        forest = parse_document("<a>one<b/>two</a>")
        assert forest.roots[0].text == "onetwo"

    def test_attributes_become_vertices(self):
        forest = parse_document('<a x="1" y="two words"/>')
        attrs = forest.roots[0].attributes()
        assert [(a.name, a.text) for a in attrs] == [("x", "1"), ("y", "two words")]
        assert attrs[0].dewey is not None and attrs[0].dewey.level == 1

    def test_single_quoted_attribute(self):
        forest = parse_document("<a x='1'/>")
        assert forest.roots[0].attribute("x").text == "1"

    def test_forest_of_roots(self):
        forest = parse_forest("<a/><b/>")
        assert [root.name for root in forest.roots] == ["a", "b"]

    def test_document_requires_single_root(self):
        with pytest.raises(XmlParseError):
            parse_document("<a/><b/>")


class TestEntitiesAndSections:
    def test_predefined_entities(self):
        forest = parse_document("<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos;</a>")
        assert forest.roots[0].text == "<x> & \"y\" 'z'"

    def test_numeric_entities(self):
        forest = parse_document("<a>&#65;&#x42;</a>")
        assert forest.roots[0].text == "AB"

    def test_entity_in_attribute(self):
        forest = parse_document('<a x="a&amp;b"/>')
        assert forest.roots[0].attribute("x").text == "a&b"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XmlParseError):
            parse_document("<a>&nope;</a>")

    def test_cdata(self):
        forest = parse_document("<a><![CDATA[<not> & parsed]]></a>")
        assert forest.roots[0].text == "<not> & parsed"

    def test_comments_skipped(self):
        forest = parse_document("<!-- head --><a><!-- inner --><b/></a>")
        assert [child.name for child in forest.roots[0].children] == ["b"]

    def test_declaration_and_doctype_skipped(self):
        text = '<?xml version="1.0"?><!DOCTYPE data [<!ELEMENT a ANY>]><a/>'
        assert parse_document(text).roots[0].name == "a"

    def test_processing_instruction_skipped(self):
        forest = parse_document("<a><?target data?><b/></a>")
        assert [child.name for child in forest.roots[0].children] == ["b"]


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "<a>",  # unterminated
            "<a></b>",  # mismatched tags
            "<a x=1/>",  # unquoted attribute
            "<a><b></a></b>",  # crossed nesting
            "just text",  # no element
            "<a x='1/>",  # unterminated attribute value
            "<1bad/>",  # invalid name start
            "<!-- unterminated <a/>",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(XmlParseError):
            parse_forest(text)

    def test_error_carries_location(self):
        with pytest.raises(XmlParseError) as info:
            parse_document("<a>\n  <b></c>\n</a>")
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "text, code, column",
        [
            ("<a>x\x00y</a>", "U+0000", 5),
            ('<a b="x\x00"/>', "U+0000", 8),
            ("<a>\x01</a>", "U+0001", 4),
            ("<a>\ufffe</a>", "U+FFFE", 4),
            ("<a>\ud800</a>", "U+D800", 4),
            ("<a><!-- \x1f --></a>", "U+001F", 9),
            ("<a\x0b/>", "U+000B", 3),
        ],
    )
    def test_a_raw_character_that_is_not_an_xml_char(self, text, code, column):
        """Refused as its reference (``&#0;``) is, at the character."""
        with pytest.raises(XmlParseError) as info:
            parse_forest(text)
        assert str(info.value).startswith(f"invalid character {code} ")
        assert (info.value.line, info.value.column) == (1, column)

    def test_markup_wrong_before_a_bad_character_is_reported_first(self):
        with pytest.raises(XmlParseError, match="mismatched end tag") as info:
            parse_forest("<a></b>\x00")
        assert info.value.column == 7

    def test_tab_newline_and_carriage_return_are_characters(self):
        assert parse_forest("<a b='\t'>\tx\r\ny</a>").roots[0].text == "\tx\r\ny"


class TestRoundtrip:
    def test_fig1_roundtrip(self, fig1a):
        again = parse_document(serialize(fig1a))
        assert again.canonical() == fig1a.canonical()

    @given(xml_forests())
    def test_serialize_parse_roundtrip(self, forest):
        again = parse_forest(serialize(forest))
        assert again.canonical() == forest.canonical()

    @given(xml_forests())
    def test_indented_roundtrip(self, forest):
        again = parse_forest(serialize(forest, indent=2))
        # Indentation adds whitespace-only text; canonical() strips it.
        assert again.canonical() == forest.canonical()
