"""Hostile input ends in a located ``XmlParseError``.

A malformed character reference used to escape as ``ValueError`` (or
parse to a lone surrogate that blew up later, in the shredder), and
~500 levels of nesting as ``RecursionError``.
"""

import pytest

import repro
from repro.errors import XmlParseError
from repro.xmltree import parse_document, parser, serialize

BAD_REFERENCES = ["&#xZZ;", "&#;", "&#x;", "&#1114112;", "&#-5;", "&#xD800;"]


@pytest.mark.parametrize("reference", BAD_REFERENCES)
def test_bad_character_reference_in_text(reference):
    with pytest.raises(XmlParseError) as info:
        parse_document(f"<a>\n  <b>ok {reference}</b>\n</a>")
    assert "invalid character reference" in str(info.value)
    assert reference in str(info.value)
    assert (info.value.line, info.value.column) == (2, 9)


@pytest.mark.parametrize("reference", BAD_REFERENCES)
def test_bad_character_reference_in_attribute(reference):
    with pytest.raises(XmlParseError) as info:
        parse_document(f"<a>\n<b k='v' x='{reference}'/></a>")
    assert "invalid character reference" in str(info.value)
    assert (info.value.line, info.value.column) == (2, 13)


def test_every_xml_char_can_be_referenced():
    text = parse_document(
        "<a>&#x9;&#xA;&#xD;&#x20;&#xD7FF;&#xE000;&#xFFFD;&#x10000;&#x10FFFF;</a>"
    )
    assert text.roots[0].text == "\t\n\r \ud7ff\ue000\ufffd\U00010000\U0010ffff"
    for code in (0x0, 0x8, 0xB, 0x1F, 0xDFFF, 0xFFFE, 0xFFFF):
        with pytest.raises(XmlParseError):
            parse_document(f"<a>&#{code};</a>")


@pytest.mark.parametrize("code", [0x0, 0x8, 0xB, 0x1F, 0xDFFF, 0xFFFE, 0xFFFF])
def test_no_character_that_cannot_be_referenced_stands_raw(code):
    """What ``&#...;`` may not name may not stand in the text either:
    text, an attribute value or a name, each located at the character."""
    char = chr(code)
    for text, place in [
        (f"<a>\n  <b>ok {char}</b>\n</a>", (2, 9)),
        (f"<a>\n<b k='v' x='{char}'/></a>", (2, 13)),
        (f"<a>\n<b{char}/></a>", (2, 3)),
    ]:
        with pytest.raises(XmlParseError) as info:
            parse_document(text)
        assert f"invalid character U+{code:04X}" in str(info.value)
        assert (info.value.line, info.value.column) == place


def nest(depth, leaf='<leaf k="v">x</leaf>'):
    """A document whose ``leaf`` element is ``depth`` levels deep."""
    return "<a>\n" * (depth - 1) + leaf + "</a>" * (depth - 1)


class TestNestingLimit:
    def test_the_limit_itself_parses_and_the_recursive_walkers_finish(self):
        """Pinned at exactly the limit: everything in the library that
        still recurses per level finishes there under the default
        recursion limit."""
        forest = parse_document(nest(parser.MAX_NESTING))
        deepest = max(forest.iter_nodes(), key=lambda node: len(node.dewey))
        # The leaf's attribute is one level below the deepest element.
        assert len(deepest.dewey) == parser.MAX_NESTING + 1
        assert parse_document(serialize(forest)).canonical() == forest.canonical()
        assert serialize(forest, indent=1).count("\n") >= parser.MAX_NESTING
        copy = forest.roots[0].copy_subtree()
        assert copy.canonical() == forest.roots[0].canonical()
        assert forest.renumber().roots[0].dewey.parts == (1,)
        result = repro.Interpreter(forest).transform("MORPH leaf [ k ]")
        assert result.xml() == '<leaf k="v">x</leaf>'

    def test_one_level_more_is_refused_with_depth_limit_and_position(self):
        depth = parser.MAX_NESTING + 1
        with pytest.raises(XmlParseError) as info:
            parse_document(nest(depth))
        message = str(info.value)
        assert "<leaf>" in message
        assert f"{depth} levels" in message and f"at most {parser.MAX_NESTING}" in message
        assert (info.value.line, info.value.column) == (depth, 1)

    def test_600_levels_is_a_parse_error_not_a_recursion_error(self):
        with pytest.raises(XmlParseError) as info:
            parse_document("<a>" * 600 + "x" + "</a>" * 600)
        assert info.value.line == 1
        assert info.value.column == 3 * parser.MAX_NESTING + 1

    def test_siblings_do_not_count_as_depth(self):
        wide = "<r>" + "<c><d/></c>" * (parser.MAX_NESTING * 3) + "</r>"
        assert parse_document(wide).node_count() == 1 + 6 * parser.MAX_NESTING
