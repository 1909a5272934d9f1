"""The tokenizer against the parser it replaced.

``parent_parser._Parser`` is the recursive-descent parser of the commit
before the rewrite, verbatim.  For well-formed and for broken input
alike the two must agree: the same tree — name, kind, text, Dewey and
parent of every node — or an ``XmlParseError`` with the same message,
line and column.  There are two listed exceptions.  One is a character
reference whose digits do not parse or whose code point is not an XML
``Char``: the old parser let ``int()`` / ``chr()`` raise (or built a
lone surrogate); the tokenizer reports it, located.  The other is a raw
character that is not an XML ``Char``: the old parser kept it, the
tokenizer reports it where it stands.
"""

import random
import re

import pytest
from hypothesis import given

from repro.errors import XmlParseError
from repro.workloads.dblp import generate_dblp_xml
from repro.workloads.xmark import generate_xmark_xml
from repro.xmltree import parser, serialize

from tests.strategies import xml_forests
from tests.xmltree import parent_parser


def outcome(parse_forest, text):
    try:
        forest = parse_forest(text)
    except XmlParseError as error:
        return "error", str(error), error.line, error.column
    except (ValueError, OverflowError) as error:
        return "crash", type(error).__name__
    return "tree", [
        (
            node.name,
            node.kind,
            node.text,
            node.dewey,
            node.parent and node.parent.dewey,
        )
        for node in forest.iter_nodes()
    ]


def is_xml_char(code):
    return (
        code in (0x9, 0xA, 0xD)
        or 0x20 <= code <= 0xD7FF
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    )


def names_a_bad_reference(text, line, column):
    """Whether ``&#...;`` at (line, column) really is not a character."""
    offset = sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + column - 1
    reference = re.match(r"&#([^;]{0,11});", text[offset:])
    if reference is None:
        return False
    body = reference.group(1)
    try:
        code = int(body[1:], 16) if body[:1] in ("x", "X") else int(body)
    except ValueError:
        return True
    return not is_xml_char(code)


def stands_at_a_raw_non_char(text, line, column):
    """Whether the character at (line, column) is not an XML ``Char``."""
    offset = sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + column - 1
    return offset < len(text) and not is_xml_char(ord(text[offset]))


def assert_same(text):
    expected = outcome(parent_parser.parse_forest, text)
    actual = outcome(parser.parse_forest, text)
    if actual[0] == "error" and actual[1].startswith("invalid character reference"):
        assert names_a_bad_reference(text, actual[2], actual[3]), (text, actual)
        return
    if actual[0] == "error" and re.match(r"invalid character U\+[0-9A-F]{4} ", actual[1]):
        assert stands_at_a_raw_non_char(text, actual[2], actual[3]), (text, actual)
        return
    assert actual == expected, text


@given(xml_forests())
def test_serialized_forests_parse_alike(forest):
    assert_same(serialize(forest))
    assert_same(serialize(forest, indent=2))


SEEDS = {
    "dblp": generate_dblp_xml(3, seed=5),
    "dblp-indented": serialize(parser.parse_forest(generate_dblp_xml(2, seed=6)), indent=2),
    "xmark": generate_xmark_xml(0.0001, seed=7)[:4000],
    "sections": (
        '<?xml version="1.0"?>\n'
        "<!DOCTYPE data [<!ELEMENT a ANY> <!ENTITY % x 'y'>]>\n"
        "<!-- head -->\n"
        "<a x=\"1\" y='two &amp; &#65;' a:b = \"q\">\n"
        "  t&lt;x<![CDATA[<not> & parsed]]>\n"
        '  <?pi data?><b z="&quot;"/><!-- c --><c>&#x42;&apos;&gt;</c >\n'
        "</a>\n"
        "<d k.k-k·k=''/>"
    ),
}
MUTATIONS = "<>/&;\"'=!-[]?"


@pytest.mark.parametrize("name", SEEDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mutated_documents_parse_alike(name, seed):
    rng = random.Random(f"{name}/{seed}")
    assert_same(SEEDS[name])
    for _ in range(250):
        text = SEEDS[name]
        for _ in range(rng.choice([1, 1, 2, 3])):
            position = rng.randrange(len(text) + 1)
            kind = rng.random()
            if kind < 0.4:  # insert
                text = text[:position] + rng.choice(MUTATIONS) + text[position:]
            elif kind < 0.7:  # delete
                text = text[:position] + text[position + 1 :]
            else:  # replace
                text = text[:position] + rng.choice(MUTATIONS) + text[position + 1 :]
        assert_same(text)


@pytest.mark.parametrize(
    "text",
    [
        "<a x=\"&amp\" y=\";\">",  # a reference that runs past its value
        "<a x=\"&bad; ",  # unknown entity in an unterminated value
        "<a x='&#x41' y='&nope;'/>",
        "<a>&<b>;</b></a>",
        "<a x=1/>",
        "<a x/>",
        "<a 1x='v'/>",
        "<a x='1'y='2'/>",
        "<a",
        "<a ",
        "<a/",
        "<",
        "<a></a",
        "<a></ a>",
        "<a></ab>",
        "<a><![CDATA[x</a>",
        "<![CDATA[x]]>",
        "<a><!DOCTYPE x></a>",
        "<!DOCTYPE x [ <!-- > --> ] ><a/>",
        "<!DOCTYPE x [",
        "</a>",
        "<a><!-->--></a>",
        "<a><?></a>",
        "  \n <a/> \n text",
        "<²/>",
        "<a²/>",
        "<é·é é='é'>é</é·é>",
        "<a>&# 65;&#+66;&#x0x43;</a>",  # int() is what reads the digits
        "<a>x\x00y</a>",  # raw characters that are not an XML Char
        "<a b='\x01'>\ufffe</a>",
        "<a><!-- \x1f --></a>",
        "<a></b>\x00",  # the markup goes wrong first
    ],
)
def test_corner_cases_parse_alike(text):
    assert_same(text)
