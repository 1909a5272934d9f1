"""A copied leaf is one write: the text sink's leaf columns.

A backed leaf child is written from its sequence's column of whole
leaf elements (:meth:`repro.closeness.index.TypeSequence.leaves`), one
read and one write per partner, and a child type that holds no
attribute skips the start tag's attribute pass.  Both flavours are
checked against the oracle: ``xml()`` is ``serialize()`` of
``reference_render``'s forest, and ``xml_json()`` is
``json.dumps(xml())[1:-1]``.
"""

import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.closeness.index import TypeSequence
from repro.engine import compile as engine_compile
from repro.errors import XMorphError
from repro.storage import Database
from repro.workloads import generate_dblp
from repro.xmltree.serializer import escape_attr, escape_text, serialize

from tests.engine.oracle import reference_render

#: Texts the two flavours escape differently: markup, quotes, non-ASCII
#: (one outside the BMP, which JSON writes as a surrogate pair).
TEXTS = ["", "x", "&", "<", '"', "a<b & \"c\"", "é", "中&😀", "'>"]


def expected_xml(forest, guard: str, index=None) -> str:
    interpreter = repro.Interpreter(forest)
    shape = interpreter.compile(guard).target_shape
    return serialize(reference_render(shape, index or interpreter.index).forest)


def assert_flavours(forest, guard: str) -> str:
    """Both flavours of a fresh in-memory transform against the oracle."""
    expected = expected_xml(forest, guard)
    assert repro.transform(forest, guard).xml() == expected
    assert repro.transform(forest, guard).xml_json() == json.dumps(expected)[1:-1]
    return expected


def assert_stored_flavours(tmp_path, text: str, guard: str) -> str:
    """Both flavours from a store, cold and warm, against the oracle
    run over the stored index."""
    forest = repro.parse_forest(text)
    with Database(str(tmp_path / "leaf.db"), durable=False) as db:
        db.store_document("doc", text)
        expected = expected_xml(forest, guard, db.index("doc"))
        for _ in range(2):
            xml = db.transform("doc", guard).xml()
            assert xml == expected
            assert db.transform("doc", guard).xml_json() == json.dumps(xml)[1:-1]
            db.drop_cache()
    return expected


@st.composite
def mixed_documents(draw) -> str:
    """``p`` elements whose ``b`` is an attribute in some and a child
    element in others (one type, either kind seen first), beside a
    plain leaf ``c``."""
    value = st.sampled_from(TEXTS)
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        attribute = draw(st.one_of(st.none(), value))
        head = "<p" if attribute is None else f'<p b="{escape_attr(attribute)}"'
        children = [
            f"<{name}>{escape_text(draw(value))}</{name}>"
            for name in draw(st.lists(st.sampled_from(["b", "c"]), max_size=3))
        ]
        parts.append(f"{head}>{escape_text(draw(value))}{''.join(children)}</p>")
    return f"<r>{''.join(parts)}</r>"


MIXED_GUARDS = [
    "MORPH p [ b ]",
    "MORPH p [ b c ]",
    "MORPH p [ c b ]",
    "MORPH r [ p [ b c ] ]",
    "MORPH c [ b ]",
    "MUTATE (NEW w) [ p b ]",
]


class TestMixedAttributeAndElementType:
    @given(text=mixed_documents(), guard=st.sampled_from(MIXED_GUARDS))
    @settings(max_examples=120, deadline=None)
    def test_both_flavours_match_the_oracle(self, text, guard):
        forest = repro.parse_forest(text)
        try:
            repro.Interpreter(forest).compile(f"CAST ({guard})")
        except XMorphError:
            assume(False)
        assert_flavours(forest, f"CAST ({guard})")

    def test_the_attribute_lands_in_the_start_tag_only(self):
        forest = repro.parse_forest('<r><p b="1"><c>x</c></p><p><b>2</b></p></r>')
        assert assert_flavours(forest, "CAST (MORPH p [ b c ])") == (
            '<p b="1"><c>x</c></p>\n<p><b>2</b></p>'
        )


class TestEscapes:
    @pytest.mark.parametrize("text", TEXTS)
    def test_leaf_texts(self, tmp_path, text):
        document = (
            f'<r><a n="{escape_attr(text)}"><t>{escape_text(text)}</t><e/></a>'
            f"<a><t>{escape_text(text)}</t><e>{escape_text(text)}</e></a></r>"
        )
        guard = "CAST (MORPH a [ t e n ])"
        expected = assert_flavours(repro.parse_forest(document), guard)
        assert "<e/>" in expected
        assert assert_stored_flavours(tmp_path, document, guard) == expected

    def test_non_ascii_tag_names(self, tmp_path):
        document = "<r><ñame>中&amp;😀</ñame><ñame/></r>"
        expected = assert_flavours(repro.parse_forest(document), "MORPH r [ ñame ]")
        assert expected == "<r><ñame>中&amp;😀</ñame><ñame/></r>"
        assert assert_stored_flavours(tmp_path, document, "MORPH r [ ñame ]") == expected


class TestMutedAttributeSubtree:
    def test_leaves_under_an_attribute_are_not_written(self, tmp_path):
        # ``b`` is an attribute of the first ``p`` and an element of the
        # second; its copied children are written under the element only.
        document = (
            '<r><p b="1"><c>under-attribute</c></p>'
            "<p><b>2</b><c>under-element</c></p></r>"
        )
        guard = "CAST (MORPH p [ b [ c ] ])"
        expected = assert_flavours(repro.parse_forest(document), guard)
        assert "under-attribute" not in expected and "under-element" in expected
        assert assert_stored_flavours(tmp_path, document, guard) == expected


class TestDeeperThanInlineLevels:
    def test_leaves_inside_helpers(self, tmp_path):
        depth = engine_compile._INLINE_LEVELS + 3
        document = "".join(
            f'<l{level} a="{level}&amp;&quot;"><v{level}>{level}&lt;é</v{level}><w{level}/>'
            for level in range(depth)
        ) + "".join(f"</l{level}>" for level in reversed(range(depth)))
        guard = "MORPH " + "".join(
            f"l{level} [ v{level} w{level} a " for level in range(depth)
        ) + "]" * depth
        result = repro.transform(repro.parse_forest(document), guard)
        result.xml()
        assert "def _h" in result.compiled_render.sources["text"]
        expected = assert_flavours(repro.parse_forest(document), guard)
        assert f"<v{depth - 1}>{depth - 1}&lt;é</v{depth - 1}>" in expected
        assert assert_stored_flavours(tmp_path, document, guard) == expected


@pytest.fixture
def column_calls(monkeypatch):
    """Every ``TypeSequence.leaves`` call: ``(sequence, flavour, name,
    column)``; the column is kept, so its ``id`` is never reused."""
    calls = []
    leaves = TypeSequence.leaves

    def recording(sequence, flavour, name):
        column = leaves(sequence, flavour, name)
        calls.append((sequence, flavour, name, column))
        return column

    monkeypatch.setattr(TypeSequence, "leaves", recording)
    return calls


def builds(calls) -> dict[tuple, int]:
    """Distinct columns handed out per ``(sequence, flavour, name)``."""
    columns: dict[tuple, set[int]] = {}
    for sequence, flavour, name, column in calls:
        columns.setdefault((id(sequence), flavour, name), set()).add(id(column))
    return {key: len(ids) for key, ids in columns.items()}


class TestColumnLifetime:
    GUARD = "CAST MORPH author [ title year pages ]"

    def test_built_once_per_sequence_flavour_and_tag(self, tmp_path, column_calls):
        with Database(str(tmp_path / "dblp.db"), durable=False) as db:
            db.store_document("dblp", generate_dblp(30))
            for _ in range(3):
                text = db.transform("dblp", self.GUARD).xml()
                body = db.transform("dblp", self.GUARD).xml_json()
            assert body == json.dumps(text)[1:-1]
            names = {(flavour, name) for _, flavour, name, _ in column_calls}
            assert names == {
                (flavour, name)
                for flavour in ("escaped", "json")
                for name in ("title", "year", "pages")
            }
            # Three renders per flavour, one build per key.
            assert len(column_calls) == 3 * len(builds(column_calls))
            assert set(builds(column_calls).values()) == {1}
            first = {
                (sequence.data_type, flavour, name): column
                for sequence, flavour, name, column in column_calls
            }

            db.drop_cache()
            column_calls.clear()
            assert db.transform("dblp", self.GUARD).xml() == text
            assert db.transform("dblp", self.GUARD).xml_json() == body
            assert set(builds(column_calls).values()) == {1}
            assert len(column_calls) == len(first)
            for sequence, flavour, name, column in column_calls:
                assert column is not first[(sequence.data_type, flavour, name)]
                assert column == first[(sequence.data_type, flavour, name)]

    def test_the_empty_stand_in_memoizes_nothing(self, column_calls):
        # ``a`` has no ``b`` to be closest to (two roots), so the
        # RESTRICT leaves no ``a`` and its leaf child ``c`` is never
        # fetched: the render reads the shared empty sequence.
        forest = repro.parse_forest("<a>1<c>x</c></a><b/>")
        result = repro.transform(forest, "MORPH (RESTRICT a [ b ]) [ c ]")
        assert result.xml() == "" and result.xml_json() == ""
        assert any(call[0] is engine_compile._NO_SEQUENCE for call in column_calls)
        assert engine_compile._NO_SEQUENCE._leaves == {}


class TestGeneratedSource:
    def test_a_leaf_child_has_no_per_node_attribute_test(self):
        forest = repro.parse_forest(
            '<r><a id="1"><t>x</t><y>1</y></a><a><t>z</t></a></r>'
        )
        result = repro.transform(forest, "CAST (MORPH a [ t y id ])")
        result.xml()
        source = result.compiled_render.sources["text"]
        lines = source.splitlines()
        leaves = dict(re.findall(r"_L(\d+) = _S\[\d+\]\.leaves\(_flavour, '(\w+)'\)", source))
        assert sorted(leaves.values()) == ["id", "t", "y"]
        assert "_A" not in source
        # A leaf is written from its column, so nothing is muted.
        assert "_discard" not in source
        for slot, name in leaves.items():
            assert f"for _x in _m{slot}: _w(_L{slot}(_x))" in source
            assert f"if not _a{slot}" not in source
            tests = [i for i, line in enumerate(lines) if f"_a{slot}[" in line]
            if name != "id":
                # An attribute-free type has no flag column and no test.
                assert tests == [] and f"_a{slot} =" not in source
                continue
            # The one flag test left is the start tag's.
            assert len(tests) == 1
            assert lines[tests[0] - 1].strip() == f"for _x in _m{slot}:"
