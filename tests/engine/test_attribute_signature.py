"""The text sink is generated per attribute signature.

A render's signature says which backed child edges fetched a sequence
that holds an attribute.  A plan keeps one text function per signature
it has rendered: a type that holds no attribute gets no flag column, no
start-tag attribute pass and no muted writer, and one that does keeps
them.  Every check here is against the oracle,
``tests.engine.oracle.reference_render``: ``xml()`` is ``serialize()``
of its forest and ``xml_json()`` is ``json.dumps(xml())[1:-1]``.
"""

import json
import os
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.engine import compile as engine_compile
from repro.errors import XMorphError
from repro.storage import Database
from repro.xmltree.serializer import serialize

from tests.engine.oracle import reference_render
from tests.engine.test_parity import GUARD_DIR, assert_parity, corpus_guards

#: One plan, two signatures: ``b`` is an element in one document and an
#: attribute in the other, and the two shapes share a fingerprint.
ELEMENT_DOC = "<r><a><b>1</b><c>x</c></a></r>"
ATTRIBUTE_DOC = '<r><a b="1"><c>x</c></a></r>'
GUARD = "CAST MORPH a [ b c ]"

MIXED_GUARDS = [
    "MORPH a [ b c ]",
    "MORPH a [ b [ d ] c ]",
    "MORPH c [ a [ b ] ]",
    "MORPH r [ a [ b [ d ] ] ]",
    "MORPH b [ d ]",
    "MORPH d [ b ]",
    "MUTATE (NEW w) [ a b ]",
    "MORPH a [ (NEW n) [ b c ] ]",
]


@st.composite
def mixed_documents(draw) -> str:
    """``a`` elements whose ``b`` is an attribute in some and an element,
    with ``d`` children of its own, in others; beside a ``c`` element
    with ``d`` children."""
    text = st.sampled_from(["", "1", "x&y", '"q"'])
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        head = "<a"
        if draw(st.booleans()):
            head += f' b="{draw(text).replace("&", "&amp;").replace(chr(34), "&quot;")}"'
        body = []
        for name in draw(st.lists(st.sampled_from(["b", "c"]), max_size=3)):
            inner = "".join(f"<d>{i}</d>" for i in range(draw(st.integers(0, 2))))
            body.append(f"<{name}>{inner}</{name}>")
        parts.append(f"{head}>{''.join(body)}</a>")
    return f"<r>{''.join(parts)}</r>"


def expected_xml(text: str, guard: str, index=None) -> str:
    interpreter = repro.Interpreter(repro.parse_forest(text))
    shape = interpreter.compile(guard).target_shape
    return serialize(reference_render(shape, index or interpreter.index).forest)


class TestAttributeCorpus:
    """Every shipped example guard over ``books_attributes.xml``: the
    shape of ``books.xml``, with ``name`` and ``title`` attributes in
    some instances and elements in others."""

    @pytest.fixture(scope="class")
    def books(self):
        path = os.path.join(GUARD_DIR, "books_attributes.xml")
        with open(path, encoding="utf-8") as handle:
            return repro.parse_forest(handle.read())

    @pytest.mark.parametrize("guard", corpus_guards())
    def test_corpus_guard(self, books, guard):
        _reference, _tree, expected, _stats = assert_parity(books, guard)
        assert repro.transform(books, guard).xml_json() == json.dumps(expected)[1:-1]


class TestMixedParity:
    @given(text=mixed_documents(), guard=st.sampled_from(MIXED_GUARDS))
    @settings(max_examples=150, deadline=None)
    def test_both_flavours_match_the_oracle(self, text, guard):
        forest = repro.parse_forest(text)
        try:
            repro.Interpreter(forest).compile(f"CAST ({guard})")
        except XMorphError:
            assume(False)
        _reference, _tree, expected, _stats = assert_parity(forest, f"CAST ({guard})")
        result = repro.transform(forest, f"CAST ({guard})")
        assert result.xml_json() == json.dumps(expected)[1:-1]
        source = result.compiled_render.sources["text"]
        if "b=" not in text:
            # No attribute anywhere: no flag column, no muted writer.
            assert "_discard" not in source and "_quote" not in source
            assert re.search(r"_a\d", source) is None


def render_counting(monkeypatch) -> list[int]:
    """Each text-sink code generation, by signature."""
    generated: list[int] = []
    real = engine_compile._Codegen.generate

    def generate(self):
        if self.text:
            generated.append(self.signature)
        return real(self)

    monkeypatch.setattr(engine_compile._Codegen, "generate", generate)
    return generated


class TestOnePlanTwoSignatures:
    def test_documents_share_a_fingerprint(self, tmp_path):
        with Database(str(tmp_path / "s.db"), durable=False) as db:
            db.store_document("el", ELEMENT_DOC)
            db.store_document("at", ATTRIBUTE_DOC)
            assert db.index("el").fingerprint == db.index("at").fingerprint

    def test_alternating_renders_match_the_oracle(self, tmp_path, monkeypatch):
        generated = render_counting(monkeypatch)
        with Database(str(tmp_path / "s.db"), durable=False) as db:
            db.store_document("el", ELEMENT_DOC)
            db.store_document("at", ATTRIBUTE_DOC)
            expected = {
                name: expected_xml(text, GUARD, db.index(name))
                for name, text in (("el", ELEMENT_DOC), ("at", ATTRIBUTE_DOC))
            }
            assert expected["el"] == "<a><b>1</b><c>x</c></a>"
            assert expected["at"] == '<a b="1"><c>x</c></a>'
            for name in ("el", "at", "el", "at"):
                result = db.transform(name, GUARD)
                xml = result.xml()
                assert xml == expected[name]
                assert db.transform(name, GUARD).xml_json() == json.dumps(xml)[1:-1]
            stats = db.plan_cache.stats()
            assert stats["entries"] == 1 and stats["misses"] == 1
            # One generation per signature, the JSON flavour included;
            # the repeats generate nothing.
            assert len(generated) == 2 and len(set(generated)) == 2
            assert generated[0] == 0 and generated[1] != 0
            functions = result.compiled_render._functions
            assert {sink for sink, _signature in functions} == {"text", "json"}
            assert len(functions) == 4

    def test_in_memory_plans_count_the_same(self, monkeypatch):
        generated = render_counting(monkeypatch)
        for text in (ELEMENT_DOC, ATTRIBUTE_DOC):
            interpreter = repro.Interpreter(repro.parse_forest(text))
            compiled = interpreter.compile(GUARD)
            for _ in range(2):
                result = compiled.planned(interpreter.index)
                assert result.xml() == expected_xml(text, GUARD)
                result.xml_json()
        assert generated == [0, generated[1]] and generated[1] != 0

    def test_attribute_pass_only_for_the_flagged_type(self):
        result = repro.transform(repro.parse_forest(ATTRIBUTE_DOC), GUARD)
        result.xml()
        attribute = result.compiled_render.sources["text"]
        result = repro.transform(repro.parse_forest(ELEMENT_DOC), GUARD)
        result.xml()
        plain = result.compiled_render.sources["text"]
        assert "_quote" in attribute and "_e = False" in attribute
        for needle in ("_quote", "_discard", "_e = ", "_z", ".attributes"):
            assert needle not in plain
        assert len(plain) < len(attribute)


class TestDeeperThanInlineLevels:
    def test_attribute_free_helpers(self, tmp_path):
        depth = engine_compile._INLINE_LEVELS + 4
        document = "".join(
            f"<l{level}><v{level}>{level}</v{level}>" for level in range(depth)
        ) + "".join(f"</l{level}>" for level in reversed(range(depth)))
        guard = "MORPH " + "".join(f"l{level} [ v{level} " for level in range(depth)) + "]" * depth
        result = repro.transform(repro.parse_forest(document), guard)
        xml = result.xml()
        source = result.compiled_render.sources["text"]
        assert "def _h" in source and "_discard" not in source
        assert xml == expected_xml(document, guard)
        assert result.xml_json() == json.dumps(xml)[1:-1]
        with Database(str(tmp_path / "deep.db"), durable=False) as db:
            db.store_document("doc", document)
            assert db.transform("doc", guard).xml() == xml
