"""The one parity suite: three routes to the same output.

``reference_render()`` in :mod:`tests.engine.oracle` is the reference.
The compiled emitter (:mod:`repro.engine.compile`) is specified against it:
its **tree sink** builds the very forest the reference builds — names,
text, Dewey numbers, provenance, every counter — and its **text sink**
writes exactly ``serialize()`` of that forest without building it.
:func:`assert_parity` is that specification as one assertion; every
parity test in the repository (``test_compile``, ``test_stream``, the
golden corpus, the pipeline tests, the Hypothesis property) feeds it
inputs.

Inputs here: the ``examples/guards/`` corpus, the workload generators,
the special shape types (RESTRICT, NEW wrapper, both TYPE-FILL
placeholder forms), and the documents the retired streaming renderer
got wrong — an attribute and a child element sharing one type.
"""

import io
import os
from unittest import mock

import pytest

import repro
from repro.closeness import DocumentIndex
from repro.engine.compile import CompiledRender
from repro.shape.cardinality import Card
from repro.shape.shape import Shape
from repro.shape.types import ShapeType
from repro.storage import Database
from repro.storage.tables import INLINE_TEXT, MAX_DEPTH
from repro.workloads import generate_dblp, generate_xmark
from repro.xmltree.parser import MAX_NESTING
from repro.xmltree.serializer import escape_attr, escape_text, serialize

from tests.engine.oracle import reference_render

GUARD_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "guards")


def corpus_guards() -> list[str]:
    guards = []
    for entry in sorted(os.listdir(GUARD_DIR)):
        if not entry.endswith(".guard"):
            continue
        with open(os.path.join(GUARD_DIR, entry), encoding="utf-8") as handle:
            text = " ".join(
                line.strip()
                for line in handle
                if line.strip() and not line.lstrip().startswith("#")
            )
        guards.append(text)
    return guards


def named_rows(shape, rows_by_type):
    """rows_by_type re-keyed by out_name (id() keys differ per shape)."""
    named: dict[str, int] = {}

    def visit(vertex):
        if id(vertex) in rows_by_type:
            named[vertex.out_name] = named.get(vertex.out_name, 0) + rows_by_type[
                id(vertex)
            ]
        for child in shape.children(vertex):
            visit(child)

    for root in shape.roots():
        visit(root)
    return named


def dewey_walk(forest):
    """(name, text, dewey) in document order — the tree sink's inline
    numbering must equal the reference's renumber() pass exactly."""
    out = []

    def visit(node):
        out.append((node.name, node.text, str(node.dewey)))
        for child in node.children:
            visit(child)

    for root in forest.roots:
        visit(root)
    return out


def assert_shape_parity(shape, index):
    """``reference_render(shape, index)`` against both sinks of the emitter.

    Returns ``(reference RenderResult, tree RenderResult, text,
    StreamStats)`` for callers with more to say about them.
    """
    reference = reference_render(shape, index)
    emitter = CompiledRender(shape, index)
    tree = emitter.run(index)
    sink = io.StringIO()
    stats = emitter.write(index, sink)
    text = sink.getvalue()

    expected = serialize(reference.forest)
    assert serialize(tree.forest) == expected
    assert text == expected, f"text sink diverges:\ntree: {expected}\ntext: {text}"
    assert stats.nodes_written == tree.nodes_written
    assert stats.characters == len(text)
    assert stats.joins == tree.joins

    assert dewey_walk(tree.forest) == dewey_walk(reference.forest)
    assert len(tree.provenance) == len(reference.provenance)
    assert tree.nodes_written == reference.nodes_written
    assert tree.nodes_read == reference.nodes_read
    assert tree.joins == reference.joins
    assert named_rows(shape, tree.rows_by_type) == named_rows(
        shape, reference.rows_by_type
    )
    # No zero entries ever appear in rows_by_type (reference invariant).
    assert all(count > 0 for count in tree.rows_by_type.values())
    return reference, tree, text, stats


def assert_parity(forest, guard):
    """Compile ``guard`` over ``forest``; all three routes must agree,
    and the one-shot ``repro.transform(forest, guard).xml()`` is the
    text sink's answer, built without an output tree."""
    interpreter = repro.Interpreter(forest)
    compiled = interpreter.compile(guard)
    outcome = assert_shape_parity(compiled.target_shape, interpreter.index)
    text = outcome[2]  # serialize() of the oracle's forest
    with mock.patch.object(CompiledRender, "run", side_effect=AssertionError("tree built")):
        assert repro.transform(forest, guard).xml() == text
    return outcome


class TestGuardCorpusParity:
    """Every shipped example guard, over its shipped example document."""

    @pytest.fixture(scope="class")
    def books(self):
        with open(os.path.join(GUARD_DIR, "books.xml"), encoding="utf-8") as handle:
            return repro.parse_forest(handle.read())

    @pytest.mark.parametrize("guard", corpus_guards())
    def test_corpus_guard(self, books, guard):
        assert_parity(books, guard)


class TestWorkloadParity:
    """Generated workloads with the cache-relevant guard families."""

    DBLP_GUARDS = [
        "CAST MORPH author [ title [ year ] ]",
        "CAST MORPH dblp [ author [ title [ year [ pages ] url ] ] ]",
        "CAST MORPH (RESTRICT year [ ee ])",
        "CAST MORPH (RESTRICT article [ ee crossref ])",
        "CAST (MUTATE (NEW record) [ author title ])",
        "CAST (TYPE-FILL MORPH article [ title isbn ])",
    ]

    @pytest.fixture(scope="class")
    def dblp(self):
        return generate_dblp(80)

    @pytest.mark.parametrize("guard", DBLP_GUARDS)
    def test_dblp(self, dblp, guard):
        assert_parity(dblp, guard)

    def test_xmark(self):
        forest = generate_xmark(0.02)
        assert_parity(forest, "CAST MORPH item [ name ]")


class TestDeeperThanTheStore:
    def test_an_index_in_memory_has_no_depth_limit_but_the_parsers(self):
        """Deeper than a stored label holds (``XM560``) and within the
        parser's limit: the walk that builds the index refuses nothing;
        only the shredder's encoding does."""
        depth = (MAX_DEPTH + MAX_NESTING) // 2
        forest = repro.parse_forest("<n>" * depth + "<b>x</b><c>y</c>" + "</n>" * depth)
        _reference, _tree, text, _stats = assert_parity(forest, "CAST MORPH b [ c ]")
        assert text == "<b>x<c>y</c></b>"


class TestSpecialTypesParity:
    def test_restrict(self, fig1a):
        assert_parity(fig1a, "CAST MORPH (RESTRICT name [ author ])")

    def test_new_wrapper(self, fig1a):
        assert_parity(fig1a, "CAST (MUTATE (NEW scribe) [ author ])")

    def test_type_fill_missing_label(self, fig1a):
        # TYPE-FILL invents an unbacked placeholder (source is None).
        assert_parity(fig1a, "CAST (TYPE-FILL MORPH author [ name isbn ])")

    def test_type_fill_source_backed_empty_sequence(self):
        """A synthesized type *with* a source whose node sequence is
        empty must render one placeholder per parent on every route.
        Such types arise when a compiled shape is evaluated against an
        index where the backing label has no instances (e.g. a
        shape-identical document missing the optional label).
        """
        forest = repro.parse_forest("<data><a><b>x</b></a><a><b>y</b></a></data>")
        index = DocumentIndex(forest)
        phantom = index.type_table.intern(("data", "a", "phantom"))
        assert index.nodes_of(phantom) == []

        by_name = {t.dotted: t for t in index.types()}
        shape = Shape()
        root = ShapeType.for_source(by_name["data.a"])
        placeholder = ShapeType(
            source=phantom, out_name="phantom", synthesized=True
        )
        child = ShapeType.for_source(by_name["data.a.b"])
        shape.add_type(root)
        shape.add_type(placeholder)
        shape.add_type(child)
        shape.add_edge(root, placeholder, Card(1, 1))
        shape.add_edge(root, child, Card(0, None))

        _reference, _tree, text, _stats = assert_shape_parity(shape, index)
        # And the placeholders genuinely appear, once per parent instance.
        assert text.count("<phantom/>") == 2


class TestNodeKindParity:
    """Attribute or element is a property of each source *node*: an
    attribute and a child element can share one type, and a copied
    attribute can sit anywhere in the target shape."""

    MIXED = [
        # (document, guard, what serialize() of the reference gives)
        (
            '<r><a id="1"><id>2</id></a><a><id>3</id></a></r>',
            "MORPH a [ id ]",
            '<a id="1"><id>2</id></a>\n<a><id>3</id></a>',
        ),
        (
            '<r><a><id>2</id></a><a id="7"/></r>',
            "CAST MORPH r [ id ]",
            '<r id="7"><id>2</id></r>',
        ),
        # An attribute as root is written as an element; under a parent,
        # as an attribute whose own subtree is counted but never written.
        (
            '<r><a id="1"><b>x</b></a><a id="2"><b>y</b></a></r>',
            "CAST MORPH id [ b ]",
            "<id>1<b>x</b></id>\n<id>2<b>y</b></id>",
        ),
        (
            '<r><a id="1"><b>x</b></a><a id="2"><b>y</b></a></r>',
            "CAST MORPH a [ id [ b ] ]",
            '<a id="1"/>\n<a id="2"/>',
        ),
        (
            '<r><a t="&lt;&quot;&amp;">1 &lt; 2 &amp; 3 &gt; 2 "q"</a></r>',
            "MORPH r [ a [ t ] ]",
            '<r><a t="&lt;&quot;&amp;">1 &lt; 2 &amp; 3 &gt; 2 "q"</a></r>',
        ),
        # A root attribute is element text: its quote stays raw, as a
        # leaf and with element children ...
        (
            "<r><a id='say \"hi\" &amp; bye'/></r>",
            "CAST MORPH id",
            '<id>say "hi" &amp; bye</id>',
        ),
        (
            "<r><a id='say \"hi\" &amp; bye'><b>x</b></a></r>",
            "CAST MORPH id [ b ]",
            '<id>say "hi" &amp; bye<b>x</b></id>',
        ),
        # ... and the same value as an attribute child is quoted.
        (
            "<r><a id='say \"hi\" &amp; bye'/></r>",
            "MORPH a [ id ]",
            '<a id="say &quot;hi&quot; &amp; bye"/>',
        ),
    ]

    @pytest.mark.parametrize("document, guard, expected", MIXED)
    def test_mixed_kinds(self, document, guard, expected):
        _reference, _tree, text, _stats = assert_parity(
            repro.parse_forest(document), guard
        )
        assert text == expected

    def test_stored_overflow_markup(self, tmp_path):
        """An overflowed value is read back from its ``V`` chunks before
        the sequence's escaped column is built, so its markup is escaped
        like any inline value's."""
        long_text = "a<b & c " * (INLINE_TEXT // 4)
        document = (
            f'<r><a t="{escape_attr(long_text)}"><b>{escape_text(long_text)}</b>'
            "<b>1 &lt; 2</b></a></r>"
        )
        guard = "MORPH a [ b t ]"
        with Database(str(tmp_path / "markup.db"), durable=False) as db:
            db.store_document("doc", document)
            index = db.index("doc")
            shape = db.transform("doc", guard).target_shape
            _reference, _tree, text, _stats = assert_shape_parity(shape, index)
            assert escape_text(long_text) in text
            assert db.transform("doc", guard).xml() == text

    def test_shape_deeper_than_python_nests_blocks(self):
        """40 levels: past CPython's 20 nested blocks and 100 indents,
        so the generator must have split the loops into helpers."""
        depth = 40
        names = [f"n{level}" for level in range(depth)]
        document = "".join(f'<{name} k="{name}">' for name in names) + "leaf"
        document += "".join(f"</{name}>" for name in reversed(names))
        guard = "MORPH " + " [ ".join(names) + " ]" * (depth - 1)
        _reference, tree, text, _stats = assert_parity(
            repro.parse_forest(f"<r>{document}{document}</r>"), guard
        )
        assert tree.nodes_written == 2 * depth
        assert text.count("leaf") == 2
